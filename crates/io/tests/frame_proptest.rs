//! Property tests for the `F2WS` v2 frame stream: arbitrary frame sequences round
//! trip exactly (through the RLE compressor when it engages), every truncation
//! errors, and every single-bit flip is caught by the frame checksums. The
//! word-at-a-time CRC-32 and RLE kernels are checked against plain bytewise
//! reference implementations, kept below as oracles, and so is every frame a
//! sink builds in the one buffer it reuses.

use f2_io::frame::{rle_compress, rle_decompress};
use f2_io::{crc32, Frame, FrameReader, FrameSink, IoResult};
use proptest::collection::vec;
use proptest::prelude::*;

/// Payloads as concatenated `(byte, run length)` segments: short segments make
/// noise, long ones make the runs the RLE compressor targets.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    vec((0u8..=255, 0usize..48), 0..12).prop_map(|segments| {
        segments.into_iter().flat_map(|(b, n)| std::iter::repeat_n(b, n)).collect()
    })
}

/// Oracle: the bytewise table-driven CRC-32 (reflected polynomial `0xEDB88320`).
fn reference_crc32(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
        *slot = crc;
    }
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

fn reference_put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Oracle: the bytewise varint-RLE compressor, which measures the run at every
/// maximal-run start and checks the output length after every run token.
fn reference_rle_compress(raw: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(raw.len() / 2);
    let mut literal_start = 0usize;
    let mut i = 0usize;
    let flush_literals = |out: &mut Vec<u8>, start: usize, end: usize| {
        if let Some(chunk) = raw.get(start..end) {
            if !chunk.is_empty() {
                reference_put_varint(out, (chunk.len() as u64) << 1);
                out.extend_from_slice(chunk);
            }
        }
    };
    while let Some(&b) = raw.get(i) {
        let run = 1 + raw.iter().skip(i + 1).take_while(|&&x| x == b).count();
        if run >= 4 {
            flush_literals(&mut out, literal_start, i);
            reference_put_varint(&mut out, ((run as u64) << 1) | 1);
            out.push(b);
            i += run;
            literal_start = i;
        } else {
            i += run;
        }
        if out.len() >= raw.len() {
            return None;
        }
    }
    flush_literals(&mut out, literal_start, raw.len());
    (out.len() < raw.len()).then_some(out)
}

/// `rle_compress` agrees with the oracle token for token, and what it keeps
/// decompresses back to `raw`.
fn assert_rle_matches_reference(raw: &[u8]) {
    let packed = rle_compress(raw);
    assert_eq!(packed, reference_rle_compress(raw), "payload {raw:?}");
    if let Some(packed) = packed {
        assert_eq!(rle_decompress(&packed, raw.len()).expect("own tokens decode"), raw);
    }
}

/// `n` bytes with no two neighbours equal, so they contain no run at all.
fn noise(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 7 + 1) as u8).collect()
}

/// A payload whose compression gives up on its last token, a literal one: the
/// literal token of 5 bytes (6) and the 4-run (2) fit in the 16 bytes, and the
/// closing literal token of 7 bytes (8) makes the tokens exactly as long.
fn abandoned_on_last_literal() -> Vec<u8> {
    [noise(5), vec![0u8; 4], noise(7)].concat()
}

/// A payload whose compression gives up on its last token, a run one: the
/// 64-byte literal token costs 66 bytes, and the closing 4-run (2) makes the
/// tokens exactly as long as the 68-byte payload.
fn abandoned_on_last_run() -> Vec<u8> {
    [noise(64), vec![0u8; 4]].concat()
}

/// The frame a writer built from scratch holds for `payload`: the oracle's RLE
/// tokens when they are shorter, the payload otherwise, behind the header fields
/// and the bytewise CRC-32 over those fields and the wire bytes.
fn reference_frame(frame_type: u8, payload: &[u8]) -> Vec<u8> {
    let (flags, wire) = match reference_rle_compress(payload) {
        Some(packed) => (1u8, packed),
        None => (0u8, payload.to_vec()),
    };
    let mut frame = vec![frame_type, flags];
    frame.extend_from_slice(&(wire.len() as u32).to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = reference_crc32(&[frame.as_slice(), &wire].concat());
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(&wire);
    frame
}

/// The stream of `frames` built frame by frame from the oracles: the preamble,
/// each frame, and the empty end frame.
fn reference_stream(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut stream = b"F2WS\x02\x00\x05".to_vec();
    for (frame_type, payload) in frames {
        stream.extend_from_slice(&reference_frame(*frame_type, payload));
    }
    stream.extend_from_slice(&reference_frame(0, &[]));
    stream
}

/// One payload of a sequence written through one sink: short runs and noise,
/// long runs, long random bytes, a payload abandoned on its last token, or the
/// empty payload.
fn mixed_payload() -> impl Strategy<Value = Vec<u8>> {
    let long_runs = vec((0u8..=255, 100usize..1500), 1..6);
    (0u8..6, payload(), long_runs, vec(0u8..=255, 0..6000)).prop_map(
        |(kind, short, long_runs, random)| match kind {
            0 => short,
            1 => long_runs.into_iter().flat_map(|(b, n)| std::iter::repeat_n(b, n)).collect(),
            2 => random,
            3 => abandoned_on_last_literal(),
            4 => abandoned_on_last_run(),
            _ => Vec::new(),
        },
    )
}

#[test]
fn crc32_matches_the_bytewise_reference_at_every_length_and_offset() {
    let bytes: Vec<u8> = (0..72u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
    for start in 0..8 {
        for len in 0..=64 {
            let slice = &bytes[start..start + len];
            assert_eq!(crc32(slice), reference_crc32(slice), "start {start}, len {len}");
        }
    }
}

/// Inputs of 8 KiB or more run as four interleaved 2 KiB lanes per 8 KiB block,
/// the rest one word at a time: lengths just around one, two and three blocks,
/// from every start offset within a word, agree with the bytewise reference.
#[test]
fn crc32_matches_the_bytewise_reference_across_four_lane_blocks() {
    const BLOCK: usize = 8192;
    let bytes: Vec<u8> =
        (0..3 * BLOCK as u32 + 80).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
    for start in 0..8 {
        for blocks in 1..=3 {
            for len in (blocks * BLOCK - 9)..=(blocks * BLOCK + 9) {
                let slice = &bytes[start..start + len];
                assert_eq!(crc32(slice), reference_crc32(slice), "start {start}, len {len}");
            }
        }
    }
}

/// A frame's checksum runs over its ten header bytes and then its wire payload,
/// so a payload of a block or more has its four-lane blocks start ten bytes into
/// the checksummed bytes: the split falls inside the first block.
#[test]
fn stored_checksums_of_multi_block_frames_match_the_bytewise_reference() {
    for len in [8191, 8192, 8193, 8192 * 2 + 3, 8192 * 3 - 10] {
        let bytes = noise(len);
        let stream = write_stream(&[(1, bytes.clone())]);
        let frame = &stream[7..];
        let wire_len = u32::from_le_bytes(frame[2..6].try_into().unwrap()) as usize;
        assert_eq!(wire_len, len, "noise stays raw");
        let stored = u32::from_le_bytes(frame[10..14].try_into().unwrap());
        let covered = [&frame[..10], &frame[14..14 + wire_len]].concat();
        assert_eq!(stored, reference_crc32(&covered), "len {len}");
        let read = read_stream(&stream).expect("own stream reads");
        assert_eq!(read[0].payload, bytes);
    }
}

#[test]
fn rle_edge_cases_match_the_bytewise_reference() {
    let mut cases: Vec<Vec<u8>> = Vec::new();
    // Runs of exactly 3, 4 and 5 bytes at the start, middle and end of noise.
    for run in 3..=5 {
        let run = vec![0xAAu8; run];
        cases.push([run.clone(), noise(20)].concat());
        cases.push([noise(10), run.clone(), noise(10)].concat());
        cases.push([noise(20), run].concat());
    }
    // A 3-run straight into a 4-run of another byte, alone and inside noise.
    cases.push([vec![1u8; 3], vec![2u8; 4]].concat());
    cases.push([noise(6), vec![1u8; 3], vec![2u8; 4], noise(6)].concat());
    // One byte repeated, at lengths around the run threshold and beyond.
    for len in [1, 2, 3, 4, 5, 8, 9, 64, 200, 1000] {
        cases.push(vec![0x5Au8; len]);
    }
    for case in &cases {
        assert_rle_matches_reference(case);
    }

    // Tokens exactly as long as the input stay raw: a 4-run saves two bytes
    // and each literal token costs one, or two once it carries 64 bytes.
    let exact = [noise(5), vec![0u8; 4], noise(7)].concat();
    let exact_wide = [vec![0u8; 4], noise(64)].concat();
    for case in [&exact, &exact_wide] {
        assert_rle_matches_reference(case);
        assert_eq!(rle_compress(case), None, "{} bytes", case.len());
    }
    // One byte shorter on the wire than raw, and it compresses.
    let one_shorter = [vec![0u8; 4], noise(63)].concat();
    assert_rle_matches_reference(&one_shorter);
    assert_eq!(rle_compress(&one_shorter).map(|p| p.len()), Some(one_shorter.len() - 1));
}

/// One sink writes long then short, compressible then incompressible payloads,
/// payloads abandoned on their last token, and the empty payload, all through
/// the one frame buffer it keeps: every frame equals the frame built from
/// scratch, so no byte of an earlier, longer or compressed frame survives into
/// a later one.
#[test]
fn a_reused_frame_buffer_leaves_no_stale_bytes() {
    let payloads = [
        vec![0u8; 5000],
        noise(10),
        noise(6000),
        [vec![1u8; 40], noise(3)].concat(),
        abandoned_on_last_literal(),
        vec![7u8; 2000],
        abandoned_on_last_run(),
        Vec::new(),
        vec![0xEEu8; 3000],
        noise(1),
        // One byte shorter compressed than raw.
        [vec![0u8; 4], noise(63)].concat(),
    ];
    let compressed: Vec<bool> = payloads.iter().map(|p| rle_compress(p).is_some()).collect();
    assert_eq!(
        compressed,
        [true, false, false, true, false, true, false, false, true, false, true],
        "each payload takes the branch it is here for"
    );
    let frames: Vec<(u8, Vec<u8>)> = payloads.into_iter().map(|p| (2, p)).collect();
    assert_eq!(write_stream(&frames), reference_stream(&frames));
    // The oracle stream reads back to the payloads, so it is a stream at all.
    let read = read_stream(&reference_stream(&frames)).expect("oracle stream reads");
    assert!(read.iter().zip(&frames).all(|(got, (_, payload))| &got.payload == payload));
}

fn write_stream(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut sink = FrameSink::new(Vec::new()).expect("sink opens");
    for (frame_type, payload) in frames {
        sink.write_frame(*frame_type, payload).expect("frame writes");
    }
    sink.finish().expect("stream finishes").0
}

fn read_stream(bytes: &[u8]) -> IoResult<Vec<Frame>> {
    let mut reader = FrameReader::new(bytes)?;
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_frame()? {
        frames.push(frame);
    }
    Ok(frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crc32_matches_the_bytewise_reference(bytes in payload()) {
        prop_assert_eq!(crc32(&bytes), reference_crc32(&bytes));
    }

    #[test]
    fn rle_compress_matches_the_bytewise_reference(bytes in payload()) {
        let packed = rle_compress(&bytes);
        prop_assert_eq!(&packed, &reference_rle_compress(&bytes));
        if let Some(packed) = packed {
            prop_assert_eq!(rle_decompress(&packed, bytes.len()).expect("own tokens decode"), bytes);
        }
    }

    #[test]
    fn stored_frame_checksums_match_the_bytewise_reference(bytes in payload()) {
        // Each frame's stored CRC covers its ten header bytes before the
        // checksum, then its wire payload.
        let stream = write_stream(&[(1, bytes)]);
        let mut rest = &stream[7..];
        for _ in 0..2 {
            let wire_len = u32::from_le_bytes(rest[2..6].try_into().unwrap()) as usize;
            let stored = u32::from_le_bytes(rest[10..14].try_into().unwrap());
            let covered = [&rest[..10], &rest[14..14 + wire_len]].concat();
            prop_assert_eq!(stored, reference_crc32(&covered));
            rest = &rest[14 + wire_len..];
        }
        prop_assert!(rest.is_empty());
    }

    #[test]
    fn one_sink_writes_every_frame_as_built_from_scratch(
        frames in vec((1u8..=255, mixed_payload()), 1..10),
    ) {
        prop_assert_eq!(write_stream(&frames), reference_stream(&frames));
    }

    #[test]
    fn frame_sequences_roundtrip_exactly(
        frames in vec((1u8..=255, payload()), 0..8),
    ) {
        let stream = write_stream(&frames);
        let read = read_stream(&stream).expect("own stream reads");
        prop_assert_eq!(read.len(), frames.len());
        for (got, (frame_type, payload)) in read.iter().zip(&frames) {
            prop_assert_eq!(got.frame_type, *frame_type);
            prop_assert_eq!(&got.payload, payload);
        }
    }

    #[test]
    fn truncations_error_not_panic(
        frames in vec((1u8..=255, payload()), 1..5),
        cut_per_mille in 0u64..1000,
    ) {
        let stream = write_stream(&frames);
        let cut = (stream.len() as u64 * cut_per_mille / 1000) as usize;
        // Every strict prefix is missing at least the end frame.
        prop_assert!(read_stream(&stream[..cut]).is_err());
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_reader(bytes in vec(0u8..=255, 0..512)) {
        // Byte soup must surface as an `IoError`, never a panic.
        let _ = read_stream(&bytes);
    }

    #[test]
    fn garbage_after_a_valid_preamble_errors_not_panics(bytes in vec(0u8..=255, 0..256)) {
        // Get past the magic/version checks so the garbage lands on the frame
        // header and payload parsing itself.
        let mut stream = write_stream(&[]);
        stream.truncate(7);
        stream.extend_from_slice(&bytes);
        let _ = read_stream(&stream);
    }

    #[test]
    fn single_bit_flips_are_always_detected(
        frames in vec((1u8..=255, payload()), 1..4),
        position_per_mille in 0u64..1000,
        bit in 0u32..8,
    ) {
        let stream = write_stream(&frames);
        let at = ((stream.len() as u64 - 1) * position_per_mille / 999) as usize;
        let mut corrupt = stream.clone();
        corrupt[at] ^= 1u8 << bit;
        // Detection can surface as any IoError (checksum, truncation, cap, magic);
        // what may never happen is a clean read of different bytes.
        prop_assert!(
            read_stream(&corrupt).is_err(),
            "flip at {} bit {} went undetected",
            at,
            bit
        );
    }
}
