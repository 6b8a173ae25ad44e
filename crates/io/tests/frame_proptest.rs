//! Property tests for the `F2WS` v2 frame stream: arbitrary frame sequences round
//! trip exactly (through the RLE compressor when it engages), every truncation
//! errors, and every single-bit flip is caught by the frame checksums.

use f2_io::{Frame, FrameReader, FrameSink, IoResult};
use proptest::collection::vec;
use proptest::prelude::*;

/// Payloads as concatenated `(byte, run length)` segments: short segments make
/// noise, long ones make the runs the RLE compressor targets.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    vec((0u8..=255, 0usize..48), 0..12).prop_map(|segments| {
        segments.into_iter().flat_map(|(b, n)| std::iter::repeat_n(b, n)).collect()
    })
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
