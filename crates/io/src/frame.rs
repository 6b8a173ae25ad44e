//! The `F2WS` **v2 stream format**: checksummed, optionally compressed frames
//! written and read incrementally.
//!
//! lint: untrusted-input — this module parses attacker-controllable bytes; the
//! panic-freedom rules (`no-unwrap`, `slice-index`, …) are enforced by `f2-lint`.
//!
//! Version 1 of `F2WS` (see [`crate::wire`]) is a *single blob* serialized in memory
//! and written at once — fine for owner states and one chunk's table, a dead end for
//! datasets larger than RAM. Version 2 is the on-disk format of encrypted datasets:
//! it keeps the same 7-byte preamble (`F2WS` magic, little-endian `u16` version,
//! kind tag), but the payload is a **sequence of frames**, each independently
//! checksummed and sized, so a producer can append frames as chunks finish and a
//! consumer can process them one at a time in constant memory:
//!
//! ```text
//! "F2WS" | u16 version = 2 | u8 kind = KIND_STREAM
//! frame*:  u8 type | u8 flags | u32 wire_len | u32 raw_len | u32 crc32 | payload
//! end:     one frame with type = FRAME_END and an empty payload
//! ```
//!
//! * **Checksums.** `crc32` (IEEE) over the frame header (type, flags, lengths)
//!   *and* the wire payload, so a flipped bit anywhere in a frame surfaces as an
//!   [`IoError`] — never a panic, never silently wrong data (a corrupted length may
//!   surface as a truncation or cap error before the checksum is even computed).
//! * **Compression.** Frames whose payload shrinks under the varint-RLE byte
//!   compressor ([`rle_compress`]) are stored compressed (`FLAG_RLE`); incompressible
//!   payloads are stored raw, so the worst case costs nothing but the flag bit.
//!   A [`FrameSink`] writes the RLE tokens straight behind the frame's header, in
//!   the one frame buffer it keeps, and copies the raw payload there instead once
//!   a token would keep them from coming out shorter: each frame is built in
//!   place and written with one call, and no buffer is allocated once the sink
//!   has written its largest frame.
//! * **Bounded allocation.** Both `wire_len` and `raw_len` are validated against
//!   [`MAX_FRAME_BYTES`] before any buffer is sized, so a corrupted length errors
//!   instead of attempting a multi-gigabyte allocation.
//! * **One shape.** A sink sets no flag bit but `FLAG_RLE`, writes the end frame
//!   empty, and compresses only when that makes the payload strictly shorter;
//!   [`FrameReader::next_frame`] refuses a checksum-valid frame of any other
//!   shape, and [`FrameReader::recover`] skips it, by the same rule.
//! * **Cost.** Writing a frame makes one skip-ahead RLE pass over the payload
//!   (two unequal neighbours rule out a run at three start positions at once, so
//!   incompressible bytes are passed over three at a time) and one slicing-by-8
//!   CRC-32 pass over the header and the wire bytes (eight table lookups per
//!   8-byte word). The CRC runs each 8 KiB block as four interleaved 2 KiB lanes,
//!   whose independent lookup chains overlap, and folds the lanes together with a
//!   GF(2) multiply; shorter inputs and tails take one lane. Reading makes the CRC
//!   pass, plus one decompression for a compressed frame. How the passes run is
//!   not part of the format: a frame's bytes are fixed by its type and payload,
//!   and `tests/frame_proptest.rs` pins both kernels to bytewise reference
//!   implementations.
//!
//! What the frames *mean* (header / chunk / trailer layout) is defined by the
//! producer — the streaming engine (`f2_engine::stream`) for encrypted outcomes.
//! This module only guarantees transport integrity.

use crate::error::{IoError, IoResult};
use crate::wire::MAGIC;
use std::io::{Read, Write};
use std::sync::OnceLock;

/// `F2WS` format version of framed streams (version 1 is the single-blob format).
pub const STREAM_VERSION: u16 = 2;

/// Kind tag of a framed stream (the v1 kind tags 1–4 identify single blobs; 4,
/// the retired whole-outcome blob, stays reserved).
pub const KIND_STREAM: u8 = 5;

/// Frame type closing a stream. All other type values are producer-defined.
pub const FRAME_END: u8 = 0;

/// Hard upper bound on a single frame's payload (wire or raw), validated before any
/// allocation: frames hold one chunk of a dataset, and a chunk of this size means a
/// corrupted length field, not data.
pub const MAX_FRAME_BYTES: usize = 1 << 28; // 256 MiB

/// Frame flag bit: the payload is varint-RLE compressed.
pub(crate) const FLAG_RLE: u8 = 1;

/// Bytes of the fixed per-frame header (type, flags, wire_len, raw_len, crc32).
pub(crate) const FRAME_HEADER_BYTES: usize = 1 + 1 + 4 + 4 + 4;

// ── CRC32 ──────────────────────────────────────────────────────────────────────────

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Bytes of one lane of the four-lane loop: a block is four lanes.
const CRC_LANE: usize = 2048;

/// The slicing-by-8 tables and the lane shift. `tables[0]` is the classic
/// bytewise table of [`CRC_POLY`], and `tables[k]` advances each of its entries
/// over `k` further zero bytes, so eight lookups fold one little-endian 8-byte
/// word into the CRC state at once. `lane_shift` is x^(8·CRC_LANE) mod P: a
/// state multiplied by it has passed over one lane of zero bytes.
struct CrcTables {
    tables: [[u32; 256]; 8],
    lane_shift: u32,
}

fn crc_tables() -> &'static CrcTables {
    static TABLES: OnceLock<CrcTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut base = [0u32; 256];
        for (byte, slot) in (0u8..=255).zip(&mut base) {
            let mut crc = u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ CRC_POLY } else { crc >> 1 };
            }
            *slot = crc;
        }
        let mut tables = [base; 8];
        let mut prev = base;
        for table in tables.iter_mut().skip(1) {
            for (slot, &entry) in table.iter_mut().zip(&prev) {
                let [low, ..] = entry.to_le_bytes();
                *slot = (entry >> 8) ^ lookup(&base, low);
            }
            prev = *table;
        }
        // The polynomial 1 (bit 31 in reflected order), carried over one lane of
        // zero bytes.
        let mut lane_shift = 1 << 31;
        for _ in 0..CRC_LANE {
            let [low, ..] = u32::to_le_bytes(lane_shift);
            lane_shift = (lane_shift >> 8) ^ lookup(&base, low);
        }
        CrcTables { tables, lane_shift }
    })
}

/// Entry `index` of a 256-entry table: a `u8` index is always in range.
fn lookup(table: &[u32; 256], index: u8) -> u32 {
    table.get(usize::from(index)).copied().unwrap_or(0)
}

/// `a · b mod P` for polynomials in reflected bit order (bit 31 holds x⁰).
fn gf2_mul_mod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    for bit in (0..32).rev() {
        if a & (1 << bit) != 0 {
            product ^= b;
        }
        // b ← b · x mod P
        b = if b & 1 != 0 { (b >> 1) ^ CRC_POLY } else { b >> 1 };
    }
    product
}

/// One slicing-by-8 step: fold `word` into the raw CRC state `crc`.
#[inline(always)]
fn crc32_word(tables: &[[u32; 256]; 8], crc: u32, word: [u8; 8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = tables;
    let [b0, b1, b2, b3, b4, b5, b6, b7] = word;
    let [c0, c1, c2, c3] = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
    lookup(t7, c0)
        ^ lookup(t6, c1)
        ^ lookup(t5, c2)
        ^ lookup(t4, c3)
        ^ lookup(t3, b4)
        ^ lookup(t2, b5)
        ^ lookup(t1, b6)
        ^ lookup(t0, b7)
}

/// Fold `bytes` into a raw (pre-inversion) CRC-32 state. Each 8 KiB block runs
/// as four 2 KiB lanes side by side, so four independent slicing-by-8 chains
/// overlap their table loads: lane 0 continues the state, lanes 1–3 start from
/// zero, and since the raw CRC is linear, the lanes fold back in order as
/// `state · x^(8·CRC_LANE) ⊕ lane`. What is left after the last block, and any
/// input shorter than one, runs through the one-chain loop.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let CrcTables { tables, lane_shift } = crc_tables();
    let (lanes, tail) = bytes.as_chunks::<CRC_LANE>();
    let (blocks, last_lanes) = lanes.as_chunks::<4>();
    for [l0, l1, l2, l3] in blocks {
        let mut states = [crc, 0, 0, 0];
        for (((w0, w1), w2), w3) in
            lane_words(l0).zip(lane_words(l1)).zip(lane_words(l2)).zip(lane_words(l3))
        {
            let [s0, s1, s2, s3] = states;
            states = [
                crc32_word(tables, s0, w0),
                crc32_word(tables, s1, w1),
                crc32_word(tables, s2, w2),
                crc32_word(tables, s3, w3),
            ];
        }
        let [s0, s1, s2, s3] = states;
        let shift = |state| gf2_mul_mod(state, *lane_shift);
        crc = shift(shift(shift(s0) ^ s1) ^ s2) ^ s3;
    }
    for lane in last_lanes {
        crc = crc32_serial(tables, crc, lane);
    }
    crc32_serial(tables, crc, tail)
}

/// The words of one lane, in order.
fn lane_words(lane: &[u8; CRC_LANE]) -> impl Iterator<Item = [u8; 8]> + '_ {
    lane.as_chunks::<8>().0.iter().copied()
}

/// [`crc32_update`]'s one-chain loop: eight bytes per step through the
/// slicing-by-8 tables, then the tail one byte at a time.
fn crc32_serial(tables: &[[u32; 256]; 8], mut crc: u32, bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    for &word in words {
        crc = crc32_word(tables, crc, word);
    }
    let [t0, ..] = tables;
    for &b in tail {
        let [low, ..] = crc.to_le_bytes();
        crc = (crc >> 8) ^ lookup(t0, low ^ b);
    }
    crc
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// The checksum stored in a frame: CRC-32 over the header bytes before the checksum
/// field, continued over the wire payload (no concatenation buffer needed).
pub(crate) fn frame_crc(header_prefix: &[u8], wire: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, header_prefix), wire)
}

/// Widen a header-declared `u32` length to `usize` (fallible only on 16-bit targets).
fn decoded_len(v: u32) -> IoResult<usize> {
    usize::try_from(v)
        .map_err(|_| IoError::Malformed("frame length exceeds the platform word size".into()))
}

/// Why no [`FrameSink`] writes a frame header with these fields, or `None` when
/// one could: it sets no flag bit but [`FLAG_RLE`], an end frame is empty, a raw
/// frame's wire and raw lengths agree, and a compressed frame is strictly shorter
/// on the wire than raw. The one shape rule of both readers:
/// [`FrameReader::next_frame`] refuses a checksum-valid frame that breaks it, and
/// [`FrameReader::recover`] skips a candidate that breaks it before computing
/// any CRC. (Length caps are checked separately, before anything is allocated.)
pub(crate) fn header_flaw(
    frame_type: u8,
    flags: u8,
    wire_len: usize,
    raw_len: usize,
) -> Option<&'static str> {
    if flags & !FLAG_RLE != 0 {
        Some("frame sets flag bits no writer sets")
    } else if frame_type == FRAME_END && (wire_len != 0 || raw_len != 0) {
        Some("end frame carries a payload")
    } else if flags & FLAG_RLE == 0 && wire_len != raw_len {
        Some("uncompressed frame declares a different raw length")
    } else if flags & FLAG_RLE != 0 && wire_len >= raw_len {
        Some("compressed frame is no shorter than its raw length")
    } else {
        None
    }
}

// ── varint-RLE compression ─────────────────────────────────────────────────────────

/// Append a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        // lint: allow(truncating-cast) — value masked to 7 bits first
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint, advancing `pos`. `None` on truncation or overflow.
fn take_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// Bytes [`put_varint`] writes for `v`.
fn varint_len(mut v: u64) -> usize {
    let mut len = 1;
    while v >= 0x80 {
        v >>= 7;
        len += 1;
    }
    len
}

/// Shortest run worth a run token (a run token costs ≥ 2 bytes).
const MIN_RUN: usize = 4;

/// Start and byte of the first run of [`MIN_RUN`] equal bytes at or after `at`.
///
/// Skip-ahead: a run starting at `at`, `at + 1` or `at + 2` must contain bytes
/// `at + 2` and `at + 3`, so when those differ the search moves on three bytes;
/// likewise two when bytes `at + 1` and `at + 2` differ.
fn next_run(raw: &[u8], mut at: usize) -> Option<(usize, u8)> {
    while let Some(&[b0, b1, b2, b3]) = raw.get(at..).and_then(<[u8]>::first_chunk::<MIN_RUN>) {
        if b2 != b3 {
            at += 3;
        } else if b1 != b2 {
            at += 2;
        } else if b0 != b1 {
            at += 1;
        } else {
            return Some((at, b0));
        }
    }
    None
}

/// Bytes of a literal token carrying `literals` (none for an empty stretch).
fn literal_token_len(literals: &[u8]) -> usize {
    if literals.is_empty() {
        0
    } else {
        varint_len((literals.len() as u64) << 1) + literals.len()
    }
}

/// Append a literal token carrying `literals` (nothing for an empty stretch).
fn put_literals(out: &mut Vec<u8>, literals: &[u8]) {
    if !literals.is_empty() {
        put_varint(out, (literals.len() as u64) << 1);
        out.extend_from_slice(literals);
    }
}

/// Compress `raw` with the varint-RLE byte scheme: a token stream where each token
/// is a varint `t` — even `t` announces `t/2` literal bytes (following verbatim),
/// odd `t` announces `t/2` copies of the single following byte. Every maximal run
/// of at least four equal bytes becomes a run token, and the stretches between
/// runs become literal tokens. Returns `None` when the compressed form is not
/// strictly smaller (the caller stores raw).
///
/// The scheme targets the long zero/padding runs of fixed-width ciphertext frames
/// and length-prefixed table encodings; incompressible payloads cost nothing because
/// they are stored raw.
pub fn rle_compress(raw: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(raw.len());
    rle_compress_into(raw, &mut out).then_some(out)
}

/// Append [`rle_compress`]'s tokens for `raw` to `out` and say whether they came
/// out strictly shorter than `raw`. On `false` the compression was abandoned
/// part-way: `out` holds a prefix of the token stream past its old length, which
/// the caller discards.
fn rle_compress_into(raw: &[u8], out: &mut Vec<u8>) -> bool {
    // A useful output is shorter than `raw`, so it ends before `limit`; each
    // token is measured before it is written, and the first one that would not
    // fit settles the answer before any of its bytes are copied.
    let limit = out.len() + raw.len();
    let mut literal_start = 0usize;
    while let Some((start, byte)) = next_run(raw, literal_start) {
        let tail = raw.get(start..).unwrap_or(&[]);
        let run = tail.iter().position(|&b| b != byte).unwrap_or(tail.len());
        let literals = raw.get(literal_start..start).unwrap_or(&[]);
        let run_token = ((run as u64) << 1) | 1;
        if out.len() + literal_token_len(literals) + varint_len(run_token) + 1 >= limit {
            return false;
        }
        put_literals(out, literals);
        put_varint(out, run_token);
        out.push(byte);
        literal_start = start + run;
    }
    let literals = raw.get(literal_start..).unwrap_or(&[]);
    if out.len() + literal_token_len(literals) >= limit {
        return false;
    }
    put_literals(out, literals);
    true
}

/// Decompress a [`rle_compress`] token stream, validating that it produces exactly
/// `raw_len` bytes.
pub fn rle_decompress(packed: &[u8], raw_len: usize) -> IoResult<Vec<u8>> {
    let malformed = |m: &str| IoError::Malformed(format!("RLE stream: {m}"));
    if raw_len > MAX_FRAME_BYTES {
        return Err(IoError::Oversized { declared: raw_len, cap: MAX_FRAME_BYTES });
    }
    let mut out = Vec::with_capacity(raw_len);
    let mut pos = 0usize;
    while pos < packed.len() {
        let token = take_varint(packed, &mut pos).ok_or_else(|| malformed("truncated token"))?;
        let len = usize::try_from(token >> 1).map_err(|_| malformed("oversized token"))?;
        if len > raw_len.saturating_sub(out.len()) {
            return Err(malformed("token runs past the declared raw length"));
        }
        if token & 1 == 1 {
            let byte = *packed.get(pos).ok_or_else(|| malformed("run without its byte"))?;
            pos += 1;
            out.resize(out.len() + len, byte);
        } else {
            let literals =
                packed.get(pos..pos + len).ok_or_else(|| malformed("truncated literals"))?;
            pos += len;
            out.extend_from_slice(literals);
        }
    }
    if out.len() != raw_len {
        return Err(malformed("stream ended short of the declared raw length"));
    }
    Ok(out)
}

// ── FrameSink ──────────────────────────────────────────────────────────────────────

/// Incremental writer of an `F2WS` v2 frame stream.
///
/// Construction writes the 7-byte preamble; every [`FrameSink::write_frame`] emits
/// exactly one frame with exactly one `write_all` call on the underlying writer (so
/// a frame is never partially interleaved with other writers of the same pipe), and
/// [`FrameSink::finish`] appends the [`FRAME_END`] terminator and flushes.
///
/// The sink keeps one frame buffer for its whole life: each frame is built in it
/// (header, then the wire payload) and written from it, so the buffer grows to the
/// largest frame written and is dropped with the sink at [`FrameSink::finish`].
#[derive(Debug)]
pub struct FrameSink<W: Write> {
    writer: W,
    /// The frame being built: [`FRAME_HEADER_BYTES`] header bytes, then the wire
    /// payload. Reused by every frame.
    frame: Vec<u8>,
    bytes_written: u64,
    frames: u64,
}

impl<W: Write> FrameSink<W> {
    /// Open a stream: writes the preamble.
    pub fn new(mut writer: W) -> IoResult<Self> {
        let [m0, m1, m2, m3] = MAGIC;
        let [v0, v1] = STREAM_VERSION.to_le_bytes();
        let preamble = [m0, m1, m2, m3, v0, v1, KIND_STREAM];
        writer.write_all(&preamble)?;
        Ok(FrameSink { writer, frame: Vec::new(), bytes_written: preamble.len() as u64, frames: 0 })
    }

    /// Reopen a sink mid-stream: `writer` must be positioned right after the last
    /// complete frame of a stream whose preamble was already written, and the
    /// counters pick up from `bytes_already` / `frames_already`. No preamble is
    /// emitted — this is the append constructor crash-safe resume
    /// (`f2_engine::Engine::resume_job`) builds on, so the resumed stream's
    /// byte totals match an uninterrupted run exactly.
    pub fn resume(writer: W, bytes_already: u64, frames_already: u64) -> Self {
        FrameSink {
            writer,
            frame: Vec::new(),
            bytes_written: bytes_already,
            frames: frames_already,
        }
    }

    /// Append one frame. `frame_type` must not be [`FRAME_END`] (that frame is
    /// written by [`FrameSink::finish`]); the payload is compressed when that helps.
    pub fn write_frame(&mut self, frame_type: u8, payload: &[u8]) -> IoResult<()> {
        if frame_type == FRAME_END {
            return Err(IoError::Malformed("FRAME_END is written by finish()".into()));
        }
        if payload.len() > MAX_FRAME_BYTES {
            return Err(IoError::Oversized { declared: payload.len(), cap: MAX_FRAME_BYTES });
        }
        self.start_frame();
        // Compressed tokens stay shorter than the payload, so one reservation
        // holds either form of the frame.
        self.frame.reserve(payload.len());
        let flags = if rle_compress_into(payload, &mut self.frame) {
            FLAG_RLE
        } else {
            self.frame.truncate(FRAME_HEADER_BYTES);
            self.frame.extend_from_slice(payload);
            0
        };
        self.emit(frame_type, flags, payload.len())
    }

    /// Close the stream: write the end frame, flush, and hand back the writer plus
    /// the total bytes written (preamble, every frame header, and the end frame).
    pub fn finish(mut self) -> IoResult<(W, u64)> {
        self.start_frame();
        self.emit(FRAME_END, 0, 0)?;
        self.writer.flush()?;
        Ok((self.writer, self.bytes_written))
    }

    /// Bytes written so far, preamble and frame headers included.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Frames written so far (the end frame counts once written).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Empty the frame buffer down to a zeroed header, keeping its capacity.
    fn start_frame(&mut self) {
        self.frame.clear();
        self.frame.resize(FRAME_HEADER_BYTES, 0);
    }

    /// Fill in the header of the frame built in the frame buffer — type, flags,
    /// lengths, and the checksum — and write the whole frame with one
    /// `write_all`.
    fn emit(&mut self, frame_type: u8, flags: u8, raw_len: usize) -> IoResult<()> {
        let encode_len = |len: usize| {
            u32::try_from(len)
                .map_err(|_| IoError::Oversized { declared: len, cap: MAX_FRAME_BYTES })
        };
        let Some((header, wire)) = self.frame.split_first_chunk_mut::<FRAME_HEADER_BYTES>() else {
            return Err(IoError::Malformed("frame buffer holds no header".into()));
        };
        let [w0, w1, w2, w3] = encode_len(wire.len())?.to_le_bytes();
        let [r0, r1, r2, r3] = encode_len(raw_len)?.to_le_bytes();
        // The checksum covers the header fields plus the payload, so a flip in *any*
        // frame byte (not just the payload) is caught.
        let prefix = [frame_type, flags, w0, w1, w2, w3, r0, r1, r2, r3];
        let [c0, c1, c2, c3] = frame_crc(&prefix, wire).to_le_bytes();
        *header = [frame_type, flags, w0, w1, w2, w3, r0, r1, r2, r3, c0, c1, c2, c3];
        self.writer.write_all(&self.frame)?;
        let frame_len = self.frame.len() as u64;
        self.bytes_written += frame_len;
        self.frames += 1;
        crate::obs::frames_written().inc();
        crate::obs::bytes_written().add(frame_len);
        f2_obs::ctx::add_count("io_frames", 1);
        if flags & FLAG_RLE != 0 {
            crate::obs::compressed_frames().inc();
        }
        Ok(())
    }
}

// ── FrameReader ────────────────────────────────────────────────────────────────────

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Producer-defined frame type (never [`FRAME_END`] — that ends iteration).
    pub frame_type: u8,
    /// The decompressed, checksum-verified payload.
    pub payload: Vec<u8>,
}

/// Incremental reader of an `F2WS` v2 frame stream. Corrupt, truncated, or
/// bit-flipped input surfaces as an [`IoError`] — never a panic — and the bytes
/// of a failed frame are retained so [`FrameReader::recover`] (see
/// [`crate::recover`]) can resynchronize to the next intact frame instead of
/// abandoning the stream.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    pub(crate) reader: R,
    pub(crate) frame_index: u64,
    pub(crate) ended: bool,
    /// Absolute stream offset (preamble included) of the next byte [`Self::fill`]
    /// will serve — i.e. of `pending[cursor]` when the pushback buffer is
    /// non-empty.
    pub(crate) consumed: u64,
    /// Pushback buffer: bytes pulled from the reader but handed back on an error
    /// path (`pending[cursor..]` is live). Empty throughout fault-free streaming,
    /// so the hot path pays one emptiness check and nothing else.
    pub(crate) pending: Vec<u8>,
    pub(crate) cursor: usize,
    /// Byte ranges recovery skipped as damaged, in scan order.
    pub(crate) skipped: Vec<crate::recover::SkippedRange>,
    /// Per-reader payload cap, `≤` [`MAX_FRAME_BYTES`]. Consumers of untrusted
    /// streams (the server protocol) lower it to bound per-connection memory.
    pub(crate) frame_cap: usize,
}

impl<R: Read> FrameReader<R> {
    /// Open a stream: reads and validates the preamble. A v1 single blob fails here
    /// with [`IoError::UnsupportedVersion`]`(1)`.
    pub fn new(mut reader: R) -> IoResult<Self> {
        let mut preamble = [0u8; 7];
        reader
            .read_exact(&mut preamble)
            .map_err(|_| IoError::Truncated("stream shorter than the F2WS preamble".into()))?;
        let [m0, m1, m2, m3, v0, v1, kind] = preamble;
        if [m0, m1, m2, m3] != MAGIC {
            return Err(IoError::BadMagic);
        }
        let version = u16::from_le_bytes([v0, v1]);
        if version != STREAM_VERSION {
            return Err(IoError::UnsupportedVersion(version));
        }
        if kind != KIND_STREAM {
            return Err(IoError::Malformed(format!(
                "version-2 payload has kind {kind}, expected a frame stream ({KIND_STREAM})"
            )));
        }
        Ok(FrameReader {
            reader,
            frame_index: 0,
            ended: false,
            consumed: preamble.len() as u64,
            pending: Vec::new(),
            cursor: 0,
            skipped: Vec::new(),
            frame_cap: MAX_FRAME_BYTES,
        })
    }

    /// Lower the per-frame payload cap below the format-wide
    /// [`MAX_FRAME_BYTES`]: frames declaring a larger wire or raw length fail
    /// with [`IoError::Oversized`] *before* any allocation, and recovery
    /// ([`FrameReader::recover`](crate::recover)) treats them as implausible.
    /// Values outside `1..=MAX_FRAME_BYTES` are clamped. Use this on untrusted
    /// transports to bound a single peer's memory footprint.
    #[must_use]
    pub fn with_frame_cap(mut self, cap: usize) -> Self {
        self.frame_cap = cap.clamp(1, MAX_FRAME_BYTES);
        self
    }

    /// Bytes still buffered in the pushback buffer.
    pub(crate) fn buffered(&self) -> usize {
        self.pending.len() - self.cursor
    }

    /// Fill `buf` from the pushback buffer, then the reader. Returns the bytes
    /// filled, which is short of `buf.len()` only at end of input. On a reader
    /// error, bytes already filled are handed back first, so a retried call (or a
    /// recovery scan) resumes exactly where this one started.
    fn fill(&mut self, buf: &mut [u8]) -> IoResult<usize> {
        let mut filled = 0usize;
        let avail = self.buffered();
        if avail > 0 {
            let n = avail.min(buf.len());
            let (dst, _) = buf.split_at_mut(n);
            if let Some(src) = self.pending.get(self.cursor..self.cursor + n) {
                dst.copy_from_slice(src);
            }
            self.cursor += n;
            self.consumed += n as u64;
            filled = n;
            if self.cursor == self.pending.len() {
                self.pending.clear();
                self.cursor = 0;
            }
        }
        while filled < buf.len() {
            let Some(target) = buf.get_mut(filled..) else { break };
            match self.reader.read(target) {
                Ok(0) => break,
                Ok(n) => {
                    filled += n;
                    self.consumed += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    let (head, _) = buf.split_at(filled);
                    let head = head.to_vec();
                    self.unread(&head);
                    return Err(IoError::Io(e));
                }
            }
        }
        Ok(filled)
    }

    /// Hand bytes back to the front of the pushback buffer (they will be served
    /// again before the reader is touched). Error-path only — the fault-free hot
    /// path never copies through `pending`.
    pub(crate) fn unread(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let mut buf = Vec::with_capacity(bytes.len() + self.buffered());
        buf.extend_from_slice(bytes);
        buf.extend_from_slice(self.pending.get(self.cursor..).unwrap_or(&[]));
        self.pending = buf;
        self.cursor = 0;
        self.consumed -= bytes.len() as u64;
    }

    /// Hand a failed frame's header and (possibly partial) payload back.
    fn unread_frame(&mut self, header: &[u8], wire: &[u8]) {
        let mut salvage = Vec::with_capacity(header.len() + wire.len());
        salvage.extend_from_slice(header);
        salvage.extend_from_slice(wire);
        self.unread(&salvage);
    }

    /// The next frame, or `None` once the end frame has been consumed. Reaching EOF
    /// *before* the end frame is a truncation error: every well-formed stream is
    /// explicitly terminated.
    pub fn next_frame(&mut self) -> IoResult<Option<Frame>> {
        if self.ended {
            return Ok(None);
        }
        let mut header = [0u8; FRAME_HEADER_BYTES];
        let got = self.fill(&mut header)?;
        if got < FRAME_HEADER_BYTES {
            let (head, _) = header.split_at(got);
            self.unread(head);
            crate::obs::truncation_errors().inc();
            return Err(IoError::Truncated(format!(
                "stream ended inside the header of frame {} (no end frame seen)",
                self.frame_index
            )));
        }
        let [frame_type, flags, w0, w1, w2, w3, r0, r1, r2, r3, c0, c1, c2, c3] = header;
        let wire_len = decoded_len(u32::from_le_bytes([w0, w1, w2, w3]))?;
        let raw_len = decoded_len(u32::from_le_bytes([r0, r1, r2, r3]))?;
        let stored_crc = u32::from_le_bytes([c0, c1, c2, c3]);
        if wire_len > self.frame_cap || raw_len > self.frame_cap {
            self.unread(&header);
            crate::obs::oversize_errors().inc();
            return Err(IoError::Oversized {
                declared: wire_len.max(raw_len),
                cap: self.frame_cap,
            });
        }
        let mut wire = vec![0u8; wire_len.min(self.frame_cap)];
        let got = self.fill(&mut wire)?;
        if got < wire_len {
            wire.truncate(got);
            self.unread_frame(&header, &wire);
            crate::obs::truncation_errors().inc();
            return Err(IoError::Truncated(format!(
                "stream ended inside the payload of frame {}",
                self.frame_index
            )));
        }
        let prefix = [frame_type, flags, w0, w1, w2, w3, r0, r1, r2, r3];
        let computed = frame_crc(&prefix, &wire);
        if computed != stored_crc {
            self.unread_frame(&header, &wire);
            crate::obs::checksum_errors().inc();
            return Err(IoError::Checksum {
                frame: self.frame_index,
                stored: stored_crc,
                computed,
            });
        }
        if let Some(why) = header_flaw(frame_type, flags, wire_len, raw_len) {
            // Handed back like damage: recovery applies the same rule, so it
            // skips this frame from its first byte and counts it as damage.
            self.unread_frame(&header, &wire);
            return Err(IoError::Malformed(format!("frame {}: {why}", self.frame_index)));
        }
        self.frame_index += 1;
        crate::obs::frames_read().inc();
        crate::obs::bytes_read().add((FRAME_HEADER_BYTES + wire_len) as u64);
        if frame_type == FRAME_END {
            self.ended = true;
            return Ok(None);
        }
        let payload = if flags & FLAG_RLE != 0 { rle_decompress(&wire, raw_len)? } else { wire };
        Ok(Some(Frame { frame_type, payload }))
    }

    /// Frames fully consumed so far (end frame included once seen).
    pub fn frames_read(&self) -> u64 {
        self.frame_index
    }

    /// Bytes of the underlying stream consumed so far (preamble included).
    /// After a frame error, points at the start of the failed frame — the bytes
    /// were handed back for recovery.
    pub fn bytes_consumed(&self) -> u64 {
        self.consumed
    }

    /// Whether the end frame has been consumed (the stream terminated cleanly).
    pub fn ended(&self) -> bool {
        self.ended
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn frame_crc_continues_crc32_across_the_header_split() {
        let bytes: Vec<u8> = (0..=255u8).cycle().skip(3).step_by(5).take(300).collect();
        for split in [0, 1, 7, 8, 9, 10, 17, 64, 299, 300] {
            let (prefix, wire) = bytes.split_at(split);
            assert_eq!(frame_crc(prefix, wire), crc32(&bytes), "split at {split}");
        }
        // Splits inside and at the edges of a four-lane block and of its lanes.
        let block = 4 * CRC_LANE;
        let bytes: Vec<u8> = (0..3 * block + 100).map(|i| (i * 131 + i / 7) as u8).collect();
        for split in [1, 10, CRC_LANE - 1, CRC_LANE, block - 3, block, block + 5, 2 * block + 4097]
        {
            let (prefix, wire) = bytes.split_at(split);
            assert_eq!(frame_crc(prefix, wire), crc32(&bytes), "split at {split}");
        }
    }

    #[test]
    fn the_lane_shift_carries_a_state_over_a_lane_of_zeros() {
        let zeros = [0u8; CRC_LANE];
        let CrcTables { tables, lane_shift } = crc_tables();
        for state in [1 << 31, 1, 0xDEAD_BEEF, u32::MAX] {
            assert_eq!(gf2_mul_mod(state, *lane_shift), crc32_serial(tables, state, &zeros));
        }
    }

    /// One frame with these fields and a CRC that verifies.
    fn crc_valid_frame(frame_type: u8, flags: u8, wire: &[u8], raw_len: u32) -> Vec<u8> {
        let mut frame = vec![frame_type, flags];
        frame.extend_from_slice(&u32::try_from(wire.len()).unwrap().to_le_bytes());
        frame.extend_from_slice(&raw_len.to_le_bytes());
        let crc = frame_crc(&frame, wire);
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(wire);
        frame
    }

    #[test]
    fn checksum_valid_frames_no_sink_writes_are_refused_by_both_readers() {
        let preamble = [&MAGIC[..], &STREAM_VERSION.to_le_bytes(), &[KIND_STREAM]].concat();
        let good = crc_valid_frame(2, 0, b"intact", 6);
        let end = crc_valid_frame(FRAME_END, 0, &[], 0);
        let flawed = [
            // A flag bit no writer sets, on an otherwise well-formed raw frame.
            crc_valid_frame(2, 0x02, b"sixbyt", 6),
            // RLE tokens that decode ("ab" as one literal token) but are no
            // shorter than the raw payload.
            crc_valid_frame(2, FLAG_RLE, &[0x04, b'a', b'b'], 2),
            crc_valid_frame(2, FLAG_RLE, &[0x05, b'z'], 2),
            // A raw frame whose lengths disagree, and an end frame with a payload.
            crc_valid_frame(2, 0, b"abc", 4),
            crc_valid_frame(FRAME_END, 0, b"x", 1),
        ];
        for frame in &flawed {
            // In line, `next_frame` refuses it and hands its bytes back …
            let stream = [preamble.as_slice(), frame, &good, &end].concat();
            let mut reader = FrameReader::new(&stream[..]).unwrap();
            assert!(matches!(reader.next_frame(), Err(IoError::Malformed(_))), "{frame:?}");
            assert_eq!(reader.bytes_consumed(), 7);
            // … and recovery, applying the same rule, skips exactly that frame.
            assert_eq!(reader.recover().unwrap().unwrap().payload, b"intact");
            let skipped = crate::recover::SkippedRange { start: 7, end: 7 + frame.len() as u64 };
            assert_eq!(reader.skipped_ranges(), &[skipped]);
            assert!(reader.next_frame().unwrap().is_none());

            // Behind garbage, recovery passes over it the same way.
            let stream = [preamble.as_slice(), b"\xFF\xFF\xFF", frame, &good, &end].concat();
            let mut reader = FrameReader::new(&stream[..]).unwrap();
            assert!(reader.next_frame().is_err());
            assert_eq!(reader.recover().unwrap().unwrap().payload, b"intact");
            assert!(reader.next_frame().unwrap().is_none());
        }
        // The well-formed frames themselves read cleanly.
        let stream = [preamble.as_slice(), &good, &end].concat();
        let mut reader = FrameReader::new(&stream[..]).unwrap();
        assert_eq!(reader.next_frame().unwrap().unwrap().payload, b"intact");
        assert!(reader.next_frame().unwrap().is_none());
    }

    #[test]
    fn rle_roundtrips_and_compresses_runs() {
        let runs: Vec<u8> =
            [vec![0u8; 500], b"abc".to_vec(), vec![0xFF; 300], vec![7u8; 3]].concat();
        let packed = rle_compress(&runs).expect("runs compress");
        assert!(packed.len() < runs.len() / 4);
        assert_eq!(rle_decompress(&packed, runs.len()).unwrap(), runs);
        // Incompressible data is declined rather than inflated.
        let noise: Vec<u8> = (0..=255u8).cycle().take(600).collect();
        assert!(rle_compress(&noise).is_none());
        // Empty input: nothing to gain.
        assert!(rle_compress(&[]).is_none());
    }

    #[test]
    fn rle_decompress_rejects_corrupt_streams() {
        let raw = vec![9u8; 64];
        let packed = rle_compress(&raw).unwrap();
        assert!(rle_decompress(&packed, raw.len() + 1).is_err());
        assert!(rle_decompress(&packed, raw.len() - 1).is_err());
        assert!(rle_decompress(&packed[..packed.len() - 1], raw.len()).is_err());
        // A varint promising 2⁶³ bytes errors instead of allocating.
        let hostile = vec![0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert!(rle_decompress(&hostile, 16).is_err());
    }

    #[test]
    fn frames_roundtrip_through_a_stream() {
        let mut sink = FrameSink::new(Vec::new()).unwrap();
        sink.write_frame(1, b"header").unwrap();
        sink.write_frame(2, &vec![0u8; 1000]).unwrap();
        sink.write_frame(2, b"").unwrap();
        let (bytes, total) = sink.finish().unwrap();
        // The byte count covers the whole stream, end frame included …
        assert_eq!(total, bytes.len() as u64);
        // … and the zero-run frame compressed well below its raw size.
        assert!(bytes.len() < 300, "stream is {} bytes", bytes.len());

        let mut reader = FrameReader::new(&bytes[..]).unwrap();
        assert_eq!(
            reader.next_frame().unwrap().unwrap(),
            Frame { frame_type: 1, payload: b"header".to_vec() }
        );
        assert_eq!(reader.next_frame().unwrap().unwrap().payload, vec![0u8; 1000]);
        assert_eq!(reader.next_frame().unwrap().unwrap().payload, b"");
        assert!(reader.next_frame().unwrap().is_none());
        assert!(reader.next_frame().unwrap().is_none()); // idempotent after END
    }

    /// A writer that counts the `write` calls reaching it.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_is_one_write_on_the_underlying_writer() {
        let mut sink = FrameSink::new(CountingWriter { writes: 0, bytes: Vec::new() }).unwrap();
        assert_eq!(sink.writer.writes, 1, "the preamble is one write");
        let noise: Vec<u8> = (0..5000u32).map(|i| (i * 7 + 1) as u8).collect();
        // Compressed and raw, long and short, and empty, in an order that makes
        // the kept frame buffer shrink and grow.
        let payloads = [vec![0u8; 5000], noise, b"short".to_vec(), Vec::new(), vec![3u8; 9000]];
        for (index, payload) in payloads.iter().enumerate() {
            sink.write_frame(2, payload).unwrap();
            assert_eq!(sink.writer.writes, 2 + index, "frame {index} is one write");
            assert_eq!(sink.writer.bytes.len() as u64, sink.bytes_written());
        }
        let (writer, total) = sink.finish().unwrap();
        assert_eq!(writer.writes, 2 + payloads.len(), "the end frame is one write");
        assert_eq!(writer.bytes.len() as u64, total);
    }

    #[test]
    fn bit_flips_are_detected_at_every_byte_of_the_stream() {
        let mut sink = FrameSink::new(Vec::new()).unwrap();
        sink.write_frame(1, b"header").unwrap();
        sink.write_frame(2, &[b"payload-bytes-under-test".to_vec(), vec![0u8; 64]].concat())
            .unwrap();
        let (clean, _) = sink.finish().unwrap();
        // Flip one bit at every byte position — preamble, frame headers, payloads,
        // checksums, end frame. Every flip must surface as an error (the checksum
        // covers the frame header too, so even type/flag/length flips are caught).
        for at in 0..clean.len() {
            for bit in [0x01u8, 0x80] {
                let mut corrupt = clean.clone();
                corrupt[at] ^= bit;
                let outcome = || -> IoResult<()> {
                    let mut reader = FrameReader::new(&corrupt[..])?;
                    while reader.next_frame()?.is_some() {}
                    Ok(())
                };
                assert!(outcome().is_err(), "flip of bit {bit:#04x} at {at} went undetected");
            }
        }
        // The clean stream still reads fully, of course.
        let mut reader = FrameReader::new(&clean[..]).unwrap();
        while reader.next_frame().unwrap().is_some() {}
    }

    #[test]
    fn truncation_and_bad_preambles_error() {
        let mut sink = FrameSink::new(Vec::new()).unwrap();
        sink.write_frame(2, b"data").unwrap();
        let (clean, _) = sink.finish().unwrap();
        for cut in 0..clean.len() {
            let mut reader = match FrameReader::new(&clean[..cut]) {
                Ok(r) => r,
                Err(_) => continue, // preamble truncation already errored
            };
            let mut drained = || -> IoResult<()> {
                while reader.next_frame()?.is_some() {}
                Ok(())
            };
            assert!(drained().is_err(), "cut at {cut} went undetected");
        }
        assert!(matches!(FrameReader::new(&b"XXWS\x02\x00\x05"[..]), Err(IoError::BadMagic)));
        assert!(matches!(
            FrameReader::new(&b"F2WS\x01\x00\x04"[..]),
            Err(IoError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn oversized_lengths_error_before_allocating() {
        let mut stream = Vec::new();
        let mut sink = FrameSink::new(&mut stream).unwrap();
        sink.write_frame(1, b"x").unwrap();
        sink.finish().unwrap();
        // Rewrite the first frame's wire_len to 3 GiB.
        stream[9..13].copy_from_slice(&(3u32 << 30).to_le_bytes());
        let mut reader = FrameReader::new(&stream[..]).unwrap();
        assert!(matches!(reader.next_frame(), Err(IoError::Oversized { .. })));
    }
}
