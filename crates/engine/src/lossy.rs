//! Lossy, best-effort decryption of damaged `F2WS` v2 streams.
//!
//! lint: untrusted-input — everything below decodes wire-derived, possibly
//! corrupted frames.
//!
//! [`decrypt_streaming`](crate::decrypt_streaming) is all-or-nothing: the
//! first damaged frame fails the whole run, which is the right default for a
//! pipeline but useless for salvage. [`decrypt_streaming_lossy`] instead
//! drives [`FrameReader::recover`] over every damaged region — resynchronizing
//! to the next frame whose checksum verifies — decrypts **every intact
//! chunk** (per-chunk owner states are chunk-local, so one lost chunk never
//! takes its neighbours down), and accounts for what could not be saved in a
//! [`DamageReport`]: chunks and rows lost, the exact byte ranges skipped, and
//! whether the header and trailer survived.
//!
//! Limits, by construction: chunks torn off the *tail* of a stream that also
//! lost its trailer cannot be counted exactly (nothing intact records how many
//! chunks there should have been), so the tail's damaged bytes are converted
//! into a size-based *estimate* — [`DamageReport::suspected_lost`] — by
//! dividing them by the mean intact chunk-frame size. A tail torn off cleanly
//! at a frame boundary leaves zero damaged bytes and therefore zero suspected
//! chunks; and a damaged preamble fails the whole call — the 7-byte preamble
//! is what identifies the stream format in the first place.

use crate::stream::{decode_chunk, decode_header, decode_trailer, decrypt_chunk};
use crate::stream::{FRAME_CHUNK, FRAME_HEADER, FRAME_TRAILER};
use f2_core::{F2Error, Result, Scheme};
use f2_io::frame::{Frame, FrameReader};
use f2_io::SkippedRange;
use f2_relation::{Bytes, Table};
use std::io::Read;

/// What a [`decrypt_streaming_lossy`] salvage run recovered and what it lost.
#[derive(Debug, Clone, Default)]
pub struct DamageReport {
    /// Chunk count the trailer promised, when the trailer survived.
    pub chunks_total: Option<usize>,
    /// Chunks decrypted and emitted.
    pub chunks_recovered: usize,
    /// Chunks known to be lost: the trailer's count minus recovered when the
    /// trailer survived, otherwise the gaps in the recovered chunk indices
    /// (tail losses are invisible without a trailer).
    pub chunks_lost: usize,
    /// Plaintext rows decrypted and emitted.
    pub rows_recovered: usize,
    /// Rows lost with the lost chunks, when the trailer survived to say.
    pub rows_lost: Option<usize>,
    /// Estimated chunks torn off the *tail* of a stream whose trailer was also
    /// lost — the case [`DamageReport::chunks_lost`] cannot see. Computed from
    /// the damaged bytes past the last intact frame, divided by the mean
    /// intact chunk-frame size (rounded to nearest); zero whenever the trailer
    /// survived (exact accounting wins) or the tail left no damaged bytes.
    /// An estimate, not a count: trust it to flag loss, not to size it.
    pub suspected_lost: usize,
    /// Total damaged bytes skipped while resynchronizing.
    pub bytes_skipped: u64,
    /// The exact byte ranges skipped, as absolute stream offsets.
    pub skipped_ranges: Vec<SkippedRange>,
    /// Whether the header frame survived.
    pub header_recovered: bool,
    /// Whether the trailer frame survived.
    pub trailer_recovered: bool,
}

impl DamageReport {
    /// True when the salvage run saw no damage at all: every frame intact,
    /// header and trailer included, no bytes skipped.
    pub fn is_lossless(&self) -> bool {
        self.header_recovered
            && self.trailer_recovered
            && self.chunks_lost == 0
            && self.suspected_lost == 0
            && self.bytes_skipped == 0
    }
}

/// Decrypt every intact chunk of a (possibly damaged) v2 stream, handing each
/// recovered plaintext chunk to `emit` in stream order, and report the damage.
/// Peak memory stays one chunk, as in [`decrypt_streaming`](crate::decrypt_streaming).
///
/// Per-chunk failures — a frame that resisted recovery, a chunk whose payload
/// does not decode or decrypt — are counted, never propagated; the only errors
/// returned are a damaged preamble, a header naming a different scheme, a
/// non-transport I/O failure from the reader, or an error from `emit` itself.
pub fn decrypt_streaming_lossy<R: Read>(
    scheme: &dyn Scheme,
    reader: R,
    mut emit: impl FnMut(Table) -> Result<()>,
) -> Result<DamageReport> {
    let mut frames = FrameReader::new(reader).map_err(F2Error::from)?;
    let mut report = DamageReport::default();
    // Highest chunk index seen plus one — with no trailer, index gaps are the
    // only evidence of loss.
    let mut indices_seen = 0usize;
    let mut trailer_rows: Option<usize> = None;
    // Tail-loss evidence: where the last intact frame ended, and how big an
    // intact chunk frame is on average (wire bytes, headers included).
    let mut last_intact_end = frames.bytes_consumed();
    let mut chunk_wire_bytes = 0u64;
    let mut chunk_frames_seen = 0u64;

    loop {
        let before_bytes = frames.bytes_consumed();
        let before_skipped: u64 = frames.skipped_ranges().iter().map(SkippedRange::len).sum();
        let frame = match frames.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            // Damage: resynchronize to the next checksum-verified frame. The
            // skipped ranges are tracked by the reader itself.
            Err(_) => match frames.recover().map_err(F2Error::from)? {
                Some(frame) => frame,
                None => break,
            },
        };
        let after_skipped: u64 = frames.skipped_ranges().iter().map(SkippedRange::len).sum();
        let frame_bytes = frames
            .bytes_consumed()
            .saturating_sub(before_bytes)
            .saturating_sub(after_skipped.saturating_sub(before_skipped));
        last_intact_end = frames.bytes_consumed();
        if frame.frame_type == FRAME_CHUNK {
            chunk_wire_bytes += frame_bytes;
            chunk_frames_seen += 1;
        }
        match frame.frame_type {
            FRAME_HEADER => {
                // Validate the scheme name when the header decodes — a
                // wrong-scheme salvage would "recover" garbage rows.
                if let Ok(header) = decode_header(&frame.payload) {
                    if header.scheme != scheme.name() {
                        return Err(F2Error::UnsupportedInput(format!(
                            "stream was produced by the `{}` scheme, salvage holds `{}`",
                            header.scheme,
                            scheme.name()
                        )));
                    }
                }
                report.header_recovered = true;
            }
            FRAME_CHUNK => match salvage_chunk(scheme, frame) {
                Some((index, plain)) => {
                    indices_seen = indices_seen.max(index + 1);
                    report.chunks_recovered += 1;
                    report.rows_recovered += plain.row_count();
                    emit(plain)?;
                }
                // A CRC-valid frame that fails to decode or decrypt is a lost
                // chunk, not a fatal error: its neighbours are still intact.
                None => report.chunks_lost += 1,
            },
            FRAME_TRAILER => {
                if let Ok(trailer) = decode_trailer(&frame.payload) {
                    report.chunks_total = Some(trailer.chunks);
                    trailer_rows = Some(trailer.rows);
                    report.trailer_recovered = true;
                }
            }
            // Unknown frame types are skipped: forward compatibility over
            // strictness in a salvage path.
            _ => {}
        }
    }

    if let Some(total) = report.chunks_total {
        report.chunks_lost = total.saturating_sub(report.chunks_recovered);
    } else {
        report.chunks_lost =
            report.chunks_lost.max(indices_seen.saturating_sub(report.chunks_recovered));
    }
    report.rows_lost = trailer_rows.map(|rows| rows.saturating_sub(report.rows_recovered));
    report.skipped_ranges = frames.skipped_ranges().to_vec();
    report.bytes_skipped = report.skipped_ranges.iter().map(SkippedRange::len).sum();
    if !report.trailer_recovered {
        // No trailer to count against: estimate tail losses from the damaged
        // bytes past the last intact frame. (With a trailer, `chunks_lost`
        // already accounts for every chunk exactly.)
        let tail: u64 = report
            .skipped_ranges
            .iter()
            .filter(|r| r.start >= last_intact_end)
            .map(SkippedRange::len)
            .sum();
        if tail > 0 {
            report.suspected_lost = if chunk_frames_seen == 0 {
                // No intact chunk to size the estimate against; all that is
                // certain is that *something* was torn off.
                1
            } else {
                let avg = chunk_wire_bytes.checked_div(chunk_frames_seen).unwrap_or(0).max(1);
                usize::try_from((tail + avg / 2) / avg).unwrap_or(usize::MAX)
            };
        }
    }
    Ok(report)
}

/// Decode and decrypt one chunk frame; `None` means the chunk is lost even
/// though its frame's checksum verified (undecodable payload, state blob or
/// cell, a state of another backend or one that disagrees with the chunk's
/// rows, ciphertext that fails to decrypt, or fewer or more plaintext rows
/// than the chunk's record covers).
fn salvage_chunk(scheme: &dyn Scheme, frame: Frame) -> Option<(usize, Table)> {
    let payload = Bytes::from(frame.payload);
    let (record, state, table) = decode_chunk(&payload).ok()?;
    let plain = decrypt_chunk(scheme, &record, state, &table).ok()?;
    Some((record.index, plain))
}
