//! Frame-level damage recovery: resynchronize a corrupted stream to its next
//! intact frame, and the [`StreamStore`] abstraction crash-safe resume repairs
//! streams through.
//!
//! lint: untrusted-input — this module scans attacker-controllable bytes; the
//! panic-freedom rules (`no-unwrap`, `slice-index`, …) are enforced by `f2-lint`.
//!
//! [`FrameReader::next_frame`] stops at the first damaged frame — the right
//! default for a pipeline that must never act on corrupt data. But because every
//! frame is independently length-prefixed and CRC-checked, damage is *local*:
//! everything after the damaged bytes is still perfectly decodable, if only the
//! reader can find the next frame boundary. [`FrameReader::recover`] does
//! exactly that: it scans forward byte by byte, treats every position as a
//! candidate frame header, discards implausible candidates cheaply (flag bits,
//! length caps, end-frame shape), and accepts a candidate only when its CRC32 —
//! covering the header *and* the payload — verifies. A 32-bit checksum over a
//! plausibility-filtered candidate makes a false resync on line noise a
//! ~2⁻³² event; the scan is driven by the same pushback buffer `next_frame`
//! salvages failed-frame bytes into, so recovery re-reads nothing.
//!
//! Skipped bytes are reported as [`SkippedRange`]s (absolute offsets) for the
//! damage accounting `f2_engine::stream::decrypt_streaming_lossy` surfaces, and
//! counted in `f2_io_frames_recovered_total` / `f2_io_recovery_skipped_bytes_total`.

use crate::error::{IoError, IoResult};
use crate::frame::{
    frame_crc, header_flaw, rle_decompress, Frame, FrameReader, FLAG_RLE, FRAME_END,
    FRAME_HEADER_BYTES,
};
use std::io::{Read, Seek, Write};

/// A half-open byte range `[start, end)` of the underlying stream that recovery
/// skipped as damaged. Offsets are absolute (the 7-byte preamble included), so
/// ranges can be mapped straight back to file positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkippedRange {
    /// First damaged byte.
    pub start: u64,
    /// One past the last damaged byte.
    pub end: u64,
}

impl SkippedRange {
    /// Bytes covered by the range.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the range covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

impl<R: Read> FrameReader<R> {
    /// After [`FrameReader::next_frame`] returned an error, scan forward to the
    /// next intact frame and return it. `Ok(None)` means no further intact data
    /// frame exists: either the stream's end frame was found during the scan
    /// (then [`FrameReader::ended`] is true — the tail of the stream was intact)
    /// or the stream ran out of bytes (`ended()` stays false — the tail is lost).
    ///
    /// Every byte passed over is recorded in [`FrameReader::skipped_ranges`];
    /// transient reader errors propagate (wrap the transport in a
    /// [`RetryingReader`](crate::retry::RetryingReader) to absorb them) and the
    /// scan can be re-entered by calling `recover` again.
    pub fn recover(&mut self) -> IoResult<Option<Frame>> {
        if self.ended {
            return Ok(None);
        }
        let mut scan_start = self.consumed;
        loop {
            if !self.buffer_at_least(FRAME_HEADER_BYTES)? {
                // Fewer bytes remain than a frame header: all of them are damage.
                self.discard_buffered();
                self.note_skip(scan_start);
                return Ok(None);
            }
            let Some(&[frame_type, flags, w0, w1, w2, w3, r0, r1, r2, r3, c0, c1, c2, c3]) =
                self.pending.get(self.cursor..self.cursor + FRAME_HEADER_BYTES)
            else {
                self.discard_buffered();
                self.note_skip(scan_start);
                return Ok(None);
            };
            let wire_len =
                usize::try_from(u32::from_le_bytes([w0, w1, w2, w3])).unwrap_or(usize::MAX);
            let raw_len =
                usize::try_from(u32::from_le_bytes([r0, r1, r2, r3])).unwrap_or(usize::MAX);
            let stored_crc = u32::from_le_bytes([c0, c1, c2, c3]);
            // Cheap plausibility gates before the CRC: lengths over the cap, or a
            // shape `next_frame` refuses, cannot be a frame this sink wrote.
            let plausible = wire_len <= self.frame_cap
                && raw_len <= self.frame_cap
                && header_flaw(frame_type, flags, wire_len, raw_len).is_none();
            if !plausible {
                self.skip_byte();
                continue;
            }
            let total = FRAME_HEADER_BYTES + wire_len;
            if !self.buffer_at_least(total)? {
                // The stream ends before the candidate completes: not a frame.
                self.skip_byte();
                continue;
            }
            let crc_ok = {
                let prefix = self.pending.get(self.cursor..self.cursor + 10).unwrap_or(&[]);
                let wire = self
                    .pending
                    .get(self.cursor + FRAME_HEADER_BYTES..self.cursor + total)
                    .unwrap_or(&[]);
                frame_crc(prefix, wire) == stored_crc
            };
            if !crc_ok {
                self.skip_byte();
                continue;
            }
            // Intact frame found: everything between the scan start and here was
            // damage; consume the frame from the pushback buffer.
            self.note_skip(scan_start);
            let frame_start = self.consumed;
            let wire = self
                .pending
                .get(self.cursor + FRAME_HEADER_BYTES..self.cursor + total)
                .unwrap_or(&[])
                .to_vec();
            self.cursor += total;
            self.consumed += total as u64;
            if self.cursor == self.pending.len() {
                self.pending.clear();
                self.cursor = 0;
            }
            self.frame_index += 1;
            crate::obs::frames_read().inc();
            crate::obs::bytes_read().add(total as u64);
            if frame_type == FRAME_END {
                self.ended = true;
                return Ok(None);
            }
            let payload = if flags & FLAG_RLE != 0 {
                match rle_decompress(&wire, raw_len) {
                    Ok(payload) => payload,
                    Err(_) => {
                        // CRC-valid yet undecodable — a producer bug, not line
                        // noise. Count the frame as damage and keep scanning.
                        scan_start = frame_start;
                        continue;
                    }
                }
            } else {
                wire
            };
            crate::obs::frames_recovered().inc();
            return Ok(Some(Frame { frame_type, payload }));
        }
    }

    /// Byte ranges [`FrameReader::recover`] skipped as damaged, in scan order.
    pub fn skipped_ranges(&self) -> &[SkippedRange] {
        &self.skipped
    }

    /// Load bytes into the pushback buffer until at least `needed` are available
    /// or the stream ends (`false`). Buffered bytes are *not* consumed.
    fn buffer_at_least(&mut self, needed: usize) -> IoResult<bool> {
        if self.cursor >= 4096 || self.cursor >= self.pending.len() {
            // Amortized compaction keeps the scan O(n) over a damaged region
            // without shifting the buffer on every skipped byte.
            self.pending.drain(..self.cursor.min(self.pending.len()));
            self.cursor = 0;
        }
        while self.buffered() < needed {
            let mut chunk = [0u8; 4096];
            let want = (needed - self.buffered()).min(chunk.len());
            let Some(target) = chunk.get_mut(..want) else { break };
            match self.reader.read(target) {
                Ok(0) => return Ok(false),
                Ok(n) => self.pending.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(IoError::Io(e)),
            }
        }
        Ok(true)
    }

    /// Pass over one buffered byte as damage.
    fn skip_byte(&mut self) {
        if self.buffered() > 0 {
            self.cursor += 1;
            self.consumed += 1;
        }
    }

    /// Drop whatever remains buffered, accounting it as consumed.
    fn discard_buffered(&mut self) {
        self.consumed += self.buffered() as u64;
        self.pending.clear();
        self.cursor = 0;
    }

    /// Record `from..self.consumed` as a skipped range (no-op when empty).
    fn note_skip(&mut self, from: u64) {
        let to = self.consumed;
        if to > from {
            self.skipped.push(SkippedRange { start: from, end: to });
            crate::obs::recovery_bytes_skipped().add(to - from);
        }
    }
}

// ── StreamStore ────────────────────────────────────────────────────────────────────

/// Random-access storage a frame stream can be repaired *in place* on: read,
/// write, seek, and truncate. Crash-safe resume (`f2_engine::Engine::resume_job`
/// and `resume_streaming`) scans a store, verifies its intact prefix, truncates
/// the trailing partial frame of an interrupted run, and appends from there.
/// [`std::fs::File`] is the production implementation; `Cursor<Vec<u8>>` the
/// in-memory one. A `&mut` borrow of a store is a store too, so a caller can
/// lend one to a job and keep it afterwards.
pub trait StreamStore: Read + Write + Seek {
    /// Truncate (or zero-extend) the store to exactly `len` bytes.
    fn set_len(&mut self, len: u64) -> std::io::Result<()>;
}

impl<S: StreamStore + ?Sized> StreamStore for Box<S> {
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        (**self).set_len(len)
    }
}

impl<S: StreamStore + ?Sized> StreamStore for &mut S {
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        (**self).set_len(len)
    }
}

impl StreamStore for std::fs::File {
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        std::fs::File::set_len(self, len)
    }
}

impl StreamStore for std::io::Cursor<Vec<u8>> {
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        let len = usize::try_from(len).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "length exceeds addressable memory",
            )
        })?;
        let buf = self.get_mut();
        if len <= buf.len() {
            buf.truncate(len);
        } else {
            buf.resize(len, 0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameSink;
    use std::io::Cursor;

    /// A three-data-frame stream and the absolute offset of each frame.
    fn golden() -> (Vec<u8>, Vec<u64>) {
        let mut sink = FrameSink::new(Vec::new()).unwrap();
        let mut offsets = Vec::new();
        for (t, payload) in
            [(1u8, b"header-payload".to_vec()), (2, vec![7u8; 600]), (2, b"tail".to_vec())]
        {
            offsets.push(sink.bytes_written());
            sink.write_frame(t, &payload).unwrap();
        }
        offsets.push(sink.bytes_written()); // end frame
        let (bytes, _) = sink.finish().unwrap();
        (bytes, offsets)
    }

    #[test]
    fn recover_resyncs_past_a_flipped_bit() {
        let (mut bytes, offsets) = golden();
        // Damage the middle frame's (RLE-compressed, so short) payload.
        bytes[usize::try_from(offsets[1]).unwrap() + 15] ^= 0x40;
        let mut reader = FrameReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.next_frame().unwrap().unwrap().payload, b"header-payload");
        assert!(matches!(reader.next_frame(), Err(IoError::Checksum { .. })));
        // The failed frame's bytes were handed back …
        assert_eq!(reader.bytes_consumed(), offsets[1]);
        // … and recovery lands exactly on the third frame.
        let frame = reader.recover().unwrap().unwrap();
        assert_eq!(frame.payload, b"tail");
        assert_eq!(reader.skipped_ranges(), &[SkippedRange { start: offsets[1], end: offsets[2] }]);
        assert_eq!(reader.skipped_ranges()[0].len(), offsets[2] - offsets[1]);
        // The stream then finishes cleanly through the normal path.
        assert!(reader.next_frame().unwrap().is_none());
        assert!(reader.ended());
    }

    #[test]
    fn recover_finds_the_end_frame_when_the_last_data_frame_dies() {
        let (mut bytes, offsets) = golden();
        bytes[usize::try_from(offsets[2]).unwrap() + 2] ^= 0x01; // corrupt frame 3's length
        let mut reader = FrameReader::new(&bytes[..]).unwrap();
        reader.next_frame().unwrap();
        reader.next_frame().unwrap();
        assert!(reader.next_frame().is_err());
        // Recovery walks into the end frame: no more data, but a clean ending.
        assert!(reader.recover().unwrap().is_none());
        assert!(reader.ended());
        assert_eq!(reader.skipped_ranges(), &[SkippedRange { start: offsets[2], end: offsets[3] }]);
    }

    #[test]
    fn recover_reports_a_lost_tail() {
        let (bytes, offsets) = golden();
        // Cut mid-way through the second frame: its error hands the bytes back,
        // and recovery finds nothing after them.
        let cut = usize::try_from(offsets[1]).unwrap() + 9;
        let mut reader = FrameReader::new(&bytes[..cut]).unwrap();
        reader.next_frame().unwrap();
        assert!(matches!(reader.next_frame(), Err(IoError::Truncated(_))));
        assert!(reader.recover().unwrap().is_none());
        assert!(!reader.ended(), "no end frame: the tail is lost, not finished");
        assert_eq!(reader.skipped_ranges(), &[SkippedRange { start: offsets[1], end: cut as u64 }]);
    }

    #[test]
    fn recover_survives_damage_spanning_several_frames() {
        let (mut bytes, offsets) = golden();
        // Wreck frames 1 and 2 entirely.
        for at in offsets[0]..offsets[2] {
            bytes[usize::try_from(at).unwrap()] ^= 0xA5;
        }
        let mut reader = FrameReader::new(&bytes[..]).unwrap();
        assert!(reader.next_frame().is_err());
        let frame = reader.recover().unwrap().unwrap();
        assert_eq!(frame.payload, b"tail");
        let total_skipped: u64 = reader.skipped_ranges().iter().map(SkippedRange::len).sum();
        assert_eq!(total_skipped, offsets[2] - offsets[0]);
        assert!(reader.next_frame().unwrap().is_none());
    }

    #[test]
    fn stream_store_cursor_truncates_and_extends() {
        let mut store = Cursor::new(vec![1u8, 2, 3, 4]);
        StreamStore::set_len(&mut store, 2).unwrap();
        assert_eq!(store.get_ref(), &vec![1, 2]);
        StreamStore::set_len(&mut store, 4).unwrap();
        assert_eq!(store.get_ref(), &vec![1, 2, 0, 0]);
    }
}
