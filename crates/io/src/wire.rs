//! The `F2WS` wire format: versioned, length-prefixed binary encoding.
//!
//! lint: untrusted-input — every byte this module decodes may come from a corrupt
//! or adversarial blob; `f2-lint` forbids panics, raw indexing, and truncating
//! casts here.
//!
//! Every persisted blob (owner states, encrypted tables) starts
//! with the 4-byte magic `F2WS`, a little-endian `u16` format version, and a one-byte
//! *kind* tag identifying the payload. All integers are little-endian; variable-length
//! payloads (byte strings, UTF-8 strings) are `u32`-length-prefixed. [`Reader`] checks
//! every read against the remaining input, so corrupt or truncated blobs surface as
//! [`WireError`]s — never as panics or over-allocation (a length prefix is validated
//! against the remaining bytes before anything is allocated).

use f2_relation::Value;
use std::fmt;

/// Magic bytes opening every wire blob.
pub const MAGIC: [u8; 4] = *b"F2WS";

/// Current wire-format version. Bump on any incompatible layout change; readers
/// reject versions they do not understand instead of misparsing them.
pub const VERSION: u16 = 1;

/// Decoding failure: what the blob promised and what it actually held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The blob does not start with the `F2WS` magic.
    BadMagic,
    /// The blob's version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// The blob carries a different kind of payload than the caller expected.
    WrongKind {
        /// Kind tag the caller asked for.
        expected: u8,
        /// Kind tag found in the header.
        got: u8,
    },
    /// A read ran past the end of the blob.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The blob decoded structurally but the content is invalid.
    Malformed(String),
    /// Decoding finished with unread bytes left over.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "missing F2WS magic"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v} (max {VERSION})")
            }
            WireError::WrongKind { expected, got } => {
                write!(f, "wrong payload kind: expected {expected}, got {got}")
            }
            WireError::Truncated { needed, remaining } => {
                write!(f, "truncated input: needed {needed} bytes, {remaining} remaining")
            }
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for f2_core::F2Error {
    fn from(e: WireError) -> Self {
        f2_core::F2Error::UnsupportedInput(format!("wire decode failed: {e}"))
    }
}

/// Result alias for wire decoding.
pub type WireResult<T> = std::result::Result<T, WireError>;

/// Append-only encoder for one wire blob.
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start a blob of the given kind: magic, version, kind tag.
    pub fn versioned(kind: u8) -> Self {
        let mut w = Writer { buf: Vec::with_capacity(64) };
        w.put_preamble(kind);
        w
    }

    /// Append the blob preamble: magic, version, kind tag.
    fn put_preamble(&mut self, kind: u8) {
        self.buf.extend_from_slice(&MAGIC);
        self.put_u16(VERSION);
        self.put_u8(kind);
    }

    /// Start a bare payload with no header — for content that lives *inside* an
    /// already-versioned container (e.g. one frame of an `F2WS` v2 stream, whose
    /// preamble carries the magic and version once for the whole stream).
    pub fn raw() -> Self {
        Writer::default()
    }

    /// Start a bare payload, like [`Writer::raw`], in the caller's `buf`: it is
    /// emptied but keeps its capacity, and [`Writer::finish`] hands it back, so a
    /// caller encoding one payload after another reuses one buffer for all of
    /// them.
    pub fn raw_in(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Writer { buf }
    }

    /// Append a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (the format is 64-bit regardless of platform).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a `u32`-length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        // lint: allow(no-unwrap) — encoder-side invariant: no producer in the
        // workspace builds a single cell anywhere near 4 GiB
        self.put_u32(u32::try_from(bytes.len()).expect("payload under 4 GiB"));
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Append a table cell: the [`Value::encode`] bytes behind a `u32` length,
    /// encoded in place — `put_bytes(&value.encode())` without the per-cell
    /// buffer.
    pub fn put_value(&mut self, value: &Value) {
        self.put_prefixed(|w| value.encode_into(&mut w.buf));
    }

    /// Append a versioned blob of `kind` behind a `u32` length, written in
    /// place: `fill` writes the blob's body after its preamble — the bytes of
    /// `put_bytes` over a [`Writer::versioned`] blob, without building one.
    pub fn put_blob(&mut self, kind: u8, fill: impl FnOnce(&mut Writer)) {
        self.put_prefixed(|w| {
            w.put_preamble(kind);
            fill(w);
        });
    }

    /// The in-place primitive behind [`Writer::put_value`] and
    /// [`Writer::put_blob`]: reserve a `u32` length prefix, let `fill` append
    /// the field, then back-patch the prefix with the field's length.
    fn put_prefixed(&mut self, fill: impl FnOnce(&mut Writer)) {
        let at = self.buf.len();
        self.put_u32(0);
        fill(self);
        let len = self.buf.len() - at - 4;
        // lint: allow(no-unwrap) — encoder-side invariant, as in `put_bytes`
        let len = u32::try_from(len).expect("payload under 4 GiB");
        if let Some(prefix) = self.buf.get_mut(at..at + 4) {
            prefix.copy_from_slice(&len.to_le_bytes());
        }
    }

    /// Finish the blob.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Checked decoder over one wire blob.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Open a blob, validating magic and version, and expecting the given kind tag.
    pub fn versioned(buf: &'a [u8], kind: u8) -> WireResult<Self> {
        let mut r = Reader { buf, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.u16()?;
        if version == 0 || version > VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let got = r.u8()?;
        if got != kind {
            return Err(WireError::WrongKind { expected: kind, got });
        }
        Ok(r)
    }

    /// Open a bare payload written by [`Writer::raw`] (no magic/version/kind header).
    pub fn raw(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let truncated = WireError::Truncated { needed: n, remaining: self.remaining() };
        let end = self.pos.checked_add(n).ok_or_else(|| truncated.clone())?;
        let slice = self.buf.get(self.pos..end).ok_or(truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Take the next `N` bytes as a fixed-size array.
    fn array<const N: usize>(&mut self) -> WireResult<[u8; N]> {
        self.take(N)?.try_into().map_err(|_| WireError::Truncated { needed: N, remaining: 0 })
    }

    /// Read a raw byte.
    pub fn u8(&mut self) -> WireResult<u8> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> WireResult<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a `u64` and convert it to `usize`.
    pub fn usize(&mut self) -> WireResult<usize> {
        usize::try_from(self.u64()?)
            .map_err(|_| WireError::Malformed("count exceeds the platform word size".into()))
    }

    /// Read a `u32` element count, validating that `count × min_elem_bytes` does not
    /// exceed the remaining input. Collection decoders must size their allocations
    /// through this (or [`Reader::count_u64`]) so that a corrupt count errors instead
    /// of requesting a multi-gigabyte `Vec`.
    pub fn count_u32(&mut self, min_elem_bytes: usize) -> WireResult<usize> {
        let count = self.u32_len()?;
        self.check_count(count, min_elem_bytes)
    }

    /// [`Reader::count_u32`] for `u64`-encoded counts.
    pub fn count_u64(&mut self, min_elem_bytes: usize) -> WireResult<usize> {
        let count = self.usize()?;
        self.check_count(count, min_elem_bytes)
    }

    fn check_count(&self, count: usize, min_elem_bytes: usize) -> WireResult<usize> {
        let needed = count.saturating_mul(min_elem_bytes.max(1));
        if needed > self.remaining() {
            return Err(WireError::Truncated { needed, remaining: self.remaining() });
        }
        Ok(count)
    }

    /// Read a `u32` and widen it to `usize`.
    fn u32_len(&mut self) -> WireResult<usize> {
        usize::try_from(self.u32()?)
            .map_err(|_| WireError::Malformed("length exceeds the platform word size".into()))
    }

    /// Read a `u32`-length-prefixed byte string. The length is validated against the
    /// remaining input before any slice is taken.
    pub fn bytes(&mut self) -> WireResult<&'a [u8]> {
        let len = self.u32_len()?;
        self.take(len)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> WireResult<String> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| WireError::Malformed("string is not valid UTF-8".into()))
    }

    /// Assert the blob is fully consumed.
    pub fn finish(self) -> WireResult<()> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut w = Writer::versioned(9);
        w.put_u8(7);
        w.put_u16(513);
        w.put_u32(70_000);
        w.put_u64(u64::MAX);
        w.put_usize(42);
        w.put_bytes(&[1, 2, 3]);
        w.put_str("héllo");
        let blob = w.finish();

        let mut r = Reader::versioned(&blob, 9).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn in_place_fields_match_their_buffered_bytes() {
        let values = [
            Value::Null,
            Value::Int(-7),
            Value::Decimal { digits: 12_345, scale: 2 },
            Value::Text("héllo".into()),
            Value::Date(19_000),
            Value::Bytes(vec![0u8; 300].into()),
        ];
        let (mut in_place, mut buffered) = (Writer::raw(), Writer::raw());
        in_place.put_u8(9);
        buffered.put_u8(9);
        in_place.put_blob(3, |w| {
            w.put_u64(values.len() as u64);
            for v in &values {
                w.put_value(v);
            }
        });
        let mut blob = Writer::versioned(3);
        blob.put_u64(values.len() as u64);
        for v in &values {
            blob.put_bytes(&v.encode());
        }
        buffered.put_bytes(&blob.finish());
        assert_eq!(in_place.finish(), buffered.finish());
    }

    #[test]
    fn header_is_validated() {
        let blob = Writer::versioned(1).finish();
        assert!(matches!(
            Reader::versioned(&blob, 2).unwrap_err(),
            WireError::WrongKind { expected: 2, got: 1 }
        ));
        let mut bad_magic = blob.clone();
        bad_magic[0] = b'X';
        assert_eq!(Reader::versioned(&bad_magic, 1).unwrap_err(), WireError::BadMagic);
        let mut future = blob.clone();
        future[4] = 0xff;
        future[5] = 0xff;
        assert!(matches!(
            Reader::versioned(&future, 1).unwrap_err(),
            WireError::UnsupportedVersion(_)
        ));
        assert!(matches!(
            Reader::versioned(&blob[..3], 1).unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    #[test]
    fn length_prefix_cannot_over_allocate() {
        let mut w = Writer::versioned(1);
        w.put_u32(u32::MAX); // a length prefix promising 4 GiB
        let blob = w.finish();
        let mut r = Reader::versioned(&blob, 1).unwrap();
        assert!(matches!(r.bytes().unwrap_err(), WireError::Truncated { .. }));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = Writer::versioned(1);
        w.put_u8(1);
        let blob = w.finish();
        let r = Reader::versioned(&blob, 1).unwrap();
        assert_eq!(r.finish().unwrap_err(), WireError::TrailingBytes(1));
    }
}
