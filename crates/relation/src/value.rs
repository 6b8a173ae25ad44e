//! Cell values.
//!
//! F² encrypts a table *cell by cell* (Section 2.1 of the paper), so the substrate
//! needs a value type that can represent both plaintext domain values (integers,
//! strings, fixed-point decimals, dates) and raw ciphertext bytes produced by the
//! probabilistic encryption scheme.

use bytes::Bytes;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// A single cell value.
///
/// `Value` implements total ordering and hashing so that it can be used as the key of
/// partition maps (Definition 3.3) and frequency histograms (the attacker's background
/// knowledge in Section 2.4).
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL / missing value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// Fixed-point decimal stored as scaled integer (`digits`, `scale`): the logical
    /// value is `digits / 10^scale`. TPC-H monetary columns use scale 2.
    Decimal {
        /// Scaled integral representation.
        digits: i64,
        /// Number of fractional digits.
        scale: u8,
    },
    /// UTF-8 text.
    Text(String),
    /// Calendar date encoded as days since 1970-01-01 (proleptic Gregorian).
    Date(i32),
    /// Raw bytes — used for ciphertext cells in the encrypted table `D̂`.
    Bytes(Bytes),
}

// A cell is three words: `String` is the largest variant, and the tag fits in
// its niche; `Bytes` is a thin buffer pointer plus a `u32` view offset and
// length. Tables hold one `Value` per cell, so a wider variant would grow every
// table in memory.
const _: () = assert!(std::mem::size_of::<Value>() == 24);

impl Value {
    /// Build a text value.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Build a byte-string value (used for ciphertexts).
    pub fn bytes(b: impl Into<Bytes>) -> Self {
        Value::Bytes(b.into())
    }

    /// Build a decimal with two fractional digits (cents), the TPC-H convention.
    pub fn money(cents: i64) -> Self {
        Value::Decimal { digits: cents, scale: 2 }
    }

    /// True if this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True if this value is a ciphertext byte string.
    pub fn is_bytes(&self) -> bool {
        matches!(self, Value::Bytes(_))
    }

    /// Return the contained integer, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Return the contained text, if any.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Return the contained bytes, if any.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b.as_ref()),
            _ => None,
        }
    }

    /// Approximate in-memory / serialized size of the value in bytes. Used to report
    /// dataset sizes comparable to Table 1 of the paper.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Decimal { .. } => 9,
            Value::Text(s) => s.len(),
            Value::Date(_) => 4,
            Value::Bytes(b) => b.len(),
        }
    }

    /// A small integer identifying the variant, used to order across variants.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Decimal { .. } => 2,
            Value::Text(_) => 3,
            Value::Date(_) => 4,
            Value::Bytes(_) => 5,
        }
    }

    /// Serialize the value to a self-describing byte string. This is the plaintext fed
    /// to the probabilistic encryption scheme `e = ⟨r, F_k(r) ⊕ p⟩`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Length of the [`Value::encode`] byte string, computed without encoding.
    pub fn encoded_len(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 9,
            Value::Decimal { .. } => 10,
            Value::Text(s) => 1 + s.len(),
            Value::Date(_) => 5,
            Value::Bytes(b) => 1 + b.len(),
        }
    }

    /// Append the [`Value::encode`] byte string to `out` — the write-into-buffer form
    /// used by the bulk encryption paths so per-cell encoding stops allocating.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Decimal { digits, scale } => {
                out.push(2);
                out.extend_from_slice(&digits.to_le_bytes());
                out.push(*scale);
            }
            Value::Text(s) => Value::encode_text_into(s, out),
            Value::Date(d) => {
                out.push(4);
                out.extend_from_slice(&d.to_le_bytes());
            }
            Value::Bytes(b) => {
                out.push(5);
                out.extend_from_slice(b);
            }
        }
    }

    /// Append the [`Value::encode`] bytes of `Value::Text(text)` to `out`, without
    /// building the value.
    pub fn encode_text_into(text: &str, out: &mut Vec<u8>) {
        out.push(3);
        out.extend_from_slice(text.as_bytes());
    }

    /// Inverse of [`Value::encode`]. Returns `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<Value> {
        let (&tag, rest) = buf.split_first()?;
        match tag {
            0 => {
                if rest.is_empty() {
                    Some(Value::Null)
                } else {
                    None
                }
            }
            1 => {
                let arr: [u8; 8] = rest.try_into().ok()?;
                Some(Value::Int(i64::from_le_bytes(arr)))
            }
            2 => {
                if rest.len() != 9 {
                    return None;
                }
                let digits = i64::from_le_bytes(rest[..8].try_into().ok()?);
                Some(Value::Decimal { digits, scale: rest[8] })
            }
            3 => Some(Value::Text(String::from_utf8(rest.to_vec()).ok()?)),
            4 => {
                let arr: [u8; 4] = rest.try_into().ok()?;
                Some(Value::Date(i32::from_le_bytes(arr)))
            }
            5 => Some(Value::Bytes(Bytes::copy_from_slice(rest))),
            _ => None,
        }
    }

    /// [`Value::decode`] of the encoding at `range` of `buf`, except that a
    /// byte-string value is a view of `buf` ([`Bytes::slice`]) instead of a copy.
    /// Returns `None` on malformed input and on a range outside `buf`.
    pub fn decode_view(buf: &Bytes, range: Range<usize>) -> Option<Value> {
        let encoding = buf.get(range.clone())?;
        match encoding.first() {
            Some(5) => Some(Value::Bytes(buf.slice(range.start + 1..range.end))),
            _ => Value::decode(encoding),
        }
    }

    /// True exactly when [`Value::decode`] accepts `buf`, checked without building
    /// the value: nothing is allocated.
    pub fn is_valid_encoding(buf: &[u8]) -> bool {
        match buf.split_first() {
            Some((0, rest)) => rest.is_empty(),
            Some((1, rest)) => rest.len() == 8,
            Some((2, rest)) => rest.len() == 9,
            Some((3, rest)) => std::str::from_utf8(rest).is_ok(),
            Some((4, rest)) => rest.len() == 4,
            Some((5, _)) => true,
            _ => false,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Decimal { digits: a, scale: sa }, Value::Decimal { digits: b, scale: sb }) => {
                a == b && sa == sb
            }
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Decimal { digits, scale } => {
                digits.hash(state);
                scale.hash(state);
            }
            Value::Text(s) => s.hash(state),
            Value::Date(d) => d.hash(state),
            Value::Bytes(b) => b.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Decimal { digits: a, scale: sa }, Value::Decimal { digits: b, scale: sb }) => {
                sa.cmp(sb).then(a.cmp(b))
            }
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            (Value::Bytes(a), Value::Bytes(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Value {
    /// A `(variant rank, u64 prefix)` key that never contradicts [`Ord`]: `a < b`
    /// implies `a.order_key() <= b.order_key()`, and `a == b` implies equal keys.
    /// Sorting by the key and calling [`Value::cmp`] only when two keys tie orders
    /// exactly like `Value::cmp`, without following a pointer per comparison.
    ///
    /// Ints and Dates map exactly (sign bit flipped). A Decimal puts its scale in
    /// the top byte and its digits, clamped to 56 bits, below it. Texts and Bytes
    /// take their first 8 bytes big-endian, zero-padded, so a proper prefix never
    /// keys above its extension, and two keys tie only when the padded first 8 bytes
    /// agree (`ab` and `ab\0`, say).
    pub(crate) fn order_key(&self) -> (u8, u64) {
        const HALF_56: i64 = 1 << 55;
        let flip = |i: i64| (i as u64) ^ (1 << 63);
        let head = |b: &[u8]| {
            let mut word = [0u8; 8];
            let n = b.len().min(8);
            word[..n].copy_from_slice(&b[..n]);
            u64::from_be_bytes(word)
        };
        let prefix = match self {
            Value::Null => 0,
            Value::Int(i) => flip(*i),
            Value::Decimal { digits, scale } => {
                let low = ((*digits).clamp(-HALF_56, HALF_56 - 1) + HALF_56) as u64;
                (u64::from(*scale) << 56) | low
            }
            Value::Text(s) => head(s.as_bytes()),
            Value::Date(d) => flip(i64::from(*d)),
            Value::Bytes(b) => head(b),
        };
        (self.type_rank(), prefix)
    }
}

/// Values at the edges of [`Value::order_key`]: every variant, extreme and negative
/// numbers, Decimals of scales 0–3 (and past the key's 56-bit digit range), Texts and
/// Bytes that share their first 8 bytes or differ only at byte 9, byte strings that
/// differ only by trailing zeros, the empty Text and Bytes, and `0xFF`-led Bytes.
#[cfg(test)]
pub(crate) fn order_key_edges() -> Vec<Value> {
    let mut edges = vec![Value::Null];
    edges.extend([i64::MIN, -1, 0, i64::MAX].map(Value::Int));
    for scale in 0..=3 {
        for digits in [i64::MIN, -(1 << 55) - 1, -(1 << 55), -1, 0, 1, (1 << 55) - 1, 1 << 55] {
            edges.push(Value::Decimal { digits, scale });
        }
    }
    edges.extend([i32::MIN, -1, 0, 19_000].map(Value::Date));
    for text in ["", "a", "abcdefgh", "abcdefgh1", "abcdefgh2", "abcdefgi"] {
        edges.push(Value::text(text));
    }
    let bytes: [&[u8]; 10] = [
        b"",
        b"ab",
        b"ab\0",
        b"ab\0\0",
        b"abcdefgh",
        b"abcdefgh\x01",
        b"abcdefgh\x02",
        b"abcdefgi",
        b"\xff",
        b"\xff\xff\xff\xff\xff\xff\xff\xff\xff",
    ];
    edges.extend(bytes.map(|b| Value::bytes(b.to_vec())));
    edges
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Decimal { digits, scale } => {
                // The magnitude's digit string, zero-padded so a digit precedes
                // the point; no power of ten is computed, so every scale prints.
                let scale = usize::from(*scale);
                let magnitude = format!("{:0width$}", digits.unsigned_abs(), width = scale + 1);
                let (whole, frac) = magnitude.split_at(magnitude.len() - scale);
                let sign = if *digits < 0 { "-" } else { "" };
                if frac.is_empty() {
                    write!(f, "{sign}{whole}")
                } else {
                    write!(f, "{sign}{whole}.{frac}")
                }
            }
            Value::Text(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "@{d}"),
            Value::Bytes(b) => {
                write!(f, "0x")?;
                for byte in b.iter().take(8) {
                    write!(f, "{byte:02x}")?;
                }
                if b.len() > 8 {
                    write!(f, "..")?;
                }
                Ok(())
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_within_variants() {
        assert_eq!(Value::Int(5), Value::Int(5));
        assert_ne!(Value::Int(5), Value::Int(6));
        assert_eq!(Value::text("a"), Value::text("a"));
        assert_ne!(Value::text("a"), Value::text("b"));
        assert_ne!(Value::Int(5), Value::text("5"));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn hash_consistent_with_eq() {
        assert_eq!(hash_of(&Value::Int(42)), hash_of(&Value::Int(42)));
        assert_eq!(hash_of(&Value::text("x")), hash_of(&Value::text("x")));
        assert_ne!(hash_of(&Value::Int(1)), hash_of(&Value::text("1")));
    }

    #[test]
    fn ordering_is_total() {
        let mut vs = [
            Value::text("b"),
            Value::Int(3),
            Value::Null,
            Value::Int(1),
            Value::text("a"),
            Value::bytes(vec![1, 2]),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Int(1));
        assert_eq!(vs[2], Value::Int(3));
        assert_eq!(vs[3], Value::text("a"));
    }

    #[test]
    fn order_key_never_contradicts_value_order() {
        let edges = order_key_edges();
        for a in &edges {
            for b in &edges {
                let (ka, kb) = (a.order_key(), b.order_key());
                match a.cmp(b) {
                    Ordering::Less => assert!(ka <= kb, "{a:?} < {b:?} but {ka:?} > {kb:?}"),
                    Ordering::Equal => assert_eq!(ka, kb, "{a:?} == {b:?}"),
                    Ordering::Greater => assert!(ka >= kb, "{a:?} > {b:?} but {ka:?} < {kb:?}"),
                }
            }
        }
        // A constant key would pass the loop above; this one must also separate
        // values that differ within their first 8 bytes.
        assert!(Value::text("abcdefgh").order_key() < Value::text("abcdefgi").order_key());
        assert!(Value::Int(-1).order_key() < Value::Int(0).order_key());
        assert_eq!(
            Value::bytes(b"ab".to_vec()).order_key(),
            Value::bytes(b"ab\0".to_vec()).order_key()
        );
    }

    #[test]
    fn decimal_display() {
        assert_eq!(Value::money(123456).to_string(), "1234.56");
        assert_eq!(Value::money(5).to_string(), "0.05");
    }

    #[test]
    fn decimal_display_keeps_sign_and_scale() {
        let dec = |digits, scale| Value::Decimal { digits, scale }.to_string();
        assert_eq!(dec(-5, 1), "-0.5");
        assert_eq!(dec(-1999, 2), "-19.99");
        assert_eq!(dec(5, 0), "5");
        assert_eq!(dec(-5, 0), "-5");
        assert_eq!(dec(0, 3), "0.000");
        assert_eq!(dec(i64::MIN, 1), "-922337203685477580.8");
        assert_eq!(dec(7, 21), format!("0.{}7", "0".repeat(20)));
        assert_eq!(dec(1, u8::MAX), format!("0.{}1", "0".repeat(254)));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cases = vec![
            Value::Null,
            Value::Int(-77),
            Value::Int(i64::MAX),
            Value::money(999),
            Value::text("hello world"),
            Value::text(""),
            Value::Date(19000),
            Value::bytes(vec![0, 1, 2, 255]),
        ];
        for v in cases {
            let enc = v.encode();
            assert_eq!(enc.len(), v.encoded_len(), "{v:?}");
            let dec = Value::decode(&enc).expect("decode");
            assert_eq!(v, dec, "roundtrip failed for {v:?}");
        }
    }

    #[test]
    fn decode_view_decodes_like_decode_and_views_byte_strings() {
        let cases = [
            Value::Null,
            Value::Int(-77),
            Value::money(999),
            Value::text("hello"),
            Value::Date(19000),
            Value::bytes(vec![0, 1, 2, 255]),
            Value::bytes(vec![]),
        ];
        let mut buf = vec![0xEE];
        let mut ranges = Vec::new();
        for v in &cases {
            let start = buf.len();
            v.encode_into(&mut buf);
            ranges.push(start..buf.len());
        }
        let buf = Bytes::from(buf);
        let heap = buf.as_ptr_range();
        for (v, range) in cases.iter().zip(ranges) {
            let decoded = Value::decode_view(&buf, range.clone()).expect("own encoding");
            assert_eq!(&decoded, v);
            assert_eq!(Some(decoded.clone()), Value::decode(&buf[range.clone()]));
            if let Some(body) = decoded.as_bytes() {
                assert_eq!(body.as_ptr(), heap.start.wrapping_add(range.start + 1), "a view");
            }
        }
        // Garbage, and ranges outside the buffer, are refused.
        assert_eq!(Value::decode_view(&buf, 0..1), None);
        assert_eq!(Value::decode_view(&buf, 1..1), None);
        assert_eq!(Value::decode_view(&buf, buf.len()..buf.len() + 1), None);
        let (start, end) = (3, 2);
        assert_eq!(Value::decode_view(&buf, start..end), None);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Value::decode(&[]), None);
        assert_eq!(Value::decode(&[9, 1, 2]), None);
        assert_eq!(Value::decode(&[1, 1, 2]), None); // short int
    }

    #[test]
    fn is_valid_encoding_accepts_exactly_what_decode_accepts() {
        let mut checked = 0;
        for tag in 0..=u8::MAX {
            for len in 0..=12u8 {
                let mut buf = vec![tag];
                buf.extend((0..len).map(|i| b'a' + i));
                assert_eq!(
                    Value::is_valid_encoding(&buf),
                    Value::decode(&buf).is_some(),
                    "{buf:?}"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 256 * 13);
        for text in ["", "héllo", "日本", "\u{10FFFF}"] {
            let enc = Value::text(text).encode();
            assert!(Value::is_valid_encoding(&enc));
            assert_eq!(Value::decode(&enc), Some(Value::text(text)));
        }
        // Invalid UTF-8: a lone continuation byte, a truncated sequence, an
        // overlong encoding and a surrogate half.
        for bad in [&[0x80][..], &[0xE6, 0x97], &[0xC0, 0xAF], &[0xED, 0xA0, 0x80]] {
            let mut enc = vec![3];
            enc.extend_from_slice(bad);
            assert!(!Value::is_valid_encoding(&enc), "{enc:?}");
            assert_eq!(Value::decode(&enc), None);
        }
        assert!(!Value::is_valid_encoding(&[]));
    }

    #[test]
    fn size_bytes_reasonable() {
        assert_eq!(Value::Int(1).size_bytes(), 8);
        assert_eq!(Value::text("abcd").size_bytes(), 4);
        assert_eq!(Value::Null.size_bytes(), 1);
    }

    #[test]
    fn conversions() {
        let v: Value = 7i64.into();
        assert_eq!(v, Value::Int(7));
        let v: Value = "hi".into();
        assert_eq!(v, Value::text("hi"));
        assert!(Value::bytes(vec![1]).is_bytes());
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::text("t").as_text(), Some("t"));
        assert_eq!(Value::bytes(vec![9]).as_bytes(), Some(&[9u8][..]));
    }
}
