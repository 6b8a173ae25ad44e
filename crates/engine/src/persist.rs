//! Owner-state persistence: the [`OwnerState`] codec and the field codecs the
//! `F2WS` v2 stream frames are built from.
//!
//! lint: untrusted-input — decoders below parse persisted blobs that may be
//! corrupt or hostile; the panic-freedom rules are enforced by `f2-lint`.
//!
//! [`encode_state`] and [`decode_state`] carry an [`OwnerState`] over the
//! [`wire`](crate::wire) format; the blob's kind tag names the variant
//! ([`KIND_F2_STATE`] or [`KIND_CELL_WISE_STATE`]), so decoding needs neither a
//! scheme nor a key. Every chunk frame of a v2 stream embeds its chunk's state
//! blob next to the [`encode_table`] blob of its ciphertext (see
//! [`crate::stream`]), so a stream written in one process decrypts in another —
//! through the `decrypt` of a scheme built from the same keys, which also refuses
//! a state of another backend. The key material is deliberately **not** part of
//! any blob. The state *is* in the clear, though: F²'s provenance tells real rows
//! from artificial ones. Keep state blobs and the streams that carry them with
//! the owner; outsource only the encrypted table.

use crate::wire::{Reader, WireError, WireResult, Writer};
use f2_core::scheme::CellWiseState;
use f2_core::{EncryptionReport, F2OwnerState, OwnerState, Provenance, Result, RowOrigin};
use f2_relation::{AttrSet, Attribute, Bytes, DataType, Record, Schema, Table, Value};
use std::ops::Range;
use std::time::Duration;

/// Wire kind tag: an F² owner state.
pub const KIND_F2_STATE: u8 = 1;
/// Wire kind tag: a cell-wise (baseline) owner state.
pub const KIND_CELL_WISE_STATE: u8 = 2;
/// Wire kind tag: an encrypted table.
pub const KIND_TABLE: u8 = 3;

/// Serialize an owner state as a standalone wire blob.
pub fn encode_state(state: &OwnerState) -> Result<Vec<u8>> {
    match state {
        OwnerState::F2(state) => {
            let mut w = Writer::versioned(KIND_F2_STATE);
            put_schema(&mut w, &state.plaintext_schema);
            let mas_count = u32::try_from(state.mas_sets.len()).map_err(|_| {
                f2_core::F2Error::UnsupportedInput(
                    "owner state holds more than u32::MAX MAS sets".into(),
                )
            })?;
            w.put_u32(mas_count);
            for mas in &state.mas_sets {
                w.put_u64(mas.bits());
            }
            put_provenance(&mut w, &state.provenance);
            Ok(w.finish())
        }
        OwnerState::CellWise(state) => {
            let mut w = Writer::versioned(KIND_CELL_WISE_STATE);
            put_schema(&mut w, &state.plaintext_schema);
            Ok(w.finish())
        }
    }
}

/// Inverse of [`encode_state`]: the kind tag picks the variant. Corrupt or
/// truncated input errors, never panics.
pub fn decode_state(bytes: &[u8]) -> Result<OwnerState> {
    let mut r = match Reader::versioned(bytes, KIND_F2_STATE) {
        Err(WireError::WrongKind { got: KIND_CELL_WISE_STATE, .. }) => {
            let mut r = Reader::versioned(bytes, KIND_CELL_WISE_STATE)?;
            let plaintext_schema = take_schema(&mut r)?;
            r.finish()?;
            return Ok(OwnerState::CellWise(CellWiseState { plaintext_schema }));
        }
        opened => opened?,
    };
    let plaintext_schema = take_schema(&mut r)?;
    let mas_count = r.count_u32(8)?; // 8 bytes per AttrSet
    let mut mas_sets = Vec::with_capacity(mas_count);
    for _ in 0..mas_count {
        mas_sets.push(AttrSet::from_bits(r.u64()?));
    }
    let provenance = take_provenance(&mut r)?;
    r.finish()?;
    Ok(OwnerState::F2(F2OwnerState { provenance, mas_sets, plaintext_schema }))
}

/// Serialize a table (schema + rows) as a standalone wire blob.
pub fn encode_table(table: &Table) -> Vec<u8> {
    let mut w = Writer::versioned(KIND_TABLE);
    put_table_body(&mut w, table);
    w.finish()
}

/// Append `table`'s blob — the [`encode_table`] bytes — behind a `u32` length,
/// written in place: no per-cell buffer and no separate blob are built.
pub fn put_table(w: &mut Writer, table: &Table) {
    w.put_blob(KIND_TABLE, |w| put_table_body(w, table));
}

fn put_table_body(w: &mut Writer, table: &Table) {
    put_schema(w, table.schema());
    w.put_usize(table.row_count());
    for (_, rec) in table.iter() {
        for v in rec.values() {
            w.put_value(v);
        }
    }
}

/// Inverse of [`encode_table`]. The blob is copied into one shared buffer, and
/// its byte-string cells are views of that copy.
pub fn decode_table(bytes: &[u8]) -> Result<Table> {
    decode_table_rows(&Bytes::copy_from_slice(bytes), None).map(|(table, _)| table)
}

/// The one table decoder: it builds only the rows `selected` names — ascending
/// row indices, or every row for `None` — and returns them with the blob's row
/// count. Every other cell is still read and checked ([`Value::is_valid_encoding`]),
/// so a blob refused under one selection is refused under every selection; a
/// selected row the blob does not hold (or a selection out of order) is refused
/// too. A built byte-string cell (a ciphertext) is a view of `blob`, taken at the
/// reader's offset ([`Value::decode_view`]), so it copies nothing and keeps the
/// buffer `blob` views alive; every other value is built from its bytes.
pub fn decode_table_rows(blob: &Bytes, selected: Option<&[usize]>) -> Result<(Table, usize)> {
    let undecodable = || WireError::Malformed("cell encoding does not decode to a value".into());
    let mut r = Reader::versioned(blob, KIND_TABLE)?;
    let schema = take_schema(&mut r)?;
    let arity = schema.arity();
    // Every cell carries at least its 4-byte length prefix; `arity.max(1)` keeps the
    // bound meaningful for zero-arity tables (whose rows consume no input at all, so
    // any claimed row count beyond the remaining bytes is corrupt).
    let rows = r.count_u64(arity.max(1) * 4)?;
    let mut wanted = selected.map(|rows| rows.iter().copied().peekable());
    let mut records = Vec::with_capacity(selected.map_or(rows, <[usize]>::len).min(1 << 20));
    for row in 0..rows {
        if wanted.as_mut().is_none_or(|wanted| wanted.next_if_eq(&row).is_some()) {
            let mut values = Vec::with_capacity(arity);
            for _ in 0..arity {
                let cell = take_range(&mut r, blob)?;
                values.push(Value::decode_view(blob, cell).ok_or_else(undecodable)?);
            }
            records.push(Record::new(values));
        } else {
            for _ in 0..arity {
                if !Value::is_valid_encoding(r.bytes()?) {
                    return Err(undecodable().into());
                }
            }
        }
    }
    r.finish()?;
    if wanted.is_some_and(|mut wanted| wanted.peek().is_some()) {
        return Err(WireError::Malformed(format!(
            "row selection is not ascending or reaches past the table's {rows} rows"
        ))
        .into());
    }
    Ok((Table::new(schema, records)?, rows))
}

/// Read a length-prefixed byte string from `r`, a reader over `buf`, and return
/// where it lies in `buf`: it ends where the reader now stands. A caller holding
/// `buf` in a shared buffer takes its view with a checked `get` of this range.
pub(crate) fn take_range(r: &mut Reader<'_>, buf: &[u8]) -> WireResult<Range<usize>> {
    let len = r.bytes()?.len();
    let end = buf.len().saturating_sub(r.remaining());
    Ok(end.saturating_sub(len)..end)
}

// ── field codecs ───────────────────────────────────────────────────────────────────

fn data_type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int => 0,
        DataType::Decimal => 1,
        DataType::Text => 2,
        DataType::Date => 3,
        DataType::Bytes => 4,
        DataType::Any => 5,
    }
}

fn data_type_from_tag(tag: u8) -> WireResult<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Decimal,
        2 => DataType::Text,
        3 => DataType::Date,
        4 => DataType::Bytes,
        5 => DataType::Any,
        other => return Err(WireError::Malformed(format!("unknown data-type tag {other}"))),
    })
}

/// Serialize a [`Schema`] into a wire [`Writer`] (arity-prefixed attribute
/// names and type tags) — the same encoding stream headers and owner states
/// embed, exported so protocol layers (e.g. `f2_server`) can carry schemas.
pub fn put_schema(w: &mut Writer, schema: &Schema) {
    // lint: allow(truncating-cast) — arity ≤ 64: attribute sets are 64-bit masks
    w.put_u16(schema.arity() as u16);
    for attr in schema.attributes() {
        w.put_str(&attr.name);
        w.put_u8(data_type_tag(attr.data_type));
    }
}

/// Decode a [`Schema`] previously written by [`put_schema`]. Corrupt or
/// truncated input errors, never panics.
pub fn take_schema(r: &mut Reader<'_>) -> Result<Schema> {
    let arity = usize::from(r.u16()?);
    // lint: allow(alloc-before-cap) — the u16 arity caps this allocation at 65 535
    let mut attrs = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = r.str()?;
        let data_type = data_type_from_tag(r.u8()?)?;
        attrs.push(Attribute::new(name, data_type));
    }
    Ok(Schema::new(attrs)?)
}

const ORIGIN_REAL: u8 = 0;
const ORIGIN_SCALE_COPY: u8 = 1;
const ORIGIN_GROUP_FAKE: u8 = 2;
const ORIGIN_CONFLICT_COMPANION: u8 = 3;
const ORIGIN_FALSE_POSITIVE: u8 = 4;

fn put_provenance(w: &mut Writer, provenance: &Provenance) {
    w.put_usize(provenance.origins.len());
    for origin in &provenance.origins {
        let (tag, payload) = match *origin {
            RowOrigin::Real { original_row } => (ORIGIN_REAL, original_row),
            RowOrigin::ScaleCopy { mas_index } => (ORIGIN_SCALE_COPY, mas_index),
            RowOrigin::GroupFake { mas_index } => (ORIGIN_GROUP_FAKE, mas_index),
            RowOrigin::ConflictCompanion { original_row } => {
                (ORIGIN_CONFLICT_COMPANION, original_row)
            }
            RowOrigin::FalsePositive { mas_index } => (ORIGIN_FALSE_POSITIVE, mas_index),
        };
        w.put_u8(tag);
        w.put_usize(payload);
    }
    // Sorted for a canonical encoding: equal provenances serialize identically.
    let mut patches: Vec<_> = provenance.patches.iter().collect();
    patches.sort_by_key(|(row, _)| **row);
    w.put_usize(patches.len());
    for (original_row, cells) in patches {
        w.put_usize(*original_row);
        // lint: allow(truncating-cast) — a row patches at most one cell per attribute (≤ 64)
        w.put_u32(cells.len() as u32);
        for &(attr, companion_row) in cells {
            // lint: allow(truncating-cast) — attr is an index below the arity (≤ 64)
            w.put_u32(attr as u32);
            w.put_usize(companion_row);
        }
    }
}

fn take_provenance(r: &mut Reader<'_>) -> Result<Provenance> {
    let origin_count = r.count_u64(9)?; // 1-byte tag + 8-byte payload per origin
    let mut provenance = Provenance::default();
    provenance.origins.reserve(origin_count);
    for _ in 0..origin_count {
        let tag = r.u8()?;
        let payload = r.usize()?;
        provenance.origins.push(match tag {
            ORIGIN_REAL => RowOrigin::Real { original_row: payload },
            ORIGIN_SCALE_COPY => RowOrigin::ScaleCopy { mas_index: payload },
            ORIGIN_GROUP_FAKE => RowOrigin::GroupFake { mas_index: payload },
            ORIGIN_CONFLICT_COMPANION => RowOrigin::ConflictCompanion { original_row: payload },
            ORIGIN_FALSE_POSITIVE => RowOrigin::FalsePositive { mas_index: payload },
            other => {
                return Err(WireError::Malformed(format!("unknown row-origin tag {other}")).into())
            }
        });
    }
    let patch_count = r.count_u64(12)?; // 8-byte row + 4-byte cell count per patch
    for _ in 0..patch_count {
        let original_row = r.usize()?;
        let cell_count = r.count_u32(12)?; // 4-byte attr + 8-byte row per cell
        let mut cells = Vec::with_capacity(cell_count);
        for _ in 0..cell_count {
            let attr = usize::try_from(r.u32()?).map_err(|_| {
                WireError::Malformed("attribute index exceeds the platform word size".into())
            })?;
            let companion_row = r.usize()?;
            cells.push((attr, companion_row));
        }
        if provenance.patches.insert(original_row, cells).is_some() {
            return Err(WireError::Malformed(format!(
                "duplicate patch entry for original row {original_row}"
            ))
            .into());
        }
    }
    Ok(provenance)
}

pub(crate) fn put_report(w: &mut Writer, report: &EncryptionReport) {
    for d in [report.timings.max, report.timings.sse, report.timings.syn, report.timings.fp] {
        w.put_u64(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }
    for n in [
        report.overhead.original_rows,
        report.overhead.group_rows,
        report.overhead.scale_rows,
        report.overhead.syn_rows,
        report.overhead.fp_rows,
        report.mas_count,
        report.overlapping_mas_pairs,
        report.equivalence_classes,
        report.false_positive_fds,
    ] {
        w.put_usize(n);
    }
}

pub(crate) fn take_report(r: &mut Reader<'_>) -> Result<EncryptionReport> {
    let timings = f2_core::report::StepTimings {
        max: Duration::from_nanos(r.u64()?),
        sse: Duration::from_nanos(r.u64()?),
        syn: Duration::from_nanos(r.u64()?),
        fp: Duration::from_nanos(r.u64()?),
    };
    let overhead = f2_core::report::OverheadBreakdown {
        original_rows: r.usize()?,
        group_rows: r.usize()?,
        scale_rows: r.usize()?,
        syn_rows: r.usize()?,
        fp_rows: r.usize()?,
    };
    Ok(EncryptionReport {
        timings,
        overhead,
        mas_count: r.usize()?,
        overlapping_mas_pairs: r.usize()?,
        equivalence_classes: r.usize()?,
        false_positive_fds: r.usize()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_core::{DetScheme, Scheme, SchemeOutcome, F2};
    use f2_crypto::MasterKey;
    use f2_relation::table;

    fn fixture() -> Table {
        table! {
            ["Zip", "City", "Name"];
            ["07030", "Hoboken", "alice"],
            ["07030", "Hoboken", "bob"],
            ["10001", "NewYork", "carol"],
            ["10001", "NewYork", "dave"],
            ["08540", "Princeton", "erin"],
        }
    }

    #[test]
    fn table_blob_roundtrip() {
        let t = fixture();
        let blob = encode_table(&t);
        assert_eq!(decode_table(&blob).unwrap(), t);
        assert!(decode_table(&blob[..blob.len() - 1]).is_err());
        assert!(decode_table(&[]).is_err());
    }

    #[test]
    fn put_table_writes_the_encode_table_bytes_in_place() {
        let values = vec![
            Value::Null,
            Value::Int(i64::MIN),
            Value::Decimal { digits: -5, scale: 3 },
            Value::Text(String::new()),
            Value::Date(-1),
            Value::Bytes(vec![7u8; 40].into()),
        ];
        let schema = Schema::new(
            (0..values.len()).map(|i| Attribute::new(format!("c{i}"), DataType::Any)).collect(),
        )
        .unwrap();
        let mixed =
            Table::new(schema, vec![Record::new(values.clone()), Record::new(values)]).unwrap();
        for table in [fixture(), mixed, Table::empty(fixture().schema().clone())] {
            let mut in_place = Writer::raw();
            put_table(&mut in_place, &table);
            let mut buffered = Writer::raw();
            buffered.put_bytes(&encode_table(&table));
            assert_eq!(in_place.finish(), buffered.finish());
        }
    }

    #[test]
    fn f2_state_roundtrips_and_decrypts() {
        let t = fixture();
        let scheme = F2::builder().alpha(0.5).seed(9).build().unwrap();
        let outcome = scheme.encrypt(&t).unwrap();
        let blob = encode_state(&outcome.state).unwrap();
        let restored = SchemeOutcome {
            encrypted: outcome.encrypted.clone(),
            state: decode_state(&blob).unwrap(),
            report: EncryptionReport::default(),
        };
        assert!(scheme.decrypt(&restored).unwrap().multiset_eq(&t));
        // The loaded state is structurally identical, not just behaviorally.
        let (a, b) = (outcome.f2_state().unwrap(), restored.f2_state().unwrap());
        assert_eq!(a.provenance, b.provenance);
        assert_eq!(a.mas_sets, b.mas_sets);
        assert_eq!(a.plaintext_schema, b.plaintext_schema);
    }

    #[test]
    fn foreign_states_decode_and_the_other_scheme_refuses_them() {
        let t = fixture();
        let det = DetScheme::new(MasterKey::from_seed(2));
        let f2 = F2::builder().seed(2).build().unwrap();
        let det_outcome = det.encrypt(&t).unwrap();
        let f2_outcome = f2.encrypt(&t).unwrap();
        // The codec needs no scheme: each blob decodes to the variant its kind names …
        let det_state = decode_state(&encode_state(&det_outcome.state).unwrap()).unwrap();
        let f2_state = decode_state(&encode_state(&f2_outcome.state).unwrap()).unwrap();
        assert!(matches!(det_state, OwnerState::CellWise(_)));
        assert!(matches!(f2_state, OwnerState::F2(_)));
        // … and the holder of the other backend's keys refuses it at decryption.
        let swapped = |encrypted: &Table, state| SchemeOutcome {
            encrypted: encrypted.clone(),
            state,
            report: EncryptionReport::default(),
        };
        let err = f2.decrypt(&swapped(&f2_outcome.encrypted, det_state)).unwrap_err();
        assert!(err.to_string().contains("owner state type mismatch"), "{err}");
        let err = det.decrypt(&swapped(&det_outcome.encrypted, f2_state)).unwrap_err();
        assert!(err.to_string().contains("owner state type mismatch"), "{err}");
        // A blob of another kind is not an owner state at all.
        assert!(decode_state(&encode_table(&t)).is_err());
    }

    #[test]
    fn hostile_counts_error_instead_of_allocating() {
        // A ~15-byte blob promising 2³²−1 MAS sets must error, not reserve 32 GiB.
        let mut w = Writer::versioned(KIND_F2_STATE);
        w.put_u16(0); // zero-arity schema
        w.put_u32(u32::MAX);
        assert!(decode_state(&w.finish()).is_err());

        // A table blob promising 2⁶⁴−1 rows of a zero-arity schema must error, not
        // loop pushing empty records until OOM.
        let mut w = Writer::versioned(KIND_TABLE);
        w.put_u16(0);
        w.put_u64(u64::MAX);
        assert!(decode_table(&w.finish()).is_err());

        // Same for a provenance claiming more origins than the blob can hold.
        let mut w = Writer::versioned(KIND_F2_STATE);
        w.put_u16(0);
        w.put_u32(0); // no MAS sets
        w.put_u64(u64::MAX); // origin count
        assert!(decode_state(&w.finish()).is_err());
    }
}
