//! Decryption (data-owner side), behind [`crate::F2Scheme`]'s `decrypt`.
//!
//! Every ciphertext cell is self-contained (`⟨r, F_k(r) ⊕ p⟩`), so cell-wise decryption
//! only needs the master key. Recovering the *original table* additionally uses the
//! owner's [`Provenance`](crate::Provenance): artificial rows (scaling copies, fake
//! equivalence classes, conflict companions, false-positive records) are dropped, and
//! cells that conflict resolution replaced with fresh values are patched back from
//! their companion rows.
//!
//! Each real row decrypts independently of every other, so the rows are split into
//! contiguous ranges of original rows and decrypted as
//! [`decrypt_rows`](crate::scheme::decrypt_rows) splits any backend's rows.

use crate::provenance::{Provenance, RowOrigin};
use crate::scheme::decrypt_rows;
use crate::{F2Error, F2OwnerState, OwnerState, Result};
use f2_crypto::{MasterKey, ProbabilisticCipher};
use f2_relation::Table;

/// Recover the original table exactly from `encrypted` under the owner's `state`.
/// The `Real` rows must name each original row `0..n` exactly once; they come back
/// in that order, each patched from its conflict companions.
///
/// The provenance is checked first, in one pass. Then the original rows are
/// decrypted in contiguous ranges, split over threads by [`decrypt_rows`], and
/// last the conflict patches are applied in one walk over
/// [`Provenance::patches`].
pub(crate) fn recover_original(
    master: &MasterKey,
    encrypted: &Table,
    state: &F2OwnerState,
) -> Result<Table> {
    let (provenance, plaintext_schema) = (&state.provenance, &state.plaintext_schema);
    if provenance.len() != encrypted.row_count() {
        return Err(F2Error::ProvenanceMismatch(format!(
            "provenance describes {} rows but the table has {}",
            provenance.len(),
            encrypted.row_count()
        )));
    }
    let arity = encrypted.arity();
    if plaintext_schema.arity() != arity {
        return Err(F2Error::ProvenanceMismatch(
            "plaintext schema arity differs from the encrypted table".into(),
        ));
    }
    let carriers = real_row_carriers(provenance)?;
    let ciphers: Vec<ProbabilisticCipher> =
        (0..arity).map(|a| ProbabilisticCipher::new(&master.attribute_key(a))).collect();
    let rows = encrypted.rows();
    let mut records = decrypt_rows(
        carriers.len(),
        arity,
        |original_row| &rows[carriers[original_row]],
        |a, cell| Ok(ciphers[a].decrypt_cell(cell)?),
    )?;
    // Patch cells replaced during conflict resolution from their companions. A
    // patch of a row that no `Real` row names is never read.
    for (&original_row, patches) in &provenance.patches {
        let Some(record) = records.get_mut(original_row) else { continue };
        for &(attr, companion_row) in patches {
            let companion_cell = encrypted.cell(companion_row, attr)?;
            record.set(attr, ciphers[attr].decrypt_cell(companion_cell)?);
        }
    }
    Ok(Table::new(plaintext_schema.clone(), records)?)
}

/// The output row that carries each original row `0..n`, for the `n` `Real` rows
/// of `provenance`, checked in one pass over them: each must name a distinct
/// original row below `n`, so every one is named exactly once.
fn real_row_carriers(provenance: &Provenance) -> Result<Vec<usize>> {
    let real = provenance.real_rows();
    let n = real.len();
    let mut carriers = vec![usize::MAX; n];
    for (out_row, original_row) in real {
        // n distinct slots below n for n real rows: every slot gets filled.
        let Some(slot) = carriers.get_mut(original_row).filter(|slot| **slot == usize::MAX) else {
            return Err(F2Error::ProvenanceMismatch(format!(
                "real rows must name each original row 0..{n} once, but output row \
                 {out_row} names row {original_row} out of range or again"
            )));
        };
        *slot = out_row;
    }
    Ok(carriers)
}

impl OwnerState {
    /// The output rows that decrypting a `row_count`-row table under this state
    /// reads, in ascending order, and the state re-indexed onto just those rows:
    /// decrypting the selected rows, in that order, under the returned state
    /// recovers exactly what decrypting the whole table under `self` recovers.
    ///
    /// For F² these are every `Real` row and every conflict companion a patch
    /// points to — all that F² decryption reads; scale copies, fake classes and
    /// false-positive records are never read. A cell-wise state reads every row:
    /// the selection is `None`, and the state is returned unchanged.
    ///
    /// Makes the checks decryption makes before reading a row: an F² provenance
    /// must describe exactly `row_count` rows, and every companion row must lie
    /// below `row_count`.
    pub fn select_read_rows(self, row_count: usize) -> Result<(Option<Vec<usize>>, OwnerState)> {
        let mut state = match self {
            OwnerState::F2(state) => state,
            OwnerState::CellWise(_) => return Ok((None, self)),
        };
        let provenance = &mut state.provenance;
        if provenance.len() != row_count {
            return Err(F2Error::ProvenanceMismatch(format!(
                "provenance describes {} rows but the table has {row_count}",
                provenance.len()
            )));
        }
        let mut read: Vec<bool> = provenance.origins.iter().map(RowOrigin::is_real).collect();
        for &(_, companion_row) in provenance.patches.values().flatten() {
            *read.get_mut(companion_row).ok_or_else(|| {
                F2Error::ProvenanceMismatch(format!(
                    "a patch reads companion row {companion_row} of a {row_count}-row table"
                ))
            })? = true;
        }
        let rows: Vec<usize> =
            read.iter().enumerate().filter_map(|(row, &keep)| keep.then_some(row)).collect();
        let origins = std::mem::take(&mut provenance.origins);
        provenance.origins = origins
            .into_iter()
            .zip(&read)
            .filter_map(|(origin, &keep)| keep.then_some(origin))
            .collect();
        for (_, companion_row) in provenance.patches.values_mut().flatten() {
            *companion_row = rows.partition_point(|&row| row < *companion_row);
        }
        Ok((Some(rows), OwnerState::F2(state)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{F2Scheme, Scheme, SchemeOutcome, F2};
    use f2_relation::{table, Schema};

    fn roundtrip_table() -> Table {
        table! {
            ["Zip", "City", "Name"];
            ["07030", "Hoboken", "alice"],
            ["07030", "Hoboken", "bob"],
            ["07030", "Hoboken", "carol"],
            ["10001", "NewYork", "dave"],
            ["10001", "NewYork", "erin"],
            ["08540", "Princeton", "frank"],
            ["08540", "Princeton", "grace"],
        }
    }

    /// An F² scheme under the default seed and master key `key`.
    fn scheme(alpha: f64, split: usize, key: u64) -> F2Scheme {
        F2::builder()
            .alpha(alpha)
            .split_factor(split)
            .master_key(MasterKey::from_seed(key))
            .build()
            .unwrap()
    }

    fn f2_state(outcome: &mut SchemeOutcome) -> &mut F2OwnerState {
        let OwnerState::F2(state) = &mut outcome.state else { unreachable!() };
        state
    }

    #[test]
    fn exact_roundtrip_with_provenance() {
        let t = roundtrip_table();
        for (alpha, split) in [(1.0, 1), (0.5, 2), (0.34, 3), (0.25, 2)] {
            let scheme = scheme(alpha, split, 5);
            let out = scheme.encrypt(&t).unwrap();
            let recovered = scheme.decrypt(&out).unwrap();
            assert!(recovered.multiset_eq(&t), "roundtrip failed for alpha={alpha} split={split}");
        }
    }

    #[test]
    fn wrong_key_fails_or_garbles() {
        let t = roundtrip_table();
        let out = scheme(0.5, 2, 5).encrypt(&t).unwrap();
        let wrong = scheme(0.5, 2, 6);
        if let Ok(recovered) = wrong.decrypt(&out) {
            assert!(!recovered.multiset_eq(&t));
        }
    }

    #[test]
    fn provenance_mismatch_is_detected() {
        let t = roundtrip_table();
        let scheme = scheme(0.5, 2, 5);
        let mut bad = scheme.encrypt(&t).unwrap();
        f2_state(&mut bad).provenance.origins.pop();
        assert!(scheme.decrypt(&bad).is_err());
        let mut bad_schema = scheme.encrypt(&t).unwrap();
        f2_state(&mut bad_schema).plaintext_schema = Schema::from_names(["A"]).unwrap();
        assert!(scheme.decrypt(&bad_schema).is_err());
    }

    #[test]
    fn real_rows_must_name_each_original_row_once() {
        let t = table! {
            ["Zip", "City", "Name"];
            ["07030", "Hoboken", "alice"],
            ["07030", "Hoboken", "bob"],
            ["10001", "NewYork", "carol"],
            ["10001", "NewYork", "dave"],
        };
        let scheme = F2::builder().alpha(0.5).seed(7).build().unwrap();
        let retagged = |claim: usize| {
            let mut outcome: SchemeOutcome = scheme.encrypt(&t).unwrap();
            let last = f2_state(&mut outcome)
                .provenance
                .origins
                .iter_mut()
                .find(|origin| matches!(origin, RowOrigin::Real { original_row: 3 }));
            *last.unwrap() = RowOrigin::Real { original_row: claim };
            outcome
        };
        assert_eq!(scheme.decrypt(&retagged(3)).unwrap(), t);
        for claim in [0, 4, 1_000_000] {
            let err = scheme.decrypt(&retagged(claim)).unwrap_err();
            assert!(matches!(err, F2Error::ProvenanceMismatch(_)), "claim {claim}: {err}");
        }
    }

    #[test]
    fn selected_rows_are_the_real_rows_and_their_companions() {
        // Overlapping MASs (the paper's §3.3.2 example) force conflict companions.
        let t = table! {
            ["A", "B", "C"];
            ["a3", "b2", "c1"],
            ["a1", "b2", "c1"],
            ["a2", "b2", "c1"],
            ["a2", "b2", "c2"],
            ["a3", "b2", "c2"],
            ["a1", "b1", "c3"],
        };
        let scheme = scheme(0.5, 2, 5);
        let out = scheme.encrypt(&t).unwrap();
        let n = out.encrypted.row_count();
        let f2 = out.f2_state().unwrap();
        let state = || OwnerState::F2(f2.clone());
        let (rows, selected) = state().select_read_rows(n).unwrap();
        let Some(rows) = rows else { unreachable!() };
        let mut expected: Vec<usize> = f2.provenance.real_rows().iter().map(|r| r.0).collect();
        expected.extend(f2.provenance.patches.values().flatten().map(|&(_, row)| row));
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(rows, expected);
        assert!(rows.len() < n, "the fixture carries artificial rows");
        assert!(!f2.provenance.patches.is_empty(), "the fixture carries conflict companions");
        let subset = SchemeOutcome {
            encrypted: Table::new(
                out.encrypted.schema().clone(),
                rows.iter().map(|&r| out.encrypted.row(r).unwrap().clone()).collect(),
            )
            .unwrap(),
            state: selected,
            report: out.report.clone(),
        };
        assert_eq!(scheme.decrypt(&subset).unwrap(), scheme.decrypt(&out).unwrap());

        // The checks decryption makes come first: the row count …
        let err = state().select_read_rows(n + 1).unwrap_err();
        assert!(matches!(err, F2Error::ProvenanceMismatch(_)), "{err}");
        // … and every companion in range.
        let mut bad = state();
        let OwnerState::F2(f2) = &mut bad else { unreachable!() };
        f2.provenance.patches.insert(0, vec![(0, n)]);
        let err = bad.select_read_rows(n).unwrap_err();
        assert!(matches!(err, F2Error::ProvenanceMismatch(_)), "{err}");
        // A cell-wise state reads every row.
        let cell_wise =
            OwnerState::CellWise(crate::CellWiseState { plaintext_schema: t.schema().clone() });
        assert_eq!(cell_wise.select_read_rows(3).unwrap().0, None);
    }
}
