//! Decryption (data-owner side).
//!
//! Every ciphertext cell is self-contained (`⟨r, F_k(r) ⊕ p⟩`), so cell-wise decryption
//! only needs the master key. Recovering the *original table* additionally uses the
//! owner's [`Provenance`]: artificial rows (scaling copies, fake equivalence classes,
//! conflict companions, false-positive records) are dropped, and cells that conflict
//! resolution replaced with fresh values are patched back from their companion rows.

use crate::fake::is_artificial_value;
use crate::provenance::{Provenance, RowOrigin};
use crate::{EncryptionOutcome, F2Error, OwnerState, Result};
use f2_crypto::{MasterKey, ProbabilisticCipher};
use f2_relation::{Record, Schema, Table};

/// The F² decryptor.
#[derive(Debug, Clone)]
pub struct F2Decryptor {
    master: MasterKey,
}

impl F2Decryptor {
    /// Create a decryptor from the owner's master key.
    pub fn new(master: MasterKey) -> Self {
        F2Decryptor { master }
    }

    fn ciphers(&self, arity: usize) -> Vec<ProbabilisticCipher> {
        (0..arity).map(|a| ProbabilisticCipher::new(&self.master.attribute_key(a))).collect()
    }

    /// Decrypt every cell of an encrypted table. Artificial rows are retained (their
    /// cells decrypt to reserved fresh values); use [`F2Decryptor::recover_original`]
    /// to rebuild the original table exactly.
    pub fn decrypt_table(&self, encrypted: &Table) -> Result<Table> {
        let arity = encrypted.arity();
        let ciphers = self.ciphers(arity);
        let schema = Schema::from_names(encrypted.schema().names())?;
        let mut records = Vec::with_capacity(encrypted.row_count());
        for (_, rec) in encrypted.iter() {
            let mut values = Vec::with_capacity(arity);
            for (a, cell) in rec.values().iter().enumerate() {
                values.push(ciphers[a].decrypt_cell(cell)?);
            }
            records.push(Record::new(values));
        }
        Ok(Table::new(schema, records)?)
    }

    /// Decrypt and drop every row that contains an artificial value. This is the
    /// "lossy" recovery available without provenance: rows rewritten by conflict
    /// resolution are dropped too, so the result is a subset of the original table.
    pub fn decrypt_dropping_artificial(&self, encrypted: &Table) -> Result<Table> {
        let decrypted = self.decrypt_table(encrypted)?;
        let mut out = Table::empty(decrypted.schema().clone());
        for (_, rec) in decrypted.iter() {
            if rec.values().iter().any(is_artificial_value) {
                continue;
            }
            out.push_row(rec.clone())?;
        }
        Ok(out)
    }

    /// Recover the original table exactly, using the owner's provenance. The `Real`
    /// rows must name each original row `0..n` exactly once; they come back in that
    /// order, each patched from its conflict companions.
    pub fn recover_original(
        &self,
        encrypted: &Table,
        provenance: &Provenance,
        plaintext_schema: &Schema,
    ) -> Result<Table> {
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
        let ciphers = self.ciphers(arity);
        let real = provenance.real_rows();
        let n = real.len();
        let mut rows: Vec<Option<Record>> = (0..n).map(|_| None).collect();
        for (out_row, original_row) in real {
            // n distinct slots below n for n real rows: every slot gets filled.
            let Some(slot) = rows.get_mut(original_row).filter(|slot| slot.is_none()) else {
                return Err(F2Error::ProvenanceMismatch(format!(
                    "real rows must name each original row 0..{n} once, but output row \
                     {out_row} names row {original_row} out of range or again"
                )));
            };
            let rec = encrypted.row(out_row)?;
            let mut values = Vec::with_capacity(arity);
            for (a, cell) in rec.values().iter().enumerate() {
                values.push(ciphers[a].decrypt_cell(cell)?);
            }
            // Patch cells replaced during conflict resolution from their companions.
            if let Some(patches) = provenance.patches.get(&original_row) {
                for &(attr, companion_row) in patches {
                    let companion_cell = encrypted.cell(companion_row, attr)?;
                    values[attr] = ciphers[attr].decrypt_cell(companion_cell)?;
                }
            }
            *slot = Some(Record::new(values));
        }
        let records = rows.into_iter().flatten().collect();
        Ok(Table::new(plaintext_schema.clone(), records)?)
    }

    /// Convenience: recover the original table from a full [`EncryptionOutcome`].
    pub fn recover_from_outcome(&self, outcome: &EncryptionOutcome) -> Result<Table> {
        self.recover_original(&outcome.encrypted, &outcome.provenance, &outcome.plaintext_schema)
    }
}

impl OwnerState {
    /// The output rows that decrypting a `row_count`-row table under this state
    /// reads, in ascending order, and the state re-indexed onto just those rows:
    /// decrypting the selected rows, in that order, under the returned state
    /// recovers exactly what decrypting the whole table under `self` recovers.
    ///
    /// For F² these are every `Real` row and every conflict companion a patch
    /// points to — all [`F2Decryptor::recover_original`] reads; scale copies, fake
    /// classes and false-positive records are never read. A cell-wise state reads
    /// every row: the selection is `None`, and the state is returned unchanged.
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
    use crate::{F2Config, F2Encryptor};
    use f2_relation::table;

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

    #[test]
    fn exact_roundtrip_with_provenance() {
        let t = roundtrip_table();
        for (alpha, split) in [(1.0, 1), (0.5, 2), (0.34, 3), (0.25, 2)] {
            let enc =
                F2Encryptor::new(F2Config::new(alpha, split).unwrap(), MasterKey::from_seed(5));
            let dec = F2Decryptor::new(MasterKey::from_seed(5));
            let out = enc.encrypt(&t).unwrap();
            let recovered = dec.recover_from_outcome(&out).unwrap();
            assert!(recovered.multiset_eq(&t), "roundtrip failed for alpha={alpha} split={split}");
        }
    }

    #[test]
    fn wrong_key_fails_or_garbles() {
        let t = roundtrip_table();
        let enc = F2Encryptor::new(F2Config::new(0.5, 2).unwrap(), MasterKey::from_seed(5));
        let out = enc.encrypt(&t).unwrap();
        let wrong = F2Decryptor::new(MasterKey::from_seed(6));
        if let Ok(recovered) = wrong.recover_from_outcome(&out) {
            assert!(!recovered.multiset_eq(&t));
        }
    }

    #[test]
    fn lossy_recovery_is_subset_of_original() {
        let t = roundtrip_table();
        let enc = F2Encryptor::new(F2Config::new(0.34, 2).unwrap(), MasterKey::from_seed(5));
        let dec = F2Decryptor::new(MasterKey::from_seed(5));
        let out = enc.encrypt(&t).unwrap();
        let lossy = dec.decrypt_dropping_artificial(&out.encrypted).unwrap();
        assert!(lossy.row_count() <= t.row_count());
        let originals = t.all_values();
        for (_, rec) in lossy.iter() {
            for v in rec.values() {
                assert!(originals.contains(v), "unexpected value {v:?}");
            }
        }
    }

    #[test]
    fn provenance_mismatch_is_detected() {
        let t = roundtrip_table();
        let enc = F2Encryptor::new(F2Config::new(0.5, 2).unwrap(), MasterKey::from_seed(5));
        let dec = F2Decryptor::new(MasterKey::from_seed(5));
        let out = enc.encrypt(&t).unwrap();
        let mut bad = out.provenance.clone();
        bad.origins.pop();
        assert!(dec.recover_original(&out.encrypted, &bad, &out.plaintext_schema).is_err());
        let bad_schema = Schema::from_names(["A"]).unwrap();
        assert!(dec.recover_original(&out.encrypted, &out.provenance, &bad_schema).is_err());
    }

    #[test]
    fn real_rows_must_name_each_original_row_once() {
        use crate::{Scheme, SchemeOutcome, F2};
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
            let OwnerState::F2(state) = &mut outcome.state else { unreachable!() };
            let last = state
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
        let enc = F2Encryptor::new(F2Config::new(0.5, 2).unwrap(), MasterKey::from_seed(5));
        let dec = F2Decryptor::new(MasterKey::from_seed(5));
        let out = enc.encrypt(&t).unwrap();
        let n = out.encrypted.row_count();
        let state = || {
            OwnerState::F2(crate::F2OwnerState {
                provenance: out.provenance.clone(),
                mas_sets: out.mas_sets.clone(),
                plaintext_schema: out.plaintext_schema.clone(),
            })
        };
        let (rows, selected) = state().select_read_rows(n).unwrap();
        let (Some(rows), OwnerState::F2(selected)) = (rows, selected) else { unreachable!() };
        let mut expected: Vec<usize> = out.provenance.real_rows().iter().map(|r| r.0).collect();
        expected.extend(out.provenance.patches.values().flatten().map(|&(_, row)| row));
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(rows, expected);
        assert!(rows.len() < n, "the fixture carries artificial rows");
        assert!(!out.provenance.patches.is_empty(), "the fixture carries conflict companions");
        let subset = Table::new(
            out.encrypted.schema().clone(),
            rows.iter().map(|&r| out.encrypted.row(r).unwrap().clone()).collect(),
        )
        .unwrap();
        assert_eq!(
            dec.recover_original(&subset, &selected.provenance, &out.plaintext_schema).unwrap(),
            dec.recover_from_outcome(&out).unwrap()
        );

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

    #[test]
    fn full_decrypt_keeps_all_rows() {
        let t = roundtrip_table();
        let enc = F2Encryptor::new(F2Config::new(0.5, 2).unwrap(), MasterKey::from_seed(5));
        let dec = F2Decryptor::new(MasterKey::from_seed(5));
        let out = enc.encrypt(&t).unwrap();
        let full = dec.decrypt_table(&out.encrypted).unwrap();
        assert_eq!(full.row_count(), out.encrypted.row_count());
    }
}
