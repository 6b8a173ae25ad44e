//! The F² encryption pipeline (data-owner side), behind [`crate::F2Scheme`]'s
//! `encrypt`.
//!
//! [`encrypt`] runs the four steps of the scheme end to end:
//!
//! 1. **MAX** — discover the maximal attribute sets ([`f2_fd::mas`]);
//! 2. **SSE** — per MAS, group the equivalence classes, choose split points, and assign
//!    every original row to a ciphertext *instance* ([`crate::sse`]); materialise the
//!    instances as probabilistic ciphertexts (`⟨r, F_k(r) ⊕ p⟩`, one fresh nonce per
//!    instance and attribute) plus the scaling/fake-EC rows;
//! 3. **SYN** — resolve conflicts between overlapping MASs: when a tuple belongs to
//!    equivalence classes of size > 1 in two overlapping MASs, it is replaced by two
//!    tuples as in §3.3.2 (the original keeps the first MAS's assignment, a companion
//!    row carries the second's); when one side is a singleton class it simply adopts
//!    the other's ciphertext. The scale copies and fake rows of a singleton class
//!    mirror its row: once every MAS is assigned, they copy the row's final cells on
//!    the class's MAS, so the instance keeps one value combination whichever MAS put
//!    each cell there;
//! 4. **FP** — insert artificial record pairs that re-violate false-positive FDs
//!    ([`crate::fpfd`]).
//!
//! The output is a [`SchemeOutcome`]: the encrypted table (every cell an opaque byte
//! string), the owner-side [`OwnerState::F2`] (provenance, MAS sets, plaintext
//! schema), and an [`EncryptionReport`] with the per-step timings and artificial
//! record counts that the benchmark harness turns into the paper's figures.

use crate::config::F2Config;
use crate::ecg::ClassValues;
use crate::fake::{FreshValueGenerator, FRESH_ENCODED_LEN};
use crate::fpfd::{false_positive_record_pairs, maximum_false_positives};
use crate::provenance::{Provenance, RowOrigin};
use crate::report::{EncryptionReport, OverheadBreakdown, StepTimings};
use crate::sse::{build_mas_plan_from, MasPlan};
use crate::{F2Error, F2OwnerState, OwnerState, Result, SchemeOutcome};
use f2_crypto::ciphertext::NONCE_LEN;
use f2_crypto::{MasterKey, ProbabilisticCipher};
use f2_fd::mas::find_mas;
use f2_relation::{AttrSet, Bytes, Record, Table, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// The id no ciphertext has: the arena hands out ids below it, and the assembly
/// marks a cell it has not assigned yet with it.
const UNASSIGNED: u32 = u32::MAX;

/// The ciphertext arena of one `encrypt` call, on every backend: every
/// ciphertext is appended to one buffer and named by a dense `u32` id, in the
/// order of appending. [`CtArena::freeze`] adopts the buffer as one shared
/// `Bytes` without copying it, and the output cells are views of it, so building,
/// cloning and dropping a chunk's cells costs the buffer's two allocations (the
/// bytes and their shared handle), not one or two per ciphertext. Each caller
/// counts what it will append and reserves that once, so the buffer never grows.
#[derive(Debug)]
pub(crate) struct CtArena {
    buf: Vec<u8>,
    /// `ends[id]` is where ciphertext `id` ends in `buf`; it starts where `id - 1`
    /// ends.
    ends: Vec<usize>,
    /// The plaintext encoding of the ciphertext being appended.
    plain: Vec<u8>,
}

impl CtArena {
    /// An empty arena with room for `cts` ciphertexts of `bytes` bytes in all
    /// (capacity only).
    pub(crate) fn with_capacity((cts, bytes): (usize, usize)) -> CtArena {
        CtArena { buf: Vec::with_capacity(bytes), ends: Vec::with_capacity(cts), plain: Vec::new() }
    }

    /// Ciphertexts and bytes appended so far.
    pub(crate) fn size(&self) -> (usize, usize) {
        (self.ends.len(), self.buf.len())
    }

    /// Append one ciphertext and return its id: `encode` writes its plaintext
    /// into a scratch buffer the arena keeps, and `seal` appends the ciphertext of
    /// those bytes to the arena's buffer.
    pub(crate) fn push_with(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
        seal: impl FnOnce(&[u8], &mut Vec<u8>),
    ) -> u32 {
        let id = self.ends.len();
        assert!(id < UNASSIGNED as usize, "ciphertext arena overflow");
        self.plain.clear();
        encode(&mut self.plain);
        seal(&self.plain, &mut self.buf);
        self.ends.push(self.buf.len());
        id as u32
    }

    /// Share the buffer: the frozen arena adopts it without a copy.
    pub(crate) fn freeze(self) -> FrozenArena {
        FrozenArena { buf: Bytes::from(self.buf), ends: self.ends }
    }

    /// Encrypt `value` into the arena.
    fn push(&mut self, cipher: &ProbabilisticCipher, value: &Value, rng: &mut StdRng) -> u32 {
        self.push_with(
            |plain| value.encode_into(plain),
            |plain, out| cipher.append_cell(plain, rng, out),
        )
    }

    /// Encrypt a class's value at MAS position `pos` into the arena; `fresh` issued
    /// a fake class's counters.
    fn push_class_value(
        &mut self,
        cipher: &ProbabilisticCipher,
        values: &ClassValues,
        pos: usize,
        fresh: &FreshValueGenerator,
        rng: &mut StdRng,
    ) -> u32 {
        self.push_with(
            |plain| values.encode_into(pos, fresh, plain),
            |plain, out| cipher.append_cell(plain, rng, out),
        )
    }

    /// Encrypt the generator's next fresh value into the arena.
    fn push_fresh(
        &mut self,
        cipher: &ProbabilisticCipher,
        fresh: &mut FreshValueGenerator,
        rng: &mut StdRng,
    ) -> u32 {
        self.push_with(
            |plain| fresh.next_encoded(plain),
            |plain, out| cipher.append_cell(plain, rng, out),
        )
    }
}

/// A [`CtArena`] whose buffer is shared: each ciphertext is a slice of it.
pub(crate) struct FrozenArena {
    buf: Bytes,
    ends: Vec<usize>,
}

impl FrozenArena {
    /// Ciphertext `id` as a cell: a view of the shared buffer.
    pub(crate) fn get(&self, id: u32) -> Value {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        Value::Bytes(self.buf.slice(start..self.ends[id]))
    }
}

/// The type-2 conflicts of §3.3.2, decided before any cell is assigned:
/// `conflicts[mi][r]` is true when row `r`'s class in plan `mi` has more than one
/// original tuple and the row already carries another such class's ciphertext on
/// an attribute of `mi`. Such a row keeps its earlier assignment, and a companion
/// row carries plan `mi`'s instance.
fn type2_conflicts(plans: &[MasPlan], n: usize) -> Vec<Vec<bool>> {
    // multi_attrs[r]: the attributes on which row r carries a multi-tuple class's
    // ciphertext. A conflict leaves them as they are; so does a singleton class,
    // which adopts what the row carries or takes cells nothing claimed.
    let mut multi_attrs = vec![AttrSet::EMPTY; n];
    plans
        .iter()
        .map(|plan| {
            let mut conflicts = vec![false; n];
            for inst in plan.instances.iter().filter(|inst| inst.ec_real_size > 1) {
                for &r in &inst.rows {
                    if multi_attrs[r].intersect(plan.mas).is_empty() {
                        multi_attrs[r] = multi_attrs[r].union(plan.mas);
                    } else {
                        conflicts[r] = true;
                    }
                }
            }
            conflicts
        })
        .collect()
}

/// The ciphertexts and bytes one `encrypt` call appends to its arena, counted
/// from the plans: one ciphertext per instance attribute; a fresh fill on every
/// attribute outside its MAS for each scale copy, fake-class row and conflict
/// companion; a fill on each conflicting row's attributes that no earlier MAS
/// covers; the real cells no MAS covers; and Step 4's `k` pairs per false
/// positive, whose first row encrypts every cell and second every cell off the
/// shared LHS, all fresh values. Each ciphertext is a nonce plus its plaintext's
/// encoding; the count is exact while fresh counters are below 2³².
fn arena_size(
    table: &Table,
    plans: &[MasPlan],
    conflicts: &[Vec<bool>],
    false_positives: &[(usize, AttrSet)],
    k: usize,
) -> (usize, usize) {
    let arity = table.arity();
    let fill = NONCE_LEN + FRESH_ENCODED_LEN;
    let (mut cts, mut bytes) = (0, 0);
    let mut covered = AttrSet::EMPTY;
    for (plan, conflicts) in plans.iter().zip(conflicts) {
        let m = plan.mas.len();
        for inst in &plan.instances {
            cts += m;
            bytes += (0..m).map(|pos| NONCE_LEN + inst.values.encoded_len(pos)).sum::<usize>();
            let fills = (inst.scale_copies + inst.fake_rows) * (arity - m);
            cts += fills;
            bytes += fills * fill;
        }
        let conflict_rows = conflicts.iter().filter(|&&c| c).count();
        let fills = conflict_rows * (plan.mas.difference(covered).len() + arity - m);
        cts += fills;
        bytes += fills * fill;
        covered = covered.union(plan.mas);
    }
    let uncovered: Vec<usize> = (0..arity).filter(|&a| !covered.contains(a)).collect();
    cts += table.row_count() * uncovered.len();
    for record in table.rows() {
        bytes +=
            uncovered.iter().map(|&a| NONCE_LEN + record.values()[a].encoded_len()).sum::<usize>();
    }
    let fp_fills: usize = false_positives.iter().map(|(_, lhs)| k * (2 * arity - lhs.len())).sum();
    cts += fp_fills;
    bytes += fp_fills * fill;
    (cts, bytes)
}

/// Encrypt a table with the full four-step F² pipeline under `config` and the
/// owner's master key.
pub(crate) fn encrypt(
    config: &F2Config,
    master: &MasterKey,
    table: &Table,
) -> Result<SchemeOutcome> {
    config.validate()?;
    if table.arity() == 0 {
        return Err(F2Error::UnsupportedInput("table has no attributes".into()));
    }
    let arity = table.arity();
    let n = table.row_count();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let ciphers: Vec<ProbabilisticCipher> =
        (0..arity).map(|a| ProbabilisticCipher::new(&master.attribute_key(a))).collect();
    let mut fresh = FreshValueGenerator::for_table(table);

    // ---- Step 1: MAX ---------------------------------------------------------
    let t_max = Instant::now();
    let mas_set = find_mas(table);
    let max_time = t_max.elapsed();

    // ---- Step 2: SSE (plans + assembly) and Step 3: SYN -----------------------
    let t_sse = Instant::now();
    let mut syn_time = std::time::Duration::ZERO;
    // Each MAS partition is computed once (off the interned columnar index) and
    // shared: the SSE planner consumes its classes, and Step 4 reuses one witness
    // row per class for the false-positive violation checks.
    let mut mas_witnesses: Vec<(AttrSet, Vec<usize>)> = Vec::with_capacity(mas_set.len());
    let plans: Vec<MasPlan> = mas_set
        .sets
        .iter()
        .map(|&m| {
            let partition = f2_relation::Partition::compute(table, m);
            mas_witnesses.push((m, partition.classes().iter().map(|c| c.rows[0]).collect()));
            build_mas_plan_from(&partition, table.columnar(), config, &mut fresh)
        })
        .collect();

    // Step 4's lattice walk reads only the partitions' witnesses and draws no
    // fresh value, so it runs here: with the false positives known, the arena is
    // sized once for every step.
    let t_fp = Instant::now();
    let false_positives = maximum_false_positives(table, &mas_witnesses);
    let mut fp_time = t_fp.elapsed();

    // Every distinct ciphertext is materialised exactly once, in the arena; the
    // flat row-major cell buffer and the artificial rows hold dense ids into it.
    let conflicts = type2_conflicts(&plans, n);
    let reserved = arena_size(table, &plans, &conflicts, &false_positives, config.ecg_size());
    let mut arena = CtArena::with_capacity(reserved);
    let mut cells: Vec<u32> = vec![UNASSIGNED; n * arity];
    // Artificial rows under construction: arity-strided per-attribute ciphertext
    // ids (UNASSIGNED = filled with a fresh value in the finalisation pass).
    let mut extra_cells: Vec<u32> = Vec::new();
    let mut extra_origins: Vec<RowOrigin> = Vec::new();
    // The extra rows of each real singleton instance, with its row and MAS: they
    // mirror the row's final cells on the MAS once every MAS is assigned.
    let mut mirrors: Vec<(Range<usize>, usize, AttrSet)> = Vec::new();
    let mut patches: HashMap<usize, Vec<(usize, usize)>> = HashMap::new();
    let mut syn_rows = 0usize;
    let mut group_rows = 0usize;
    let mut scale_rows = 0usize;
    // Per-instance ciphertext ids (arena-contiguous), reused across instances.
    let mut inst_cts: Vec<u32> = Vec::new();

    for (mi, plan) in plans.iter().enumerate() {
        let attrs: Vec<usize> = plan.mas.iter().collect();
        for inst in &plan.instances {
            // One ciphertext per attribute, shared by every row of the instance.
            inst_cts.clear();
            for (pos, &a) in attrs.iter().enumerate() {
                inst_cts.push(arena.push_class_value(
                    &ciphers[a],
                    &inst.values,
                    pos,
                    &fresh,
                    &mut rng,
                ));
            }
            let multi = inst.ec_real_size > 1;

            for &r in &inst.rows {
                // A type-2 conflict (§3.3.2; see `type2_conflicts`).
                if conflicts[mi][r] {
                    let t_conflict = Instant::now();
                    // The original row keeps its earlier assignment; its unassigned
                    // attributes of this MAS receive fresh values so its projection
                    // does not partially join this instance.
                    for &a in &attrs {
                        if cells[r * arity + a] == UNASSIGNED {
                            cells[r * arity + a] =
                                arena.push_fresh(&ciphers[a], &mut fresh, &mut rng);
                            // The row's real ciphertext for this attribute lives on
                            // the companion row created below.
                            patches.entry(r).or_default().push((a, n + extra_origins.len()));
                        }
                    }
                    // Companion row: this MAS's instance on its attributes, fresh
                    // values elsewhere (filled in the finalisation pass).
                    let base = extra_cells.len();
                    extra_cells.resize(base + arity, UNASSIGNED);
                    for (pos, &a) in attrs.iter().enumerate() {
                        extra_cells[base + a] = inst_cts[pos];
                    }
                    extra_origins.push(RowOrigin::ConflictCompanion { original_row: r });
                    syn_rows += 1;
                    syn_time += t_conflict.elapsed();
                    continue;
                }
                // A multi-tuple class overrides what a singleton class or a fresh
                // fill put on the row; a singleton class adopts whatever an earlier
                // MAS assigned (no conflict, §3.3.2).
                for (pos, &a) in attrs.iter().enumerate() {
                    let cell = &mut cells[r * arity + a];
                    if *cell == UNASSIGNED || multi {
                        *cell = inst_cts[pos];
                    }
                }
            }

            // Scaling copies and fake-EC rows are entirely artificial rows that
            // carry the instance's ciphertexts on the MAS; those of a real
            // singleton class mirror its row instead (below).
            let extra_count = inst.scale_copies + inst.fake_rows;
            if extra_count > 0 {
                if !multi && inst.rows.len() == 1 {
                    let first = extra_origins.len();
                    mirrors.push((first..first + extra_count, inst.rows[0], plan.mas));
                }
                for c in 0..extra_count {
                    let base = extra_cells.len();
                    extra_cells.resize(base + arity, UNASSIGNED);
                    for (pos, &a) in attrs.iter().enumerate() {
                        extra_cells[base + a] = inst_cts[pos];
                    }
                    let origin = if c < inst.scale_copies {
                        scale_rows += 1;
                        RowOrigin::ScaleCopy { mas_index: mi }
                    } else {
                        group_rows += 1;
                        RowOrigin::GroupFake { mas_index: mi }
                    };
                    extra_origins.push(origin);
                }
            }
        }
    }

    // The mirror rule. A singleton class's row may adopt another MAS's ciphertext
    // on the overlap, and a later MAS's multi-tuple class may override that cell
    // again, so the row's cells on its MAS are final only now. Its scale copies
    // and fake rows take them, so the instance keeps one value combination on
    // the whole MAS, whichever MAS or fresh fill put each cell there.
    for (extras, r, mas) in mirrors {
        for er in extras {
            for a in mas.iter() {
                extra_cells[er * arity + a] = cells[r * arity + a];
            }
        }
    }

    // Finalisation: encrypt the cells not covered by any MAS (unique attributes)
    // and fill the artificial rows' remaining attributes with fresh values.
    for r in 0..n {
        for a in 0..arity {
            if cells[r * arity + a] == UNASSIGNED {
                cells[r * arity + a] = arena.push(&ciphers[a], table.cell(r, a)?, &mut rng);
            }
        }
    }
    for er in 0..extra_origins.len() {
        for a in 0..arity {
            if extra_cells[er * arity + a] == UNASSIGNED {
                extra_cells[er * arity + a] = arena.push_fresh(&ciphers[a], &mut fresh, &mut rng);
            }
        }
    }
    let sse_time = t_sse.elapsed().saturating_sub(syn_time + fp_time);

    // ---- Step 4: FP ------------------------------------------------------------
    let t_fp = Instant::now();
    let fp_plan =
        false_positive_record_pairs(&false_positives, arity, config.ecg_size(), &mut fresh);
    let mut fp_rows = 0usize;
    for pair in &fp_plan.pairs {
        // Row 1: every cell freshly encrypted. Row 2: shares the *ciphertext id*
        // on the FD's LHS so the server observes the violation; all other cells
        // are freshly encrypted.
        let base1 = extra_cells.len();
        extra_cells.resize(base1 + arity, UNASSIGNED);
        for (a, v) in pair.row1.iter().enumerate() {
            extra_cells[base1 + a] = arena.push(&ciphers[a], v, &mut rng);
        }
        let base2 = extra_cells.len();
        extra_cells.resize(base2 + arity, UNASSIGNED);
        for (a, v) in pair.row2.iter().enumerate() {
            extra_cells[base2 + a] = if pair.shared_attrs.contains(a) {
                extra_cells[base1 + a]
            } else {
                arena.push(&ciphers[a], v, &mut rng)
            };
        }
        extra_origins.push(RowOrigin::FalsePositive { mas_index: pair.mas_index });
        extra_origins.push(RowOrigin::FalsePositive { mas_index: pair.mas_index });
        fp_rows += 2;
    }
    fp_time += t_fp.elapsed();

    // ---- Assemble the output table ----------------------------------------------
    let encrypted_schema = table.schema().encrypted();
    debug_assert!(
        fresh.issued() > u64::from(u32::MAX) || arena.size() == reserved,
        "appended {:?} to an arena sized {reserved:?}",
        arena.size()
    );
    let arena = arena.freeze();
    let mut records = Vec::with_capacity(n + extra_origins.len());
    let mut origins = Vec::with_capacity(n + extra_origins.len());
    for r in 0..n {
        records.push(Record::new(
            cells[r * arity..(r + 1) * arity].iter().map(|&id| arena.get(id)).collect(),
        ));
        origins.push(RowOrigin::Real { original_row: r });
    }
    for (er, origin) in extra_origins.into_iter().enumerate() {
        records.push(Record::new(
            extra_cells[er * arity..(er + 1) * arity].iter().map(|&id| arena.get(id)).collect(),
        ));
        origins.push(origin);
    }
    let encrypted = Table::new(encrypted_schema, records)?;

    let timings = StepTimings { max: max_time, sse: sse_time, syn: syn_time, fp: fp_time };
    crate::obs::record_phase_timings(&timings);
    let report = EncryptionReport {
        timings,
        overhead: OverheadBreakdown { original_rows: n, group_rows, scale_rows, syn_rows, fp_rows },
        mas_count: mas_set.len(),
        overlapping_mas_pairs: mas_set.overlapping_pairs().len(),
        equivalence_classes: plans.iter().map(|p| p.ec_count).sum(),
        false_positive_fds: fp_plan.max_false_positives,
    };
    Ok(SchemeOutcome {
        encrypted,
        state: OwnerState::F2(F2OwnerState {
            provenance: Provenance { origins, patches },
            mas_sets: mas_set.sets,
            plaintext_schema: table.schema().clone(),
        }),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{F2Scheme, Scheme, F2};
    use f2_relation::{table, Schema};

    #[test]
    fn frozen_cells_are_views_of_the_adopted_buffer() {
        let mut arena = CtArena::with_capacity((3, 7));
        let heap = arena.buf.as_ptr();
        let ids: Vec<u32> = [&b"ab"[..], b"", b"cdefg"]
            .into_iter()
            .map(|plain| {
                arena.push_with(|p| p.extend_from_slice(plain), |p, out| out.extend_from_slice(p))
            })
            .collect();
        assert_eq!(ids, [0, 1, 2]);
        assert_eq!(arena.size(), (3, 7));
        let frozen = arena.freeze();
        let cells: Vec<Value> = ids.iter().map(|&id| frozen.get(id)).collect();
        assert_eq!(
            cells,
            [Value::bytes(b"ab".to_vec()), Value::bytes(vec![]), Value::bytes(b"cdefg".to_vec())]
        );
        // No copy: the reserved buffer is the one the cells view.
        assert_eq!(cells[0].as_bytes().map(<[u8]>::as_ptr), Some(heap));
        assert_eq!(cells[2].as_bytes().map(<[u8]>::as_ptr), Some(heap.wrapping_add(2)));
    }

    fn small_table() -> Table {
        table! {
            ["Zip", "City", "Name"];
            ["07030", "Hoboken", "alice"],
            ["07030", "Hoboken", "bob"],
            ["07030", "Hoboken", "carol"],
            ["10001", "NewYork", "dave"],
            ["10001", "NewYork", "erin"],
            ["08540", "Princeton", "frank"],
        }
    }

    fn scheme(alpha: f64, split: usize) -> F2Scheme {
        F2::builder()
            .alpha(alpha)
            .split_factor(split)
            .master_key(MasterKey::from_seed(11))
            .build()
            .unwrap()
    }

    #[test]
    fn encrypts_to_opaque_cells() {
        let t = small_table();
        let out = scheme(0.5, 2).encrypt(&t).unwrap();
        assert_eq!(out.encrypted.arity(), 3);
        assert!(out.encrypted.row_count() >= t.row_count());
        for (_, rec) in out.encrypted.iter() {
            for v in rec.values() {
                assert!(v.is_bytes(), "every cell must be ciphertext");
            }
        }
        // No plaintext value survives in the encrypted table.
        let plain_values = t.all_values();
        for (_, rec) in out.encrypted.iter() {
            for v in rec.values() {
                assert!(!plain_values.contains(v));
            }
        }
    }

    #[test]
    fn provenance_covers_every_output_row() {
        let t = small_table();
        let out = scheme(0.5, 2).encrypt(&t).unwrap();
        let provenance = &out.f2_state().unwrap().provenance;
        assert_eq!(provenance.len(), out.encrypted.row_count());
        assert_eq!(provenance.real_rows().len(), t.row_count());
        let (scale, group, conflict, fp) = provenance.artificial_breakdown();
        let o = &out.report.overhead;
        assert_eq!(scale, o.scale_rows);
        assert_eq!(group, o.group_rows);
        assert_eq!(conflict, o.syn_rows);
        assert_eq!(fp, o.fp_rows);
        assert_eq!(out.encrypted.row_count(), o.total_rows());
    }

    #[test]
    fn report_is_populated() {
        let t = small_table();
        let out = scheme(0.5, 2).encrypt(&t).unwrap();
        assert!(out.report.mas_count >= 1);
        assert!(out.report.equivalence_classes >= 1);
        assert!(out.report.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn frequencies_are_flattened() {
        // In the encrypted table, group ciphertext combinations over each MAS: every
        // combination originating from the same ECG must appear equally often. We check
        // a weaker but observable property: the most frequent MAS combination in the
        // plaintext no longer dominates the ciphertext distribution.
        let t = table! {
            ["A", "B"];
            ["a1", "b1"], ["a1", "b1"], ["a1", "b1"], ["a1", "b1"],
            ["a1", "b1"], ["a1", "b1"], ["a1", "b1"], ["a1", "b1"],
            ["a2", "b2"], ["a2", "b2"],
            ["a3", "b3"], ["a3", "b3"],
            ["a4", "b4"], ["a5", "b5"],
        };
        let out = scheme(0.5, 2).encrypt(&t).unwrap();
        let mas = out.f2_state().unwrap().mas_sets[0];
        let hist = out.encrypted.frequency_histogram(mas);
        let max_cipher_freq = hist.values().copied().max().unwrap();
        let plain_hist = t.frequency_histogram(mas);
        let max_plain_freq = plain_hist.values().copied().max().unwrap();
        assert!(max_cipher_freq < max_plain_freq, "{max_cipher_freq} !< {max_plain_freq}");
    }

    #[test]
    fn empty_schema_rejected_and_empty_table_ok() {
        let empty_schema = Schema::new(vec![]).unwrap();
        let t = Table::empty(empty_schema);
        assert!(scheme(0.5, 2).encrypt(&t).is_err());

        let t = Table::empty(Schema::from_names(["A", "B"]).unwrap());
        let out = scheme(0.5, 2).encrypt(&t).unwrap();
        assert_eq!(out.encrypted.row_count(), 0);
    }

    #[test]
    fn deterministic_given_seed_and_key() {
        let t = small_table();
        let e = scheme(0.5, 2);
        let a = e.encrypt(&t).unwrap();
        let b = e.encrypt(&t).unwrap();
        assert_eq!(a.encrypted, b.encrypted);
        assert_eq!(a.f2_state().unwrap().provenance, b.f2_state().unwrap().provenance);
    }
}
