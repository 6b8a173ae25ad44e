//! Cross-chunk frequency leakage: α-security *within* chunks vs *across* them.
//!
//! The streaming engine shards a table into row-range chunks and runs F²
//! independently per chunk, so ciphertext frequencies are flattened **per chunk**,
//! not table-wide — the boundary-leakage question recorded in ROADMAP.md since the
//! engine landed. This module turns it into an experiment with two scopes:
//!
//! * the **within-chunk** game restricts the adversary to one chunk at a time —
//!   background knowledge (plaintext and ciphertext frequency histograms) and the
//!   challenge are both chunk-local. This is the scope the per-chunk F² run
//!   directly defends, and its success rate should respect α.
//! * the **cross-chunk** game is the ordinary table-wide experiment played against
//!   the *merged* outcome: the adversary sees the full concatenated ciphertext and
//!   the full plaintext distribution. Any excess of this rate over the within-chunk
//!   rate ([`CrossChunkOutcome::boundary_leakage`]) is leakage attributable purely
//!   to chunking.
//!
//! **What the measurement shows.** For *single-challenge* frequency analysis, the
//! per-chunk guarantee composes: every output row's chunk is public (row position),
//! and inside that chunk the flattening leaves ≥ ⌈1/α⌉ equally-frequent candidate
//! groups, so a frequency-matching adversary stays at or below α in both scopes —
//! the cross-chunk rate is typically *lower*, because chunk-flattened ciphertext
//! frequencies match the table-wide plaintext histogram even less. The residual
//! cross-boundary risk is **instance linkage**: an adversary who can cluster the
//! per-chunk instances of one value (via auxiliary information — timing, updates,
//! co-occurrence) reconstructs table-wide frequencies that per-chunk flattening no
//! longer hides. Linkage adversaries are outside the `Exp^freq` game this harness
//! plays and remain future work; the experiment reports both scopes so a positive
//! `boundary_leakage` would surface immediately.
//!
//! Both games reuse the [`AttackExperiment`] machinery, so every adversary
//! ([`crate::FrequencyAttacker`], [`crate::KerckhoffsAttacker`]) runs unchanged in
//! either scope. The experiment is engine-agnostic: it takes the chunk row ranges
//! as plain data (`f2_engine::ChunkRecord` provides them), not engine types.

use crate::{Adversary, AttackExperiment, AttackOutcome};
use f2_core::{F2Error, Scheme, SchemeOutcome};
use f2_relation::{AttrSet, Table};
use std::ops::Range;

/// The within-chunk and cross-chunk games over one chunk-merged encrypted outcome.
#[derive(Debug, Clone)]
pub struct CrossChunkExperiment {
    /// The attribute set the games are played over (typically a MAS).
    pub attrs: AttrSet,
    table_wide: AttackExperiment,
    per_chunk: Vec<AttackExperiment>,
}

/// Result of one [`CrossChunkExperiment::run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossChunkOutcome {
    /// The adversary restricted to chunk-local knowledge and challenges.
    pub within_chunk: AttackOutcome,
    /// The adversary with table-wide knowledge over the merged ciphertext.
    pub cross_chunk: AttackOutcome,
}

impl CrossChunkOutcome {
    /// Success-rate excess of the cross-chunk game over the within-chunk one — the
    /// leakage attributable to chunk boundaries (≤ 0 means none measured).
    pub fn boundary_leakage(&self) -> f64 {
        self.cross_chunk.success_rate() - self.within_chunk.success_rate()
    }
}

impl CrossChunkExperiment {
    /// Build both games from a chunk-merged outcome.
    ///
    /// `chunk_rows` / `chunk_output_rows` are the per-chunk plaintext and
    /// encrypted-output row ranges, in chunk order — exactly the `rows` and
    /// `output_rows` fields of the engine's `ChunkRecord`s. Errors if the outcome
    /// does not belong to `scheme` or the ranges do not tile the tables.
    pub fn new(
        plain: &Table,
        scheme: &dyn Scheme,
        outcome: &SchemeOutcome,
        chunk_rows: &[Range<usize>],
        chunk_output_rows: &[Range<usize>],
        attrs: AttrSet,
    ) -> Result<Self, F2Error> {
        if chunk_rows.len() != chunk_output_rows.len() {
            return Err(F2Error::UnsupportedInput(
                "chunk plaintext and output range lists differ in length".into(),
            ));
        }
        let table_wide = AttackExperiment::for_scheme(plain, scheme, outcome, attrs)?;
        let mapping = scheme.real_rows(outcome)?;
        let mut per_chunk = Vec::with_capacity(chunk_rows.len());
        for (rows, output_rows) in chunk_rows.iter().zip(chunk_output_rows) {
            let bad_range = |what: &str, range: &Range<usize>, len: usize| {
                F2Error::ProvenanceMismatch(format!(
                    "chunk {what} range {range:?} does not fit the {len}-row table"
                ))
            };
            if rows.start > rows.end || rows.end > plain.row_count() {
                return Err(bad_range("plaintext", rows, plain.row_count()));
            }
            if output_rows.start > output_rows.end
                || output_rows.end > outcome.encrypted.row_count()
            {
                return Err(bad_range("output", output_rows, outcome.encrypted.row_count()));
            }
            // Chunk-local tables: the adversary's whole world is one chunk.
            let chunk_plain = plain.view(rows.clone())?.to_table();
            let chunk_cipher = outcome.encrypted.view(output_rows.clone())?.to_table();
            // Chunk-local ground truth: the scheme's real-row pairs that land in
            // this chunk's output range, shifted to chunk-local coordinates.
            let mut ground_truth = Vec::new();
            for &(out_row, orig_row) in &mapping {
                if !output_rows.contains(&out_row) {
                    continue;
                }
                if !rows.contains(&orig_row) {
                    return Err(F2Error::ProvenanceMismatch(format!(
                        "output row {out_row} of chunk {output_rows:?} maps to original row \
                         {orig_row} outside the chunk's plaintext range {rows:?}"
                    )));
                }
                let cipher = chunk_cipher
                    .row(out_row - output_rows.start)
                    .expect("range checked")
                    .project(attrs);
                let plain_combo =
                    chunk_plain.row(orig_row - rows.start).expect("range checked").project(attrs);
                ground_truth.push((cipher, plain_combo));
            }
            per_chunk.push(AttackExperiment::from_parts(
                &chunk_plain,
                &chunk_cipher,
                attrs,
                ground_truth,
            ));
        }
        Ok(CrossChunkExperiment { attrs, table_wide, per_chunk })
    }

    /// Chunks the experiment covers.
    pub fn chunk_count(&self) -> usize {
        self.per_chunk.len()
    }

    /// Play both games with the given adversary: `trials` rounds of the cross-chunk
    /// game, and `trials` rounds of the within-chunk game distributed over the
    /// chunks proportionally to their ground-truth sizes (so the two scopes sample
    /// the same challenge distribution).
    pub fn run(&self, adversary: &dyn Adversary, trials: usize, seed: u64) -> CrossChunkOutcome {
        let cross_chunk = self.table_wide.run(adversary, trials, seed);
        let total_truth: usize =
            self.per_chunk.iter().map(AttackExperiment::ground_truth_len).sum();
        let mut within = AttackOutcome { trials: 0, successes: 0 };
        for (i, chunk) in self.per_chunk.iter().enumerate() {
            if total_truth == 0 {
                break;
            }
            let share = (trials * chunk.ground_truth_len()).div_ceil(total_truth);
            let outcome = chunk.run(adversary, share, seed.wrapping_add(i as u64 + 1));
            within.trials += outcome.trials;
            within.successes += outcome.successes;
        }
        CrossChunkOutcome { within_chunk: within, cross_chunk }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrequencyAttacker;
    use f2_core::{ChunkState, F2Scheme, OwnerState, Scheme, F2};
    use f2_relation::{Record, Schema, Value};

    /// A table whose dominant value recurs in every chunk: chunk-local flattening
    /// cannot hide its table-wide popularity.
    fn recurring_table(rows_per_value: usize) -> Table {
        let schema = Schema::from_names(["A", "B"]).unwrap();
        let mut rows = Vec::new();
        for block in 0..4 {
            for _ in 0..rows_per_value {
                rows.push(Record::new(vec![Value::text("hot"), Value::text("hot-b")]));
            }
            rows.push(Record::new(vec![
                Value::text(format!("cold{block}")),
                Value::text(format!("cold{block}-b")),
            ]));
        }
        Table::new(schema, rows).unwrap()
    }

    /// Encrypt `plain` in fixed-size chunks through the scheme's own chunk API (no
    /// engine dependency), returning the merged outcome plus both range lists.
    fn chunked_outcome(
        scheme: &F2Scheme,
        plain: &Table,
        chunk_rows: usize,
    ) -> (SchemeOutcome, Vec<Range<usize>>, Vec<Range<usize>>) {
        let mut chunk_states = Vec::new();
        let mut plain_ranges = Vec::new();
        let mut output_ranges = Vec::new();
        let mut encrypted: Option<Table> = None;
        let mut report = None;
        for (index, start) in (0..plain.row_count()).step_by(chunk_rows).enumerate() {
            let range = start..(start + chunk_rows).min(plain.row_count());
            let view = plain.view(range.clone()).unwrap();
            let outcome = scheme.reseeded(index as u64 + 99).encrypt_view(&view).unwrap();
            let output_start = encrypted.as_ref().map_or(0, Table::row_count);
            chunk_states.push(ChunkState {
                row_offset: range.start,
                output_offset: output_start,
                state: outcome.state,
            });
            match &mut encrypted {
                None => encrypted = Some(outcome.encrypted),
                Some(t) => t.append(outcome.encrypted).unwrap(),
            }
            output_ranges.push(output_start..encrypted.as_ref().unwrap().row_count());
            plain_ranges.push(range);
            report.get_or_insert(outcome.report);
        }
        let encrypted = encrypted.unwrap();
        let state = OwnerState::merge(chunk_states).unwrap();
        let outcome = SchemeOutcome { encrypted, state, report: report.unwrap() };
        (outcome, plain_ranges, output_ranges)
    }

    #[test]
    fn alpha_holds_in_both_scopes_for_frequency_matching() {
        let plain = recurring_table(6);
        let scheme = F2::builder().alpha(0.34).split_factor(2).seed(17).build().unwrap();
        let (outcome, plain_ranges, output_ranges) = chunked_outcome(&scheme, &plain, 7);
        let mas = AttrSet::from_indices([0, 1]);
        let exp = CrossChunkExperiment::new(
            &plain,
            &scheme,
            &outcome,
            &plain_ranges,
            &output_ranges,
            mas,
        )
        .unwrap();
        assert_eq!(exp.chunk_count(), plain_ranges.len());
        let run = exp.run(&FrequencyAttacker, 1200, 5);
        // Within a chunk the per-chunk F² run flattened frequencies: α (+ slack).
        assert!(
            run.within_chunk.success_rate() <= 0.34 + 0.15,
            "within-chunk rate {} broke alpha",
            run.within_chunk.success_rate()
        );
        // Per-chunk α-security composes for single-challenge frequency matching
        // (see the module docs): the merged table stays at/below α too.
        assert!(
            run.cross_chunk.success_rate() <= 0.34 + 0.15,
            "cross-chunk rate {} broke alpha",
            run.cross_chunk.success_rate()
        );
        // In fact chunk-flattened frequencies match the table-wide histogram even
        // less, so this adversary gains nothing from crossing chunk boundaries.
        assert!(
            run.boundary_leakage() <= 0.1,
            "unexpected boundary leakage: {} vs {}",
            run.cross_chunk.success_rate(),
            run.within_chunk.success_rate()
        );
    }

    #[test]
    fn whole_table_as_one_chunk_shows_no_boundary_leakage() {
        let plain = recurring_table(5);
        let scheme = F2::builder().alpha(0.34).split_factor(2).seed(23).build().unwrap();
        let (outcome, plain_ranges, output_ranges) =
            chunked_outcome(&scheme, &plain, plain.row_count());
        let exp = CrossChunkExperiment::new(
            &plain,
            &scheme,
            &outcome,
            &plain_ranges,
            &output_ranges,
            AttrSet::from_indices([0, 1]),
        )
        .unwrap();
        assert_eq!(exp.chunk_count(), 1);
        let run = exp.run(&FrequencyAttacker, 800, 6);
        // One chunk = the paper's table-wide guarantee; both scopes coincide.
        assert!(run.cross_chunk.success_rate() <= 0.34 + 0.15);
        assert!(run.boundary_leakage().abs() <= 0.1);
    }

    #[test]
    fn mismatched_ranges_are_rejected() {
        let plain = recurring_table(3);
        let scheme = F2::builder().alpha(0.5).seed(2).build().unwrap();
        let (outcome, plain_ranges, output_ranges) = chunked_outcome(&scheme, &plain, 5);
        let attrs = AttrSet::from_indices([0, 1]);
        // Length mismatch.
        assert!(CrossChunkExperiment::new(
            &plain,
            &scheme,
            &outcome,
            &plain_ranges[1..],
            &output_ranges,
            attrs
        )
        .is_err());
        // Out-of-bounds output range.
        let mut bad = output_ranges.clone();
        bad.last_mut().unwrap().end += 10;
        assert!(CrossChunkExperiment::new(&plain, &scheme, &outcome, &plain_ranges, &bad, attrs)
            .is_err());
        // Plaintext range that does not cover its chunk's real rows.
        let mut bad = plain_ranges.clone();
        bad[0] = 1..2;
        assert!(CrossChunkExperiment::new(&plain, &scheme, &outcome, &bad, &output_ranges, attrs)
            .is_err());
    }
}
