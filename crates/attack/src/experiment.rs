//! The empirical `Exp^freq` experiment.
//!
//! The harness plays the security game of §2.4 many times against a concrete encrypted
//! table: it samples a ciphertext cell combination uniformly from the rows that carry
//! original data, hands the adversary the public knowledge (ciphertext frequency plus
//! the full plaintext frequency distribution), and scores the guess against the ground
//! truth known from the encryption provenance. Dividing successes by trials estimates
//! `Pr[Exp^freq = 1]`, which α-security upper-bounds by α.

use crate::{Adversary, AdversaryKnowledge};
use f2_core::{F2Error, Scheme, SchemeOutcome};
use f2_relation::{AttrSet, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of an attack experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackOutcome {
    /// Number of game rounds played.
    pub trials: usize,
    /// Rounds the adversary won.
    pub successes: usize,
}

impl AttackOutcome {
    /// Empirical success probability.
    pub fn success_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }
}

/// An experiment binding a plaintext table, an encrypted table, and the ground-truth
/// correspondence between their rows.
#[derive(Debug, Clone)]
pub struct AttackExperiment {
    /// The attribute set the game is played over (typically a MAS).
    pub attrs: AttrSet,
    knowledge: AdversaryKnowledge,
    /// (ciphertext combination, true plaintext combination) for every original row.
    ground_truth: Vec<(Vec<Value>, Vec<Value>)>,
}

impl AttackExperiment {
    /// Build the experiment for **any** encryption backend: the scheme's
    /// [`Scheme::real_rows`] mapping pairs each output row carrying original data with
    /// its source row, which becomes the game's ground truth. This is how the
    /// α-security experiment runs over `&dyn Scheme` — F², the deterministic AES
    /// baseline, and the probabilistic ciphers are all attacked through the same code
    /// path.
    ///
    /// Errors if the outcome does not belong to `scheme` (wrong backend's owner
    /// state), or if the claimed row mapping does not fit `plain`/`outcome` — e.g. a
    /// cell-wise scheme handed an F² outcome whose table has extra artificial rows.
    pub fn for_scheme(
        plain: &Table,
        scheme: &dyn Scheme,
        outcome: &SchemeOutcome,
        attrs: AttrSet,
    ) -> Result<Self, F2Error> {
        let mapping = scheme.real_rows(outcome)?;
        let mut ground_truth = Vec::with_capacity(mapping.len());
        for (out_row, orig_row) in mapping {
            if out_row >= outcome.encrypted.row_count() || orig_row >= plain.row_count() {
                return Err(F2Error::ProvenanceMismatch(format!(
                    "scheme `{}` maps output row {out_row} to original row {orig_row}, \
                     outside the {}-row encrypted / {}-row plaintext tables",
                    scheme.name(),
                    outcome.encrypted.row_count(),
                    plain.row_count()
                )));
            }
            let cipher = outcome.encrypted.row(out_row).expect("bounds checked").project(attrs);
            let plain_combo = plain.row(orig_row).expect("bounds checked").project(attrs);
            ground_truth.push((cipher, plain_combo));
        }
        Ok(Self::from_parts(plain, &outcome.encrypted, attrs, ground_truth))
    }

    /// Number of `(ciphertext, plaintext)` ground-truth pairs the game samples from.
    pub fn ground_truth_len(&self) -> usize {
        self.ground_truth.len()
    }

    pub(crate) fn from_parts(
        plain: &Table,
        encrypted: &Table,
        attrs: AttrSet,
        ground_truth: Vec<(Vec<Value>, Vec<Value>)>,
    ) -> Self {
        let knowledge = AdversaryKnowledge {
            plaintext_frequencies: plain.frequency_histogram(attrs),
            ciphertext_frequencies: encrypted.frequency_histogram(attrs),
        };
        AttackExperiment { attrs, knowledge, ground_truth }
    }

    /// The adversary's background knowledge.
    pub fn knowledge(&self) -> &AdversaryKnowledge {
        &self.knowledge
    }

    /// Play the game `trials` times with the given adversary.
    pub fn run(&self, adversary: &dyn Adversary, trials: usize, seed: u64) -> AttackOutcome {
        if self.ground_truth.is_empty() {
            return AttackOutcome { trials: 0, successes: 0 };
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut successes = 0;
        for _ in 0..trials {
            let idx = (rng.next_u64() % self.ground_truth.len() as u64) as usize;
            let (cipher, truth) = &self.ground_truth[idx];
            let freq = self.knowledge.ciphertext_frequencies.get(cipher).copied().unwrap_or(1);
            if let Some(guess) = adversary.guess(&self.knowledge, cipher, freq) {
                if &guess == truth {
                    successes += 1;
                }
            }
        }
        AttackOutcome { trials, successes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrequencyAttacker, KerckhoffsAttacker};
    use f2_core::{DetScheme, Scheme, F2};
    use f2_crypto::MasterKey;
    use f2_relation::{Record, Schema};

    /// A skewed single-MAS table: one dominant value, several rare ones.
    fn skewed_table() -> Table {
        let schema = Schema::from_names(["A", "B"]).unwrap();
        let mut rows = Vec::new();
        for _ in 0..12 {
            rows.push(Record::new(vec![Value::text("a1"), Value::text("b1")]));
        }
        for i in 0..4 {
            rows.push(Record::new(vec![
                Value::text(format!("x{i}")),
                Value::text(format!("y{i}")),
            ]));
            rows.push(Record::new(vec![
                Value::text(format!("x{i}")),
                Value::text(format!("y{i}")),
            ]));
        }
        Table::new(schema, rows).unwrap()
    }

    #[test]
    fn frequency_attack_breaks_deterministic_encryption() {
        let plain = skewed_table();
        let det = DetScheme::new(MasterKey::from_seed(3));
        let encrypted = det.encrypt(&plain).unwrap();
        let exp = AttackExperiment::for_scheme(&plain, &det, &encrypted, AttrSet::all(2)).unwrap();
        let outcome = exp.run(&FrequencyAttacker, 400, 1);
        // The dominant value (12 of 20 rows) is always identified, so the success rate
        // is well above one half.
        assert!(outcome.success_rate() > 0.55, "rate = {}", outcome.success_rate());
    }

    #[test]
    fn f2_bounds_attack_success_by_alpha() {
        let plain = skewed_table();
        let alpha = 0.5;
        let f2 = F2::builder()
            .alpha(alpha)
            .split_factor(2)
            .master_key(MasterKey::from_seed(9))
            .build()
            .unwrap();
        let out = f2.encrypt(&plain).unwrap();
        let mas = out.f2_state().unwrap().mas_sets[0];
        let exp = AttackExperiment::for_scheme(&plain, &f2, &out, mas).unwrap();
        for adversary in [&FrequencyAttacker as &dyn Adversary, &KerckhoffsAttacker] {
            let outcome = exp.run(adversary, 600, 2);
            // Allow statistical slack over the exact α bound.
            assert!(
                outcome.success_rate() <= alpha + 0.12,
                "{} broke alpha: {}",
                adversary.name(),
                outcome.success_rate()
            );
        }
    }

    #[test]
    fn for_scheme_runs_the_same_game_over_any_backend() {
        let plain = skewed_table();
        let attrs = AttrSet::all(2);

        // Deterministic backend through the trait: broken by frequency matching.
        let det = DetScheme::new(MasterKey::from_seed(3));
        let det_outcome = det.encrypt(&plain).unwrap();
        let exp = AttackExperiment::for_scheme(&plain, &det, &det_outcome, attrs).unwrap();
        let det_rate = exp.run(&FrequencyAttacker, 400, 1).success_rate();
        assert!(det_rate > 0.55, "rate = {det_rate}");

        // F² through the trait: bounded by α (with statistical slack).
        let alpha = 0.5;
        let f2 = F2::builder().alpha(alpha).split_factor(2).seed(9).build().unwrap();
        let f2_outcome = f2.encrypt(&plain).unwrap();
        let mas = f2_outcome.f2_state().unwrap().mas_sets[0];
        let exp = AttackExperiment::for_scheme(&plain, &f2, &f2_outcome, mas).unwrap();
        let f2_rate = exp.run(&FrequencyAttacker, 600, 2).success_rate();
        assert!(f2_rate <= alpha + 0.12, "rate = {f2_rate}");
        assert!(f2_rate < det_rate);
    }

    #[test]
    fn for_scheme_refuses_an_outcome_of_another_backend() {
        let plain = skewed_table();
        let attrs = AttrSet::all(2);
        let det = DetScheme::new(MasterKey::from_seed(3));
        let f2 = F2::builder().alpha(0.5).split_factor(2).seed(9).build().unwrap();

        // An F² outcome handed to the deterministic backend: its identity mapping
        // runs past the plaintext rows into F²'s artificial rows.
        let f2_outcome = f2.encrypt(&plain).unwrap();
        assert!(f2_outcome.encrypted.row_count() > plain.row_count());
        let err = AttackExperiment::for_scheme(&plain, &det, &f2_outcome, attrs).unwrap_err();
        assert!(matches!(err, F2Error::ProvenanceMismatch(_)), "{err}");

        // A deterministic outcome handed to F²: the owner state is the wrong kind.
        let det_outcome = det.encrypt(&plain).unwrap();
        let err = AttackExperiment::for_scheme(&plain, &f2, &det_outcome, attrs).unwrap_err();
        assert!(matches!(err, F2Error::UnsupportedInput(_)), "{err}");
    }

    #[test]
    fn empty_experiment() {
        let plain = Table::empty(Schema::from_names(["A"]).unwrap());
        let det = DetScheme::new(MasterKey::from_seed(3));
        let enc = det.encrypt(&plain).unwrap();
        let exp = AttackExperiment::for_scheme(&plain, &det, &enc, AttrSet::all(1)).unwrap();
        let outcome = exp.run(&FrequencyAttacker, 10, 3);
        assert_eq!(outcome.trials, 0);
        assert_eq!(outcome.success_rate(), 0.0);
    }
}
