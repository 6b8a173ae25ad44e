//! Cross-crate integration tests: exact decryption round-trips, frequency flattening,
//! α-security measurements, and the overhead bounds claimed by Theorems 3.3 and 3.6.

use f2::attack::{AttackExperiment, FrequencyAttacker, KerckhoffsAttacker};
use f2::{AttrSet, F2Scheme, Scheme, SchemeOutcome, Table, F2};
use f2_datagen::Dataset;
use std::collections::HashMap;

/// Encrypt a generated dataset the way the owner does: through the `Scheme` that
/// `F2::builder` returns (seed 99 drives both the nonces and the master key).
fn encrypt(
    dataset: Dataset,
    rows: usize,
    alpha: f64,
    split: usize,
) -> (Table, F2Scheme, SchemeOutcome) {
    let plain = dataset.generate(rows, 77);
    let scheme = F2::builder().alpha(alpha).split_factor(split).seed(99).build().unwrap();
    let out = scheme.encrypt(&plain).unwrap();
    (plain, scheme, out)
}

/// The maximal attribute sets Step 1 found, from the owner state.
fn mas_sets(out: &SchemeOutcome) -> &[AttrSet] {
    &out.f2_state().expect("an F² owner state").mas_sets
}

#[test]
fn roundtrip_on_generated_datasets() {
    for dataset in [Dataset::Orders, Dataset::Customer, Dataset::Synthetic] {
        let (plain, scheme, out) = encrypt(dataset, 120, 0.34, 2);
        let recovered = scheme.decrypt(&out).unwrap();
        assert!(recovered.multiset_eq(&plain), "round-trip failed on {}", dataset.name());
    }
}

#[test]
fn ciphertext_frequencies_are_homogenised_within_ecgs() {
    // Within every MAS, bucket the ciphertext combinations by frequency; by
    // construction every ECG of size ≥ k shares one frequency, so every observed
    // frequency class must contain at least k = ⌈1/α⌉ distinct ciphertext combinations
    // (this is exactly the property that gives α-security in §4.1).
    let alpha = 0.34;
    let (_, _, out) = encrypt(Dataset::Orders, 200, alpha, 2);
    let k = (1.0f64 / alpha).ceil() as usize;
    for &mas in mas_sets(&out) {
        let hist = out.encrypted.frequency_histogram(mas);
        let mut by_freq: HashMap<usize, usize> = HashMap::new();
        for &f in hist.values() {
            *by_freq.entry(f).or_insert(0) += 1;
        }
        for (freq, combos) in by_freq {
            if freq <= 1 {
                continue; // frequency-1 combinations are their own (large) bucket
            }
            assert!(
                combos >= k,
                "only {combos} ciphertext combinations share frequency {freq} on MAS {mas}"
            );
        }
    }
}

#[test]
fn empirical_alpha_security_holds() {
    let alpha = 0.25;
    let (plain, scheme, out) = encrypt(Dataset::Orders, 250, alpha, 2);
    for &mas in mas_sets(&out).iter().take(2) {
        let exp = AttackExperiment::for_scheme(&plain, &scheme, &out, mas).unwrap();
        for adversary in [&FrequencyAttacker as &dyn f2::attack::Adversary, &KerckhoffsAttacker] {
            let outcome = exp.run(adversary, 800, 5);
            assert!(
                outcome.success_rate() <= alpha + 0.1,
                "{} exceeded alpha on MAS {}: {}",
                adversary.name(),
                mas,
                outcome.success_rate()
            );
        }
    }
}

#[test]
fn overhead_bounds_from_the_theorems() {
    let (plain, _, out) = encrypt(Dataset::Synthetic, 300, 0.34, 2);
    let report = &out.report;
    let n = plain.row_count();
    let h = report.overlapping_mas_pairs;
    // Theorem 3.3: conflict resolution adds at most h·n records.
    assert!(
        report.overhead.syn_rows <= h * n,
        "SYN rows {} exceed h·n = {}",
        report.overhead.syn_rows,
        h * n
    );
    // Theorem 3.6 lower bound: if any false positive was eliminated, at least 2k
    // records were added; and FP rows are always an even number of record pairs.
    let k = (1.0f64 / 0.34).ceil() as usize;
    if report.false_positive_fds > 0 {
        assert!(report.overhead.fp_rows >= 2 * k);
    }
    assert_eq!(report.overhead.fp_rows % 2, 0);
    // The encrypted table size matches the accounting.
    assert_eq!(out.encrypted.row_count(), report.overhead.total_rows());
}

#[test]
fn encrypted_table_survives_csv_roundtrip() {
    // The outsourcing workflow ships the encrypted table as CSV; nothing may be lost.
    let (_, _, out) = encrypt(Dataset::Customer, 80, 0.5, 2);
    let csv = f2::relation::csv::to_csv_string(&out.encrypted);
    let back = f2::relation::csv::from_csv_string(out.encrypted.schema(), &csv).unwrap();
    assert_eq!(back, out.encrypted);
}

#[test]
fn report_timings_are_consistent() {
    let (_, _, out) = encrypt(Dataset::Orders, 150, 0.5, 2);
    let t = &out.report.timings;
    assert!(t.total() >= t.max);
    assert!(t.total() >= t.sse);
    assert!(out.report.mas_count >= 1);
    assert!(out.report.equivalence_classes > 0);
}
