//! `bench_guard` — fail CI when the Paillier or F² hot paths regress.
//!
//! Usage:
//! ```text
//! cargo run --release -p f2-bench --bin bench_guard -- <baseline.json> <fresh.json> [max_regression]
//! ```
//!
//! Compares the `paillier` and `f2_phases` sections of a freshly generated
//! `BENCH_report.json` against the committed baseline and exits non-zero if the
//! per-cell Paillier encrypt throughput, or the F² engine throughput on the
//! tracked 10k-row workload, dropped by more than `max_regression` (default `0.20`,
//! i.e. 20%). Both sections are measured on fixed workloads (same modulus size and
//! sampled rows; same row count and chunking) in both smoke and full mode, so a
//! smoke-mode CI run is directly comparable to the committed full-mode report.
//!
//! Throughput is **hardware-normalized** before comparison: each report carries a
//! `calibration_modpow_s` field (a fixed-operand modular exponentiation timed in
//! the same run), and the guard compares `encrypt_mb_s × calibration_modpow_s`.
//! Both factors scale with the host's single-thread speed, so the product is a
//! machine-independent "work per exponentiation-unit" ratio — a CI runner slower
//! than the machine that committed the baseline does not fail the gate, and a
//! faster one cannot mask a real regression. If either report predates the
//! calibration field, the guard falls back to raw MB/s with a warning.
//!
//! A baseline without a `paillier` section passes vacuously (bootstrap case: the
//! first report generated after this guard was introduced); a *fresh* report
//! without one is an error — the report generator must always emit it.
//!
//! The guard also holds an **absolute telemetry ceiling**: the fresh report's
//! `observability.overhead_frac` (the median over alternating pairs of runs of the
//! instrumented / no-op wall-clock ratio on the tracked workload, minus 1, all
//! timed in the same run) must stay at or under 3%. No baseline is
//! consulted for this check — the ratio is host-independent by construction.
//!
//! A failing run ends with one line naming every check that failed: a floor, the
//! ceiling, or a section or number missing from a report.
//!
//! Parsing is a small anchored scanner rather than a JSON parser: the offline
//! vendor set has no JSON crate, and `report` writes the document with a fixed
//! shape (`"backend": "<name>",` … `"encrypt_mb_s": <num>`).

use std::process::ExitCode;

/// The framings whose throughput the guard tracks. Entries of other framings in a
/// report (an older baseline's `paillier-packed`) are ignored.
const FRAMINGS: [&str; 1] = ["paillier"];

/// Default tolerated fractional regression before the guard fails.
const DEFAULT_MAX_REGRESSION: f64 = 0.20;

/// Absolute ceiling on telemetry overhead: the fresh report's
/// `observability.overhead_frac` (instrumented vs no-op wall clock on the tracked
/// workload, both measured in the same run) may not exceed 3%. Unlike the
/// throughput floors this needs no baseline or hardware normalization — both
/// sides of the ratio come from the same host and run.
const OBS_MAX_OVERHEAD_FRAC: f64 = 0.03;

/// The text of a report from its `"paillier"` section onward, if present.
fn paillier_section(report: &str) -> Option<&str> {
    report.find("\"paillier\": {").map(|at| &report[at..])
}

/// The text of a report from its `"f2_phases"` section onward, if present. The slice
/// stops at the next top-level section so a number is never read past it.
fn f2_phases_section(report: &str) -> Option<&str> {
    section(report, "\"f2_phases\": {")
}

/// The text of a report's `"streaming"` section, if present (same slicing rules).
fn streaming_section(report: &str) -> Option<&str> {
    section(report, "\"streaming\": {")
}

/// The text of a report's `"observability"` section, if present (same slicing
/// rules).
fn observability_section(report: &str) -> Option<&str> {
    section(report, "\"observability\": {")
}

/// The measured telemetry overhead fraction inside an `observability` section.
fn obs_overhead_frac(section: &str) -> Option<f64> {
    float_after(section, "\"overhead_frac\": ")
}

fn section<'a>(report: &'a str, anchor: &str) -> Option<&'a str> {
    let at = report.find(anchor)?;
    let rest = &report[at..];
    let end = rest.find("\n  }").map_or(rest.len(), |e| e + 4);
    Some(&rest[..end])
}

/// The tracked F² engine throughput (MB/s) inside an `f2_phases` section.
fn f2_throughput_mb_s(section: &str) -> Option<f64> {
    float_after(section, "\"throughput_mb_s\": ")
}

/// `encrypt_mb_s` of one framing inside a `paillier` section.
fn framing_encrypt_mb_s(section: &str, backend: &str) -> Option<f64> {
    let entry_anchor = format!("\"backend\": \"{backend}\",");
    let after_entry = &section[section.find(&entry_anchor)? + entry_anchor.len()..];
    float_after(after_entry, "\"encrypt_mb_s\": ")
}

/// The section's same-run hardware calibration (seconds), if recorded.
fn calibration_s(section: &str) -> Option<f64> {
    float_after(section, "\"calibration_modpow_s\": ")
}

/// First `<key><number>` occurrence after the start of `text`.
fn float_after(text: &str, key: &str) -> Option<f64> {
    let after_key = &text[text.find(key)? + key.len()..];
    let end = after_key.find(|c: char| c != '.' && !c.is_ascii_digit())?;
    after_key[..end].parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, fresh_path) = match (args.first(), args.get(1)) {
        (Some(b), Some(f)) => (b, f),
        _ => {
            eprintln!("usage: bench_guard <baseline.json> <fresh.json> [max_regression]");
            return ExitCode::from(2);
        }
    };
    let max_regression: f64 = match args.get(2) {
        Some(raw) => match raw.parse() {
            Ok(v) if (0.0..1.0).contains(&v) => v,
            _ => {
                eprintln!("bench_guard: max_regression must be a fraction in [0, 1), got {raw}");
                return ExitCode::from(2);
            }
        },
        None => DEFAULT_MAX_REGRESSION,
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    };
    let baseline = read(baseline_path);
    let fresh = read(fresh_path);

    if paillier_section(&baseline).is_none() {
        println!(
            "bench_guard: baseline {baseline_path} has no \"paillier\" section \
             (pre-guard report); passing"
        );
        return ExitCode::SUCCESS;
    }
    if paillier_section(&fresh).is_none() {
        eprintln!("bench_guard: fresh report {fresh_path} is missing the \"paillier\" section");
        return ExitCode::from(2);
    }
    let failures = failed_checks(&baseline, &fresh, max_regression);
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("{}", closing_line(&failures, baseline_path));
    ExitCode::FAILURE
}

/// The guard's last line when checks failed: every failed check, by name.
fn closing_line(failures: &[String], baseline_path: &str) -> String {
    format!(
        "bench_guard: {} check(s) failed against {baseline_path}: {}",
        failures.len(),
        failures.join("; ")
    )
}

/// Run every check of a fresh report against the baseline, printing one line per
/// check, and name each check that failed. Both reports must hold a `paillier`
/// section.
fn failed_checks(baseline: &str, fresh: &str, max_regression: f64) -> Vec<String> {
    let base_section = paillier_section(baseline).expect("main checked the baseline's section");
    let fresh_section = paillier_section(fresh).expect("main checked the fresh section");
    let floor_failure =
        |name: &str| format!("{name} floor ({:.0}% below the baseline)", max_regression * 100.0);

    // Hardware normalization: multiply each side's MB/s by its own same-run
    // calibration seconds, cancelling the host's absolute speed.
    let calibrations = (calibration_s(base_section), calibration_s(fresh_section));
    let (base_scale, fresh_scale, unit) = match calibrations {
        (Some(b), Some(f)) if b > 0.0 && f > 0.0 => (b, f, "MB/modpow"),
        _ => {
            println!(
                "bench_guard: calibration_modpow_s missing on one side; \
                 comparing raw MB/s (hardware-dependent)"
            );
            (1.0, 1.0, "MB/s")
        }
    };

    let mut failures = Vec::new();
    for backend in FRAMINGS {
        let Some(base) = framing_encrypt_mb_s(base_section, backend) else {
            println!("bench_guard: baseline has no `{backend}` framing; skipping it");
            continue;
        };
        let Some(now) = framing_encrypt_mb_s(fresh_section, backend) else {
            eprintln!("bench_guard: fresh report has no `{backend}` framing");
            failures.push(format!("`{backend}` framing missing from the fresh report"));
            continue;
        };
        let base = base * base_scale;
        let now = now * fresh_scale;
        let floor = base * (1.0 - max_regression);
        let verdict = if now < floor { "REGRESSION" } else { "ok" };
        println!(
            "bench_guard: {backend:<18} baseline {base:>12.6} {unit} | now {now:>12.6} {unit} \
             | floor {floor:>12.6} | {verdict}"
        );
        if now < floor {
            failures.push(floor_failure(backend));
        }
    }
    // F² engine floor: same normalization, same tolerance. A baseline predating the
    // `f2_phases` section passes vacuously (bootstrap); a fresh report without it is
    // an error — the generator always emits it.
    match (f2_phases_section(baseline), f2_phases_section(fresh)) {
        (None, _) => {
            println!(
                "bench_guard: baseline has no \"f2_phases\" section \
                 (pre-guard report); skipping the f2 floor"
            );
        }
        (Some(_), None) => {
            eprintln!("bench_guard: fresh report is missing the \"f2_phases\" section");
            failures.push("\"f2_phases\" section missing from the fresh report".into());
        }
        (Some(base_f2), Some(fresh_f2)) => {
            match (f2_throughput_mb_s(base_f2), f2_throughput_mb_s(fresh_f2)) {
                (Some(base), Some(now)) => {
                    let base = base * base_scale;
                    let now = now * fresh_scale;
                    let floor = base * (1.0 - max_regression);
                    let verdict = if now < floor { "REGRESSION" } else { "ok" };
                    println!(
                        "bench_guard: {:<18} baseline {base:>12.6} {unit} | now {now:>12.6} {unit} \
                         | floor {floor:>12.6} | {verdict}",
                        "f2-engine"
                    );
                    if now < floor {
                        failures.push(floor_failure("f2-engine"));
                    }
                }
                _ => {
                    eprintln!("bench_guard: f2_phases section lacks throughput_mb_s");
                    failures.push("\"f2_phases\" section lacks throughput_mb_s".into());
                }
            }
        }
    }

    // Streaming-path floor: the constant-memory `run_streaming` pipeline on the
    // same fixed workload, same normalization and tolerance. Bootstrap rule as for
    // `f2_phases`: missing in the baseline passes, missing in the fresh report
    // fails (the generator always emits it).
    match (streaming_section(baseline), streaming_section(fresh)) {
        (None, _) => {
            println!(
                "bench_guard: baseline has no \"streaming\" section \
                 (pre-streaming report); skipping the streaming floor"
            );
        }
        (Some(_), None) => {
            eprintln!("bench_guard: fresh report is missing the \"streaming\" section");
            failures.push("\"streaming\" section missing from the fresh report".into());
        }
        (Some(base_s), Some(fresh_s)) => {
            match (f2_throughput_mb_s(base_s), f2_throughput_mb_s(fresh_s)) {
                (Some(base), Some(now)) => {
                    let base = base * base_scale;
                    let now = now * fresh_scale;
                    let floor = base * (1.0 - max_regression);
                    let verdict = if now < floor { "REGRESSION" } else { "ok" };
                    println!(
                        "bench_guard: {:<18} baseline {base:>12.6} {unit} | now {now:>12.6} {unit} \
                         | floor {floor:>12.6} | {verdict}",
                        "f2-streaming"
                    );
                    if now < floor {
                        failures.push(floor_failure("f2-streaming"));
                    }
                }
                _ => {
                    eprintln!("bench_guard: streaming section lacks throughput_mb_s");
                    failures.push("\"streaming\" section lacks throughput_mb_s".into());
                }
            }
        }
    }

    // Telemetry-overhead ceiling: absolute, on the fresh report only — the
    // `observability` section compares instrumented vs no-op wall clock measured in
    // the same run, so host speed cancels and no baseline is needed. A fresh report
    // without the section fails (the generator always emits it).
    match observability_section(fresh).map(obs_overhead_frac) {
        Some(Some(frac)) => {
            let verdict = if frac > OBS_MAX_OVERHEAD_FRAC { "REGRESSION" } else { "ok" };
            println!(
                "bench_guard: {:<18} overhead {:>11.2}% | ceiling {:>11.0}% | {verdict}",
                "f2-telemetry",
                frac * 100.0,
                OBS_MAX_OVERHEAD_FRAC * 100.0
            );
            if frac > OBS_MAX_OVERHEAD_FRAC {
                failures.push(format!(
                    "f2-telemetry ceiling (overhead {:.2}% above {:.0}%)",
                    frac * 100.0,
                    OBS_MAX_OVERHEAD_FRAC * 100.0
                ));
            }
        }
        Some(None) => {
            eprintln!("bench_guard: observability section lacks overhead_frac");
            failures.push("\"observability\" section lacks overhead_frac".into());
        }
        None => {
            eprintln!("bench_guard: fresh report is missing the \"observability\" section");
            failures.push("\"observability\" section missing from the fresh report".into());
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "engine": [ { "backend": "f2", "throughput_mb_s": 1.2 } ],
  "paillier_framing": [
    { "backend": "paillier", "throughput_mb_s": 0.002561 }
  ],
  "f2_phases": {
    "rows": 10000,
    "chunk_rows": 512,
    "workers": 1,
    "max_s": 0.009000,
    "sse_s": 0.050000,
    "syn_s": 0.000100,
    "fp_s": 0.016000,
    "wall_s": 0.083000,
    "throughput_mb_s": 6.7500
  },
  "observability": {
    "rows": 10000,
    "chunk_rows": 512,
    "pairs": 9,
    "noop_wall_s": 0.110000,
    "instrumented_wall_s": 0.111500,
    "noop_mb_s": 5.0909,
    "instrumented_mb_s": 5.0224,
    "ratio_median": 1.0136,
    "ratio_q1": 0.9950,
    "ratio_q3": 1.0210,
    "overhead_frac": 0.0136
  },
  "paillier": {
    "modulus_bits": 512,
    "rows": 8,
    "keygen_s": 0.031000,
    "calibration_modpow_s": 0.000400,
    "framings": [
      { "backend": "paillier", "encrypt_s": 0.001, "encrypt_mb_s": 0.388400, "decrypt_s": 0.002, "decrypt_mb_s": 0.2, "pr2_encrypt_mb_s": 0.002561, "speedup_vs_pr2": 151.66 },
      { "backend": "paillier-packed", "encrypt_s": 0.001, "encrypt_mb_s": 0.472900, "decrypt_s": 0.002, "decrypt_mb_s": 0.3, "pr2_encrypt_mb_s": 0.009064, "speedup_vs_pr2": 52.17 }
    ]
  }
}
"#;

    #[test]
    fn extracts_framing_throughputs() {
        let section = paillier_section(SAMPLE).expect("section present");
        assert_eq!(framing_encrypt_mb_s(section, "paillier"), Some(0.3884));
        assert_eq!(framing_encrypt_mb_s(section, "paillier-packed"), Some(0.4729));
        assert_eq!(framing_encrypt_mb_s(section, "nonexistent"), None);
    }

    #[test]
    fn per_cell_anchor_does_not_match_packed_entry() {
        // `"backend": "paillier",` must not resolve inside the packed entry, and the
        // scanner must skip the legacy `paillier_framing` section entirely.
        let section = paillier_section(SAMPLE).unwrap();
        let per_cell = framing_encrypt_mb_s(section, "paillier").unwrap();
        assert!((per_cell - 0.3884).abs() < 1e-9);
    }

    #[test]
    fn reports_without_section_are_detected() {
        assert!(paillier_section("{ \"engine\": [] }").is_none());
        assert!(paillier_section(SAMPLE).is_some());
    }

    #[test]
    fn extracts_calibration() {
        let section = paillier_section(SAMPLE).unwrap();
        assert_eq!(calibration_s(section), Some(0.0004));
        assert_eq!(calibration_s("{ \"rows\": 8 }"), None);
    }

    #[test]
    fn extracts_observability_overhead() {
        let section = observability_section(SAMPLE).expect("observability present");
        assert_eq!(obs_overhead_frac(section), Some(0.0136));
        // The slice must stop before the paillier section so its numbers can never
        // leak into the ceiling check.
        assert!(!section.contains("paillier"));
        assert!(observability_section("{ \"engine\": [] }").is_none());
    }

    #[test]
    fn the_closing_line_names_only_the_checks_that_failed() {
        // The sample against itself passes every check it holds.
        assert!(failed_checks(SAMPLE, SAMPLE, DEFAULT_MAX_REGRESSION).is_empty());

        // A telemetry breach alone is named as the ceiling, not as a throughput
        // regression.
        let noisy = SAMPLE.replace("\"overhead_frac\": 0.0136", "\"overhead_frac\": 0.0319");
        let failures = failed_checks(SAMPLE, &noisy, DEFAULT_MAX_REGRESSION);
        assert_eq!(failures, ["f2-telemetry ceiling (overhead 3.19% above 3%)"]);
        let line = closing_line(&failures, "base.json");
        assert_eq!(
            line,
            "bench_guard: 1 check(s) failed against base.json: \
             f2-telemetry ceiling (overhead 3.19% above 3%)"
        );
        assert!(!line.contains("throughput"));

        // A slower engine and a missing section are both listed, in check order.
        let broken = SAMPLE
            .replace("\"throughput_mb_s\": 6.7500", "\"throughput_mb_s\": 5.0000")
            .replace("\"observability\": {", "\"observability_gone\": {");
        assert_eq!(
            failed_checks(SAMPLE, &broken, DEFAULT_MAX_REGRESSION),
            [
                "f2-engine floor (20% below the baseline)",
                "\"observability\" section missing from the fresh report",
            ]
        );
    }

    #[test]
    fn extracts_f2_throughput() {
        let section = f2_phases_section(SAMPLE).expect("f2_phases present");
        assert_eq!(f2_throughput_mb_s(section), Some(6.75));
        // The slice must stop before the paillier section so its numbers can never
        // leak into the f2 floor.
        assert!(!section.contains("paillier"));
        assert!(f2_phases_section("{ \"engine\": [] }").is_none());
    }
}
