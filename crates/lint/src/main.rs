//! `f2-lint` — the CLI wrapper over `f2_lint`.
//!
//! Exit codes: `0` clean (or debts all baselined), `1` findings not covered by the
//! baseline, or baseline entries no finding matches, in `--check` mode, `2` usage
//! or I/O failure.

use std::path::PathBuf;
use std::process::ExitCode;

use f2_lint::{analyze, find_workspace_root, report_json, Baseline};

const BASELINE_FILE: &str = "LINT_baseline.json";
const REPORT_FILE: &str = "LINT_report.json";

struct Options {
    check: bool,
    update_baseline: bool,
    quiet: bool,
    root: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: f2-lint [--check] [--update-baseline] [--quiet] [--root <path>]\n\
     \n\
     Analyze the F² workspace against the repo lint rules.\n\
       --check            exit 1 on a finding LINT_baseline.json does not cover, or on a stale entry in it\n\
       --update-baseline  rewrite LINT_baseline.json to cover current findings\n\
       --quiet            suppress per-finding diagnostics, print totals only\n\
       --root <path>      workspace root (default: nearest [workspace] Cargo.toml)"
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options { check: false, update_baseline: false, quiet: false, root: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => opts.check = true,
            "--update-baseline" => opts.update_baseline = true,
            "--quiet" => opts.quiet = true,
            "--root" => {
                let path = args.next().ok_or("--root needs a path")?;
                opts.root = Some(PathBuf::from(path));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Run the analysis; returns the number of new findings and of stale baseline
/// occurrences.
fn run() -> Result<(usize, usize), String> {
    let opts = parse_args()?;
    let root = match opts.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no [workspace] Cargo.toml above the current directory")?
        }
    };

    let analysis = analyze(&root)?;

    let baseline_path = root.join(BASELINE_FILE);
    let baseline = if baseline_path.is_file() {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("read {}: {e}", baseline_path.display()))?;
        Baseline::parse(&text)?
    } else {
        Baseline::default()
    };
    let matched = baseline.partition(&analysis.findings);
    let stale: usize = matched.stale.iter().map(|(_, left)| left).sum();

    let report = report_json(
        &analysis.findings,
        matched.fresh.len(),
        analysis.files_scanned,
        analysis.allowed,
    );
    let report_path = root.join(REPORT_FILE);
    std::fs::write(&report_path, report)
        .map_err(|e| format!("write {}: {e}", report_path.display()))?;

    if opts.update_baseline {
        let new_baseline = Baseline::from_findings(&analysis.findings);
        std::fs::write(&baseline_path, new_baseline.to_json())
            .map_err(|e| format!("write {}: {e}", baseline_path.display()))?;
    }

    if !opts.quiet {
        for f in &matched.fresh {
            println!("error[{}]: {}", f.rule, f.message);
            println!("  --> {}:{} (in `{}`)", f.file, f.line, f.function);
            println!("   | {}", f.snippet);
        }
        for ((rule, file, function, snippet), left) in &matched.stale {
            println!("stale[{rule}]: {left} baselined occurrence(s) match no finding");
            println!("  --> {file} (in `{function}`)");
            println!("   | {snippet}");
        }
    }
    println!(
        "f2-lint: {} files, {} findings ({} baselined, {} new), {} stale baseline \
         occurrences, {} allow-suppressed",
        analysis.files_scanned,
        analysis.findings.len(),
        matched.covered.len(),
        matched.fresh.len(),
        stale,
        analysis.allowed,
    );
    if opts.update_baseline {
        println!("f2-lint: baseline rewritten with {} findings", analysis.findings.len());
    }
    Ok((matched.fresh.len(), stale))
}

fn main() -> ExitCode {
    match run() {
        Ok((0, 0)) => ExitCode::SUCCESS,
        Ok((fresh, stale)) => {
            let check = std::env::args().any(|a| a == "--check");
            if check {
                if fresh > 0 {
                    eprintln!("f2-lint: new findings not covered by {BASELINE_FILE}");
                }
                if stale > 0 {
                    eprintln!(
                        "f2-lint: stale {BASELINE_FILE} entries match no finding; \
                         rewrite it with `cargo run -p f2-lint -- --update-baseline`"
                    );
                }
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                ExitCode::SUCCESS
            } else {
                eprintln!("f2-lint: {msg}\n\n{}", usage());
                ExitCode::from(2)
            }
        }
    }
}
