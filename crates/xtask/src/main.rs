//! CLI for `cargo xtask`. See the library crate for the checks.
//!
//! ```text
//! cargo xtask lint [--json <path>] [--fix-ratchet]
//! ```
//!
//! `--json` writes the machine-readable `LintReport` (the CI
//! artifact); `--fix-ratchet` first rewrites the allowlists down to
//! current finding counts (never up), then lints.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") | None => lint(&args[args.len().min(1)..]),
        Some(other) => {
            eprintln!("unknown xtask command `{other}`; available: lint");
            ExitCode::FAILURE
        }
    }
}

fn lint(flags: &[String]) -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut fix_ratchet = false;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(p.clone()),
                None => {
                    eprintln!("--json requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--fix-ratchet" => fix_ratchet = true,
            other => {
                eprintln!("unknown lint flag `{other}`; available: --json <path>, --fix-ratchet");
                return ExitCode::FAILURE;
            }
        }
    }

    let root = xtask::workspace_root();
    if fix_ratchet {
        match xtask::report::fix_ratchets(&root) {
            Ok(changed) if changed.is_empty() => println!("fix-ratchet: nothing to tighten"),
            Ok(changed) => {
                for f in changed {
                    println!("fix-ratchet: tightened {f}");
                }
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = match xtask::run_report(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("xtask lint: write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let violations = report.violations();
    print!("{}", report.summary());
    if violations.is_empty() {
        println!("xtask lint: all 6 passes clean");
        ExitCode::SUCCESS
    } else {
        for e in &violations {
            eprintln!("{e}");
        }
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
