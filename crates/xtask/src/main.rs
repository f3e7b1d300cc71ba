//! CLI for `cargo xtask`. See the library crate for the checks.
//!
//! ```text
//! cargo xtask lint [--json <path>] [--fix-ratchet]
//! cargo xtask lint --report
//! cargo xtask ab --base <rev> [--workload W]… [--seed S]… [--pairs N]
//! ```
//!
//! `--json` writes the machine-readable `LintReport` (the CI
//! artifact); `--fix-ratchet` first rewrites the allowlists down to
//! current finding counts (never up), then lints. `--report` runs no
//! pass: it prints the dead-surface module listing (crate modules
//! whose only users outside their crate are examples, tests or
//! benches) and exits successfully whatever it lists. `ab` runs the
//! system benchmark in alternating pairs, base revision against the
//! working tree (see the library's `ab` module).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") | None => lint(&args[args.len().min(1)..]),
        Some("ab") => ab(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask command `{other}`; available: lint, ab");
            ExitCode::FAILURE
        }
    }
}

fn ab(flags: &[String]) -> ExitCode {
    let result = xtask::ab::Options::parse(flags)
        .and_then(|opts| xtask::ab::run(&xtask::workspace_root(), &opts));
    match result {
        Ok(summary) => {
            print!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask ab: {e}");
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
            "--report" if flags.len() == 1 => return module_report(),
            other => {
                eprintln!(
                    "unknown lint flag `{other}`; available: --json <path>, --fix-ratchet, \
                     or --report alone"
                );
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

fn module_report() -> ExitCode {
    let report = match xtask::dead_surface::module_report(&xtask::workspace_root()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "dead-surface report: {} module(s) whose only users outside their crate are \
         examples, tests or benches",
        report.len()
    );
    for (module, users) in report {
        println!("  {module}: {}", users.join(", "));
    }
    ExitCode::SUCCESS
}
