//! Lint self-test: the checker must catch deliberately seeded
//! violations (fixtures), enforce the allowlist ratchet in both
//! directions, refuse deny-listed allowances, and pass on the real
//! workspace.

use std::fs;
use std::path::PathBuf;
use xtask::lexer::{scan, LintKind};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).expect("fixture readable")
}

fn count(findings: &[xtask::lexer::Finding], kind: LintKind) -> usize {
    findings.iter().filter(|f| f.kind == kind).count()
}

#[test]
fn seeded_violations_are_all_caught() {
    let findings = scan(&fixture("seeded_violations.rs.fixture"));
    assert_eq!(count(&findings, LintKind::Unwrap), 1, "{findings:?}");
    assert_eq!(count(&findings, LintKind::Expect), 1, "{findings:?}");
    assert_eq!(count(&findings, LintKind::Indexing), 2, "{findings:?}");
    assert_eq!(count(&findings, LintKind::PanicMacro), 2, "{findings:?}");
    assert_eq!(findings.len(), 6, "{findings:?}");
}

#[test]
fn clean_fixture_produces_no_findings() {
    let findings = scan(&fixture("clean.rs.fixture"));
    assert!(findings.is_empty(), "{findings:?}");
}

/// Build a throwaway mini-workspace with one hot-path file and an
/// allowlist, run the panic lint against it, and return the violations.
fn lint_mini_workspace(source: &str, allowlist: &str) -> Result<Vec<String>, String> {
    let root = std::env::temp_dir().join(format!(
        "xtask-selftest-{}-{}",
        std::process::id(),
        source.len() + allowlist.len()
    ));
    for dir in xtask::panic_lint::SCOPE {
        fs::create_dir_all(root.join(dir)).expect("mkdir scope");
    }
    fs::create_dir_all(root.join("crates/xtask")).expect("mkdir xtask");
    fs::write(root.join("crates/collect/src/daemon.rs"), source).expect("write source");
    fs::write(root.join(xtask::panic_lint::ALLOWLIST), allowlist).expect("write allowlist");
    let result = xtask::panic_lint::check(&root);
    fs::remove_dir_all(&root).ok();
    result
}

#[test]
fn deny_listed_file_fails_even_without_allowlist_entry() {
    let errors = lint_mini_workspace("fn f(v: Vec<u8>) -> u8 { v[0] }\n", "").expect("lint runs");
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains("daemon.rs"), "{errors:?}");
    assert!(errors[0].contains("indexing"), "{errors:?}");
}

#[test]
fn deny_listed_file_cannot_be_allowlisted() {
    let err = lint_mini_workspace(
        "fn f(v: Vec<u8>) -> u8 { v[0] }\n",
        "crates/collect/src/daemon.rs indexing 1\n",
    )
    .expect_err("deny-listed allowance must be rejected");
    assert!(err.contains("deny-listed"), "{err}");
}

#[test]
fn stale_allowance_fails_until_ratchet_is_tightened() {
    let err = lint_mini_workspace("fn f() {}\n", "crates/simnode/src/sim.rs indexing 2\n")
        .expect("lint runs");
    assert_eq!(err.len(), 1, "{err:?}");
    assert!(
        err[0].contains("shrink"),
        "ratchet message expected: {err:?}"
    );
}

#[test]
fn zero_allowance_lines_are_rejected() {
    let err = lint_mini_workspace("fn f() {}\n", "crates/simnode/src/sim.rs indexing 0\n")
        .expect_err("zero allowance is a stale line");
    assert!(err.contains("delete the line"), "{err}");
}

/// The edges the lock-classes fixture's "Held while acquiring" column
/// lists.
const FIXTURE_EDGES: &[(&str, &str)] = &[("Outer.inner", "Leaf.state")];

/// Run the wiring invariants on a mini-workspace: the real workspace's
/// wired files, with DESIGN.md replaced by the lock-classes fixture
/// (its table lists `Outer.inner`, `Leaf.state` and `Retired.slots`,
/// and the edge `Outer.inner` → `Leaf.state`).
fn invariants_with_fixture_design(classes: &[&str], edges: &[(&str, &str)]) -> Vec<String> {
    let real = xtask::workspace_root();
    let root = std::env::temp_dir().join(format!(
        "xtask-selftest-invariants-{}-{}-{}",
        std::process::id(),
        classes.len(),
        edges.len()
    ));
    for rel in [
        ".cargo/config.toml",
        ".github/workflows/ci.yml",
        "crates/broker/src/lib.rs",
        "crates/broker/tests/queue_props.rs",
    ] {
        let to = root.join(rel);
        fs::create_dir_all(to.parent().expect("nested path")).expect("mkdir");
        fs::copy(real.join(rel), to).expect("copy wired file");
    }
    fs::write(root.join("DESIGN.md"), fixture("lock_classes.md.fixture")).expect("write");
    let classes: Vec<String> = classes.iter().map(|c| c.to_string()).collect();
    let edges: Vec<(String, String)> = edges
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    let result = xtask::invariants::check(&root, &classes, &edges);
    fs::remove_dir_all(&root).ok();
    result.expect("invariants run")
}

const FIXTURE_CLASSES: &[&str] = &["Outer.inner", "Leaf.state", "Retired.slots"];

#[test]
fn lock_class_table_must_match_the_analyzer_both_ways() {
    let all = invariants_with_fixture_design(FIXTURE_CLASSES, FIXTURE_EDGES);
    assert!(all.is_empty(), "{all:?}");
    // A listed class the analyzer no longer finds is stale.
    let stale = invariants_with_fixture_design(&["Outer.inner", "Leaf.state"], FIXTURE_EDGES);
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert!(stale[0].contains("`Retired.slots`"), "{stale:?}");
    // A discovered class the table does not list is undocumented.
    let missing = invariants_with_fixture_design(
        &["Outer.inner", "Leaf.state", "Retired.slots", "New.lock"],
        FIXTURE_EDGES,
    );
    assert_eq!(missing.len(), 1, "{missing:?}");
    assert!(missing[0].contains("`New.lock`"), "{missing:?}");
}

#[test]
fn lock_edges_in_the_table_must_match_the_analyzer_both_ways() {
    // A listed edge the analyzer no longer finds is stale.
    let stale = invariants_with_fixture_design(FIXTURE_CLASSES, &[]);
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert!(
        stale[0].contains("`Outer.inner` → `Leaf.state`"),
        "{stale:?}"
    );
    // A discovered edge the table does not list is undocumented.
    let missing = invariants_with_fixture_design(
        FIXTURE_CLASSES,
        &[
            ("Outer.inner", "Leaf.state"),
            ("Leaf.state", "Retired.slots"),
        ],
    );
    assert_eq!(missing.len(), 1, "{missing:?}");
    assert!(
        missing[0].contains("`Leaf.state` → `Retired.slots`"),
        "{missing:?}"
    );
}

#[test]
fn real_workspace_lint_is_clean() {
    let root = xtask::workspace_root();
    let errors = xtask::run_lint(&root).expect("lint runs");
    assert!(
        errors.is_empty(),
        "workspace lint must pass:\n{}",
        errors.join("\n")
    );
}
