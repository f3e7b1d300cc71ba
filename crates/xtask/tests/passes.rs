//! Negative and property tests for the lint passes: lock-order,
//! alloc-lint and crash-order through their in-memory `*_sources` entry
//! points, dead-surface through fixture mini-workspaces on disk (its
//! reference scope is part of what it checks).
//!
//! Each negative test plants exactly the bug class the pass exists to
//! catch — an inverted lock pair, a `format!` on the codec hot path,
//! an `append_block` ahead of its WAL sync — and asserts the pass
//! fails; a sibling test shows the compliant (or annotated) form is
//! clean. The property tests feed token soup and arbitrary text to
//! every source-level scanner and assert none of them panic.

use proptest::prelude::*;
use std::fs;
use xtask::lexer::{excluded_spans, item_fns, mask, method_call_sites, scan};
use xtask::{alloc_lint, crash_order, dead_surface, lock_order};

fn src(path: &str, text: &str) -> Vec<(String, String)> {
    vec![(path.to_string(), text.to_string())]
}

// ---------------------------------------------------------------
// Pass 1: lock-order
// ---------------------------------------------------------------

const STRUCT_AB: &str = "pub struct A {\n    m1: Mutex<u32>,\n    m2: Mutex<u32>,\n}\n";

#[test]
fn inverted_lock_pair_is_a_cycle() {
    let files = src(
        "crates/broker/src/mini.rs",
        &format!(
            "{STRUCT_AB}impl A {{\n    fn f(&self) {{\n        let g = self.m1.lock();\n        let h = self.m2.lock();\n        drop(h);\n        drop(g);\n    }}\n    fn g(&self) {{\n        let g = self.m2.lock();\n        let h = self.m1.lock();\n        drop(h);\n        drop(g);\n    }}\n}}\n"
        ),
    );
    let a = lock_order::analyze_sources(&files);
    assert!(a.errors.is_empty(), "{:?}", a.errors);
    assert!(a.unclassified.is_empty(), "{:?}", a.unclassified);
    assert_eq!(a.classes, ["A.m1", "A.m2"]);
    assert!(a.edges.contains(&("A.m1".into(), "A.m2".into())));
    assert!(a.edges.contains(&("A.m2".into(), "A.m1".into())));
    let cycle = a.cycle().expect("inverted pair must cycle");
    assert!(cycle.len() >= 3, "{cycle:?}");
}

#[test]
fn consistent_lock_order_is_acyclic() {
    let files = src(
        "crates/broker/src/mini.rs",
        &format!(
            "{STRUCT_AB}impl A {{\n    fn f(&self) {{\n        let g = self.m1.lock();\n        let h = self.m2.lock();\n        drop(h);\n        drop(g);\n    }}\n    fn g(&self) {{\n        let g = self.m1.lock();\n        let h = self.m2.lock();\n        drop(h);\n        drop(g);\n    }}\n}}\n"
        ),
    );
    let a = lock_order::analyze_sources(&files);
    assert_eq!(a.edges, [("A.m1".to_string(), "A.m2".to_string())]);
    assert!(a.cycle().is_none(), "{:?}", a.cycle());
}

#[test]
fn double_acquisition_is_a_self_cycle() {
    let files = src(
        "crates/broker/src/mini.rs",
        &format!(
            "{STRUCT_AB}impl A {{\n    fn f(&self) {{\n        let g = self.m1.lock();\n        let h = self.m1.lock();\n        drop(h);\n        drop(g);\n    }}\n}}\n"
        ),
    );
    let a = lock_order::analyze_sources(&files);
    assert!(a.edges.contains(&("A.m1".into(), "A.m1".into())));
    assert!(a.cycle().is_some(), "self-edge is a deadlock");
}

#[test]
fn chained_guard_is_a_temporary_not_a_held_lock() {
    // `self.m1.lock().clone()` binds the *projection*, not the guard:
    // the guard dies at the `;`, so no edge to m2.
    let files = src(
        "crates/broker/src/mini.rs",
        &format!(
            "{STRUCT_AB}impl A {{\n    fn f(&self) -> u32 {{\n        let v = self.m1.lock().clone();\n        let g = self.m2.lock();\n        drop(g);\n        v\n    }}\n}}\n"
        ),
    );
    let a = lock_order::analyze_sources(&files);
    assert!(a.edges.is_empty(), "{:?}", a.edges);
}

#[test]
fn explicit_drop_releases_the_guard() {
    let files = src(
        "crates/broker/src/mini.rs",
        &format!(
            "{STRUCT_AB}impl A {{\n    fn f(&self) {{\n        let g = self.m1.lock();\n        drop(g);\n        let h = self.m2.lock();\n        drop(h);\n    }}\n}}\n"
        ),
    );
    let a = lock_order::analyze_sources(&files);
    assert!(a.edges.is_empty(), "{:?}", a.edges);
}

#[test]
fn shadowed_guard_does_not_leak_the_old_class() {
    // Rebinding `g` drops the m1 guard at end of statement scope in
    // real Rust only at block end — the analyzer keeps both live
    // (over-approximation), so m1→m2 must appear, but never m2→m1.
    let files = src(
        "crates/broker/src/mini.rs",
        &format!(
            "{STRUCT_AB}impl A {{\n    fn f(&self) {{\n        let g = self.m1.lock();\n        let g = self.m2.lock();\n        drop(g);\n    }}\n}}\n"
        ),
    );
    let a = lock_order::analyze_sources(&files);
    assert!(a.edges.contains(&("A.m1".into(), "A.m2".into())));
    assert!(!a.edges.contains(&("A.m2".into(), "A.m1".into())));
}

#[test]
fn match_scrutinee_guard_lives_through_the_arms() {
    // Rust extends match-scrutinee temporaries to the whole match;
    // a lock in an arm is taken while the scrutinee guard is held.
    let files = src(
        "crates/broker/src/mini.rs",
        &format!(
            "{STRUCT_AB}impl A {{\n    fn f(&self) {{\n        match self.m1.lock().checked_add(1) {{\n            Some(_) => {{\n                let g = self.m2.lock();\n                drop(g);\n            }}\n            None => {{}}\n        }}\n    }}\n}}\n"
        ),
    );
    let a = lock_order::analyze_sources(&files);
    assert!(
        a.edges.contains(&("A.m1".into(), "A.m2".into())),
        "{:?}",
        a.edges
    );
}

#[test]
fn transitive_acquisition_through_a_same_impl_callee() {
    // f holds m1 and calls self.helper(), which takes m2: the edge
    // must appear even though f never names m2.
    let files = src(
        "crates/broker/src/mini.rs",
        &format!(
            "{STRUCT_AB}impl A {{\n    fn helper(&self) {{\n        let g = self.m2.lock();\n        drop(g);\n    }}\n    fn f(&self) {{\n        let g = self.m1.lock();\n        self.helper();\n        drop(g);\n    }}\n}}\n"
        ),
    );
    let a = lock_order::analyze_sources(&files);
    assert!(
        a.edges.contains(&("A.m1".into(), "A.m2".into())),
        "{:?}",
        a.edges
    );
}

#[test]
fn annotations_classify_and_suppress() {
    let files = src(
        "crates/broker/src/mini.rs",
        "fn f() {\n    // lock-order: class=Global.bus\n    BUS.lock();\n    // lock-order: not-a-lock\n    file.lock();\n}\n",
    );
    let a = lock_order::analyze_sources(&files);
    assert!(a.errors.is_empty(), "{:?}", a.errors);
    assert!(a.unclassified.is_empty(), "{:?}", a.unclassified);
    assert_eq!(a.classes, ["Global.bus"]);
}

#[test]
fn unattributable_site_is_reported_unclassified() {
    let files = src(
        "crates/broker/src/mini.rs",
        "fn f(q: &Opaque) {\n    q.inner_thing.lock();\n}\n",
    );
    let a = lock_order::analyze_sources(&files);
    assert_eq!(a.unclassified.len(), 1, "{:?}", a.unclassified);
    assert_eq!(a.unclassified[0].1, 2, "line number");
}

#[test]
fn malformed_annotation_is_a_hard_error() {
    let files = src(
        "crates/broker/src/mini.rs",
        "fn f() {\n    // lock-order: classy=Oops\n    BUS.lock();\n}\n",
    );
    let a = lock_order::analyze_sources(&files);
    assert!(!a.errors.is_empty());
}

// ---------------------------------------------------------------
// Pass 2: alloc-lint
// ---------------------------------------------------------------

#[test]
fn format_in_codec_is_a_violation() {
    let files = src(
        "crates/collect/src/codec.rs",
        "fn f(s: &str) -> String {\n    format!(\"x {s}\")\n}\n",
    );
    let r = alloc_lint::scan_sources(&files);
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    let v: Vec<_> = r.violations().collect();
    assert_eq!(v.len(), 1, "{}", v.len());
    assert!(v[0].what.contains("format"), "{}", v[0].what);
    assert_eq!(v[0].line, 2);
}

#[test]
fn cold_annotation_suppresses_but_still_counts() {
    let files = src(
        "crates/collect/src/codec.rs",
        "fn f(s: &str) -> String {\n    // alloc: cold (error path, never on the decode hot loop)\n    format!(\"x {s}\")\n}\n",
    );
    let r = alloc_lint::scan_sources(&files);
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(r.violations().count(), 0);
    assert_eq!(r.findings.len(), 1, "annotated finding still reported");
    assert!(r.findings[0].cold);
}

#[test]
fn cold_annotation_without_a_reason_is_an_error() {
    let files = src(
        "crates/collect/src/codec.rs",
        "fn f(s: &str) -> String {\n    // alloc: cold\n    format!(\"x {s}\")\n}\n",
    );
    let r = alloc_lint::scan_sources(&files);
    assert!(!r.errors.is_empty(), "reason is mandatory");
}

#[test]
fn arc_clone_path_call_is_the_idiomatic_escape() {
    let files = src(
        "crates/tsdb/src/shard.rs",
        "fn f(x: &Arc<u8>) -> Arc<u8> {\n    let a = x.clone();\n    let b = Arc::clone(x);\n    drop(a);\n    b\n}\n",
    );
    let r = alloc_lint::scan_sources(&files);
    let v: Vec<_> = r.violations().collect();
    assert_eq!(v.len(), 1, "only the method-call .clone() flags");
    assert!(v[0].what.contains("clone"));
    assert_eq!(v[0].line, 2);
}

#[test]
fn cold_fn_covers_the_whole_function_body() {
    let files = src(
        "crates/tsdb/src/wal.rs",
        "// alloc: cold-fn (constructor)\nfn open() -> Vec<u8> {\n    let mut v = Vec::new();\n    v.push(0);\n    v\n}\nfn hot() -> Vec<u8> {\n    Vec::new()\n}\n",
    );
    let r = alloc_lint::scan_sources(&files);
    let v: Vec<_> = r.violations().collect();
    assert_eq!(v.len(), 1, "{:?}: only hot()'s Vec::new flags", v.len());
    assert_eq!(v[0].line, 8);
}

// ---------------------------------------------------------------
// Pass 3: crash-order
// ---------------------------------------------------------------

#[test]
fn append_block_without_wal_sync_violates_rule_a() {
    let v = crash_order::scan_sources(&src(
        "crates/tsdb/src/mini.rs",
        "impl W {\n    fn persist(&mut self, b: &B) {\n        self.seg.append_block(b);\n    }\n}\n",
    ));
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].contains("rule A"), "{}", v[0]);
}

#[test]
fn wal_sync_dominating_append_block_is_clean() {
    let v = crash_order::scan_sources(&src(
        "crates/tsdb/src/mini.rs",
        "impl W {\n    fn persist(&mut self, b: &B) {\n        self.wal.sync();\n        self.seg.append_block(b);\n    }\n}\n",
    ));
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn append_seal_needs_a_segment_sync_not_a_wal_sync() {
    let v = crash_order::scan_sources(&src(
        "crates/tsdb/src/mini.rs",
        "impl W {\n    fn seal(&mut self) {\n        self.wal.sync();\n        self.wal.append_seal();\n    }\n}\n",
    ));
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].contains("rule B"), "{}", v[0]);
    let clean = crash_order::scan_sources(&src(
        "crates/tsdb/src/mini.rs",
        "impl W {\n    fn seal(&mut self) {\n        self.seg.sync();\n        self.wal.append_seal();\n    }\n}\n",
    ));
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn new_generation_annotation_exempts_compaction() {
    let v = crash_order::scan_sources(&src(
        "crates/tsdb/src/mini.rs",
        "impl W {\n    // crash-order: new-generation (fresh invisible files; manifest flip is the commit)\n    fn compact(&mut self, b: &B) {\n        self.seg.append_block(b);\n    }\n}\n",
    ));
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn truncate_outside_recovery_violates_rule_c() {
    let v = crash_order::scan_sources(&src(
        "crates/tsdb/src/mini.rs",
        "fn f(file: &mut F) {\n    file.set_len(0);\n}\n",
    ));
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].contains("rule C"), "{}", v[0]);
    // Same construct in the recovery module is fine.
    let ok = crash_order::scan_sources(&src(
        "crates/tsdb/src/recover.rs",
        "fn f(file: &mut F) {\n    file.set_len(0);\n}\n",
    ));
    assert!(ok.is_empty(), "{ok:?}");
    // And a repair-annotated line is fine anywhere.
    let ok = crash_order::scan_sources(&src(
        "crates/tsdb/src/mini.rs",
        "fn f(file: &mut F) {\n    // crash-order: repair (rewind to the last full frame)\n    file.truncate(boundary);\n}\n",
    ));
    assert!(ok.is_empty(), "{ok:?}");
}

#[test]
fn openoptions_truncate_false_is_not_destructive() {
    let v = crash_order::scan_sources(&src(
        "crates/tsdb/src/mini.rs",
        "fn f() {\n    let o = OpenOptions::new().append(true).truncate(false);\n    drop(o);\n}\n",
    ));
    assert!(v.is_empty(), "{v:?}");
}

// ---------------------------------------------------------------
// Pass 6: dead-surface
// ---------------------------------------------------------------

/// Write `files` into a fresh mini-workspace, run the pass over it, and
/// return the violations.
fn dead_surface_on(tag: &str, files: &[(&str, &str)]) -> Vec<String> {
    let root =
        std::env::temp_dir().join(format!("xtask-dead-surface-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for (rel, text) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
        fs::write(&path, text).expect("write fixture");
    }
    let result = dead_surface::check(&root);
    fs::remove_dir_all(&root).ok();
    result.expect("pass runs")
}

const DEF: &str = "crates/tsdb/src/store.rs";
const CALLER: &str = "crates/core/src/system.rs";

#[test]
fn unreferenced_pub_fn_fails() {
    let v = dead_surface_on(
        "fn",
        &[
            (
                DEF,
                "pub fn orphan() -> u32 {\n    1\n}\npub fn used() {}\n",
            ),
            (CALLER, "fn f() {\n    used();\n}\n"),
        ],
    );
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(
        v[0].contains("store.rs:1") && v[0].contains("`pub fn orphan`"),
        "{v:?}"
    );
}

#[test]
fn pub_fn_named_only_in_its_own_test_module_fails() {
    let v = dead_surface_on(
        "own-test",
        &[(
            DEF,
            "pub fn helper() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        super::helper();\n    }\n}\n",
        )],
    );
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].contains("`pub fn helper`"), "{v:?}");
}

#[test]
fn comments_doc_links_and_strings_are_not_references() {
    let v = dead_surface_on(
        "masked",
        &[
            (DEF, "pub fn ghost() {}\n"),
            (
                CALLER,
                "//! See [`ghost`].\n/// Calls ghost() — not really.\nfn f() -> &'static str {\n    /* ghost */ \"ghost\"\n}\n",
            ),
        ],
    );
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].contains("`pub fn ghost`"), "{v:?}");
}

#[test]
fn unreferenced_pub_const_fails() {
    let v = dead_surface_on(
        "const",
        &[(
            DEF,
            "pub const LIMIT: u64 = 4;\npub const fn width() -> u64 {\n    LIMIT\n}\npub static mut COUNT: u64 = 0;\n",
        )],
    );
    assert_eq!(v.len(), 3, "{v:?}");
    assert!(v[0].contains("`pub const LIMIT`"), "{v:?}");
    assert!(v[1].contains("`pub fn width`"), "{v:?}");
    assert!(v[2].contains("`pub static COUNT`"), "{v:?}");
}

#[test]
fn benchmark_xtask_and_crate_tests_are_reference_sites() {
    let v = dead_surface_on(
        "sites",
        &[
            (
                DEF,
                "pub fn frozen() {}\npub fn checked() {}\npub fn tested() {}\npub fn vendored() {}\n",
            ),
            ("benchmark/src/fleet.rs", "fn f() {\n    frozen();\n}\n"),
            ("crates/xtask/src/conformance.rs", "fn f() {\n    checked();\n}\n"),
            ("crates/tsdb/tests/props.rs", "fn f() {\n    tested();\n}\n"),
            // Outside the reference scope: does not keep an item alive.
            ("vendor/loom/src/lib.rs", "fn f() {\n    vendored();\n}\n"),
        ],
    );
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].contains("`pub fn vendored`"), "{v:?}");
}

#[test]
fn restricted_and_test_only_items_are_left_to_rustc() {
    let v = dead_surface_on(
        "ignored",
        &[
            (
                DEF,
                "pub(crate) fn inner() {}\npub(super) const K: u8 = 1;\n\n#[cfg(test)]\npub fn fixture() {}\n\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n",
            ),
            // Neither the lint crate nor the CLI binary defines checked items.
            ("crates/xtask/src/lib.rs", "pub fn tool() {}\n"),
            ("src/bin/cli.rs", "pub fn command() {}\n"),
        ],
    );
    assert!(v.is_empty(), "{v:?}");
}

// Pass 6's `--report`: modules only examples and tests reach.

/// Write `files` into a fresh mini-workspace and return the module
/// report over it.
fn module_report_on(tag: &str, files: &[(&str, &str)]) -> Vec<(String, Vec<String>)> {
    let root =
        std::env::temp_dir().join(format!("xtask-module-report-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    for (rel, text) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
        fs::write(&path, text).expect("write fixture");
    }
    let result = dead_surface::module_report(&root);
    fs::remove_dir_all(&root).ok();
    result.expect("report runs")
}

const BROKER_LIB: &str = "mod queue;\npub mod tcp;\n\npub use queue::{Broker, Consumer};\n";

#[test]
fn a_module_only_an_example_reaches_is_listed() {
    let r = module_report_on(
        "example",
        &[
            ("crates/broker/src/lib.rs", BROKER_LIB),
            (
                "examples/demo.rs",
                "use tacc_stats::broker::tcp::{BrokerClient, BrokerServer};\nuse tacc_stats::broker::Broker;\n",
            ),
            ("tests/net.rs", "fn f() {\n    tacc_broker::tcp::BrokerServer::start();\n}\n"),
            // A root re-export is a use of the module it comes from.
            ("benchmark/src/fleet.rs", "use tacc_broker::{Broker, QueueStats};\n"),
        ],
    );
    assert_eq!(
        r,
        vec![(
            "broker::tcp".to_string(),
            vec!["examples/demo.rs".to_string(), "tests/net.rs".to_string()]
        )]
    );
}

#[test]
fn one_production_user_keeps_a_module_off_the_report() {
    let r = module_report_on(
        "production",
        &[
            (
                "crates/collect/src/lib.rs",
                "pub mod archive;\npub mod codec;\npub mod engine;\n\npub use archive::Archive;\n",
            ),
            // Nested use groups, a re-exported item and a root-crate path.
            (
                "crates/core/src/pipeline.rs",
                "use tacc_collect::{codec::{self, Decoded}, Archive};\n",
            ),
            (
                "src/soak.rs",
                "fn f() {\n    tacc_stats::collect::engine::Sampler::new();\n}\n",
            ),
            (
                "tests/pipeline.rs",
                "use tacc_stats::collect::{archive::Archive, codec};\n",
            ),
        ],
    );
    assert!(r.is_empty(), "{r:?}");
}

#[test]
fn own_crate_users_comments_and_test_modules_do_not_count() {
    let r = module_report_on(
        "ignored",
        &[
            (
                "crates/broker/src/lib.rs",
                "pub mod tcp;\n\n#[cfg(test)]\nmod tests {\n    mod inner {}\n}\n",
            ),
            // Its own crate's tests and a comment name it: not listed.
            ("crates/broker/tests/tcp.rs", "use tacc_broker::tcp::BrokerServer;\n"),
            ("examples/demo.rs", "// tacc_broker::tcp is gone\nfn f() -> &'static str {\n    \"tacc_broker::tcp\"\n}\n"),
            // A test-module `mod` is not a module of the crate.
            ("tests/t.rs", "use tacc_broker::tests;\nuse tacc_broker::inner;\n"),
        ],
    );
    assert!(r.is_empty(), "{r:?}");
}

// ---------------------------------------------------------------
// Byte soup: no pass may panic (or wedge) on arbitrary input.
// ---------------------------------------------------------------

fn all_passes_survive(text: &str) {
    let masked = mask(text);
    let _ = excluded_spans(&masked);
    let _ = scan(text);
    let _ = method_call_sites(&masked, &["lock", "read", "write", "sync"], true);
    let _ = method_call_sites(&masked, &["append_block", "truncate"], false);
    let _ = item_fns(&masked);
    let files = src("crates/broker/src/soup.rs", text);
    let _ = lock_order::analyze_sources(&files);
    let _ = alloc_lint::scan_sources(&files);
    let _ = crash_order::scan_sources(&files);
    let _ = dead_surface::scan_sources(&files);
    let _ = dead_surface::module_report_sources(&files);
    let lib = src("crates/broker/src/lib.rs", text);
    let _ = dead_surface::module_report_sources(&[lib[0].clone(), files[0].clone()]);
}

proptest! {
    #[test]
    fn passes_never_panic_on_arbitrary_text(text in ".{0,400}") {
        all_passes_survive(&text);
    }

    #[test]
    fn passes_never_panic_on_token_soup(
        toks in proptest::collection::vec(
            prop_oneof![
                Just("fn f".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just(";".to_string()),
                Just("let g = ".to_string()),
                Just("self.m1.lock()".to_string()),
                Just(".read()".to_string()),
                Just("// lock-order: class=A.b".to_string()),
                Just("// alloc: cold".to_string()),
                Just("// crash-order: repair (x)".to_string()),
                Just("\"str".to_string()),
                Just("'c'".to_string()),
                Just("/*".to_string()),
                Just("r#\"".to_string()),
                Just("impl T for".to_string()),
                Just("struct S<'a,".to_string()),
                Just("match x".to_string()),
                Just("=> ".to_string()),
                Just("drop(g)".to_string()),
                Just("\n".to_string()),
                Just("#[cfg(test)]".to_string()),
                Just("format!(".to_string()),
                Just("pub const ".to_string()),
                Just("pub fn x".to_string()),
                Just("use tacc_stats::".to_string()),
                Just("tacc_broker::".to_string()),
                Just("pub use ".to_string()),
                Just("mod m".to_string()),
                Just("::".to_string()),
                Just(",".to_string()),
            ],
            0..60,
        ),
    ) {
        let text: String = toks.concat();
        all_passes_survive(&text);
    }
}
