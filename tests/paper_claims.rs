//! The paper's claims, checked: every row of `tacc_stats::claims::CLAIMS`
//! is where its status says (a reproduced value inside its band, a known
//! divergence outside it), every row is printed exactly once, and the
//! committed EXPERIMENTS.md is exactly the table rendered from those
//! values, so a hand edit or a stale record fails here.

use tacc_stats::claims;

#[test]
fn every_claim_is_where_its_status_says() {
    let failures = claims::failures();
    assert!(
        failures.is_empty(),
        "{} claim(s) failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn experiments_md_is_the_rendered_claims_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let committed = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
    let rendered = claims::render_markdown();
    for c in claims::CLAIMS {
        let printed = rendered.matches(&format!("| `{}` |", c.id)).count();
        assert_eq!(printed, 1, "row {} is printed {printed} times", c.id);
    }
    if committed != rendered {
        let line = committed
            .lines()
            .zip(rendered.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| committed.lines().count().min(rendered.lines().count()));
        panic!(
            "EXPERIMENTS.md differs from the claims table from line {}:\n  committed: {:?}\n  rendered:  {:?}\n\
             regenerate it with `cargo run --release --bin tacc-stats-sim -- experiments > EXPERIMENTS.md`",
            line + 1,
            committed.lines().nth(line),
            rendered.lines().nth(line),
        );
    }
}
