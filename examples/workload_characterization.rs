//! Workload characterization — the §V-A population searches.
//!
//! Generates a Q4-2015-shaped population (scaled down from the paper's
//! 404,002 jobs), runs it through scheduling and per-job collection, and
//! repeats every §V-A search and the §V-B production-population
//! correlations with the same measures `tacc_stats::claims` checks:
//!
//! * jobs using the Xeon Phi for more than 1% of CPU time (paper: 1.3%),
//! * jobs with >1% / >50% of FP instructions vectorized (paper: 52% / 25%),
//! * jobs using more than 20 GB of the 32 GB nodes (paper: 3%),
//! * jobs with idle reserved nodes (paper: "over 2%"),
//! * r(CPU_Usage, Lustre metric) over production jobs (paper: −0.11,
//!   −0.20, −0.19).
//!
//! Run with: `cargo run --release --example workload_characterization [n_jobs]`

use tacc_stats::claims;
use tacc_stats::core::population::PopulationRunner;
use tacc_stats::metrics::ingest::JOBS_TABLE;

fn main() {
    let n_jobs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4000);
    println!("== §V-A workload characterization ==");
    println!(
        "Population: {n_jobs} jobs (the paper's quarter had 404,002; proportions are preserved)\n"
    );
    let runner = PopulationRunner::q4_2015(2015, n_jobs);
    let result = runner.run();
    println!(
        "Scheduled on {} nodes; {} jobs collected and ingested ({} never started).\n",
        runner.n_nodes, result.n_jobs, result.unstarted
    );
    let t = result.db.table(JOBS_TABLE).expect("jobs table");
    for (label, paper, keyword, threshold) in claims::CHARACTERIZATION {
        let pct = 100.0 * claims::share(t, keyword, threshold);
        println!("{label:<38}: {pct:>6.1} %   (paper: {paper})");
    }

    println!("\n== §V-B production-population correlations ==");
    let (n_production, r) = claims::lustre_correlations(t);
    println!(
        "Production jobs (completed, production queues, > 1 h): {n_production} (paper: 110,438)\n"
    );
    for ((metric, paper), r) in claims::CORRELATIONS.iter().zip(r) {
        println!("corr(CPU_Usage, {metric:<10}) = {r:>6.3}   (paper: {paper:>5.2})");
    }
    println!("\nAll correlations should be negative: I/O-bound jobs spend less time in");
    println!("user space — the paper's principal predictor of poor CPU utilization.");
}
