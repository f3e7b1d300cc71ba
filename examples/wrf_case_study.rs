//! The WRF / Lustre-I/O case study of §V (Figs. 4 and 5).
//!
//! Reproduces, on synthetic data shaped like the paper's:
//!
//! * the portal query "all jobs running wrf.exe over 10 minutes in
//!   runtime" and its automatic four-panel histogram (Fig. 4 — 558 jobs,
//!   with the metadata-request outliers visible in the log-binned
//!   panel),
//! * the detailed per-node six-panel view of one outlier job (Fig. 5 —
//!   low CPU user fraction, Lustre bandwidth confined to one node),
//! * the §V-B ORM aggregation: the pathological user's jobs versus the
//!   WRF population (CPU_Usage, MetaDataRate, LLiteOpenClose).
//!
//! Run with: `cargo run --release --example wrf_case_study`

use rand::rngs::StdRng;
use rand::SeedableRng;
use tacc_stats::claims;
use tacc_stats::core::config::{Mode, SystemConfig};
use tacc_stats::core::MonitoringSystem;
use tacc_stats::jobdb::Query;
use tacc_stats::metrics::flags::Flag;
use tacc_stats::metrics::ingest::JOBS_TABLE;
use tacc_stats::portal::detail::JobTimeSeries;
use tacc_stats::portal::search::SearchSpec;
use tacc_stats::scheduler::job::{JobRequest, QueueName};
use tacc_stats::simnode::apps::AppModel;
use tacc_stats::simnode::topology::NodeTopology;
use tacc_stats::simnode::{SimDuration, SimTime};

fn main() {
    println!("== §V WRF / Lustre I/O case study ==\n");

    // ---- The two-week WRF population of Fig. 4 (the one the claims
    // table checks): 558 jobs, four of them the storm user's. ----
    let table = claims::wrf_population()
        .table(JOBS_TABLE)
        .expect("jobs table");

    // ---- Fig. 4: the automatic histograms of the WRF query. ----
    let wrf = SearchSpec {
        exec: Some("wrf.exe".to_string()),
        min_runtime_secs: Some(600),
        ..SearchSpec::default()
    }
    .run(table)
    .unwrap();
    println!(
        "Portal query: exec = wrf.exe, runtime > 10 min → {} jobs (paper: 558)\n",
        wrf.len()
    );
    println!("{}", wrf.fig4().render());
    println!(
        "Flagged sublist: {} jobs flagged HighMetadataRate\n",
        wrf.flagged_with(Flag::HighMetadataRate).len()
    );

    // ---- §V-B: the ORM aggregation comparing user vs population. ----
    println!("§V-B aggregation (storm user vs the rest of the WRF population):");
    for (column, paper) in [
        ("CPU_Usage", "user 67% / popn 80%"),
        ("MetaDataRate", "user 563,905 / popn 3,870"),
        ("LLiteOpenClose", "user 30,884 / popn 2"),
    ] {
        let (user, popn) = claims::user_vs_population(table, column);
        println!("  {column:<24} {user:>12.2} {popn:>12.2}  (paper: {paper})");
    }

    // ---- Fig. 5: the detailed per-node view of one storm job. ----
    println!("\nRe-running one storm job through the full daemon-mode pipeline");
    println!("to regenerate its Fig. 5 detail page...\n");
    let mut rng = StdRng::seed_from_u64(99);
    let topo = NodeTopology::stampede();
    let t0 = SimTime::from_secs(1_451_606_400);
    let app = AppModel::wrf_metadata_storm().instantiate(&mut rng, 4, topo.n_cores(), &topo);
    let mut sys = MonitoringSystem::new(SystemConfig::small(4, Mode::daemon()));
    sys.enqueue_jobs(vec![(
        t0,
        JobRequest {
            user: "user9999".to_string(),
            uid: 9999,
            account: "TG-WRF".to_string(),
            job_name: "wrf_param_loop".to_string(),
            queue: QueueName::Normal,
            n_nodes: 4,
            wayness: topo.n_cores(),
            runtime: SimDuration::from_hours(2),
            will_fail: false,
            idle_nodes: 0,
            app,
        },
    )]);
    sys.run_until(t0 + SimDuration::from_hours(3));
    let raw = sys.archive().parse_all().expect("archive parses");
    // The single job gets the scheduler's first id.
    let jobid = {
        let t = sys.db().table(JOBS_TABLE).unwrap();
        let rows = Query::new(t).rows().unwrap();
        rows[0]
            .get(t.schema().index_of("jobid").unwrap())
            .to_string()
    };
    let ts = JobTimeSeries::extract(&raw, &jobid);
    println!("{}", ts.render());
    println!("Note the Fig. 5 signatures: CPU user fraction low and uneven across");
    println!("nodes, while Lustre bandwidth stays small — the load is metadata, not data.");
}
