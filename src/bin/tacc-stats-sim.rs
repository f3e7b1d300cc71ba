//! `tacc-stats-sim` — the command-line front end.
//!
//! A real deployment drives tacc_stats from cron/systemd and browses the
//! results through the portal; this binary packages the same flows for
//! the simulated cluster:
//!
//! ```text
//! tacc-stats-sim monitor      --nodes 8 --mode daemon --hours 6
//! tacc-stats-sim characterize --jobs 4000 --seed 2015
//! tacc-stats-sim job-detail   --nodes 4
//! tacc-stats-sim table1
//! tacc-stats-sim search --db jobs.db --field MetaDataRate__gte=10000
//! tacc-stats-sim experiments > EXPERIMENTS.md
//! tacc-stats-sim soak > BENCH_soak.json
//! ```
//!
//! Argument parsing is hand-rolled (no external CLI crates in the
//! offline dependency set).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::process::ExitCode;
use tacc_stats::core::config::{Mode, SystemConfig};
use tacc_stats::core::online::OnlineConfig;
use tacc_stats::core::population::{simulate_job, PopulationRunner};
use tacc_stats::core::MonitoringSystem;
use tacc_stats::jobdb::Database;
use tacc_stats::metrics::ingest::JOBS_TABLE;
use tacc_stats::portal::detail::JobTimeSeries;
use tacc_stats::portal::search::SearchSpec;
use tacc_stats::scheduler::job::{JobRequest, QueueName};
use tacc_stats::simnode::apps::{AppLibrary, AppModel};
use tacc_stats::simnode::topology::NodeTopology;
use tacc_stats::simnode::{SimDuration, SimTime};
use tacc_stats::{claims, soak};

const USAGE: &str = "\
tacc-stats-sim — TACC Stats (IPPS 2016) reproduction driver

USAGE:
    tacc-stats-sim <COMMAND> [OPTIONS]

COMMANDS:
    monitor       run a monitored cluster and print the portal job list
                  --nodes N (4)  --mode cron|daemon (daemon)  --hours H (6)
                  --jobs N (6)   --seed S (42)  [--save FILE]
    characterize  run the §V-A population characterization
                  --jobs N (4000)  --seed S (2015)  [--save FILE]
    job-detail    run the §V-B storm job and print its Fig. 5 detail page
                  --nodes N (4)
    table1        print Table I for a reference WRF job
    search        query a saved job database
                  --db FILE  [--exec NAME] [--user NAME]
                  [--field metric__op=VALUE]... (up to 3)
    experiments   check every paper claim and print EXPERIMENTS.md
    soak          run the 2,048-node soak (a few minutes) and print
                  BENCH_soak.json; exits 1 if a bar fails
    help          print this message
";

type Flags = HashMap<String, Vec<String>>;

fn parse_flags(args: &[String]) -> Result<(Flags, Vec<String>), String> {
    let mut flags: HashMap<String, Vec<String>> = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            let value = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.entry(name.to_string()).or_default().push(value);
            i += 2;
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Ok((flags, positional))
}

fn flag<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name).and_then(|v| v.last()) {
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad value for --{name}: {s}")),
        None => Ok(default),
    }
}

fn t0() -> SimTime {
    SimTime::from_secs(tacc_stats::simnode::clock::Q4_2015_START_SECS)
}

fn cmd_monitor(flags: &Flags) -> Result<(), String> {
    let nodes: usize = flag(flags, "nodes", 4)?;
    let hours: u64 = flag(flags, "hours", 6)?;
    let n_jobs: usize = flag(flags, "jobs", 6)?;
    let seed: u64 = flag(flags, "seed", 42)?;
    let mode = match flag(flags, "mode", "daemon".to_string())?.as_str() {
        "cron" => Mode::cron(),
        "daemon" => Mode::daemon(),
        other => return Err(format!("unknown mode {other} (cron|daemon)")),
    };
    println!("Monitoring {nodes} nodes for {hours} simulated hours ({mode:?})...");
    // Online analysis rides the daemon mode's real-time stream; cron mode
    // has no stream to watch.
    let online = matches!(mode, Mode::Daemon { .. });
    let mut sys = MonitoringSystem::new(SystemConfig::small(nodes, mode));
    if online {
        sys.enable_online(OnlineConfig, false);
    }
    let lib = AppLibrary::standard();
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = NodeTopology::stampede();
    let jobs: Vec<(SimTime, JobRequest)> = (0..n_jobs)
        .map(|i| {
            let model = lib.sample(&mut rng).clone();
            let n = (1usize << rng.gen_range(0..3)).min(nodes);
            let app = model.instantiate(&mut rng, n, topo.n_cores(), &topo);
            (
                t0() + SimDuration::from_mins(rng.gen_range(0..hours * 30)),
                JobRequest {
                    user: format!("user{:04}", rng.gen_range(0..50)),
                    uid: 5000 + i as u32,
                    account: "TG-CLI".to_string(),
                    job_name: format!("job{i}"),
                    queue: QueueName::Normal,
                    n_nodes: n,
                    wayness: topo.n_cores(),
                    runtime: SimDuration::from_mins(rng.gen_range(20..hours * 40)),
                    will_fail: false,
                    idle_nodes: 0,
                    app,
                },
            )
        })
        .collect();
    sys.enqueue_jobs(jobs);
    sys.run_until(t0() + SimDuration::from_hours(hours));
    let lat = sys.archive().latency_stats();
    println!(
        "{} samples archived (latency mean {:.1}s / max {:.1}s); {} jobs ingested; {} alerts\n",
        lat.count,
        lat.mean_secs,
        lat.max_secs,
        sys.ingested,
        sys.alerts().len()
    );
    if let Some(table) = sys.db().table(JOBS_TABLE) {
        let list = SearchSpec::default()
            .run(table)
            .map_err(|e| e.to_string())?;
        println!("{}", list.render(25));
    } else {
        println!("(no jobs finished inside the window)");
    }
    if let Some(path) = flags.get("save").and_then(|v| v.last()) {
        std::fs::write(path, sys.db().render()).map_err(|e| e.to_string())?;
        println!("job database saved to {path}");
    }
    Ok(())
}

fn cmd_characterize(flags: &Flags) -> Result<(), String> {
    let n_jobs: usize = flag(flags, "jobs", 4000)?;
    let seed: u64 = flag(flags, "seed", 2015)?;
    println!("Running a {n_jobs}-job Q4-2015-shaped population (seed {seed})...");
    let runner = PopulationRunner::q4_2015(seed, n_jobs);
    let result = runner.run();
    let t = result.db.table(JOBS_TABLE).ok_or("no jobs table")?;
    println!("\n§V-A characterization ({} jobs):", t.len());
    for (label, paper, keyword, threshold) in claims::CHARACTERIZATION {
        let pct = 100.0 * claims::share(t, keyword, threshold);
        println!("  {label:<38} {pct:5.1} %   (paper {paper})");
    }
    let (n_production, r) = claims::lustre_correlations(t);
    println!("\n§V-B correlations over {n_production} production jobs:");
    for ((metric, paper), r) in claims::CORRELATIONS.iter().zip(r) {
        println!("  corr(CPU_Usage, {metric:<10}) = {r:>6.3}  (paper {paper:>5.2})");
    }
    if let Some(path) = flags.get("save").and_then(|v| v.last()) {
        std::fs::write(path, result.db.render()).map_err(|e| e.to_string())?;
        println!("\njob database saved to {path}");
    }
    Ok(())
}

fn cmd_job_detail(flags: &Flags) -> Result<(), String> {
    let nodes: usize = flag(flags, "nodes", 4)?;
    println!("Running the §V-B metadata-storm job on {nodes} nodes...\n");
    let mut sys = MonitoringSystem::new(SystemConfig::small(nodes, Mode::daemon()));
    let mut rng = StdRng::seed_from_u64(5);
    let topo = NodeTopology::stampede();
    let app = AppModel::wrf_metadata_storm().instantiate(&mut rng, nodes, topo.n_cores(), &topo);
    sys.enqueue_jobs(vec![(
        t0(),
        JobRequest {
            user: "user9999".to_string(),
            uid: 9999,
            account: "TG-CLI".to_string(),
            job_name: "wrf_param_loop".to_string(),
            queue: QueueName::Normal,
            n_nodes: nodes,
            wayness: topo.n_cores(),
            runtime: SimDuration::from_hours(2),
            will_fail: false,
            idle_nodes: 0,
            app,
        },
    )]);
    sys.run_until(t0() + SimDuration::from_hours(3));
    let raw = sys.archive().parse_all().expect("archive parses");
    let ts = JobTimeSeries::extract(&raw, "3000");
    println!("{}", ts.render());
    // Post-hoc recomputation from the archive: metrics + energy.
    let acc = tacc_stats::metrics::accum::JobAccum::from_raw_files(&raw, "3000");
    if let Some(e) = tacc_stats::metrics::energy::energy_report(&acc) {
        println!("{}", e.render());
    }
    println!("{}", sys.xalt().render(3000));
    Ok(())
}

fn cmd_table1() -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(1);
    let topo = NodeTopology::stampede();
    let app = AppModel::wrf().instantiate(&mut rng, 4, topo.n_cores(), &topo);
    let job = tacc_stats::scheduler::job::Job {
        id: 1,
        user: "ref".to_string(),
        uid: 5000,
        account: "TG".to_string(),
        job_name: "ref".to_string(),
        exec: "wrf.exe".to_string(),
        queue: QueueName::Normal,
        n_nodes: 4,
        wayness: topo.n_cores(),
        submit: t0(),
        start: t0(),
        end: t0() + SimDuration::from_hours(2),
        status: tacc_stats::scheduler::job::JobStatus::Completed,
        nodes: vec![0, 1, 2, 3],
        idle_nodes: 0,
        app,
    };
    let m = simulate_job(&job, &topo, 11);
    println!("{}", m.render_table());
    Ok(())
}

fn cmd_search(flags: &Flags) -> Result<(), String> {
    let path = flags
        .get("db")
        .and_then(|v| v.last())
        .ok_or("search requires --db FILE (from monitor/characterize --save)")?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let db = Database::parse(&text).map_err(|e| e.to_string())?;
    let table = db.table(JOBS_TABLE).ok_or("no jobs table in file")?;
    let mut spec = SearchSpec {
        exec: flags.get("exec").and_then(|v| v.last()).cloned(),
        user: flags.get("user").and_then(|v| v.last()).cloned(),
        ..SearchSpec::default()
    };
    for f in flags.get("field").map(Vec::as_slice).unwrap_or(&[]) {
        let (kw, val) = f
            .split_once('=')
            .ok_or_else(|| format!("--field wants metric__op=VALUE, got {f}"))?;
        let v: f64 = val.parse().map_err(|_| format!("bad threshold {val}"))?;
        spec = spec.field(kw, v);
    }
    let list = spec.run(table).map_err(|e| e.to_string())?;
    println!("{}", list.render(50));
    println!("{}", list.fig4().render());
    Ok(())
}

fn cmd_experiments() -> Result<(), String> {
    print!("{}", claims::render_markdown());
    let failures = claims::failures();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "claims not where their status says:\n{}",
            failures.join("\n")
        ))
    }
}

fn cmd_soak() -> Result<(), String> {
    let (json, violations) = soak::full_record();
    print!("{json}");
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("soak bars violated:\n{}", violations.join("\n")))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        print!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let (flags, _) = match parse_flags(&args[1..]) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "monitor" => cmd_monitor(&flags),
        "characterize" => cmd_characterize(&flags),
        "job-detail" => cmd_job_detail(&flags),
        "table1" => cmd_table1(),
        "search" => cmd_search(&flags),
        "experiments" => cmd_experiments(),
        "soak" => cmd_soak(),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
