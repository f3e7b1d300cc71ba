//! `tacc-benchmark` — one command for the whole system benchmark.
//!
//! ```text
//! tacc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run in this process; the last line of stdout is the result
//! tacc-benchmark [--seed <n>] [--workload <name>] [--repeats <n>]
//!                [--seconds <s>] [--quick]
//!     the suite: every (workload, repeat) in a fresh child process,
//!     untraced for the end-to-end metrics, once more traced for the
//!     stage table and the per-layer metrics
//! ```

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;
use tacc_benchmark::common::Outcome;
use tacc_benchmark::fleet::{Fleet, FleetParams};
use tacc_benchmark::live::{Live, LiveParams};
use tacc_benchmark::portal::{Portal, PortalParams};
use tacc_benchmark::report::{MetricDef, RunResult, END_TO_END, PER_LAYER};
use tacc_benchmark::{stats, trace};

#[global_allocator]
static GLOBAL: tacc_benchmark::alloc::Counting = tacc_benchmark::alloc::Counting;

/// Workload names, in suite order.
const WORKLOADS: [&str; 4] = ["fleet_clean", "fleet_hostile", "portal_read", "system_live"];
/// The seed the suite uses unless told otherwise. (2015 is the held-out
/// seed: `system_live`'s counts are committed for both, and nothing was
/// tuned on it.)
const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;
/// Window of the `--quick` preset.
const QUICK_SECONDS: u64 = 1;
/// Fixtures built per run; `setup_s` is the median of their build times.
const SETUP_REPEATS: usize = 5;

const USAGE: &str = "\
tacc-benchmark — system benchmark for the TACC Stats reproduction

  tacc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run; the last line of stdout is the JSON result
  tacc-benchmark [--seed <n>] [--workload <name>] [--repeats <n>] [--seconds <s>] [--quick]
      every workload (or one), each repeat in a fresh child process,
      then one traced run per workload

  workloads: fleet_clean fleet_hostile portal_read system_live
  --quick    windows of about a second, one repeat, all checks on
  --out-dir  where traced runs write <workload>.trace.jsonl (benchmark/out)
";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<bool>,
    repeats: Option<usize>,
    quick: bool,
    out_dir: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        repeats: None,
        quick: false,
        out_dir: "benchmark/out".to_string(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let number = |s: String| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag}: {s} is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w} (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = number(value("a number")?)?,
            "--seconds" => a.seconds = Some(number(value("a number")?)?.clamp(1, 60)),
            "--repeats" => a.repeats = Some(number(value("a number")?)?.max(1) as usize),
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out-dir" => a.out_dir = value("a directory")?,
            "--quick" => a.quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A built workload, ready to run.
enum Fixture {
    Fleet(Box<Fleet>),
    Portal(Box<Portal>),
    Live(Box<Live>),
}

impl Fixture {
    fn build(name: &str, seed: u64, seconds: u64, traced: bool) -> Fixture {
        match name {
            "fleet_clean" => Fixture::Fleet(Box::new(Fleet::setup(&FleetParams {
                traced,
                ..FleetParams::clean(seed, seconds)
            }))),
            "fleet_hostile" => Fixture::Fleet(Box::new(Fleet::setup(&FleetParams {
                traced,
                ..FleetParams::hostile(seed, seconds)
            }))),
            "portal_read" => Fixture::Portal(Box::new(Portal::setup(&PortalParams {
                traced,
                ..PortalParams::sized(seed, seconds)
            }))),
            _ => Fixture::Live(Box::new(Live::setup(&LiveParams {
                traced,
                ..LiveParams::sized(seed, seconds)
            }))),
        }
    }

    fn run(self) -> Outcome {
        match self {
            Fixture::Fleet(f) => f.run(),
            Fixture::Portal(p) => p.run(),
            Fixture::Live(l) => l.run(),
        }
    }
}

/// Build the workload's fixture `repeats` times (dropping all but the
/// last), then run it. Returns the set-up times and the outcome.
fn run_workload(
    name: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    repeats: usize,
) -> (Vec<f64>, Outcome) {
    let mut times = Vec::with_capacity(repeats);
    let mut fixture = None;
    for _ in 0..repeats.max(1) {
        // Drop the previous fixture first, so the peak is one fixture.
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(Fixture::build(name, seed, seconds, traced));
        times.push(t.elapsed().as_secs_f64());
    }
    let outcome = fixture.expect("built at least once").run();
    (times, outcome)
}

/// A tail percentile, or — only under `--quick`, whose windows are too
/// short to support one — the largest value seen.
fn tail(
    value: Result<f64, stats::TooFew>,
    what: &str,
    largest: f64,
    quick: bool,
    out: &mut Outcome,
) -> f64 {
    match value {
        Ok(v) => v,
        Err(_) if quick => largest,
        Err(e) => {
            out.violation(format!("{what}: {e}"));
            largest
        }
    }
}

fn end_to_end(setup: &[f64], out: &Outcome) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", stats::median(setup)),
        ("samples_per_s", out.ticks.samples_per_s(out.tick_chunk)),
        ("tick_ms_p50", out.ticks.p50_ms(out.tick_chunk)),
        ("queries_per_s", out.queries.per_s()),
        ("query_us_p50", out.queries.p50_us()),
        ("peak_rss_mib", peak_rss_mib()),
        (
            "delivered_share",
            out.queryable as f64 / out.collected.max(1) as f64,
        ),
    ])
}

/// The two tails (reported with the per-layer metrics; see
/// `report::PER_LAYER`).
fn tails(out: &mut Outcome, quick: bool) -> [(&'static str, f64); 2] {
    let (p95, slowest_tick) = (out.ticks.p95_ms(out.tick_chunk), out.ticks.max_ms());
    let p95 = tail(p95, "tail.tick_ms_p95", slowest_tick, quick, out);
    let slowest_query = out.queries.max_us();
    let p99 = tail(
        out.queries.p99_us(),
        "tail.query_us_p99",
        slowest_query,
        quick,
        out,
    );
    [("tail.tick_ms_p95", p95), ("tail.query_us_p99", p99)]
}

/// One run in this process (the benchmark contract's invocation).
fn single_run(a: &Args, traced: bool) -> ExitCode {
    let Some(name) = a.workload.as_deref() else {
        eprintln!("--trace runs one workload: give --workload <name>\n\n{USAGE}");
        return ExitCode::from(2);
    };
    let seconds = a.seconds.unwrap_or(if a.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let quick = a.quick || seconds < DEFAULT_SECONDS / 2;
    let pinned = tacc_benchmark::pin::pin_to_one_cpu();
    let repeats = if a.quick { 1 } else { SETUP_REPEATS };
    let (setup, mut out) = run_workload(name, a.seed, seconds, traced, repeats);
    let e2e = end_to_end(&setup, &out);
    let tails = tails(&mut out, quick);

    println!(
        "{name}: seed {} seconds {seconds} trace {}{}",
        a.seed,
        u8::from(traced),
        if quick {
            " (quick: too short to compare)"
        } else {
            ""
        }
    );
    match pinned {
        Some(cpu) => println!(
            "pinned to cpu {cpu}: {} core(s) visible to the system under test",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
        None => {
            println!("not pinned: sched_setaffinity unavailable, timings include thread fan-out")
        }
    }
    println!(
        "info window_s {:.6} ticks {} queries {} collected {} queryable {}",
        out.window_ns as f64 / 1e9,
        out.ticks.wall_ns.len(),
        out.queries.ns.len(),
        out.collected,
        out.queryable
    );
    println!(
        "mean tick (ms) per {}-tick chunk: {}",
        out.tick_chunk,
        out.ticks
            .wall_ns
            .chunks(out.tick_chunk.max(1))
            .map(|c| format!("{:.2}", c.iter().sum::<u64>() as f64 / 1e6 / c.len() as f64))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "set-up times (s): {}",
        setup
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for d in END_TO_END {
        println!("  {:<18} {:>16.4} {}", d.name, e2e[d.name], d.unit);
    }
    for (name, value) in tails {
        println!("  {name:<18} {value:>16.4} (not bounded)");
    }

    let mut values = e2e;
    let defs: &[MetricDef] = if traced {
        let rows = trace::summarize(&out.spans);
        let wall = trace::top_level_ns(&out.spans);
        println!("\n{}", trace::render_table(&rows, wall));
        let unattributed = trace::unattributed_share(&rows);
        out.layer.insert("trace.unattributed_share", unattributed);
        out.layer.extend(tails);
        // Outside a suite there is no untraced twin of this run to
        // subtract, so the overhead is what the run spent in probe spans
        // plus the tracer's own per-span cost, as a share of the rest.
        let probe_ns: u64 = rows
            .iter()
            .filter(|r| r.stage.name().starts_with("probe."))
            .map(|r| r.self_ns)
            .sum();
        let span_cost = span_cost_ns() * out.spans.len() as f64;
        let overhead = probe_ns as f64 + span_cost;
        out.layer.insert(
            "trace.overhead_share",
            overhead / (wall as f64 - overhead).max(1.0),
        );
        let path = std::path::Path::new(&a.out_dir).join(format!("{name}.trace.jsonl"));
        match trace::write_jsonl(&path, &out.spans) {
            Ok(()) => println!("{} spans written to {}", out.spans.len(), path.display()),
            Err(e) => out.violation(format!("writing {}: {e}", path.display())),
        }
        values = std::mem::take(&mut out.layer);
        for d in PER_LAYER {
            println!(
                "  {:<46} {:>16.4} {}",
                d.name,
                values.get(d.name).copied().unwrap_or(0.0),
                d.unit
            );
        }
        let unknown: Vec<&str> = values
            .keys()
            .filter(|k| !PER_LAYER.iter().any(|d| d.name == **k))
            .copied()
            .collect();
        if !unknown.is_empty() {
            out.violation(format!(
                "per-layer values outside the registry: {unknown:?}"
            ));
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    for v in &out.violations {
        println!("FAILED CHECK: {v}");
    }
    let result = RunResult::new(&out, defs, &values);
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Cost of one empty span on this host, measured on a scratch tracer.
fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    trace::install(N);
    let t = Instant::now();
    for _ in 0..N {
        let _span = trace::span(trace::Stage::HarnessCheck);
    }
    let ns = t.elapsed().as_nanos() as f64 / N as f64;
    trace::take();
    ns
}

struct Child {
    result: RunResult,
    window_s: f64,
    stdout: String,
}

fn spawn_run(a: &Args, workload: &str, seconds: u64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--out-dir", &a.out_dir])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let result = stdout
        .lines()
        .last()
        .and_then(RunResult::parse)
        .ok_or_else(|| {
            format!(
                "the {workload} run printed no result ({}):\n{stdout}{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            )
        })?;
    let window_s = stdout
        .lines()
        .find_map(|l| l.strip_prefix("info window_s "))
        .and_then(|l| l.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0);
    if !result.correct || !output.status.success() {
        return Err(format!("the {workload} run failed its checks:\n{stdout}"));
    }
    Ok(Child {
        result,
        window_s,
        stdout,
    })
}

/// The suite: fresh child processes, workload order rotated per repeat,
/// each repeat's value printed beside the median, the quartile distance
/// and the bound.
fn suite(a: &Args) -> ExitCode {
    let seconds = a.seconds.unwrap_or(if a.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let repeats = a.repeats.unwrap_or(if a.quick { 1 } else { 3 });
    let workloads: Vec<&str> = match a.workload.as_deref() {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    println!(
        "tacc-benchmark suite: seed {} seconds {seconds} repeats {repeats}{} — {} core(s) available; \
         load generator: one thread, closed loop",
        a.seed,
        if a.quick { " (quick)" } else { "" },
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut runs: BTreeMap<&str, Vec<Child>> = BTreeMap::new();
    let mut failed = false;
    for r in 0..repeats {
        let mut order = workloads.clone();
        let shift = r % order.len();
        order.rotate_left(shift);
        for w in order {
            match spawn_run(a, w, seconds, false) {
                Ok(child) => runs.entry(w).or_default().push(child),
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
    }
    for w in &workloads {
        let Some(children) = runs.get(w) else {
            continue;
        };
        println!(
            "\n== {w}: end to end, {} untraced run(s) ==",
            children.len()
        );
        println!(
            "{:<18} {:>8}  {:>14} {:>9} {:>7}   repeats",
            "metric", "unit", "median", "iqr/med", "bound"
        );
        for (i, d) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = children
                .iter()
                .filter_map(|c| c.result.metrics.get(i).map(|m| m.1))
                .collect();
            println!(
                "{:<18} {:>8}  {:>14.4} {:>8.2}% {:>6.0}%   {}",
                d.name,
                d.unit,
                stats::median(&values),
                100.0 * stats::spread(&values),
                100.0 * d.bound,
                values
                    .iter()
                    .map(|v| format!("{v:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
        let attempted: Vec<String> = children
            .iter()
            .map(|c| format!("{}/{}", c.result.failed, c.result.attempted))
            .collect();
        println!("failed/attempted per run: {}", attempted.join(" "));

        match spawn_run(a, w, seconds, true) {
            Ok(traced) => {
                println!("\n== {w}: traced run ==");
                for line in traced.stdout.lines() {
                    let is_table = line.starts_with("Stage ")
                        || line.starts_with("(unattributed)")
                        || trace::Stage::ALL.iter().any(|s| line.starts_with(s.name()));
                    if is_table {
                        println!("{line}");
                    }
                }
                let untraced: Vec<f64> = children.iter().map(|c| c.window_s).collect();
                let base = stats::median(&untraced);
                let measured = (traced.window_s - base) / base.max(1e-9);
                println!();
                for (name, value, unit) in &traced.result.metrics {
                    if name == "trace.overhead_share" {
                        println!(
                            "  {name:<46} {measured:>16.4} {unit}  (traced window {:.3} s vs untraced median {base:.3} s; \
                             the traced run alone estimated {value:.4})",
                            traced.window_s
                        );
                    } else {
                        println!("  {name:<46} {value:>16.4} {unit}");
                    }
                }
            }
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.trace {
        Some(traced) => single_run(&args, traced),
        None => suite(&args),
    }
}
