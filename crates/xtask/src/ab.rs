//! `cargo xtask ab`: is a change beyond noise? A/B pairs of the system
//! benchmark, parent against change.
//!
//! ```text
//! cargo xtask ab --base <rev> [--workload W]… [--seed S]… [--pairs N]
//! ```
//!
//! The base revision is checked out as a git worktree under `target/ab/`
//! and the working tree is the change; each side's `benchmark` is built
//! `--release --offline` into its own target directory. Then, per
//! workload and seed, N pairs are run, alternating which side goes first,
//! each run a fresh child process invoked as `BENCHMARK.json`'s command
//! invokes it (`--workload W --seed S --seconds T --trace 0`, with T its
//! `run_seconds`, the same on both sides), and the last JSON line of its
//! output is read.
//!
//! Per end-to-end metric the report gives both sides' medians and
//! quartiles, the per-pair ratio change / base with its median and
//! quartiles, the pairs the change won, and an exact two-sided sign-test
//! p. A metric **moved** only when p < 0.05 *and* the ratio's quartiles
//! exclude 1. Otherwise it is **within noise**, or **unresolved** when
//! the ratio's quartiles reach past the metric's bound.
//!
//! A claimed gain is judged by a stricter rule than "moved", and each
//! line says whether it holds: the change won at least nine pairs in
//! ten, *and* the medians differ, in the better direction, by more than
//! the base's quartile distance (q3 − q1). Quantities that
//! are functions of the seed — `delivered_share`, `correct`, `failed` —
//! must match exactly: a difference is a **behaviour change**, never
//! noise.
//!
//! After its pairs, `ab` takes the traced rows itself: per workload and
//! seed, one more run per side with `--trace 1`, its spans and output
//! under `target/ab/trace-<rev>-seed<S>/`. Every per-layer metric
//! `BENCHMARK.json` declares is printed as base → head with the ratio
//! head / base — one run a side, so a row explains a verdict, it is not
//! one. The whole comparison, traced rows included, is written to
//! `target/ab/<base>..<head>.json`.

use crate::json::{self, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Sign-test level below which a metric can have moved.
const ALPHA: f64 = 0.05;

/// What `cargo xtask ab` was asked to compare.
#[derive(Clone, Debug)]
pub struct Options {
    /// The base revision.
    pub base: String,
    /// Workloads, in order (default: every workload `BENCHMARK.json`
    /// declares).
    pub workloads: Vec<String>,
    /// Seeds (default: 42).
    pub seeds: Vec<u64>,
    /// Pairs per workload and seed.
    pub pairs: usize,
}

impl Options {
    /// Parse the flags after `ab`.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            base: String::new(),
            workloads: Vec::new(),
            seeds: Vec::new(),
            pairs: 10,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            let number = |s: String| {
                s.parse::<u64>()
                    .map_err(|_| format!("{flag}: {s} is not a number"))
            };
            match flag.as_str() {
                "--base" => opts.base = value()?,
                "--workload" => opts.workloads.push(value()?),
                "--seed" => opts.seeds.push(number(value()?)?),
                "--pairs" => opts.pairs = number(value()?)? as usize,
                other => return Err(format!("unknown ab flag `{other}`")),
            }
        }
        if opts.base.is_empty() {
            return Err("ab needs --base <rev>".into());
        }
        if opts.pairs == 0 {
            return Err("--pairs must be at least 1".into());
        }
        if opts.seeds.is_empty() {
            opts.seeds.push(42);
        }
        Ok(opts)
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct MetricDef {
    /// Name.
    pub name: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the base's median by which the metric may worsen.
    pub bound: f64,
}

/// What the comparison needs from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Workload names.
    pub workloads: Vec<String>,
    /// The end-to-end metrics.
    pub metrics: Vec<MetricDef>,
    /// The per-layer metrics' names, in declaration order.
    pub layers: Vec<String>,
    /// `run_seconds`.
    pub run_seconds: u64,
}

impl Benchmark {
    /// Read the declarations out of `BENCHMARK.json`'s text.
    pub fn parse(text: &str) -> Result<Benchmark, String> {
        let doc = json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("BENCHMARK.json: no workloads")?
            .iter()
            .filter_map(|w| Some(w.get("name")?.as_str()?.to_string()))
            .collect();
        let metrics = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .ok_or("BENCHMARK.json: no end_to_end metrics")?
            .iter()
            .map(|m| {
                Some(MetricDef {
                    name: m.get("name")?.as_str()?.to_string(),
                    higher_is_better: m.get("better")?.as_str()? == "higher",
                    bound: m.get("bound")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: a metric lacks name, better or bound")?;
        let layers = doc
            .get("per_layer")
            .and_then(Value::as_array)
            .ok_or("BENCHMARK.json: no per_layer metrics")?
            .iter()
            .map(|m| Some(m.get("name")?.as_str()?.to_string()))
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: a per-layer metric lacks its name")?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")? as u64;
        Ok(Benchmark {
            workloads,
            metrics,
            layers,
            run_seconds,
        })
    }
}

/// One run's result line: `{correct, attempted, failed, metrics}`.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every answer checked out.
    pub correct: bool,
    /// Operations failed.
    pub failed: f64,
    /// `(name, value)` of every metric reported.
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    /// Parse the last JSON line of a run's output.
    pub fn from_output(stdout: &str) -> Result<RunResult, String> {
        let line = stdout
            .lines()
            .rev()
            .find(|l| l.trim_start().starts_with('{'))
            .ok_or("no JSON line in the run's output")?;
        let doc = json::parse(line)?;
        let correct = doc
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("result without `correct`")?;
        let failed = doc
            .get("failed")
            .and_then(Value::as_f64)
            .ok_or("result without `failed`")?;
        let metrics = match doc.get("metrics") {
            Some(Value::Object(fields)) => fields
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect(),
            _ => return Err("result without `metrics`".into()),
        };
        Ok(RunResult {
            correct,
            failed,
            metrics,
        })
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

/// Median and quartiles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
}

impl Spread {
    /// Quartiles by linear interpolation between order statistics (NaNs
    /// dropped); all NaN for an empty sample.
    pub fn of(values: &[f64]) -> Spread {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
        v.sort_by(f64::total_cmp);
        let q = |p: f64| -> f64 {
            let Some(last) = v.len().checked_sub(1) else {
                return f64::NAN;
            };
            let pos = p * last as f64;
            let lo = pos as usize;
            let hi = (lo + 1).min(last);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Spread {
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
        }
    }
}

/// What the pairs say about one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The sign test rejects and the ratio's quartiles exclude 1.
    Moved {
        /// In the metric's better direction.
        better: bool,
    },
    /// Not moved, and the ratio's quartiles stay inside the bound.
    WithinNoise,
    /// Not moved, but the ratio's quartiles reach past the bound: the
    /// pairs cannot tell.
    Unresolved,
    /// A quantity that is a function of the seed differs.
    BehaviourChange,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Moved { better: true } => "moved, better",
            Verdict::Moved { better: false } => "moved, worse",
            Verdict::WithinNoise => "within noise",
            Verdict::Unresolved => "unresolved",
            Verdict::BehaviourChange => "behaviour change",
        }
    }
}

/// One metric over N pairs.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Base side.
    pub base: Spread,
    /// Change side.
    pub head: Spread,
    /// Per-pair change / base.
    pub ratio: Spread,
    /// Pairs in which the change was strictly better.
    pub wins: usize,
    /// Pairs that were not ties.
    pub decided: usize,
    /// Pairs.
    pub pairs: usize,
    /// Exact two-sided sign-test p over the decided pairs.
    pub p: f64,
    /// The verdict.
    pub verdict: Verdict,
    /// How much better the change's median is than the base's (negative
    /// when worse), in the metric's unit.
    pub gap: f64,
    /// The gain rule holds: at least nine pairs in ten won, and `gap`
    /// exceeds the base's quartile distance.
    pub gain: bool,
}

/// Exact two-sided sign-test p of `k` wins in `n` decided pairs:
/// `P(X <= min(k, n - k)) * 2` for `X ~ Binomial(n, 1/2)`, at most 1.
pub fn sign_test_p(k: usize, n: usize) -> f64 {
    let tail = k.min(n.saturating_sub(k));
    let mut term = 0.5f64.powi(n as i32); // C(n, 0) / 2^n
    let mut sum = 0.0;
    for i in 0..=tail {
        sum += term;
        term *= (n - i) as f64 / (i + 1) as f64;
    }
    (2.0 * sum).min(1.0)
}

/// Compare `head` with `base`, pair by pair (`base[i]` and `head[i]` ran
/// back to back). `exact` marks a quantity that is a function of the seed.
pub fn compare(base: &[f64], head: &[f64], def: &MetricDef, exact: bool) -> Comparison {
    let pairs = base.len().min(head.len());
    let ratios: Vec<f64> = base
        .iter()
        .zip(head)
        .map(|(&b, &h)| if b == h { 1.0 } else { h / b })
        .collect();
    let better = |b: f64, h: f64| {
        if def.higher_is_better {
            h > b
        } else {
            h < b
        }
    };
    let wins = base
        .iter()
        .zip(head)
        .filter(|(&b, &h)| better(b, h))
        .count();
    let decided = base.iter().zip(head).filter(|(b, h)| b != h).count();
    let p = sign_test_p(wins, decided);
    let ratio = Spread::of(&ratios);
    let (base_spread, head_spread) = (Spread::of(base), Spread::of(head));
    let gap = if def.higher_is_better {
        head_spread.median - base_spread.median
    } else {
        base_spread.median - head_spread.median
    };
    let gain = !exact && wins * 10 >= pairs * 9 && gap > base_spread.q3 - base_spread.q1;
    let verdict = if exact {
        let first = base.first().copied();
        if base.iter().chain(head).all(|&v| Some(v) == first) {
            Verdict::WithinNoise
        } else {
            Verdict::BehaviourChange
        }
    } else if p < ALPHA && (ratio.q1 > 1.0 || ratio.q3 < 1.0) {
        Verdict::Moved {
            better: better(1.0, ratio.median),
        }
    } else if ratio.q1 < 1.0 - def.bound || ratio.q3 > 1.0 + def.bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinNoise
    };
    Comparison {
        base: base_spread,
        head: head_spread,
        ratio,
        wins,
        decided,
        pairs,
        p,
        verdict,
        gap,
        gain,
    }
}

/// The end-to-end metrics whose every value is a function of the seed.
const EXACT: [&str; 1] = ["delivered_share"];

/// All pairs of one workload at one seed.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Workload.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Pairs as `(base, head)` results.
    pub runs: Vec<(RunResult, RunResult)>,
}

impl Cell {
    /// Metric `name`'s values in pair order, base side then head side;
    /// `None` unless every run reported it.
    pub fn values(&self, name: &str) -> Option<(Vec<f64>, Vec<f64>)> {
        let base = self
            .runs
            .iter()
            .map(|r| r.0.metric(name))
            .collect::<Option<_>>()?;
        let head = self
            .runs
            .iter()
            .map(|r| r.1.metric(name))
            .collect::<Option<_>>()?;
        Some((base, head))
    }

    /// Per metric the comparison, then a behaviour-change note for each
    /// run that failed its checks.
    pub fn compare(&self, defs: &[MetricDef]) -> (Vec<(String, Comparison)>, Vec<String>) {
        let mut rows = Vec::new();
        for def in defs {
            let Some((base, head)) = self.values(&def.name) else {
                continue;
            };
            let exact = EXACT.contains(&def.name.as_str());
            rows.push((def.name.clone(), compare(&base, &head, def, exact)));
        }
        let mut behaviour = Vec::new();
        for (i, (b, h)) in self.runs.iter().enumerate() {
            for (side, r) in [("base", b), ("head", h)] {
                if !r.correct || r.failed != 0.0 {
                    behaviour.push(format!(
                        "{} seed {} pair {}: {side} run correct = {}, failed = {}",
                        self.workload, self.seed, i, r.correct, r.failed
                    ));
                }
            }
        }
        (rows, behaviour)
    }
}

/// The traced run of each side for one workload and seed.
#[derive(Clone, Debug)]
pub struct Traced {
    /// Workload.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// The base's traced run.
    pub base: RunResult,
    /// The change's traced run.
    pub head: RunResult,
}

/// One per-layer metric of a traced pair: each side's value (NaN if that
/// side did not report it) and head / base (1 when they are equal).
#[derive(Clone, Debug)]
pub struct LayerRow {
    /// The metric.
    pub metric: String,
    /// The base's value.
    pub base: f64,
    /// The change's value.
    pub head: f64,
    /// head / base.
    pub ratio: f64,
}

impl Traced {
    /// A row for each of `layers` that either side reported, in order.
    pub fn rows(&self, layers: &[String]) -> Vec<LayerRow> {
        layers
            .iter()
            .filter_map(|name| {
                let (b, h) = (self.base.metric(name), self.head.metric(name));
                if b.is_none() && h.is_none() {
                    return None;
                }
                let (base, head) = (b.unwrap_or(f64::NAN), h.unwrap_or(f64::NAN));
                Some(LayerRow {
                    metric: name.clone(),
                    base,
                    head,
                    ratio: if base == head { 1.0 } else { head / base },
                })
            })
            .collect()
    }

    /// A summary line per row of `layers`.
    pub fn lines(&self, layers: &[String]) -> Vec<String> {
        self.rows(layers)
            .iter()
            .map(|r| {
                format!(
                    "{} seed {} traced {}: base {} → head {}, ratio {:.3}",
                    self.workload,
                    self.seed,
                    r.metric,
                    num(r.base),
                    num(r.head),
                    r.ratio
                )
            })
            .collect()
    }
}

/// One summary line of a comparison.
fn summary_line(workload: &str, seed: u64, metric: &str, c: &Comparison) -> String {
    format!(
        "{workload} seed {seed} {metric}: base {} ({}–{}) → head {} ({}–{}), ratio {:.3} \
         ({:.3}–{:.3}), wins {}/{}, p {:.4}: {}; median gap {} vs base q3 − q1 {}: gain rule {}",
        num(c.base.median),
        num(c.base.q1),
        num(c.base.q3),
        num(c.head.median),
        num(c.head.q1),
        num(c.head.q3),
        c.ratio.median,
        c.ratio.q1,
        c.ratio.q3,
        c.wins,
        c.pairs,
        c.p,
        c.verdict.label(),
        num(c.gap),
        num(c.base.q3 - c.base.q1),
        if c.gain { "met" } else { "not met" }
    )
}

/// Four significant digits.
fn num(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let digits = (3 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.digits$}")
}

/// The whole comparison as JSON: the pairs' rows under `results`, the
/// traced rows under `traced`.
pub fn report_json(
    base: &str,
    head: &str,
    opts: &Options,
    bench: &Benchmark,
    cells: &[Cell],
    traced: &[Traced],
) -> String {
    let (seconds, defs) = (bench.run_seconds, bench.metrics.as_slice());
    let spread = |s: &Spread| {
        format!(
            "{{\"q1\": {}, \"median\": {}, \"q3\": {}}}",
            json::number(s.q1),
            json::number(s.median),
            json::number(s.q3)
        )
    };
    let mut out = format!(
        "{{\n  \"base\": {},\n  \"head\": {},\n  \"pairs\": {},\n  \"seconds\": {seconds},\n  \
         \"results\": [",
        json::string(base),
        json::string(head),
        opts.pairs
    );
    let mut first = true;
    let mut notes = Vec::new();
    for cell in cells {
        let (rows, behaviour) = cell.compare(defs);
        notes.extend(behaviour);
        for (metric, c) in rows {
            let sep = if first { "" } else { "," };
            first = false;
            let list = |v: Vec<f64>| {
                v.into_iter()
                    .map(json::number)
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let (base_values, head_values) = cell.values(&metric).unwrap_or_default();
            let _ = write!(
                out,
                "{sep}\n    {{\"workload\": {}, \"seed\": {}, \"metric\": {}, \"base\": {}, \
                 \"head\": {}, \"ratio\": {}, \"wins\": {}, \"decided\": {}, \"pairs\": {}, \
                 \"p\": {}, \"verdict\": {}, \"gap\": {}, \"gain_rule\": {}, \"base_values\": \
                 [{}], \"head_values\": [{}]}}",
                json::string(&cell.workload),
                cell.seed,
                json::string(&metric),
                spread(&c.base),
                spread(&c.head),
                spread(&c.ratio),
                c.wins,
                c.decided,
                c.pairs,
                json::number(c.p),
                json::string(c.verdict.label()),
                json::number(c.gap),
                c.gain,
                list(base_values),
                list(head_values)
            );
        }
    }
    out.push_str("\n  ],\n  \"traced\": [");
    let mut first = true;
    for t in traced {
        for r in t.rows(&bench.layers) {
            let sep = if first { "" } else { "," };
            first = false;
            let _ = write!(
                out,
                "{sep}\n    {{\"workload\": {}, \"seed\": {}, \"metric\": {}, \"base\": {}, \
                 \"head\": {}, \"ratio\": {}}}",
                json::string(&t.workload),
                t.seed,
                json::string(&r.metric),
                json::number(r.base),
                json::number(r.head),
                json::number(r.ratio)
            );
        }
    }
    let notes: Vec<String> = notes.iter().map(|n| json::string(n)).collect();
    let _ = write!(
        out,
        "\n  ],\n  \"behaviour_changes\": [{}]\n}}\n",
        notes.join(", ")
    );
    out
}

/// Run a command, returning its stdout; a non-zero exit is an error
/// carrying its stderr.
fn output(cmd: &mut Command) -> Result<String, String> {
    let out = cmd.output().map_err(|e| format!("{cmd:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{cmd:?} exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

fn git(root: &Path, args: &[&str]) -> Result<String, String> {
    Ok(output(Command::new("git").arg("-C").arg(root).args(args))?
        .trim()
        .to_string())
}

/// Build `tree`'s benchmark into `target_dir`; returns the binary.
fn build(tree: &Path, target_dir: &Path) -> Result<PathBuf, String> {
    eprintln!("ab: building {}", tree.display());
    output(
        Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
            ])
            .arg(tree.join("benchmark/Cargo.toml"))
            .arg("--target-dir")
            .arg(target_dir),
    )?;
    Ok(target_dir.join("release/tacc-benchmark"))
}

/// One benchmark run in a fresh child process, from `tree`. A traced run
/// (`trace_dir` given) writes its spans and its output there.
fn run_once(
    bin: &Path,
    tree: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace_dir: Option<&Path>,
) -> Result<RunResult, String> {
    let mut cmd = Command::new(bin);
    cmd.current_dir(tree)
        .args(["--workload", workload, "--seed"])
        .arg(seed.to_string())
        .arg("--seconds")
        .arg(seconds.to_string());
    match trace_dir {
        Some(dir) => cmd.args(["--trace", "1", "--out-dir"]).arg(dir),
        None => cmd.args(["--trace", "0"]),
    };
    let stdout = output(&mut cmd)?;
    if let Some(dir) = trace_dir {
        let path = dir.join(format!("{workload}.txt"));
        std::fs::write(&path, &stdout).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    RunResult::from_output(&stdout).map_err(|e| format!("{workload} seed {seed}: {e}"))
}

/// Run the comparison from the workspace `root`; returns the summary
/// lines and writes the JSON report.
pub fn run(root: &Path, opts: &Options) -> Result<String, String> {
    let declared = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let bench = Benchmark::parse(&declared)?;
    for w in &opts.workloads {
        if !bench.workloads.contains(w) {
            return Err(format!(
                "unknown workload {w} (one of {})",
                bench.workloads.join(", ")
            ));
        }
    }
    let workloads = if opts.workloads.is_empty() {
        bench.workloads.clone()
    } else {
        opts.workloads.clone()
    };
    let seconds = bench.run_seconds;

    let base = git(
        root,
        &[
            "rev-parse",
            "--short=7",
            &format!("{}^{{commit}}", opts.base),
        ],
    )?;
    let dirty = !git(root, &["status", "--porcelain", "--untracked-files=no"])?.is_empty();
    let head = format!(
        "{}{}",
        git(root, &["rev-parse", "--short=7", "HEAD"])?,
        if dirty { "-dirty" } else { "" }
    );
    let ab = root.join("target/ab");
    let base_tree = ab.join(format!("tree-{base}"));
    if !base_tree.join("benchmark/Cargo.toml").is_file() {
        std::fs::create_dir_all(&ab).map_err(|e| format!("mkdir {}: {e}", ab.display()))?;
        // A worktree whose directory went with `target/` is still
        // registered; forget it, or `worktree add` refuses the path.
        git(root, &["worktree", "prune"])?;
        git(
            root,
            &[
                "worktree",
                "add",
                "--detach",
                &base_tree.to_string_lossy(),
                &base,
            ],
        )?;
    }
    let base_bin = build(&base_tree, &ab.join("target-base"))?;
    let head_bin = build(root, &ab.join("target-head"))?;

    let mut cells = Vec::new();
    for workload in &workloads {
        for &seed in &opts.seeds {
            let mut runs = Vec::new();
            for pair in 0..opts.pairs {
                eprintln!(
                    "ab: {workload} seed {seed} pair {}/{}",
                    pair + 1,
                    opts.pairs
                );
                let side =
                    |bin: &Path, tree: &Path| run_once(bin, tree, workload, seed, seconds, None);
                let (b, h) = if pair % 2 == 0 {
                    let b = side(&base_bin, &base_tree)?;
                    (b, side(&head_bin, root)?)
                } else {
                    let h = side(&head_bin, root)?;
                    (side(&base_bin, &base_tree)?, h)
                };
                runs.push((b, h));
            }
            cells.push(Cell {
                workload: workload.clone(),
                seed,
                runs,
            });
        }
    }

    let mut traced = Vec::new();
    for workload in &workloads {
        for &seed in &opts.seeds {
            eprintln!("ab: {workload} seed {seed} traced");
            let side = |bin: &Path, tree: &Path, rev: &str| {
                let dir = ab.join(format!("trace-{rev}-seed{seed}"));
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
                run_once(bin, tree, workload, seed, seconds, Some(&dir))
            };
            traced.push(Traced {
                workload: workload.clone(),
                seed,
                base: side(&base_bin, &base_tree, &base)?,
                head: side(&head_bin, root, &head)?,
            });
        }
    }

    let mut summary = String::new();
    for cell in &cells {
        let (rows, behaviour) = cell.compare(&bench.metrics);
        for (metric, c) in &rows {
            summary.push_str(&summary_line(&cell.workload, cell.seed, metric, c));
            summary.push('\n');
        }
        for note in behaviour {
            let _ = writeln!(summary, "behaviour change: {note}");
        }
    }
    for t in &traced {
        for line in t.lines(&bench.layers) {
            let _ = writeln!(summary, "{line}");
        }
    }
    let out = ab.join(format!("{base}..{head}.json"));
    let json = report_json(&base, &head, opts, &bench, &cells, &traced);
    std::fs::write(&out, json).map_err(|e| format!("write {}: {e}", out.display()))?;
    let _ = writeln!(summary, "ab: wrote {}", out.display());
    Ok(summary)
}
