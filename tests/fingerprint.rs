//! Seeded fingerprints of whole-system runs: every output a
//! `MonitoringSystem` produces is folded into one FNV-1a 64 digest per
//! component and pinned, so a changed archive byte, tsdb point, job
//! record, alert, delivery count or cadence change fails here and names
//! the component that moved.
//!
//! Three scenes, each at seeds 42 and 2015: cron mode over a day and a
//! half (the archive fills at the staggered 03:00–05:00 sync, then
//! jobs ingest), daemon mode with a tsdb, online detection and
//! adaptive cadence over a few hours, and daemon mode with a durable
//! tsdb on a real directory through a day under the hostile fault
//! plan, pinned on what the reopened store recovers. A further digest
//! pins the §V population runner's rendered job database. A change that
//! is meant to alter behaviour updates the affected constants and says
//! which output moved and why.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tacc_stats::core::config::{Mode, SystemConfig};
use tacc_stats::core::online::{AdaptiveConfig, OnlineConfig};
use tacc_stats::core::population::PopulationRunner;
use tacc_stats::core::MonitoringSystem;
use tacc_stats::scheduler::job::{JobRequest, QueueName};
use tacc_stats::simnode::apps::AppLibrary;
use tacc_stats::simnode::faults::FaultPlan;
use tacc_stats::simnode::topology::NodeTopology;
use tacc_stats::simnode::{SimDuration, SimTime};
use tacc_stats::tsdb::{DurOptions, FsVfs, TagFilter, TsDb, DEFAULT_SHARDS};

/// FNV-1a 64, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }
}

/// One digest per output component of a run.
struct Digests {
    archive: u64,
    tsdb: u64,
    db: u64,
    alerts: u64,
    delivery: u64,
    cadence: u64,
}

/// `daemon` says whether the run has a delivery report (cron mode has
/// no broker to account for).
fn digests(sys: &MonitoringSystem, daemon: bool) -> Digests {
    // Archive: bytes per (host, day), in hostname order (interned ids
    // depend on what else this process interned first).
    let mut keys: Vec<(String, SimTime)> = sys
        .archive()
        .keys()
        .into_iter()
        .map(|(h, d)| (h.as_str().to_string(), d))
        .collect();
    keys.sort();
    let mut archive = Fnv::new();
    for (host, day) in &keys {
        archive.bytes(host.as_bytes()).u64(day.as_secs());
        sys.archive()
            .with_bytes(host, *day, |b| archive.u64(b.len() as u64).bytes(b).0)
            .expect("listed key is stored");
    }

    // Tsdb: every point of every series, series in rendered-key order.
    let tsdb = sys.tsdb().map_or(EMPTY, tsdb_digest);

    let mut alerts = Fnv::new();
    for a in sys.alerts() {
        alerts.bytes(format!("{a:?}").as_bytes());
    }
    let mut cadence = Fnv::new();
    for (t, node, every) in sys.cadence_log() {
        cadence
            .u64(t.as_secs())
            .u64(*node as u64)
            .u64(every.as_secs());
    }
    Digests {
        archive: archive.0,
        tsdb,
        db: Fnv::new().bytes(sys.db().render().as_bytes()).0,
        alerts: alerts.0,
        delivery: if daemon {
            Fnv::new()
                .bytes(format!("{:?}", sys.delivery_report()).as_bytes())
                .0
        } else {
            EMPTY
        },
        cadence: cadence.0,
    }
}

fn t0() -> SimTime {
    SimTime::from_secs(tacc_stats::simnode::clock::Q4_2015_START_SECS)
}

/// A seeded mix of `n_jobs` jobs on up to `nodes` nodes, submitted over
/// the first `hours` hours, with a failing job and an idle-node job.
fn job_mix(seed: u64, nodes: usize, n_jobs: usize, hours: u64) -> Vec<(SimTime, JobRequest)> {
    let lib = AppLibrary::standard();
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = NodeTopology::stampede();
    (0..n_jobs)
        .map(|i| {
            let model = lib.sample(&mut rng).clone();
            let n = (1usize << rng.gen_range(0..3)).min(nodes);
            let app = model.instantiate(&mut rng, n, topo.n_cores(), &topo);
            let request = JobRequest {
                user: format!("user{:04}", rng.gen_range(0..8)),
                uid: 5000 + i as u32,
                account: "TG-FP".to_string(),
                job_name: format!("job{i}"),
                queue: QueueName::Normal,
                n_nodes: n,
                wayness: topo.n_cores(),
                runtime: SimDuration::from_mins(rng.gen_range(20..hours * 40)),
                will_fail: i == 1,
                idle_nodes: usize::from(i == 2 && n > 1),
                app,
            };
            let submit = t0() + SimDuration::from_mins(rng.gen_range(0..hours * 30));
            (submit, request)
        })
        .collect()
}

fn cron_scene(seed: u64) -> Digests {
    let mut cfg = SystemConfig::small(6, Mode::cron());
    cfg.seed = seed;
    let mut sys = MonitoringSystem::new(cfg);
    sys.enqueue_jobs(job_mix(seed, 6, 12, 6));
    sys.run_until(t0() + SimDuration::from_hours(30));
    digests(&sys, false)
}

fn daemon_scene(seed: u64) -> Digests {
    let mut cfg = SystemConfig::small(6, Mode::daemon());
    cfg.seed = seed;
    cfg.enable_tsdb = true;
    let mut sys = MonitoringSystem::new(cfg);
    sys.enable_online(OnlineConfig, true);
    sys.enable_adaptive(AdaptiveConfig::default());
    sys.enqueue_jobs(job_mix(seed, 6, 12, 4));
    sys.run_until(t0() + SimDuration::from_hours(8));
    digests(&sys, true)
}

/// FNV-1a of every `(key, t, v bits)` in `db`, series in rendered-key
/// order.
fn tsdb_digest(db: &TsDb) -> u64 {
    let mut series: Vec<_> = db
        .keys(&TagFilter::any())
        .into_iter()
        .map(|k| (k.to_string(), k))
        .collect();
    series.sort_by(|a, b| a.0.cmp(&b.0));
    let mut h = Fnv::new();
    for (name, key) in &series {
        h.bytes(name.as_bytes());
        db.range_for_each(key, 0, u64::MAX, |t, v| {
            h.u64(t).u64(v.to_bits());
        });
    }
    h.0
}

/// What a durable store recovers after a run: its points and the
/// recovery report of the reopen.
#[derive(Debug, PartialEq, Eq)]
struct Recovered {
    tsdb: u64,
    report: u64,
}

/// Daemon mode mirroring into a durable tsdb on a real directory for a
/// day under the hostile fault plan (broker outages, a node crash,
/// message drops, degraded devices). The system is dropped without a
/// flush, and the store is reopened from its files.
fn durable_daemon_scene(seed: u64) -> Recovered {
    const NODES: usize = 4;
    let dir = std::env::temp_dir().join(format!(
        "tacc-fingerprint-durable-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = SystemConfig::small(NODES, Mode::daemon());
    cfg.seed = seed;
    cfg.enable_tsdb = true;
    cfg.tsdb_dir = Some(dir.clone());
    // A sample a minute, so every series seals blocks within the day.
    cfg.interval = SimDuration::from_secs(60);
    let hosts: Vec<String> = (0..NODES).map(|i| format!("c401-{i:04}")).collect();
    let day = SimDuration::from_hours(24);
    let mut sys = MonitoringSystem::new(cfg);
    assert!(
        sys.tsdb_open_error().is_none(),
        "{:?}",
        sys.tsdb_open_error()
    );
    sys.set_fault_plan(FaultPlan::hostile(seed, &hosts, t0(), day));
    sys.enqueue_jobs(job_mix(seed, NODES, 12, 24));
    sys.run_until(t0() + day);
    let live = sys.tsdb().expect("tsdb enabled").n_points();
    drop(sys);

    let vfs = FsVfs::open(dir.clone()).expect("store directory");
    let (db, report) =
        TsDb::recover(Arc::new(vfs), DEFAULT_SHARDS, DurOptions::default()).expect("reopen");
    assert!(report.balances(), "{report:?}");
    assert_eq!(
        db.n_points(),
        live,
        "a drop is no power loss: every write reached its file"
    );
    let out = Recovered {
        tsdb: tsdb_digest(&db),
        report: Fnv::new().bytes(format!("{report:?}").as_bytes()).0,
    };
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Compare component by component, so a failure names what moved.
fn assert_pinned(scene: &str, got: &Digests, want: &Digests) {
    let fields = [
        ("archive", got.archive, want.archive),
        ("tsdb", got.tsdb, want.tsdb),
        ("db", got.db, want.db),
        ("alerts", got.alerts, want.alerts),
        ("delivery", got.delivery, want.delivery),
        ("cadence", got.cadence, want.cadence),
    ];
    let moved: Vec<String> = fields
        .iter()
        .filter(|(_, g, w)| g != w)
        .map(|(name, g, w)| format!("{name}: {g:#018x}, pinned {w:#018x}"))
        .collect();
    assert!(moved.is_empty(), "{scene}: {}", moved.join("; "));
}

/// FNV-1a 64 of nothing: the component is empty in this scene.
const EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

const CRON_42: Digests = Digests {
    archive: 0xf653_4c61_a382_bf56,
    tsdb: EMPTY,
    db: 0x4532_99f9_a12c_ede9,
    alerts: EMPTY,
    delivery: EMPTY,
    cadence: EMPTY,
};

const CRON_2015: Digests = Digests {
    archive: 0x1537_7315_e734_000b,
    tsdb: EMPTY,
    db: 0x5957_3517_5e2e_0de9,
    alerts: EMPTY,
    delivery: EMPTY,
    cadence: EMPTY,
};

const DAEMON_42: Digests = Digests {
    archive: 0x7a88_9a53_3300_3c3f,
    tsdb: 0x8dd5_f2ae_4254_95d8,
    db: 0xb1db_6a94_86d5_34ff,
    alerts: 0x8019_1370_2145_1971,
    delivery: 0x473b_56e1_93ff_1d24,
    cadence: 0x929f_52bd_e880_726e,
};

const DAEMON_2015: Digests = Digests {
    archive: 0x1053_2fe1_1049_9b3a,
    tsdb: 0xa635_13ec_3fbb_a0e0,
    db: 0xf0f9_c095_49d7_795f,
    alerts: 0x96ea_296b_c503_aa8e,
    delivery: 0x51d7_73f6_abe5_d6ce,
    cadence: 0x0281_d535_8e8d_31c9,
};

#[test]
fn cron_scene_is_pinned() {
    assert_pinned("cron, seed 42", &cron_scene(42), &CRON_42);
    assert_pinned("cron, seed 2015", &cron_scene(2015), &CRON_2015);
}

#[test]
fn daemon_scene_is_pinned() {
    assert_pinned("daemon, seed 42", &daemon_scene(42), &DAEMON_42);
    assert_pinned("daemon, seed 2015", &daemon_scene(2015), &DAEMON_2015);
}

const DURABLE_42: Recovered = Recovered {
    tsdb: 0x0f0e_a70d_5bb4_fd02,
    report: 0x1b4a_acf9_ffb2_6682,
};

const DURABLE_2015: Recovered = Recovered {
    tsdb: 0x0ecd_d3c6_d518_e493,
    report: 0x1501_5acf_6b38_3a6f,
};

#[test]
fn durable_daemon_scene_is_pinned() {
    for (seed, want) in [(42, DURABLE_42), (2015, DURABLE_2015)] {
        let got = durable_daemon_scene(seed);
        assert_eq!(
            got, want,
            "durable daemon, seed {seed}: {:#018x} / {:#018x}",
            got.tsdb, got.report
        );
    }
}

/// `PopulationRunner::q4_2015(5, 120).run().db.render()`.
const POPULATION_5_120: u64 = 0xd8ef_8a41_2b6a_7977;

#[test]
fn population_db_is_pinned() {
    let db = PopulationRunner::q4_2015(5, 120).run().db.render();
    let got = Fnv::new().bytes(db.as_bytes()).0;
    assert_eq!(got, POPULATION_5_120, "population db: {got:#018x}");
}
