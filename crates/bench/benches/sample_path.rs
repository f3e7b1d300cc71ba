//! Sample-path bench: what one sample costs on the shipped path — the
//! interned, buffer-reusing byte codec and the `Sym`-keyed accumulator —
//! in wall-clock and in allocations per operation (a counting global
//! allocator wraps the system one — bench binaries are separate crates,
//! so the library's `forbid(unsafe_code)` does not extend here).
//!
//! Only "after" is measured. Every "before" column is a constant frozen
//! from the `BENCH_sample_path.json` committed when the code it timed
//! was still reconstructed in this file (see the `*_BEFORE` constants
//! for the PR each was frozen at): the seed's data path rendered a fresh
//! `String` per message through one heap `String` per number and one
//! `format!` per event, parsed an owned copy of the payload into owned
//! name `String`s, and keyed accumulator state by `(DeviceType, String)`
//! with a cloned instance name per record. "After" is
//! `codec::render_message_into` into a reused buffer, zero-copy
//! `codec::parse_bytes`, and `JobAccum`. Speeds in the fleet are the
//! system benchmark's (`benchmark/REFERENCE.md` stage tables); this file
//! is the hot-loop view of the stages that carry its wall.
//!
//! The `collect` case is the node side of the same path — register
//! reads, pseudo-file render, collector parse — through
//! `Sampler::sample_into`, on the system benchmark's fleet shape: 64
//! Stampede nodes of 16 processes each, every node with its own sampler
//! and `Sample`, visited round-robin so that no node's state stays in
//! cache from one visit to the next. `collect_ps` is its process-table
//! share and `collect_render` the `render_sample_into` that follows it
//! in the daemon. Their "before" columns are frozen history (measured on
//! this fixture at the commit before the text path went byte-level:
//! `fmt`-rendered pseudo-files, `str`-method collector parsers), not a
//! reconstruction. Three hard bars ride along: `sample_into` takes at
//! most 26 µs hot, allocates nothing in steady state, and one
//! `TaccStatsd` collection allocates at most twice (the shared `Bytes`
//! handed to the transport: its buffer and its reference count).
//!
//! The `consume` case is the other end of the wire: what the consumer
//! does with one message between taking it off the queue and appending
//! to the archive. "After" is `codec::decode_into` against a warm
//! schema cache into reused storage, then slicing the sample's wire
//! bytes; its "before" — `parse_bytes` plus `render_sample_into` — is
//! frozen history too. Hard bar: the warm decode allocates nothing.
//! `accumulate_warm` settles what `accumulate`'s 110 allocations are:
//! first-feed slot resolution of a fresh accumulator, not a per-sample
//! cost.
//!
//! Results are printed and written to `BENCH_sample_path.json` at the
//! workspace root so the numbers ride along with the tree.

use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tacc_collect::codec;
use tacc_collect::collectors::{PsCollector, Scratch};
use tacc_collect::daemon::{Publisher, TaccStatsd};
use tacc_collect::discovery::{discover, BuildOptions};
use tacc_collect::engine::Sampler;
use tacc_collect::record::{RawFile, Sample};
use tacc_metrics::accum::JobAccum;
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::workload::{LustreDemand, NodeDemand};
use tacc_simnode::{SimDuration, SimNode, SimTime};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts allocation events (allocs and
/// growing reallocs — the events buffer reuse is meant to eliminate).
struct CountingAlloc;

// SAFETY: delegates every operation unchanged to the system allocator;
// the counter is a relaxed atomic with no effect on allocation results.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// ns/op and allocations/op over `iters` runs of `f`, after warmup.
fn measure<R>(iters: u64, mut f: impl FnMut() -> R) -> (f64, f64) {
    for _ in 0..5 {
        black_box(f());
    }
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let dt = t0.elapsed();
    let da = ALLOCS.load(Ordering::Relaxed) - a0;
    (
        dt.as_nanos() as f64 / iters as f64,
        da as f64 / iters as f64,
    )
}

/// [`measure`] in twenty short batches, keeping the fastest: what the
/// code costs when the host leaves it alone for ten milliseconds, which
/// is what a hard bar on a time can be held to on a shared machine.
/// Allocations are the worst batch's.
fn measure_undisturbed<R>(iters: u64, mut f: impl FnMut() -> R) -> (f64, f64) {
    (0..20)
        .map(|_| measure(iters / 4, &mut f))
        .reduce(|best, batch| (best.0.min(batch.0), best.1.max(batch.1)))
        .expect("twenty batches")
}

/// The fleet fixture at the commit before the node-side text path went
/// byte-level (ISSUE 18's measurements): ns and allocations per
/// `Sampler::sample_into`, per `PsCollector::collect_ps_into` (its
/// share of the former) and per `render_sample_into` of the 5.3 KB the
/// sample renders to.
const COLLECT_BEFORE: (f64, f64) = (38_500.0, 0.0);
const COLLECT_PS_BEFORE: (f64, f64) = (20_300.0, 0.0);
const COLLECT_RENDER_BEFORE: (f64, f64) = (10_200.0, 0.0);
/// Hard bar on `collect.after`, hot.
const COLLECT_BAR_NS: f64 = 26_000.0;
/// What the `collect*` cases run on, written next to them in the JSON.
const COLLECT_NOTE: &str =
    "collect, collect_ps and collect_render run on 64 stampede nodes of 16 processes, one \
     sampler and Sample per node, round-robin (the system benchmark's fleet_clean shape, hot \
     loop, fastest of twenty batches); before is the same fixture at the commit before ISSUE 18, \
     frozen. Bars: \
     collect.after <= 26000 ns and 0 allocs, daemon_collection <= 2 allocs";

/// The consumer's decode-and-re-render of one message at the commit
/// before `codec::decode_into`: `parse_bytes` (24.0 µs, 27 allocations —
/// this file's `parse.after` as committed then) plus
/// `render_sample_into` (5.3 µs, 0 — ISSUE 17's hot-loop measurement).
const CONSUME_BEFORE: (f64, f64) = (29_300.0, 27.0);
/// What the system benchmark's parse probe does and does not show.
const CONSUME_NOTE: &str =
    "consume.before is parse_bytes (parse.after of this file at the parent commit) + \
     render_sample_into (5.3 us hot, ISSUE 17), frozen; consume.after is decode_into with a warm \
     SchemaCache into a reused Decoded plus the span slice. collect.codec_parse.* in the system \
     benchmark probes the stateless parse_bytes wrapper (cache off, fresh storage) and so \
     understates the consumer's gain; collect.consumer_poll.* is the row that shows it";

/// The seed's data path on the one-node fixture, (ns, allocations) per
/// op, frozen from the `BENCH_sample_path.json` committed at PR 18 —
/// the last run that still compiled line-for-line reconstructions of
/// the code PR 3 deleted: render through a `String` per number, parse
/// into owned name `String`s, a `(DeviceType, String)`-keyed
/// accumulator, and the three end to end over four messages.
const RENDER_BEFORE: (f64, f64) = (20_458.0, 561.0);
const PARSE_BEFORE: (f64, f64) = (20_695.0, 152.0);
const ACCUMULATE_BEFORE: (f64, f64) = (26_492.0, 438.0);
const CONSUMER_TO_ACCUM_BEFORE: (f64, f64) = (123_431.0, 1_046.0);

/// What `accumulate`'s allocations are.
const ACCUM_NOTE: &str =
    "accumulate builds a fresh JobAccum per op (4 samples) and so counts first-feed slot \
     resolution: HostAccum::new plus one stored value row per device instance. \
     accumulate_warm feeds one long-lived accumulator one sample per op, which is what \
     metrics.accum_feed.allocs_per_sample measures in-fleet";

/// A realistic node: WRF-like process, full device complement, four
/// samples 600 s apart (so counters have deltas to accumulate). The
/// node and its sampler come back too, for the `collect` case.
fn fixture() -> (SimNode, Sampler, Vec<Sample>) {
    let mut node = SimNode::new("c401-0001", NodeTopology::stampede());
    node.spawn_process("wrf.exe", 5000, 16, u64::MAX);
    let demand = NodeDemand {
        active_cores: 16,
        cpu_user_frac: 0.8,
        flops_per_sec: 1e10,
        mem_bw_bytes_per_sec: 1e9,
        mem_used_bytes: 8 << 30,
        ..NodeDemand::default()
    };
    let fs = NodeFs::new(&node);
    let cfg = discover(&fs, BuildOptions::default()).expect("discovery");
    let mut s = Sampler::new("c401-0001", &cfg);
    let mut samples = Vec::new();
    for k in 1..=4u64 {
        node.advance(SimDuration::from_secs(600), &demand);
        let fs = NodeFs::new(&node);
        samples.push(s.sample(&fs, SimTime::from_secs(600 * k), &["3001".to_string()], &[]));
    }
    (node, s, samples)
}

/// Nodes of the `collect*` cases.
const FLEET_NODES: usize = 64;

/// The system benchmark's `fleet_clean` shape: Stampede nodes running
/// one single-threaded process per core, mid-job (every counter of
/// every device non-zero).
fn fleet_fixture() -> Vec<(SimNode, Sampler, Sample)> {
    let demand = NodeDemand {
        active_cores: 16,
        cpu_user_frac: 0.83,
        cpu_sys_frac: 0.04,
        cpu_iowait_frac: 0.01,
        flops_per_sec: 4.7e10,
        vector_frac: 0.6,
        mem_bw_bytes_per_sec: 2.3e10,
        mem_used_bytes: 9 << 30,
        ib_bytes_per_sec: 1.3e8,
        gige_bytes_per_sec: 2.9e4,
        mic_user_frac: 0.2,
        lustre: vec![
            LustreDemand {
                mdc_reqs_per_sec: 50.0,
                mdc_wait_us: 210.0,
                osc_reqs_per_sec: 20.0,
                osc_wait_us: 1100.0,
                opens_per_sec: 2.0,
                getattr_per_sec: 11.0,
                read_bytes_per_sec: 3.1e6,
                write_bytes_per_sec: 7.3e6,
            };
            2
        ],
        ..NodeDemand::default()
    };
    (0..FLEET_NODES)
        .map(|i| {
            let host = format!("c401-{:04}", i + 1);
            let mut node = SimNode::new(host.as_str(), NodeTopology::stampede());
            for _ in 0..16 {
                node.spawn_process("wrf.exe", 5000 + (i / 8) as u32, 1, u64::MAX);
            }
            node.advance(SimDuration::from_secs(86_400 + 600 * i as u64), &demand);
            let cfg = discover(&NodeFs::new(&node), BuildOptions::default()).expect("discovery");
            let sampler = Sampler::new(&host, &cfg);
            (node, sampler, Sample::default())
        })
        .collect()
}

/// A transport that accepts every message and keeps none.
struct Discard;

impl Publisher for Discard {
    fn publish(&mut self, _queue: &str, _key: &str, _seq: u64, _payload: Bytes) -> bool {
        true
    }
}

struct Case {
    name: &'static str,
    before: (f64, f64),
    after: (f64, f64),
}

fn main() {
    let (node, sampler, samples) = fixture();
    let header = sampler.header().clone();
    let n_devices = samples[0].devices.len();
    let msg = RawFile::render_message(&header, &samples[0]);
    let payloads: Vec<Vec<u8>> = samples
        .iter()
        .map(|s| {
            let mut v = Vec::new();
            codec::render_message_into(&header, s, None, &mut v);
            v
        })
        .collect();
    println!("\n=== sample-path (interned byte codec; before columns frozen) ===");
    println!(
        "  fixture: one stampede-node sample, {} bytes, {} device records",
        msg.len(),
        n_devices
    );

    const ITERS: u64 = 2_000;
    let mut cases = Vec::new();

    // --- collect (the node side: each node's Sampler refilling its
    // Sample, round-robin over the fleet) ---
    let mut fleet = fleet_fixture();
    let jobids = ["3001".to_string()];
    let now = SimTime::from_secs(3000);
    let mut turn = (0..FLEET_NODES).cycle();
    // Every node's first collection sizes its buffers.
    for (node, sampler, sample) in &mut fleet {
        sampler.sample_into(&NodeFs::new(node), now, &jobids, &[], sample);
    }
    let after = measure_undisturbed(ITERS, || {
        let (node, sampler, sample) = &mut fleet[turn.next().expect("cycle")];
        sampler.sample_into(&NodeFs::new(node), now, &jobids, &[], sample);
        sample.devices.len()
    });
    assert_eq!(fleet[0].2.devices.len(), n_devices);
    assert_eq!(fleet[0].2.processes.len(), 16);
    assert_eq!(
        after.1, 0.0,
        "Sampler::sample_into must not allocate in steady state"
    );
    assert!(
        after.0 <= COLLECT_BAR_NS,
        "Sampler::sample_into took {:.0} ns on the fleet fixture, bar {COLLECT_BAR_NS:.0}",
        after.0
    );
    cases.push(Case {
        name: "collect",
        before: COLLECT_BEFORE,
        after,
    });
    let mut scratch = Scratch::default();
    let mut processes = Vec::with_capacity(16);
    let after = measure_undisturbed(ITERS, || {
        let (node, _, _) = &fleet[turn.next().expect("cycle")];
        processes.clear();
        PsCollector.collect_ps_into(&NodeFs::new(node), &mut scratch, &mut processes);
        processes.len()
    });
    cases.push(Case {
        name: "collect_ps",
        before: COLLECT_PS_BEFORE,
        after,
    });
    let mut rendered: Vec<u8> = Vec::new();
    let after = measure_undisturbed(ITERS, || {
        let (_, _, sample) = &fleet[turn.next().expect("cycle")];
        rendered.clear();
        codec::render_sample_into(sample, &mut rendered);
        rendered.len()
    });
    cases.push(Case {
        name: "collect_render",
        before: COLLECT_RENDER_BEFORE,
        after,
    });
    let sample_bytes = rendered.len();
    let fs = NodeFs::new(&node);
    // The whole daemon collection — sample, render, hand over — into
    // a transport that drops the payload, so only the daemon's own
    // allocations are counted.
    let mut daemon = TaccStatsd::new(
        sampler,
        SimDuration::from_mins(10),
        "stats",
        Box::new(Discard),
        now,
    );
    let mut t = now;
    let (daemon_ns, daemon_allocs) = measure(ITERS, || {
        daemon.tick(&fs, t);
        t = t + SimDuration::from_mins(10);
    });
    println!(
        "  TaccStatsd collection (sample + render + hand-over): {daemon_ns:.0} ns, {daemon_allocs:.2} allocs"
    );
    assert!(
        daemon_allocs <= 2.0,
        "a TaccStatsd collection allocates the Bytes it hands over, nothing else: {daemon_allocs}"
    );

    // --- render ---
    let mut buf: Vec<u8> = Vec::new();
    let after = measure(ITERS, || {
        buf.clear();
        codec::render_message_into(&header, &samples[0], None, &mut buf);
        buf.len()
    });
    cases.push(Case {
        name: "render",
        before: RENDER_BEFORE,
        after,
    });

    // --- parse ---
    let payload = payloads[0].clone();
    let after = measure(ITERS, || codec::parse_bytes(&payload).expect("parses"));
    cases.push(Case {
        name: "parse",
        before: PARSE_BEFORE,
        after,
    });

    // --- consume (the consumer's share of one message: decode against
    // a warm cache into reused storage, then the bytes to archive) ---
    let mut cache = codec::SchemaCache::new();
    let mut decoded = codec::Decoded::default();
    let after = measure(ITERS, || {
        let envelope = codec::decode_into(&payload, &mut cache, &mut decoded).expect("parses");
        let span = decoded.spans[0];
        assert!(span.canonical, "daemon output is archived verbatim");
        black_box(&payload[span.start..span.end]);
        envelope.hostname
    });
    assert_eq!(after.1, 0.0, "a warm decode_into must not allocate");
    cases.push(Case {
        name: "consume",
        before: CONSUME_BEFORE,
        after,
    });

    // --- accumulate (fresh accumulator per run: samples must stay in
    // time order, and one accumulator per job is the real usage) ---
    let after = measure(ITERS, || {
        let mut acc = JobAccum::new();
        for s in &samples {
            acc.feed(&header, s);
        }
        acc.n_hosts()
    });
    cases.push(Case {
        name: "accumulate",
        before: ACCUMULATE_BEFORE,
        after,
    });

    // --- accumulate, warm: one long-lived accumulator, one sample per
    // op, times strictly increasing ---
    let stream: Vec<Sample> = (0..ITERS + 6)
        .map(|k| {
            let mut s = samples[(k % 4) as usize].clone();
            s.time = SimTime::from_secs(600 * (k + 1)).into();
            s
        })
        .collect();
    let mut acc = JobAccum::new();
    let mut next = stream.iter();
    let accum_warm = measure(ITERS, || {
        acc.feed(&header, next.next().expect("one sample per op"));
    });

    // --- consumer→accumulator end to end ---
    let after = measure(ITERS, || {
        let mut acc = JobAccum::new();
        for p in &payloads {
            let rf = codec::parse_bytes(p).expect("parses");
            for s in &rf.samples {
                acc.feed(&rf.header, s);
            }
        }
        acc.n_hosts()
    });
    let e2e_n = payloads.len() as f64;
    cases.push(Case {
        name: "consumer_to_accum",
        before: CONSUMER_TO_ACCUM_BEFORE,
        after,
    });

    // --- report + JSON ---
    let mut json = String::from("{\n  \"bench\": \"sample_path\",\n");
    json.push_str(&format!(
        "  \"fixture\": {{\"message_bytes\": {}, \"device_records\": {}, \"iters\": {}}},\n  \"cases\": {{\n",
        msg.len(),
        n_devices,
        ITERS
    ));
    for (i, c) in cases.iter().enumerate() {
        let (bns, ba) = c.before;
        let (ans, aa) = c.after;
        let alloc_ratio = if aa > 0.0 { ba / aa } else { f64::INFINITY };
        let speedup = if ans > 0.0 { bns / ans } else { f64::INFINITY };
        println!(
            "  {:<18} before: {:>9.0} ns/op {:>7.1} allocs/op   after: {:>9.0} ns/op {:>7.1} allocs/op   ({:.1}x fewer allocs, {:.2}x faster)",
            c.name, bns, ba, ans, aa, alloc_ratio, speedup
        );
        let ratio_json = if alloc_ratio.is_finite() {
            format!("{alloc_ratio:.2}")
        } else {
            "null".to_string()
        };
        json.push_str(&format!(
            "    \"{}\": {{\"before\": {{\"ns_per_op\": {:.1}, \"allocs_per_op\": {:.2}}}, \"after\": {{\"ns_per_op\": {:.1}, \"allocs_per_op\": {:.2}}}, \"alloc_ratio\": {}, \"speedup\": {:.2}}}{}\n",
            c.name,
            bns,
            ba,
            ans,
            aa,
            ratio_json,
            speedup,
            if i + 1 == cases.len() { "" } else { "," }
        ));
    }
    println!("  note: {COLLECT_NOTE} (sample renders to {sample_bytes} bytes)");
    println!("  note: {CONSUME_NOTE}");
    println!(
        "  accumulate_warm: {:.0} ns, {:.2} allocs per sample — {ACCUM_NOTE}",
        accum_warm.0, accum_warm.1
    );
    let e2e = cases
        .iter()
        .find(|c| c.name == "consumer_to_accum")
        .expect("case exists");
    let (e2e_before_ns, _) = e2e.before;
    let (e2e_after_ns, _) = e2e.after;
    println!(
        "  consumer→accumulator throughput: {:.0} samples/s before, {:.0} samples/s after",
        e2e_n * 1e9 / e2e_before_ns,
        e2e_n * 1e9 / e2e_after_ns
    );
    json.push_str(&format!(
        "  }},\n  \"collect_note\": \"{COLLECT_NOTE}\",\n  \"collect_sample_bytes\": {sample_bytes},\n  \"consume_note\": \"{CONSUME_NOTE}\",\n  \"accumulate_warm\": {{\"ns_per_op\": {:.1}, \"allocs_per_op\": {:.2}}},\n  \"accumulate_note\": \"{ACCUM_NOTE}\",\n  \"daemon_collection\": {{\"ns_per_op\": {daemon_ns:.1}, \"allocs_per_op\": {daemon_allocs:.2}}},\n  \"consumer_to_accum_samples_per_sec\": {{\"before\": {:.0}, \"after\": {:.0}}}\n}}\n",
        accum_warm.0,
        accum_warm.1,
        e2e_n * 1e9 / e2e_before_ns,
        e2e_n * 1e9 / e2e_after_ns
    ));

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_sample_path.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("  wrote {}", out.display()),
        Err(e) => println!("  could not write {}: {e}", out.display()),
    }
}
