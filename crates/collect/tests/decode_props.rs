//! The consumer side of the sample path decodes every payload with one
//! decoder (`codec::decode_into`) that skips a `!` schema block it has
//! seen before, reads ASCII lines as bytes, refills caller-owned
//! storage, and tells the consumer which samples it may archive as the
//! wire bytes they arrived in. None of that may change a result, so
//! this file holds the oracles the decoder was written against:
//!
//! * [`reference_parse`] is the grammar as it stood before the decoder
//!   — line by line over a `&str`, a fresh value per call. Over daemon
//!   messages put through every deviation from the renderer's output
//!   the format tolerates (and truncation, byte flips, non-ASCII
//!   whitespace, multi-sample bodies, schema blocks that change
//!   mid-stream or differ between hosts by one event), the decoder —
//!   cache warm, storage reused — and the stateless `parse_bytes`
//!   return exactly its `Ok`/`Err` and value.
//! * `render ∘ parse == id` on what daemons render, and a `canonical`
//!   span is byte for byte what rendering its sample produces.
//! * [`RefConsumer`] is the accept path as it stood: parse, dedup by a
//!   set of seen seqs, re-render every sample. Fed the same stream,
//!   `poll_once`, `poll_with` and `drain` end with its archive bytes
//!   and its counters.
//! * A counting allocator holds `poll_with` at 0 allocations per
//!   message in steady state and `poll_once` at no more than 6.
//!
//! The vendored proptest is primitive-only, so a drawn seed is expanded
//! into operations inside the test body.

use bytes::Bytes;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;
use tacc_broker::Broker;
use tacc_collect::codec::{self, Decoded, SchemaCache};
use tacc_collect::consumer::StatsConsumer;
use tacc_collect::daemon::{Publisher, TaccStatsd};
use tacc_collect::discovery::{discover, BuildOptions};
use tacc_collect::engine::Sampler;
use tacc_collect::record::{
    DeviceRecord, HostHeader, ParseError, PsRecord, RawFile, Sample, SimTimeRepr, ValueVec,
    FORMAT_VERSION,
};
use tacc_collect::Archive;
use tacc_simnode::clock::NANOS_PER_SEC;
use tacc_simnode::intern::Sym;
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::schema::{DeviceType, Schema};
use tacc_simnode::topology::{CpuArch, NodeTopology};
use tacc_simnode::workload::NodeDemand;
use tacc_simnode::{SimDuration, SimNode, SimTime};

// ------------------------------------------------------------ allocator

thread_local! {
    /// Allocation events (allocs and reallocs) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread so that tests running in
/// parallel do not see each other's allocations.
struct CountingAlloc;

fn count() {
    // Ignored during thread teardown, when the slot is already gone.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every operation is delegated unchanged to the system
// allocator; the counter is a const-initialised thread-local `Cell`
// that never allocates and has no effect on what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// ------------------------------------------------------------ reference

/// The raw-format grammar as `RawFile::parse` implemented it before the
/// byte decoder replaced it, kept here as the oracle: `str::lines`,
/// `trim_end`, `split_whitespace`, `str::parse`, a fresh `BTreeMap` and
/// fresh `Vec`s per call. (One difference: the timestamp multiplies
/// wrapping, as a release build does, instead of panicking in debug.)
fn reference_parse(text: &str) -> Result<RawFile, ParseError> {
    let err = |line: usize, message: &str| ParseError {
        line,
        message: message.to_string(),
    };
    let mut hostname = None;
    let mut arch = None;
    let mut seq = None;
    let mut schemas: BTreeMap<DeviceType, Schema> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut current: Option<Sample> = None;

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('$') {
            let (key, value) = rest
                .split_once(' ')
                .ok_or_else(|| err(lineno, "malformed $ line"))?;
            match key {
                "tacc_stats" if value != FORMAT_VERSION => {
                    return Err(err(lineno, &format!("unsupported version {value}")));
                }
                "tacc_stats" => {}
                "hostname" => hostname = Some(Sym::new(value)),
                "arch" => {
                    arch = Some(
                        CpuArch::HOST_ARCHS
                            .iter()
                            .copied()
                            .chain([CpuArch::KnightsCorner])
                            .find(|a| a.name() == value)
                            .ok_or_else(|| err(lineno, &format!("unknown arch {value}")))?,
                    )
                }
                "seq" => {
                    seq = Some(
                        value
                            .parse()
                            .map_err(|_| err(lineno, &format!("bad seq {value}")))?,
                    )
                }
                _ => {}
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix('!') {
            let (name, body) = rest
                .split_once(' ')
                .ok_or_else(|| err(lineno, "malformed ! line"))?;
            let dt = DeviceType::parse(name)
                .ok_or_else(|| err(lineno, &format!("unknown device type {name}")))?;
            let schema = Schema::parse(body).ok_or_else(|| err(lineno, "malformed schema"))?;
            schemas.insert(dt, schema);
            continue;
        }
        if let Some(rest) = line.strip_prefix('%') {
            let s = current
                .as_mut()
                .ok_or_else(|| err(lineno, "mark before any timestamp"))?;
            s.marks.push(rest.to_string());
            continue;
        }
        let mut toks = line.split_whitespace();
        let first = toks.next().ok_or_else(|| err(lineno, "empty line"))?;
        if first.chars().all(|c| c.is_ascii_digit()) && DeviceType::parse(first).is_none() {
            if let Some(s) = current.take() {
                samples.push(s);
            }
            let secs: u64 = first.parse().map_err(|_| err(lineno, "bad timestamp"))?;
            let jobids = match toks.next() {
                None | Some("-") => Vec::new(),
                Some(j) => j.split(',').map(|s| s.to_string()).collect(),
            };
            current = Some(Sample {
                time: SimTimeRepr(secs.wrapping_mul(NANOS_PER_SEC)),
                jobids,
                ..Sample::default()
            });
            continue;
        }
        let s = current
            .as_mut()
            .ok_or_else(|| err(lineno, "record before any timestamp"))?;
        let dt = DeviceType::parse(first)
            .ok_or_else(|| err(lineno, &format!("unknown device {first}")))?;
        let collect = |toks: std::str::SplitWhitespace<'_>| -> Result<ValueVec, ()> {
            let mut values = ValueVec::new();
            for t in toks {
                values.push(t.parse().map_err(|_| ())?);
            }
            Ok(values)
        };
        if dt == DeviceType::Ps {
            let pid: u32 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err(lineno, "ps line missing pid"))?;
            let comm = toks
                .next()
                .map(Sym::new)
                .ok_or_else(|| err(lineno, "ps line missing comm"))?;
            let uid: u32 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err(lineno, "ps line missing uid"))?;
            let values = collect(toks).map_err(|()| err(lineno, "bad ps value"))?;
            if let Some(schema) = schemas.get(&DeviceType::Ps) {
                if values.len() != schema.len() {
                    return Err(err(lineno, "ps value count mismatch"));
                }
            }
            s.processes.push(PsRecord {
                pid,
                comm,
                uid,
                values,
            });
        } else {
            let instance = toks
                .next()
                .map(Sym::new)
                .ok_or_else(|| err(lineno, "record missing instance"))?;
            let values = collect(toks).map_err(|()| err(lineno, "bad value"))?;
            if let Some(schema) = schemas.get(&dt) {
                if values.len() != schema.len() {
                    return Err(err(
                        lineno,
                        &format!(
                            "{dt} value count {} != schema {}",
                            values.len(),
                            schema.len()
                        ),
                    ));
                }
            }
            s.devices.push(DeviceRecord {
                dev_type: dt,
                instance,
                values,
            });
        }
    }
    if let Some(s) = current.take() {
        samples.push(s);
    }
    let hostname = hostname.ok_or_else(|| err(0, "missing $hostname"))?;
    let arch = arch.ok_or_else(|| err(0, "missing $arch"))?;
    Ok(RawFile {
        header: HostHeader {
            hostname,
            arch,
            schemas,
        },
        seq,
        samples,
    })
}

/// `reference_parse` behind the one UTF-8 check `parse_bytes` has
/// always made first.
fn reference(bytes: &[u8]) -> Result<RawFile, ParseError> {
    let text = std::str::from_utf8(bytes).map_err(|e| ParseError {
        line: 0,
        message: format!(
            "payload is not UTF-8 (invalid byte at offset {})",
            e.valid_up_to()
        ),
    })?;
    reference_parse(text)
}

// --------------------------------------------------------------- corpus

/// A transport that keeps every payload it is handed.
struct Capture(Arc<Mutex<Vec<Vec<u8>>>>);

impl Publisher for Capture {
    fn publish(&mut self, _queue: &str, _key: &str, _seq: u64, payload: Bytes) -> bool {
        self.0.lock().unwrap().push(payload.to_vec());
        true
    }
}

/// What one real daemon on `topology` sends over a short busy life:
/// plain ticks, job changes, scheduler marks, process churn — `n` ticks,
/// so at least `n` messages. Without `churn` it is `n` plain ticks of
/// one job: every message has the shape of the last.
fn daemon_messages(host: &str, topology: NodeTopology, n: u64, churn: bool) -> Vec<Vec<u8>> {
    let mut node = SimNode::new(host, topology);
    node.spawn_process("wrf.exe", 5000, 16, u64::MAX);
    let fs = NodeFs::new(&node);
    let cfg = discover(&fs, BuildOptions::default()).expect("discovery");
    let sink = Arc::new(Mutex::new(Vec::new()));
    let mut d = TaccStatsd::new(
        Sampler::new(host, &cfg),
        SimDuration::from_mins(10),
        "stats",
        Box::new(Capture(Arc::clone(&sink))),
        SimTime::from_secs(1_443_657_000),
    );
    let demand = NodeDemand {
        active_cores: 12,
        cpu_user_frac: 0.8,
        flops_per_sec: 1e10,
        mem_bw_bytes_per_sec: 1e9,
        mem_used_bytes: 8 << 30,
        ..NodeDemand::default()
    };
    for k in 0..n {
        let now = SimTime::from_secs(1_443_657_000 + 600 * k);
        node.advance(SimDuration::from_secs(600), &demand);
        match k % 4 {
            0 => d.set_jobs(vec!["3001".to_string()]),
            _ if !churn => {}
            1 => d.set_jobs(vec!["3001".to_string(), "3002".to_string()]),
            2 => d.set_jobs(Vec::new()),
            _ => {
                node.spawn_process("sshd", 0, 1, 1);
            }
        }
        let fs = NodeFs::new(&node);
        d.tick(&fs, now);
        if churn && k % 3 == 1 {
            d.collect_marked(&fs, now, "begin 3002");
        }
    }
    let out = sink.lock().unwrap().clone();
    assert!(
        out.len() as u64 >= n,
        "a message per tick, and one per mark"
    );
    out
}

fn replace(msg: &[u8], from: &str, to: &str) -> Vec<u8> {
    let text = std::str::from_utf8(msg).expect("daemon output is UTF-8");
    assert!(text.contains(from), "fixture lost {from:?}");
    text.replace(from, to).into_bytes()
}

/// Daemon output as it comes off the wire: two hosts of one node type
/// (one schema block between them), a host of another type, the first
/// host rebooted into the other type's topology, and a host whose block
/// differs from its neighbours' by one event.
fn corpus() -> &'static [Vec<u8>] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut all = daemon_messages("c401-0001", NodeTopology::stampede(), 6, true);
        all.extend(daemon_messages(
            "c401-0002",
            NodeTopology::stampede(),
            4,
            true,
        ));
        let other = daemon_messages("c500-0001", NodeTopology::lonestar5(), 4, true);
        let rebooted: Vec<Vec<u8>> = other
            .iter()
            .map(|m| replace(m, "$hostname c500-0001", "$hostname c401-0001"))
            .collect();
        let one_event_off: Vec<Vec<u8>> = all[all.len() - 2..]
            .iter()
            .map(|m| replace(m, "wait,US,C,64", "wait,US,C,32"))
            .collect();
        all.extend(other);
        all.extend(rebooted);
        all.extend(one_event_off);
        all
    })
}

/// Offset of the first timestamp line: where the sample starts.
fn body_start(msg: &[u8]) -> usize {
    let mut at = 0;
    for line in msg.split_inclusive(|&b| b == b'\n') {
        if line.first().is_some_and(u8::is_ascii_digit) {
            return at;
        }
        at += line.len();
    }
    msg.len()
}

// ------------------------------------------------------------ mutations

fn pick(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n.max(1) as u64) as usize
}

/// A random offset in `msg[from..]` whose byte satisfies `want`.
fn find(
    rng: &mut TestRng,
    msg: &[u8],
    from: usize,
    want: impl Fn(&[u8], usize) -> bool,
) -> Option<usize> {
    let hits: Vec<usize> = (from..msg.len()).filter(|&i| want(msg, i)).collect();
    (!hits.is_empty()).then(|| hits[pick(rng, hits.len())])
}

fn insert(msg: &mut Vec<u8>, at: usize, bytes: &[u8]) {
    msg.splice(at..at, bytes.iter().copied());
}

/// A space that separates two tokens of a record line.
fn is_sep(m: &[u8], i: usize) -> bool {
    m[i] == b' ' && i > 0 && m[i - 1] != b'\n'
}

/// The space before a numeric token.
fn before_number(m: &[u8], i: usize) -> bool {
    is_sep(m, i) && m.get(i + 1).is_some_and(u8::is_ascii_digit)
}

/// The first byte of a line.
fn line_start(m: &[u8], i: usize) -> bool {
    i == 0 || m[i - 1] == b'\n'
}

const N_MUTATIONS: u64 = 24;

/// Apply deviation `kind` to `msg`: everything the format tolerates
/// that the renderer does not write, and everything it does not
/// tolerate that a network can deliver.
fn mutate(msg: &mut Vec<u8>, kind: u64, rng: &mut TestRng) {
    let body = body_start(msg);
    match kind {
        // Repeated separator.
        0 => {
            if let Some(i) = find(rng, msg, body, is_sep) {
                insert(msg, i, b" ");
            }
        }
        // Tab, vertical tab or form feed for a separator.
        1 => {
            if let Some(i) = find(rng, msg, body, is_sep) {
                msg[i] = [b'\t', 0x0B, 0x0C][pick(rng, 3)];
            }
        }
        // Trailing space; `\r` before `\n`.
        2 | 3 => {
            if let Some(i) = find(rng, msg, body, |m, i| m[i] == b'\n') {
                insert(msg, i, if kind == 2 { b" " } else { b"\r" });
            }
        }
        // Blank (or whitespace-only) line.
        4 => {
            if let Some(i) = find(rng, msg, body, line_start) {
                insert(msg, i, [&b"\n"[..], b"  \n", b"\t\r\n"][pick(rng, 3)]);
            }
        }
        // Leading `0`, leading `+`.
        5 | 6 => {
            if let Some(i) = find(rng, msg, body, before_number) {
                insert(msg, i + 1, if kind == 5 { b"0" } else { b"+" });
            }
        }
        // Timestamp line without its jobid token, or with extras.
        7 | 8 => {
            let end = body + msg[body..].iter().position(|&b| b == b'\n').unwrap_or(0);
            if kind == 7 {
                if let Some(sp) = msg[body..end].iter().position(|&b| b == b' ') {
                    msg.drain(body + sp..end);
                }
            } else {
                insert(msg, end, b" extra tokens");
            }
        }
        // A mark after a device line; a device line after the `ps` lines.
        9 => {
            let devices = find(rng, msg, body, |m, i| {
                line_start(m, i) && m[i].is_ascii_lowercase()
            });
            if let Some(i) = devices {
                let eol = i + msg[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(0, |p| p + 1);
                insert(msg, eol, b"%late mark\n");
            }
        }
        10 if msg.last() == Some(&b'\n') => msg.extend_from_slice(b"mdc late 1 2\n"),
        // A `$` line, or a `!` run, inside the sample.
        11 => {
            if let Some(i) = find(rng, msg, body, line_start) {
                let line: &[u8] = [
                    &b"$note anything at all\n"[..],
                    b"$seq 7\n",
                    b"!mdc reqs,E,C,64 wait,US,C,64\n",
                    b"!mdc reqs,E,C,64\n!osc reqs,E,C,64\n",
                    b"!bogus x,E,C,64\n",
                ][pick(rng, 5)];
                insert(msg, i, line);
            }
        }
        // Last line without its `\n`; truncation anywhere.
        12 if msg.last() == Some(&b'\n') => {
            msg.pop();
        }
        13 => {
            let at = pick(rng, msg.len());
            msg.truncate(at);
        }
        // A flipped byte (possibly breaking UTF-8).
        14 => {
            let at = pick(rng, msg.len());
            if let Some(b) = msg.get_mut(at) {
                *b = rng.below(256) as u8;
            }
        }
        // Non-ASCII whitespace for a separator: the `str` grammar splits
        // on it, a byte tokenizer would not.
        15 => {
            if let Some(i) = find(rng, msg, body, is_sep) {
                let ws = ["\u{a0}", "\u{3000}", "\u{2003}", "\u{85}", "\u{2028}"][pick(rng, 5)];
                msg.splice(i..=i, ws.bytes());
            }
        }
        // ... and inside a token, splitting it in two.
        16 => {
            if let Some(i) = find(rng, msg, body, |m, i| m[i].is_ascii_digit()) {
                let ws = ["\u{a0}", "\u{1680}", "\u{200a}", "é", "\u{200b}"][pick(rng, 5)];
                insert(msg, i, ws.as_bytes());
            }
        }
        // Leading whitespace on a line.
        17 => {
            if let Some(i) = find(rng, msg, body, line_start) {
                insert(msg, i, [&b" "[..], b"\t", b"\x0b "][pick(rng, 3)]);
            }
        }
        // A number at or past the edges of u64 / u32.
        18 => {
            if let Some(i) = find(rng, msg, body, before_number) {
                let len = msg[i + 1..]
                    .iter()
                    .position(|b| !b.is_ascii_digit())
                    .unwrap_or(msg.len() - i - 1);
                let n: &[u8] = [
                    &b"18446744073709551615"[..],
                    b"18446744073709551616",
                    b"99999999999999999999",
                    b"9999999999999999999",
                    b"00000000000000000000007",
                    b"4294967296",
                    b"-1",
                    b"",
                ][pick(rng, 8)];
                msg.splice(i + 1..i + 1 + len, n.iter().copied());
            }
        }
        // A timestamp too large for nanoseconds; one with a leading 0.
        19 => {
            let pre: &[u8] = [&b"99999999999"[..], b"0", b"18446744073709551616"][pick(rng, 3)];
            insert(msg, body, pre);
        }
        // One event of the schema block changes (another node type, by
        // one width): same host, same line count, different bytes.
        20 => {
            *msg = String::from_utf8_lossy(msg)
                .replacen(",C,64", ",C,32", 1)
                .into_bytes();
        }
        // A different `$seq`: dense, past the bitmap's reach, or absent.
        21 => {
            let text = String::from_utf8_lossy(msg).into_owned();
            if let Some(at) = text.find("$seq ") {
                let end = at + text[at..].find('\n').map_or(0, |p| p + 1);
                let seq = [
                    format!("$seq {}\n", rng.below(12)),
                    format!("$seq {}\n", 66_000 + rng.below(4)),
                    format!("$seq {}\n", 140_000 + rng.below(4)),
                    "$seq +3\n".to_string(),
                    String::new(),
                ][pick(rng, 5)]
                .clone();
                msg.splice(at..end, seq.bytes());
            }
        }
        // A second sample in the body: another message's, with or
        // without its own header (a second `$hostname`, `$seq` and `!`
        // run mid-stream).
        22 | 23 => {
            let other = &corpus()[pick(rng, corpus().len())];
            let from = if kind == 22 { body_start(other) } else { 0 };
            msg.extend_from_slice(&other[from..]);
        }
        _ => {}
    }
}

/// A corpus message put through up to three deviations.
fn mutated(rng: &mut TestRng) -> Vec<u8> {
    let mut msg = corpus()[pick(rng, corpus().len())].clone();
    for _ in 0..rng.below(4) {
        let kind = rng.below(N_MUTATIONS);
        mutate(&mut msg, kind, rng);
    }
    msg
}

// ------------------------------------------------------------ (i), (ii)

/// One warm decode as an owned `RawFile`, and its spans.
fn decode(
    payload: &[u8],
    cache: &mut SchemaCache,
    out: &mut Decoded,
) -> Result<RawFile, ParseError> {
    let envelope = codec::decode_into(payload, cache, out)?;
    Ok(RawFile {
        seq: envelope.seq,
        header: envelope.into_header(),
        samples: out.samples.clone(),
    })
}

/// `canonical ⇒ payload[span] == render(sample)`, and spans tile the
/// payload from the first timestamp line on.
fn check_spans(payload: &[u8], out: &Decoded) -> Result<(), String> {
    prop_assert_eq!(out.samples.len(), out.spans.len());
    let mut at = out.spans.first().map_or(payload.len(), |s| s.start);
    let mut buf = Vec::new();
    for (sample, span) in out.samples.iter().zip(&out.spans) {
        prop_assert_eq!(span.start, at, "spans tile the payload");
        prop_assert!(span.end >= span.start && span.end <= payload.len());
        at = span.end;
        if span.canonical {
            buf.clear();
            codec::render_sample_into(sample, &mut buf);
            prop_assert_eq!(
                String::from_utf8_lossy(&payload[span.start..span.end]),
                String::from_utf8_lossy(&buf),
                "a canonical span is what rendering the sample writes"
            );
        }
    }
    prop_assert_eq!(at, payload.len());
    Ok(())
}

#[test]
fn daemon_output_is_canonical_and_shares_schema_blocks() {
    // What makes the optimisation worth having: every sample a daemon
    // renders may be archived verbatim, and the cache holds node types.
    let mut cache = SchemaCache::new();
    let mut out = Decoded::default();
    for msg in corpus() {
        let got = decode(msg, &mut cache, &mut out).expect("daemon output parses");
        assert_eq!(Ok(got), reference(msg));
        assert_eq!(out.spans.len(), 1);
        assert_eq!(out.spans[0].start, body_start(msg));
        assert_eq!(out.spans[0].end, msg.len());
        assert!(out.spans[0].canonical, "daemon output must be canonical");
        check_spans(msg, &out).unwrap();
    }
    // stampede, lonestar5, and stampede with one event's width changed.
    assert_eq!(cache.len(), 3, "one entry per distinct block, not per host");
}

#[test]
fn the_cache_is_bounded() {
    let mut cache = SchemaCache::new();
    let mut out = Decoded::default();
    let base = &corpus()[0];
    for width in 1..=3 * codec::MAX_CACHED_BLOCKS {
        let msg = replace(base, "wait,US,C,64", &format!("wait,US,C,{width}"));
        assert_eq!(decode(&msg, &mut cache, &mut out), reference(&msg));
        assert!(cache.len() <= codec::MAX_CACHED_BLOCKS);
    }
    // The first block was evicted long ago; it still decodes the same.
    assert_eq!(decode(base, &mut cache, &mut out), reference(base));
    // A block too large to keep is parsed where it stands.
    let before = cache.len();
    let fat = format!(
        "!mdc reqs,E,C,64 {}\n",
        "x,E,C,64 ".repeat(codec::MAX_CACHED_BLOCK_BYTES / 9 + 1)
    );
    let msg = replace(base, "!mdc reqs,E,C,64 wait,US,C,64\n", &fat);
    assert_eq!(decode(&msg, &mut cache, &mut out), reference(&msg));
    assert_eq!(cache.len(), before);
}

proptest! {
    /// (i) The differential: whatever arrives, the decoder with a warm
    /// cache and reused storage, and the stateless wrapper, return what
    /// the old grammar returns — `Ok` or `Err`, value or line and
    /// message.
    #[test]
    fn decoder_matches_the_reference_grammar(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let mut cache = SchemaCache::new();
        let mut out = Decoded::default();
        for _ in 0..12 {
            let msg = mutated(&mut rng);
            let want = reference(&msg);
            let shown = String::from_utf8_lossy(&msg).into_owned();
            let warm = decode(&msg, &mut cache, &mut out);
            prop_assert_eq!(&warm, &want, "warm decode of {:?}", shown);
            if warm.is_ok() {
                check_spans(&msg, &out)?;
            }
            prop_assert_eq!(&codec::parse_bytes(&msg), &want, "parse_bytes of {:?}", shown);
            if let Ok(text) = std::str::from_utf8(&msg) {
                prop_assert_eq!(&RawFile::parse(text), &want, "RawFile::parse of {:?}", shown);
            }
            prop_assert!(cache.len() <= codec::MAX_CACHED_BLOCKS);
        }
    }

    /// (i, continued) The same over line-shaped junk and raw noise,
    /// where most inputs are errors and the line numbers must agree.
    #[test]
    fn decoder_matches_the_reference_on_junk(
        lines in collection::vec(
            prop_oneof![
                Just("$tacc_stats 2.1".to_string()),
                Just("$hostname h".to_string()),
                Just("$arch sandybridge".to_string()),
                Just("$seq 18446744073709551615".to_string()),
                Just("!mdc reqs,E,C,64 wait,US,C,64".to_string()),
                Just("!ps VmSize,KB,G,64".to_string()),
                Just("1443657600 3001".to_string()),
                Just("1443657600".to_string()),
                Just("mdc scratch 1 2".to_string()),
                Just("mdc scratch 1".to_string()),
                Just("%begin 3001".to_string()),
                Just("ps 1 x 2 3".to_string()),
                Just("ps 4294967296 x 2 3".to_string()),
                Just("".to_string()),
                "[a-z0-9 .$!%+-]{0,40}",
                ".{0,24}",
            ],
            0..25,
        ),
        newline in prop_oneof![Just("\n"), Just("\r\n"), Just(" \n")],
        terminated in any::<bool>(),
    ) {
        let newline: &str = newline;
        let mut text = lines.join(newline);
        if terminated {
            text.push('\n');
        }
        let want = reference_parse(&text);
        let mut cache = SchemaCache::new();
        let mut out = Decoded::default();
        // Twice: the second decode runs against whatever the first
        // cached and left in `out`.
        for _ in 0..2 {
            let got = decode(text.as_bytes(), &mut cache, &mut out);
            prop_assert_eq!(&got, &want, "{:?}", text);
            if got.is_ok() {
                check_spans(text.as_bytes(), &out)?;
            }
        }
        prop_assert_eq!(&RawFile::parse(&text), &want, "{:?}", text);
    }

    /// (ii) `render ∘ parse == id` on anything the renderer writes, with
    /// any single-token names — and when the names are ASCII, the
    /// decoder says so: the span is canonical.
    #[test]
    fn render_of_parse_is_identity(
        names in collection::vec(
            prop_oneof![
                Just("héllo".to_string()),
                "[a-zA-Z0-9_./:+-]{1,12}",
                "[a-zA-Z0-9_./:+-]{1,12}",
                "[a-zA-Z0-9_./:+-]{1,12}",
                Just("名前".to_string()),
                Just("$seq".to_string()),
                Just("%x".to_string()),
                Just("0".to_string()),
            ],
            6,
        ),
        vals in collection::vec(any::<u64>(), 8),
        shifts in collection::vec(0u32..64, 8),
        n_jobs in 0usize..3,
        n_marks in 0usize..3,
        seq in (any::<bool>(), any::<u64>()),
        t in 0u64..18_000_000_000,
    ) {
        let names: Vec<String> = names;
        let arch = CpuArch::Haswell;
        let header = HostHeader {
            hostname: Sym::new(&names[0]),
            arch,
            schemas: [DeviceType::Mdc, DeviceType::Osc, DeviceType::Ps]
                .into_iter()
                .map(|dt| (dt, dt.schema(arch)))
                .collect(),
        };
        let v = |i: usize| vals[i % 8] >> shifts[i % 8];
        let sample = Sample {
            time: SimTime::from_secs(t).into(),
            jobids: names[1..1 + n_jobs].to_vec(),
            marks: (0..n_marks).map(|i| format!("begin {} now", names[3 + i])).collect(),
            devices: vec![
                DeviceRecord {
                    dev_type: DeviceType::Mdc,
                    instance: Sym::new(&names[4]),
                    values: vec![v(0), v(1)].into(),
                },
                DeviceRecord {
                    dev_type: DeviceType::Osc,
                    instance: Sym::new(&names[5]),
                    values: vec![v(2), v(3), v(4), v(5)].into(),
                },
            ],
            processes: vec![PsRecord {
                pid: v(6) as u32,
                comm: Sym::new(&names[2]),
                uid: v(7) as u32,
                values: (0..DeviceType::Ps.schema(arch).len()).map(v).collect(),
            }],
        };
        let mut msg = Vec::new();
        codec::render_message_into(&header, &sample, seq.0.then_some(seq.1), &mut msg);
        let parsed = codec::parse_bytes(&msg).unwrap();
        prop_assert_eq!(&Ok(parsed.clone()), &reference(&msg));
        let mut again = Vec::new();
        codec::render_file_into(&parsed, &mut again);
        prop_assert_eq!(String::from_utf8_lossy(&again), String::from_utf8_lossy(&msg));

        let mut out = Decoded::default();
        codec::decode_into(&msg, &mut SchemaCache::new(), &mut out).unwrap();
        check_spans(&msg, &out)?;
        let body = &msg[body_start(&msg)..];
        if body.is_ascii() {
            prop_assert!(out.spans[0].canonical, "{:?}", String::from_utf8_lossy(body));
        }
    }
}

// ----------------------------------------------------------------- (iii)

/// The consumer's accept path as it stood before the decoder: parse
/// with the reference grammar, dedup against a set of every seq seen,
/// re-render every sample into the archive.
struct RefConsumer {
    archive: Arc<Archive>,
    headered: HashSet<(Sym, u64)>,
    seen: HashMap<Sym, HashSet<u64>>,
    max_seq: HashMap<Sym, u64>,
    received: u64,
    parse_failures: u64,
    duplicates: u64,
    gap_events: u64,
    /// Payloads a dead-letter queue would hold, in order.
    dead: Vec<Vec<u8>>,
}

impl RefConsumer {
    fn new() -> RefConsumer {
        RefConsumer {
            archive: Arc::new(Archive::new()),
            headered: HashSet::new(),
            seen: HashMap::new(),
            max_seq: HashMap::new(),
            received: 0,
            parse_failures: 0,
            duplicates: 0,
            gap_events: 0,
            dead: Vec::new(),
        }
    }

    /// One delivery; the host and last sample if it was accepted.
    fn deliver(&mut self, payload: &[u8], now: SimTime) -> Option<(Sym, Option<Sample>)> {
        let Ok(rf) = reference(payload) else {
            self.parse_failures += 1;
            self.dead.push(payload.to_vec());
            return None;
        };
        let host = rf.header.hostname;
        if let Some(seq) = rf.seq {
            if !self.seen.entry(host).or_default().insert(seq) {
                self.duplicates += 1;
                return None;
            }
            let expected = self.max_seq.get(&host).map(|m| m + 1).unwrap_or(0);
            if seq > expected {
                self.gap_events += 1;
            }
            let max = self.max_seq.entry(host).or_insert(0);
            *max = (*max).max(seq);
        }
        let mut buf = Vec::new();
        let mut last = None;
        for sample in rf.samples {
            let t = sample.time.time();
            let day = t.start_of_day();
            buf.clear();
            if self.headered.insert((host, day.as_secs()))
                && !self.archive.has_file(host.as_str(), day)
            {
                codec::render_header_into(&rf.header, &mut buf);
            }
            codec::render_sample_into(&sample, &mut buf);
            self.archive.append_bytes(host, day, &buf, &[t], now);
            last = Some(sample);
        }
        self.received += 1;
        Some((host, last))
    }

    fn missing(&self, host: Sym) -> Vec<u64> {
        let Some(seen) = self.seen.get(&host) else {
            return Vec::new();
        };
        let max = self.max_seq.get(&host).copied().unwrap_or(0);
        (0..=max).filter(|s| !seen.contains(s)).collect()
    }
}

/// Every host-day file, sorted.
fn archive_bytes(a: &Archive) -> Vec<(String, u64, Vec<u8>)> {
    let mut files: Vec<_> = a
        .keys()
        .into_iter()
        .map(|(h, d)| {
            let bytes = a.with_bytes(h.as_str(), d, <[u8]>::to_vec).unwrap();
            (h.as_str().to_string(), d.as_secs(), bytes)
        })
        .collect();
    files.sort();
    files
}

/// A stream as a hostile network delivers it: mutated messages, exact
/// replays, reordering, and payloads that are not messages at all.
fn stream(rng: &mut TestRng, n: usize) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = Vec::new();
    for _ in 0..n {
        match rng.below(10) {
            0 if !out.is_empty() => out.push(out[pick(rng, out.len())].clone()),
            1 => out.push(b"not a raw file".to_vec()),
            2 => out.push(b"\xff\xfe junk".to_vec()),
            3 => out.push(corpus()[pick(rng, corpus().len())].clone()),
            _ => out.push(mutated(rng)),
        }
    }
    out
}

proptest! {
    /// (iii) The same stream through the new accept path — by value,
    /// borrowed, and drained into a vector — and through the old one
    /// ends in the same archive bytes, the same counters, the same
    /// dedup answers and the same dead letters.
    #[test]
    fn consumers_match_the_rerender_reference(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let messages = stream(&mut rng, 40);
        let broker = Broker::new();
        for q in ["once", "with", "drain"] {
            broker.declare(q);
            for m in &messages {
                broker.publish(q, "any", Bytes::copy_from_slice(m));
            }
        }
        let now = SimTime::from_secs(1_443_700_000);
        let mut reference = RefConsumer::new();
        let want: Vec<(Sym, Sample)> = messages
            .iter()
            .filter_map(|m| reference.deliver(m, now))
            .filter_map(|(h, s)| s.map(|s| (h, s)))
            .collect();

        let archives: Vec<Arc<Archive>> = (0..3).map(|_| Arc::new(Archive::new())).collect();
        let mut consumers: Vec<StatsConsumer> = ["once", "with", "drain"]
            .iter()
            .zip(&archives)
            .map(|(q, a)| {
                let mut c = StatsConsumer::new(&broker, q, Arc::clone(a)).unwrap();
                c.set_dead_letter(&format!("{q}.dead"));
                c
            })
            .collect();
        // A message without samples ends a poll loop early (it always
        // has); keep polling until the queue is empty.
        let mut got: Vec<Vec<(Sym, Sample)>> = vec![Vec::new(); 3];
        while broker.depth("once") > 0 {
            got[0].extend(consumers[0].poll_once(now, Duration::ZERO));
        }
        while broker.depth("with") > 0 {
            consumers[1].poll_with(now, |h, s| got[1].push((h, s.clone())));
        }
        while broker.depth("drain") > 0 {
            got[2].extend(consumers[2].drain(now));
        }

        let want_files = archive_bytes(&reference.archive);
        for ((c, a), (got, q)) in consumers
            .iter()
            .zip(&archives)
            .zip(got.iter().zip(["once", "with", "drain"]))
        {
            prop_assert_eq!(got, &want, "{}: samples handed on", q);
            prop_assert_eq!(c.received, reference.received, "{}", q);
            prop_assert_eq!(c.duplicates, reference.duplicates, "{}", q);
            prop_assert_eq!(c.gap_events, reference.gap_events, "{}", q);
            prop_assert_eq!(c.parse_failures, reference.parse_failures, "{}", q);
            prop_assert_eq!(c.dead_lettered, reference.dead.len() as u64, "{}", q);
            let files = archive_bytes(a);
            prop_assert_eq!(files.len(), want_files.len(), "{}", q);
            for (f, w) in files.iter().zip(&want_files) {
                prop_assert_eq!((&f.0, f.1), (&w.0, w.1), "{}", q);
                prop_assert_eq!(
                    String::from_utf8_lossy(&f.2),
                    String::from_utf8_lossy(&w.2),
                    "{}: archive bytes of {} day {}", q, f.0, f.1
                );
            }
            prop_assert_eq!(
                a.latency_stats().count,
                reference.archive.latency_stats().count,
                "{}", q
            );
            for (&host, seen) in &reference.seen {
                prop_assert_eq!(c.missing(host.as_str()), reference.missing(host), "{}", q);
                for probe in seen.iter().flat_map(|&s| [s, s + 1, s.saturating_sub(1)]) {
                    prop_assert_eq!(
                        c.has_seen(host.as_str(), probe),
                        seen.contains(&probe),
                        "{}: has_seen({}, {})", q, host, probe
                    );
                }
            }
            let dlq = broker.consume(&format!("{q}.dead")).unwrap();
            for want in &reference.dead {
                let d = dlq.get().expect("a dead letter per reject");
                prop_assert_eq!(&d.payload[..], &want[..], "{}", q);
            }
            prop_assert!(dlq.get().is_none());
        }
    }
}

// ------------------------------------------------------------------ (iv)

/// A queue holding `n` messages of two hosts, as their daemons sent
/// them, and a consumer on it that has already seen a few.
fn steady_state(n: u64) -> (StatsConsumer, Broker) {
    let broker = Broker::new();
    broker.declare("stats");
    let hosts = [
        daemon_messages("c401-0101", NodeTopology::stampede(), n / 2 + 4, false),
        daemon_messages("c401-0102", NodeTopology::stampede(), n / 2 + 4, false),
    ];
    for k in 0..hosts[0].len() {
        for h in &hosts {
            broker.publish("stats", "any", Bytes::copy_from_slice(&h[k]));
        }
    }
    let archive = Arc::new(Archive::new());
    let mut consumer = StatsConsumer::new(&broker, "stats", archive).unwrap();
    // Warm up: the header-once appends, the schema block, the dedup
    // bitmaps and the reused Sample reach their steady state.
    for _ in 0..8 {
        assert!(consumer.poll_with(SimTime::from_secs(1_443_700_000), |_, _| {}));
    }
    (consumer, broker)
}

#[test]
fn steady_state_polls_do_not_allocate() {
    const N: u64 = 64;
    let now = SimTime::from_secs(1_443_700_000);

    // Borrowed: nothing — but for the archive's two day files, each a
    // `Vec` that doubles a few times over the run.
    let (mut consumer, _broker) = steady_state(N);
    let mut devices = 0usize;
    let (mut clean, mut worst) = (0, 0);
    for _ in 0..N {
        let before = allocs();
        assert!(consumer.poll_with(now, |_, s| devices += s.devices.len()));
        let n = allocs() - before;
        clean += u64::from(n == 0);
        worst = worst.max(n);
    }
    assert!(devices > 0);
    assert!(
        worst <= 1 && clean >= N - 8,
        "poll_with: {clean} of {N} messages allocation-free, worst {worst}; \
         only a day file's growth may allocate"
    );

    // By value: the fresh Sample handed out — its device and process
    // records, its jobid list and strings — and nothing else.
    let (mut consumer, _broker) = steady_state(N);
    let mut worst = 0;
    for _ in 0..N {
        let before = allocs();
        let polled = consumer.poll_once(now, Duration::ZERO);
        worst = worst.max(allocs() - before);
        assert!(polled.is_some());
    }
    assert!(worst <= 6, "poll_once: {worst} allocations for one message");
}
