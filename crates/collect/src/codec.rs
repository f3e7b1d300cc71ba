//! Buffer-reusing byte codec for the raw-stats format.
//!
//! [`crate::record`] defines the *types* of the raw format; this module
//! owns their wire encoding. The hot path renders every sample of every
//! node once per collection interval, so the codec is built around two
//! rules:
//!
//! 1. **No fresh allocations per sample.** All `render_*_into`
//!    functions append to a caller-owned `Vec<u8>`; callers clear and
//!    reuse one buffer per message (`buf.clear()` keeps the capacity).
//!    Integers are written by the writer the node's pseudo-file
//!    renderers use ([`tacc_simnode::digits`]) — no `format!`, no
//!    intermediate `String`s.
//! 2. **Bytes are the native representation.** The daemon→broker→
//!    consumer path moves byte payloads; [`decode_into`] validates
//!    UTF-8 once and decodes in place into caller-owned storage, so no
//!    layer needs to build an owned `String` just to look at a message.
//! 3. **One grammar.** [`decode_into`] is the only parser of the
//!    format. It skips a `!` schema block it has seen before (by byte
//!    equality, against a [`SchemaCache`]), and reports where each
//!    sample sits in the payload and whether those bytes are exactly
//!    what rendering it would write — in which case the consumer
//!    archives them as they are. [`parse_bytes`] and
//!    [`RawFile::parse`] are its stateless, owned-return wrappers.
//!
//! Rendering has one sink, a `Vec<u8>`: the daemon's messages, the
//! consumer's archived bytes and cron mode's day logs are all written
//! by the `render_*_into` functions. [`RawFile::render`] is the one
//! `String` helper, a UTF-8 view of [`render_file_into`].

use crate::record::{
    DeviceRecord, HostHeader, ParseError, PsRecord, RawFile, Sample, ValueVec, FORMAT_VERSION,
};
use crate::tokens::{parse_dec, parse_dec32, split_line, AsciiTokens, Tokens, UnicodeTokens};
use std::collections::BTreeMap;
use std::sync::Arc;
use tacc_simnode::clock::NANOS_PER_SEC;
use tacc_simnode::digits;
use tacc_simnode::intern::{Sym, SymbolTable};
use tacc_simnode::schema::{DeviceType, EventKind, Schema};
use tacc_simnode::topology::CpuArch;
use tacc_simnode::SimTime;

/// Append the `$`/`!` header block to `out`.
pub fn render_header_into(h: &HostHeader, out: &mut Vec<u8>) {
    let names = SymbolTable::global().reader();
    out.extend_from_slice(b"$tacc_stats ");
    out.extend_from_slice(FORMAT_VERSION.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(b"$hostname ");
    out.extend_from_slice(names.resolve(h.hostname).as_bytes());
    out.push(b'\n');
    out.extend_from_slice(b"$arch ");
    out.extend_from_slice(h.arch.name().as_bytes());
    out.push(b'\n');
    for (dt, schema) in &h.schemas {
        out.push(b'!');
        out.extend_from_slice(dt.name().as_bytes());
        out.push(b' ');
        // Inline `Schema::render`: a schema line is interned names and
        // ASCII punctuation, no Strings needed.
        for (i, e) in schema.events.iter().enumerate() {
            if i > 0 {
                out.push(b' ');
            }
            out.extend_from_slice(names.resolve(e.name).as_bytes());
            out.push(b',');
            out.extend_from_slice(e.unit.label().as_bytes());
            out.push(b',');
            out.push(match e.kind {
                EventKind::Counter => b'C',
                EventKind::Gauge => b'G',
            });
            out.push(b',');
            digits::push_dec(out, u64::from(e.width));
        }
        out.push(b'\n');
    }
}

/// Render a `$seq <n>` header line.
pub(crate) fn render_seq(seq: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(b"$seq ");
    digits::push_dec(out, seq);
    out.push(b'\n');
}

/// Append one rendered sample (a timestamped record group) to `out`,
/// exactly as it would be appended to an existing host-day log.
pub fn render_sample_into(s: &Sample, out: &mut Vec<u8>) {
    // One lock acquisition for every name of the sample.
    let names = SymbolTable::global().reader();
    digits::push_dec(out, s.time.as_secs());
    out.push(b' ');
    if s.jobids.is_empty() {
        out.push(b'-');
    } else {
        let mut first = true;
        for j in &s.jobids {
            if !first {
                out.push(b',');
            }
            first = false;
            out.extend_from_slice(j.as_bytes());
        }
    }
    out.push(b'\n');
    for m in &s.marks {
        out.push(b'%');
        out.extend_from_slice(m.as_bytes());
        out.push(b'\n');
    }
    for d in &s.devices {
        out.extend_from_slice(d.dev_type.name().as_bytes());
        out.push(b' ');
        out.extend_from_slice(names.resolve(d.instance).as_bytes());
        for v in &d.values {
            out.push(b' ');
            digits::push_dec(out, *v);
        }
        out.push(b'\n');
    }
    for p in &s.processes {
        out.extend_from_slice(b"ps ");
        digits::push_dec(out, u64::from(p.pid));
        out.push(b' ');
        out.extend_from_slice(names.resolve(p.comm).as_bytes());
        out.push(b' ');
        digits::push_dec(out, u64::from(p.uid));
        for v in &p.values {
            out.push(b' ');
            digits::push_dec(out, *v);
        }
        out.push(b'\n');
    }
}

/// Append a complete single-sample daemon message (header, optional
/// `$seq` line, one sample) to `out`. Callers on the hot path keep one
/// buffer and `clear()` it between messages so the capacity — and the
/// header bytes' worth of growth — is paid once, not per sample.
pub fn render_message_into(h: &HostHeader, s: &Sample, seq: Option<u64>, out: &mut Vec<u8>) {
    render_header_into(h, out);
    if let Some(n) = seq {
        render_seq(n, out);
    }
    render_sample_into(s, out);
}

/// Append a whole raw file (header, optional `$seq`, all samples).
pub fn render_file_into(f: &RawFile, out: &mut Vec<u8>) {
    render_header_into(&f.header, out);
    if let Some(n) = f.seq {
        render_seq(n, out);
    }
    for s in &f.samples {
        render_sample_into(s, out);
    }
}

// ---------------------------------------------------------------- decode
//
// The one grammar of the raw format. Every parser in the crate —
// [`parse_bytes`], [`RawFile::parse`], the consumer — runs
// [`decode_into`]; they differ only in the storage and the cache they
// hand it.

/// Cached schema blocks a [`SchemaCache`] keeps at most. A block is
/// shared by every host of one node type, so entries count node
/// *types*, never hosts or messages.
pub const MAX_CACHED_BLOCKS: usize = 16;
/// Largest schema block (wire bytes) worth caching; a larger one is
/// parsed on every sight, as every block was before the cache.
pub const MAX_CACHED_BLOCK_BYTES: usize = 16 * 1024;

const N_DEVICE_TYPES: usize = DeviceType::ALL.len();

/// One maximal run of consecutive `!` schema lines, parsed once.
#[derive(Debug)]
struct SchemaBlock {
    /// The run's wire bytes, kept when the block is cached: the key.
    key: Box<[u8]>,
    /// Bytes and lines in the run.
    len: usize,
    lines: usize,
    schemas: BTreeMap<DeviceType, Schema>,
    /// `schemas[dt].len()` by `dt as usize`: the value count a record
    /// line of that type must carry.
    counts: [Option<usize>; N_DEVICE_TYPES],
}

impl SchemaBlock {
    // alloc: cold-fn (schema-block cache miss or merge, not per message)
    fn new(
        key: &[u8],
        len: usize,
        lines: usize,
        schemas: BTreeMap<DeviceType, Schema>,
    ) -> SchemaBlock {
        let mut counts = [None; N_DEVICE_TYPES];
        for (dt, schema) in &schemas {
            if let Some(slot) = counts.get_mut(*dt as usize) {
                *slot = Some(schema.len());
            }
        }
        SchemaBlock {
            key: key.into(),
            len,
            lines,
            schemas,
            counts,
        }
    }

    /// This block with `later`'s lines applied after it (a payload with
    /// more than one `!` run: later lines override earlier ones).
    // alloc: cold-fn (a second `!` run in one payload; daemons and the archive write one)
    fn overridden_by(&self, later: &SchemaBlock) -> SchemaBlock {
        let mut merged = self.schemas.clone();
        merged.extend(later.schemas.iter().map(|(dt, s)| (*dt, s.clone())));
        SchemaBlock::new(&[], 0, 0, merged)
    }

    fn count(&self, dt: DeviceType) -> Option<usize> {
        self.counts.get(dt as usize).copied().flatten()
    }
}

struct CacheEntry {
    block: Arc<SchemaBlock>,
    /// Device and process records of the last sample decoded against
    /// this block: what a fresh `Sample` is pre-sized to.
    devices: usize,
    processes: usize,
}

/// Parsed `!` schema blocks keyed by their wire bytes.
///
/// A daemon renders its header from a cached prefix, so the block
/// repeats byte for byte in every message of every host of a node
/// type. A hit is decided by `memcmp` alone — never by hostname — so
/// the cache can change what a decode costs and never what it returns.
/// At most [`MAX_CACHED_BLOCKS`] blocks of at most
/// [`MAX_CACHED_BLOCK_BYTES`] each are kept (oldest out first).
pub struct SchemaCache {
    entries: Vec<CacheEntry>,
    /// Blocks kept at most: [`MAX_CACHED_BLOCKS`], or 0 for the
    /// stateless wrappers, whose cache would die before its second use.
    capacity: usize,
}

impl Default for SchemaCache {
    fn default() -> SchemaCache {
        SchemaCache::new()
    }
}

impl SchemaCache {
    /// An empty cache.
    pub fn new() -> SchemaCache {
        SchemaCache {
            // alloc: cold (constructor; allocates nothing until the first block)
            entries: Vec::new(),
            capacity: MAX_CACHED_BLOCKS,
        }
    }

    /// A cache that stays empty: every block is parsed where it stands.
    fn disabled() -> SchemaCache {
        SchemaCache {
            // alloc: cold (constructor; never grows)
            entries: Vec::new(),
            capacity: 0,
        }
    }

    /// Cached blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keep `entry` (oldest out first); its slot, if the cache keeps
    /// anything.
    fn insert(&mut self, entry: CacheEntry) -> Option<usize> {
        if self.capacity == 0 {
            return None;
        }
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
        }
        self.entries.push(entry);
        Some(self.entries.len() - 1)
    }

    /// The block for the `!` run at the start of `tail` (whose first
    /// line is `lineno`), and its cache slot if it has one.
    fn resolve(
        &mut self,
        tail: &str,
        lineno: usize,
    ) -> Result<(Arc<SchemaBlock>, Option<usize>), ParseError> {
        // Cached runs end in `\n`, so a prefix match that is not
        // followed by another `!` line is the whole run.
        let hit = self.entries.iter().enumerate().find(|(_, e)| {
            let key = &*e.block.key;
            tail.as_bytes().starts_with(key) && tail.as_bytes().get(key.len()) != Some(&b'!')
        });
        if let Some((slot, e)) = hit {
            return Ok((Arc::clone(&e.block), Some(slot)));
        }
        let (len, lines, schemas) = parse_schema_run(tail, lineno)?;
        let run = tail.as_bytes().get(..len).unwrap_or(&[]);
        let cached = self.capacity > 0 && len <= MAX_CACHED_BLOCK_BYTES && run.ends_with(b"\n");
        let key = if cached { run } else { &[] };
        // alloc: cold (cache miss: once per node type, not per message)
        let block = Arc::new(SchemaBlock::new(key, len, lines, schemas));
        let entry = CacheEntry {
            block: Arc::clone(&block),
            devices: 0,
            processes: 0,
        };
        let slot = if cached { self.insert(entry) } else { None };
        Ok((block, slot))
    }
}

/// Parse the maximal run of `!` lines `tail` starts with: its length in
/// bytes and lines, and the schemas it leaves.
// alloc: cold-fn (schema-block cache miss: once per node type, not per message)
fn parse_schema_run(
    tail: &str,
    lineno: usize,
) -> Result<(usize, usize, BTreeMap<DeviceType, Schema>), ParseError> {
    let mut schemas = BTreeMap::new();
    let mut lines = 0usize;
    let mut rest = tail;
    while rest.starts_with('!') {
        let (raw, next) = split_line(rest);
        let at = lineno + lines;
        let (name, body) = raw
            .trim_end()
            .get(1..)
            .and_then(|r| r.split_once(' '))
            .ok_or_else(|| err(at, "malformed ! line"))?;
        let dt = DeviceType::parse(name)
            .ok_or_else(|| err(at, &format!("unknown device type {name}")))?;
        let schema = Schema::parse(body).ok_or_else(|| err(at, "malformed schema"))?;
        schemas.insert(dt, schema);
        lines += 1;
        rest = next;
    }
    Ok((tail.len() - rest.len(), lines, schemas))
}

/// What a message says about itself, apart from its samples.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// `$hostname`.
    pub hostname: Sym,
    /// `$arch`.
    pub arch: CpuArch,
    /// `$seq`, if the message carries one.
    pub seq: Option<u64>,
    schemas: Option<Arc<SchemaBlock>>,
}

impl Envelope {
    /// The owned header. Moves the schemas out when this envelope holds
    /// the block's last reference (the stateless wrappers, which cache
    /// nothing) and copies them otherwise.
    // alloc: cold-fn (once per host-day in the consumer; once per file in the owned-return wrappers)
    pub fn into_header(self) -> HostHeader {
        let schemas = match self.schemas.map(Arc::try_unwrap) {
            None => BTreeMap::new(),
            Some(Ok(block)) => block.schemas,
            Some(Err(shared)) => shared.schemas.clone(),
        };
        HostHeader {
            hostname: self.hostname,
            arch: self.arch,
            schemas,
        }
    }
}

/// Where one decoded sample sits in the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleSpan {
    /// Offset of the timestamp line's first byte.
    pub start: usize,
    /// Offset of the next sample's timestamp line, or the payload's
    /// length.
    pub end: usize,
    /// `payload[start..end]` is byte for byte what
    /// [`render_sample_into`] writes for the decoded sample. Cleared by
    /// anything the renderer would not have written: a repeated or
    /// non-space separator, trailing whitespace or `\r`, a blank line, a
    /// leading `0` or `+` on a number, a timestamp line without its
    /// jobid token or with extra ones, a mark after a device line or a
    /// device line after a `ps` line, a `$`/`!` line inside the span, a
    /// last line without `\n`, or any non-ASCII record line.
    pub canonical: bool,
}

/// Caller-owned decode output, refilled by every [`decode_into`]:
/// `samples[i]` sits at `spans[i]`. Kept across messages, its `Vec`s
/// and `String`s are reused and a steady-state decode allocates
/// nothing.
#[derive(Debug, Default)]
pub struct Decoded {
    /// The message's samples, in order.
    pub samples: Vec<Sample>,
    /// Each sample's place in the payload.
    pub spans: Vec<SampleSpan>,
}

fn err(line: usize, message: &str) -> ParseError {
    ParseError {
        line,
        // alloc: cold (error construction; the message is rejected)
        message: message.to_string(),
    }
}

/// Overwrite `dst` with `src`, reusing the `String`s already there.
fn set_strings<'a>(dst: &mut Vec<String>, src: impl Iterator<Item = &'a str>) {
    let mut n = 0;
    for s in src {
        set_string(dst, n, s);
        n += 1;
    }
    dst.truncate(n);
}

fn set_string(dst: &mut Vec<String>, i: usize, s: &str) {
    match dst.get_mut(i) {
        Some(d) => {
            d.clear();
            d.push_str(s);
        }
        // alloc: cold (the list grew past what the reused Sample has held before)
        None => dst.push(s.to_owned()),
    }
}

/// Render order of a sample's lines after the timestamp.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stage {
    Marks,
    Devices,
    Processes,
}

/// The sample being filled.
struct Open {
    start: usize,
    canonical: bool,
    stage: Stage,
    /// Marks written so far (the slot's `marks` may hold stale
    /// `String`s past this, kept for their capacity).
    marks: usize,
}

/// Decoder state across the lines of one payload.
struct Decoder<'c> {
    cache: &'c mut SchemaCache,
    hostname: Option<Sym>,
    arch: Option<CpuArch>,
    seq: Option<u64>,
    schemas: Option<Arc<SchemaBlock>>,
    /// Cache slot of `schemas`, while it is one cached block.
    slot: Option<usize>,
    /// Samples completed so far; the open one fills `samples[n]`.
    n: usize,
    open: Option<Open>,
    /// Device type of the previous record line (runs of one type are
    /// the rule, so most lines skip the name search).
    last_dt: DeviceType,
}

impl Decoder<'_> {
    fn untidy(&mut self) {
        if let Some(o) = &mut self.open {
            o.canonical = false;
        }
    }

    /// Finish the open sample: its span ends at `end`.
    fn close(&mut self, end: usize, out: &mut Decoded) {
        let Some(o) = self.open.take() else {
            return;
        };
        if let Some(s) = out.samples.get_mut(self.n) {
            s.marks.truncate(o.marks);
            if let Some(e) = self.slot.and_then(|i| self.cache.entries.get_mut(i)) {
                e.devices = s.devices.len();
                e.processes = s.processes.len();
            }
        }
        out.spans.push(SampleSpan {
            start: o.start,
            end,
            canonical: o.canonical,
        });
        self.n += 1;
    }

    fn dollar(&mut self, line: &str, lineno: usize) -> Result<(), ParseError> {
        let (key, value) = line
            .get(1..)
            .and_then(|r| r.split_once(' '))
            .ok_or_else(|| err(lineno, "malformed $ line"))?;
        match key {
            "tacc_stats" if value != FORMAT_VERSION => {
                // alloc: cold (error construction)
                return Err(err(lineno, &format!("unsupported version {value}")));
            }
            "tacc_stats" => {}
            "hostname" => self.hostname = Some(Sym::new(value)),
            "arch" => {
                self.arch = Some(
                    CpuArch::HOST_ARCHS
                        .iter()
                        .copied()
                        .chain([CpuArch::KnightsCorner])
                        .find(|a| a.name() == value)
                        // alloc: cold (error construction)
                        .ok_or_else(|| err(lineno, &format!("unknown arch {value}")))?,
                )
            }
            "seq" => {
                self.seq = Some(
                    parse_dec(value, &mut false)
                        // alloc: cold (error construction)
                        .ok_or_else(|| err(lineno, &format!("bad seq {value}")))?,
                )
            }
            _ => {} // forward-compatible: ignore unknown header keys
        }
        Ok(())
    }

    /// Apply the `!` run `tail` starts with; returns what follows it
    /// and the run's line count.
    fn schema_run<'a>(
        &mut self,
        tail: &'a str,
        lineno: usize,
    ) -> Result<(&'a str, usize), ParseError> {
        let (block, slot) = self.cache.resolve(tail, lineno)?;
        let after = tail.get(block.len..).unwrap_or("");
        let lines = block.lines;
        (self.schemas, self.slot) = match self.schemas.take() {
            None => (Some(block), slot),
            // alloc: cold (a second `!` run in one payload; daemons and the archive write one)
            Some(prev) => (Some(Arc::new(prev.overridden_by(&block))), None),
        };
        Ok((after, lines))
    }

    fn mark(
        &mut self,
        line: &str,
        tidy: bool,
        lineno: usize,
        out: &mut Decoded,
    ) -> Result<(), ParseError> {
        let (Some(o), Some(s)) = (self.open.as_mut(), out.samples.get_mut(self.n)) else {
            return Err(err(lineno, "mark before any timestamp"));
        };
        set_string(&mut s.marks, o.marks, line.get(1..).unwrap_or(""));
        o.marks += 1;
        o.canonical &= tidy && o.stage == Stage::Marks;
        Ok(())
    }

    /// `<unix seconds> <jobids|->`: a new record group starting at
    /// payload offset `start`.
    fn timestamp<'a>(
        &mut self,
        first: &str,
        mut toks: impl Tokens<'a>,
        tidy: bool,
        start: usize,
        lineno: usize,
        out: &mut Decoded,
    ) -> Result<(), ParseError> {
        self.close(start, out);
        let mut plain = tidy;
        let secs = parse_dec(first, &mut plain).ok_or_else(|| err(lineno, "bad timestamp"))?;
        // What `SimTime::from_secs` computes in a release build; past
        // ~584 years it wraps, and the sample no longer renders back.
        let time = SimTime::from_nanos(secs.wrapping_mul(NANOS_PER_SEC));
        plain &= time.as_secs() == secs;
        if self.n == out.samples.len() {
            // alloc: cold (first message, or one with more samples than any before it)
            out.samples.push(Sample::default());
        }
        let Some(s) = out.samples.get_mut(self.n) else {
            return Ok(());
        };
        s.time = time.into();
        match toks.next_tok() {
            None => {
                plain = false;
                s.jobids.clear();
            }
            Some("-") => s.jobids.clear(),
            Some(j) => set_strings(&mut s.jobids, j.split(',')),
        }
        plain &= toks.next_tok().is_none() && toks.tidy();
        s.devices.clear();
        s.processes.clear();
        // A Sample handed out by value comes back empty: size it to
        // what this node type sent last instead of growing it by
        // doubling.
        if let Some(e) = self.slot.and_then(|i| self.cache.entries.get(i)) {
            if s.devices.capacity() == 0 {
                s.devices.reserve(e.devices);
            }
            if s.processes.capacity() == 0 {
                s.processes.reserve(e.processes);
            }
        }
        self.open = Some(Open {
            start,
            canonical: plain,
            stage: Stage::Marks,
            marks: 0,
        });
        Ok(())
    }

    /// A timestamp or record line.
    fn record<'a>(
        &mut self,
        mut toks: impl Tokens<'a>,
        tidy: bool,
        start: usize,
        lineno: usize,
        out: &mut Decoded,
    ) -> Result<(), ParseError> {
        let first = toks.next_tok().ok_or_else(|| err(lineno, "empty line"))?;
        if first.bytes().all(|b| b.is_ascii_digit()) {
            return self.timestamp(first, toks, tidy, start, lineno, out);
        }
        let (Some(o), Some(s)) = (self.open.as_mut(), out.samples.get_mut(self.n)) else {
            return Err(err(lineno, "record before any timestamp"));
        };
        let dt = if first == self.last_dt.name() {
            self.last_dt
        } else {
            DeviceType::parse(first)
                // alloc: cold (error construction)
                .ok_or_else(|| err(lineno, &format!("unknown device {first}")))?
        };
        self.last_dt = dt;
        let expect = self.schemas.as_ref().and_then(|b| b.count(dt));
        let mut plain = tidy;
        if dt == DeviceType::Ps {
            let pid = toks
                .next_tok()
                .and_then(|t| parse_dec32(t, &mut plain))
                .ok_or_else(|| err(lineno, "ps line missing pid"))?;
            let comm = toks
                .next_tok()
                .map(Sym::new)
                .ok_or_else(|| err(lineno, "ps line missing comm"))?;
            let uid = toks
                .next_tok()
                .and_then(|t| parse_dec32(t, &mut plain))
                .ok_or_else(|| err(lineno, "ps line missing uid"))?;
            let values =
                values(&mut toks, expect, &mut plain).ok_or_else(|| err(lineno, "bad ps value"))?;
            if expect.is_some_and(|n| n != values.len()) {
                return Err(err(lineno, "ps value count mismatch"));
            }
            s.processes.push(PsRecord {
                pid,
                comm,
                uid,
                values,
            });
            o.stage = Stage::Processes;
        } else {
            let instance = toks
                .next_tok()
                .map(Sym::new)
                .ok_or_else(|| err(lineno, "record missing instance"))?;
            let values =
                values(&mut toks, expect, &mut plain).ok_or_else(|| err(lineno, "bad value"))?;
            if let Some(n) = expect.filter(|&n| n != values.len()) {
                // alloc: cold (error construction)
                let message = format!("{dt} value count {} != schema {n}", values.len());
                return Err(err(lineno, &message));
            }
            s.devices.push(DeviceRecord {
                dev_type: dt,
                instance,
                values,
            });
            plain &= o.stage <= Stage::Devices;
            o.stage = o.stage.max(Stage::Devices);
        }
        o.canonical &= plain && toks.tidy();
        Ok(())
    }
}

/// The rest of a record line as values: Table-I-width rows land in the
/// inline buffer, wider ones pre-size the spill `Vec` from the schema.
fn values<'a>(
    toks: &mut impl Tokens<'a>,
    expect: Option<usize>,
    plain: &mut bool,
) -> Option<ValueVec> {
    let mut values = ValueVec::with_capacity(expect.unwrap_or(0));
    while let Some(v) = toks.next_dec(plain) {
        values.push(v?);
    }
    Some(values)
}

/// Decode one payload — a daemon message or a whole raw file — into
/// caller-owned storage: one UTF-8 validation pass, then one pass over
/// the lines. A `!` block `cache` has seen before is recognised by byte
/// equality and not parsed again; ASCII lines are tokenised as bytes;
/// `out`'s samples are cleared and refilled, not dropped. Result and
/// error are the same for any state of `cache`.
pub fn decode_into(
    payload: &[u8],
    cache: &mut SchemaCache,
    out: &mut Decoded,
) -> Result<Envelope, ParseError> {
    let text = std::str::from_utf8(payload).map_err(|e| ParseError {
        line: 0,
        // alloc: cold (invalid-UTF-8 error path; the happy path never gets here)
        message: format!(
            "payload is not UTF-8 (invalid byte at offset {})",
            e.valid_up_to()
        ),
    })?;
    let ascii = payload.is_ascii();
    out.spans.clear();
    let mut d = Decoder {
        cache,
        hostname: None,
        arch: None,
        seq: None,
        schemas: None,
        slot: None,
        n: 0,
        open: None,
        last_dt: DeviceType::Cpu,
    };
    let mut rest = text;
    let mut lineno = 0usize;
    while !rest.is_empty() {
        lineno += 1;
        let tail = rest;
        let start = text.len() - tail.len();
        let (raw, next) = split_line(tail);
        let line = raw.trim_end();
        // Nothing trimmed, and a '\n' follows: what the renderer ends
        // every line with.
        let tidy = line.len() == raw.len() && raw.len() < tail.len();
        rest = next;
        match line.as_bytes().first() {
            None => d.untidy(),
            Some(b'$') => {
                d.untidy();
                d.dollar(line, lineno)?;
            }
            Some(b'!') => {
                d.untidy();
                let (after, lines) = d.schema_run(tail, lineno)?;
                rest = after;
                lineno += lines.saturating_sub(1);
            }
            Some(b'%') => d.mark(line, tidy, lineno, out)?,
            Some(_) if ascii || line.is_ascii() => {
                d.record(AsciiTokens::new(line), tidy, start, lineno, out)?;
            }
            Some(_) => d.record(UnicodeTokens::new(line), tidy, start, lineno, out)?,
        }
    }
    d.close(text.len(), out);
    out.samples.truncate(d.n);
    Ok(Envelope {
        hostname: d.hostname.ok_or_else(|| err(0, "missing $hostname"))?,
        arch: d.arch.ok_or_else(|| err(0, "missing $arch"))?,
        seq: d.seq,
        schemas: d.schemas,
    })
}

/// Parse a raw-stats message from bytes into an owned [`RawFile`]:
/// [`decode_into`] with a cache that stays empty and fresh storage. This is the
/// stateless entry point; a consumer that sees many messages keeps a
/// [`SchemaCache`] and a [`Decoded`] and calls [`decode_into`] itself.
pub fn parse_bytes(bytes: &[u8]) -> Result<RawFile, ParseError> {
    let mut cache = SchemaCache::disabled();
    let mut out = Decoded::default();
    let envelope = decode_into(bytes, &mut cache, &mut out)?;
    // Nothing was cached, so the envelope holds the only reference to
    // its block and the header takes the schemas instead of copying them.
    Ok(RawFile {
        seq: envelope.seq,
        header: envelope.into_header(),
        samples: out.samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DeviceRecord, PsRecord, SimTimeRepr};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use tacc_simnode::intern::Sym;
    use tacc_simnode::schema::DeviceType;
    use tacc_simnode::topology::CpuArch;
    use tacc_simnode::SimTime;

    #[test]
    fn render_into_appends_and_reuses_capacity() {
        let f = proptest_file("h", vec![("scratch", vec![1, 2])], vec![]);
        let mut buf = Vec::new();
        render_message_into(&f.header, &f.samples[0], None, &mut buf);
        let first = buf.clone();
        let cap = buf.capacity();
        buf.clear();
        render_message_into(&f.header, &f.samples[0], None, &mut buf);
        assert_eq!(buf, first);
        assert_eq!(buf.capacity(), cap, "reuse must not reallocate");
    }

    #[test]
    fn parse_bytes_rejects_invalid_utf8() {
        let e = parse_bytes(&[0x24, 0xFF, 0xFE]).unwrap_err();
        assert!(e.message.contains("UTF-8"), "{e}");
    }

    #[test]
    fn a_second_schema_run_overrides_the_first() {
        // `!` lines may appear anywhere; later ones win, and records
        // are checked against the schemas seen so far.
        let text = "$hostname h\n$arch haswell\n!mdc reqs,E,C,64\n100 -\nmdc a 1\n\
                    !mdc reqs,E,C,64 wait,US,C,64\n!osc reqs,E,C,64\nmdc a 1 2\nosc b 3\n";
        let rf = parse_bytes(text.as_bytes()).unwrap();
        assert_eq!(rf.header.schemas[&DeviceType::Mdc].len(), 2);
        assert_eq!(rf.header.schemas[&DeviceType::Osc].len(), 1);
        assert_eq!(rf.samples[0].devices.len(), 3);
        // The same through a cache that keeps both runs.
        let mut cache = SchemaCache::new();
        let mut out = Decoded::default();
        for _ in 0..2 {
            let env = decode_into(text.as_bytes(), &mut cache, &mut out).unwrap();
            assert_eq!(env.into_header(), rf.header);
            assert_eq!(out.samples, rf.samples);
            assert!(!out.spans[0].canonical, "a `!` line sits inside the span");
        }
        assert_eq!(cache.len(), 2);
        let e = parse_bytes(b"$hostname h\n$arch haswell\n!mdc reqs,E,C,64\n\n!bogus x\n");
        assert_eq!(e.unwrap_err().line, 5, "line numbers count through a run");
    }

    /// Build a one-sample file with the Mdc+Ps schemas.
    fn proptest_file(
        host: &str,
        mdc: Vec<(&str, Vec<u64>)>,
        procs: Vec<(u32, &str, u32)>,
    ) -> RawFile {
        let arch = CpuArch::Haswell;
        let mut schemas = BTreeMap::new();
        if !mdc.is_empty() {
            schemas.insert(DeviceType::Mdc, DeviceType::Mdc.schema(arch));
        }
        if !procs.is_empty() {
            schemas.insert(DeviceType::Ps, DeviceType::Ps.schema(arch));
        }
        let ps_len = DeviceType::Ps.schema(arch).len();
        RawFile {
            header: HostHeader {
                hostname: Sym::new(host),
                arch,
                schemas,
            },
            seq: None,
            samples: vec![Sample {
                time: SimTimeRepr::from(SimTime::from_secs(1_443_657_600)),
                jobids: vec!["3001".to_string()],
                marks: vec!["begin 3001".to_string()],
                devices: mdc
                    .into_iter()
                    .map(|(inst, values)| DeviceRecord {
                        dev_type: DeviceType::Mdc,
                        instance: Sym::new(inst),
                        values: values.into(),
                    })
                    .collect(),
                processes: procs
                    .into_iter()
                    .map(|(pid, comm, uid)| PsRecord {
                        pid,
                        comm: Sym::new(comm),
                        uid,
                        values: vec![0; ps_len].into(),
                    })
                    .collect(),
            }],
        }
    }

    /// Single non-whitespace tokens: instance names, comms, and
    /// hostnames ride the whitespace-delimited wire format, so any
    /// non-whitespace text — including non-ASCII — must round-trip.
    /// The strategy mixes arbitrary identifier-ish tokens with the
    /// nasty cases: non-ASCII scripts, zero-width (whitespace-adjacent)
    /// codepoints, format metacharacters (`$`/`!`/`%`-leading,
    /// digit-leading, device-type-named, bare `-`) — all fine in the
    /// positions these tokens occupy (never at line starts).
    fn spicy_token() -> impl Strategy<Value = String> {
        prop_oneof![
            "[a-zA-Z0-9_./:+-]{1,12}",
            Just("héllo".to_string()),
            Just("名前".to_string()),
            Just("x\u{200b}y".to_string()),
            Just("$seq".to_string()),
            Just("!cpu".to_string()),
            Just("%begin".to_string()),
            Just("-".to_string()),
            Just("0".to_string()),
            Just("mdc".to_string()),
        ]
    }

    proptest! {
        /// The tentpole contract: arbitrary raw files round-trip through
        /// the byte codec, `parse_bytes(render_into(f)) == f`.
        #[test]
        fn roundtrip_arbitrary_files_through_bytes(
            host in spicy_token(),
            insts in collection::vec(spicy_token(), 1..4),
            comms in collection::vec(spicy_token(), 0..3),
            vals in collection::vec(any::<u64>(), 2),
            seq_raw in (any::<bool>(), any::<u64>()),
            t in 1u64..4_000_000_000,
        ) {
            let seq = seq_raw.0.then_some(seq_raw.1);
            let mdc: Vec<(&str, Vec<u64>)> = insts
                .iter()
                .map(|i| (i.as_str(), vals.clone()))
                .collect();
            let procs: Vec<(u32, &str, u32)> = comms
                .iter()
                .enumerate()
                .map(|(i, c)| (i as u32 + 1, c.as_str(), 5000))
                .collect();
            let mut f = proptest_file(&host, mdc, procs);
            f.seq = seq;
            f.samples[0].time = SimTimeRepr::from(SimTime::from_secs(t));
            let mut buf = Vec::new();
            render_file_into(&f, &mut buf);
            let parsed = parse_bytes(&buf).unwrap();
            prop_assert_eq!(parsed, f);
        }

        /// The renderer's integer writer writes any integer exactly as
        /// `Display` does.
        #[test]
        fn push_dec_matches_display_for_arbitrary_values(v in any::<u64>(), shift in 0u32..64) {
            // Shifted so every digit count is drawn, not just 19-20.
            let v = v >> shift;
            let mut buf = Vec::new();
            digits::push_dec(&mut buf, v);
            prop_assert_eq!(buf, v.to_string().into_bytes());
        }
    }
}
