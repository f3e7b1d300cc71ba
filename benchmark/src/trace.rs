//! Outside-in spans: the harness wraps each call into a crate's public
//! function in a span `(stage, start, end, parent, trace id)`; nothing
//! under `crates/` knows. Spans go into one pre-sized in-memory `Vec`
//! and are written out only after the measured window ends.
//!
//! The tracer is a thread-local because one span site — the harness
//! [`tacc_collect::daemon::Publisher`] — is called from *inside*
//! `TaccStatsd::tick` and has no other way to reach it. The load
//! generator is one thread, so one thread-local is the whole story;
//! `SimCluster::advance_all`'s internal worker threads never call back
//! into span sites.

use crate::alloc;
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// Parent index of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

macro_rules! stages {
    ($($variant:ident => $name:literal),* $(,)?) => {
        /// A named span site. The name's prefix is the workspace crate
        /// (layer) the wrapped call belongs to; `probe.*` stages are extra
        /// calls the traced run makes on a seeded sample of work, and
        /// `harness.*` is the benchmark's own bookkeeping.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum Stage { $($variant),* }

        impl Stage {
            /// Every stage, in table order.
            pub const ALL: &'static [Stage] = &[$(Stage::$variant),*];

            /// The stage's printed name.
            pub fn name(self) -> &'static str {
                match self { $(Stage::$variant => $name),* }
            }
        }
    };
}

stages! {
    Tick => "harness.tick",
    Op => "harness.op",
    SimnodeAdvance => "simnode.advance",
    DaemonTick => "collect.daemon_tick",
    BrokerPublish => "broker.publish",
    ConsumerPoll => "collect.consumer_poll",
    TsdbInsert => "tsdb.insert",
    TsdbRecover => "tsdb.recover",
    TsdbRange => "tsdb.range",
    TsdbAggregate => "tsdb.aggregate",
    PortalSearch => "portal.search",
    PortalFig4 => "portal.fig4",
    PortalDetail => "portal.detail",
    PortalExtract => "portal.detail_extract",
    IngestJob => "metrics.ingest_job",
    CoreStep => "core.step",
    ProbePseudofs => "probe.simnode.pseudofs_read",
    ProbeSample => "probe.collect.sample",
    ProbeRender => "probe.collect.codec_render",
    ProbeParse => "probe.collect.codec_parse",
    ProbeArchive => "probe.collect.archive_append",
    ProbeAccum => "probe.metrics.accum_feed",
    ProbeAdvance => "probe.simnode.advance",
    HarnessCheck => "harness.check",
}

/// Span tag: the wrapped call was answered from a cache.
pub const TAG_WARM: u8 = 1;
/// Span tag: the wrapped call missed its cache and recomputed.
pub const TAG_COLD: u8 = 2;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Which call site.
    pub stage: Stage,
    /// Free-form tag set by the site ([`TAG_WARM`], [`TAG_COLD`], 0).
    pub tag: u8,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Tick or operation number the span belongs to.
    pub trace_id: u32,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Allocations counted between start and end.
    pub allocs: u32,
}

impl Span {
    /// Wall duration of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<u32>,
    trace_id: u32,
    paused: bool,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording on this thread, with room for `capacity` spans
/// before the span vector has to grow.
pub fn install(capacity: usize) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            trace_id: 0,
            paused: false,
        });
    });
}

/// Suspend (or resume) recording without discarding what was recorded:
/// for phases that call span sites but belong to no measured leg.
pub fn set_paused(paused: bool) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.paused = paused;
        }
    });
}

/// Stop recording and hand back every span (empty when tracing was
/// never installed).
pub fn take() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Whether this thread is recording (installed and not paused).
pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().as_ref().is_some_and(|t| !t.paused))
}

/// Set the tick / operation number stamped on subsequent spans.
pub fn set_trace_id(id: u32) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.trace_id = id;
        }
    });
}

/// Open a span; it closes when the guard drops. A no-op (no clock
/// read) when tracing is off.
pub fn span(stage: Stage) -> SpanGuard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(t) = t.as_mut().filter(|t| !t.paused) else {
            return SpanGuard { idx: NO_PARENT };
        };
        let idx = t.spans.len() as u32;
        let parent = t.open.last().copied().unwrap_or(NO_PARENT);
        t.open.push(idx);
        let allocs = alloc::count() as u32;
        let trace_id = t.trace_id;
        // The clock is read last on the way in and first on the way
        // out, so the tracer's own bookkeeping stays outside the span.
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            stage,
            tag: 0,
            parent,
            trace_id,
            start_ns,
            end_ns: start_ns,
            allocs,
        });
        SpanGuard { idx }
    })
}

/// Closes its span on drop.
pub struct SpanGuard {
    idx: u32,
}

impl SpanGuard {
    /// Tag the span (e.g. cache hit vs. miss) before it closes.
    pub fn tag(&mut self, tag: u8) {
        if self.idx == NO_PARENT {
            return;
        }
        TRACER.with(|t| {
            if let Some(s) = t
                .borrow_mut()
                .as_mut()
                .and_then(|t| t.spans.get_mut(self.idx as usize))
            {
                s.tag = tag;
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.idx == NO_PARENT {
            return;
        }
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let Some(t) = t.as_mut() else { return };
            let end_ns = t.epoch.elapsed().as_nanos() as u64;
            let now_allocs = alloc::count() as u32;
            if let Some(s) = t.spans.get_mut(self.idx as usize) {
                s.end_ns = end_ns;
                s.allocs = now_allocs.wrapping_sub(s.allocs);
            }
            // Guards drop innermost-first, so the top of the stack is
            // this span.
            t.open.pop();
        });
    }
}

/// Per-span self time: duration minus the part its direct children
/// cover. Children of one parent never overlap (one thread), so their
/// durations add; the subtraction saturates so a clock hiccup cannot
/// produce a negative share.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(slot) = child_ns.get_mut(s.parent as usize) {
            *slot += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

/// One row of the stage table.
#[derive(Clone, Debug)]
pub struct StageRow {
    /// The stage.
    pub stage: Stage,
    /// Spans recorded.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span self times.
    pub self_ns: u64,
    /// Sum of allocations inside the spans (children included).
    pub allocs: u64,
    /// Ascending span durations.
    pub durs: Vec<f64>,
}

impl StageRow {
    /// Mean span duration in ns (0 with no calls).
    pub fn avg_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }

    /// Mean self time per call in ns (0 with no calls).
    pub fn self_avg_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }

    /// Mean allocations per call (0 with no calls).
    pub fn allocs_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.allocs as f64 / self.calls as f64
        }
    }
}

/// Group spans by stage.
pub fn summarize(spans: &[Span]) -> Vec<StageRow> {
    let selfs = self_times(spans);
    let mut rows: Vec<StageRow> = Stage::ALL
        .iter()
        .map(|&stage| StageRow {
            stage,
            calls: 0,
            total_ns: 0,
            self_ns: 0,
            allocs: 0,
            durs: Vec::new(),
        })
        .collect();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let Some(row) = rows.get_mut(s.stage as usize) else {
            continue;
        };
        row.calls += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += self_ns;
        row.allocs += u64::from(s.allocs);
        row.durs.push(s.dur_ns() as f64);
    }
    for row in &mut rows {
        crate::stats::sort(&mut row.durs);
    }
    rows
}

/// The row of one stage (every stage has one, possibly empty).
pub fn row(rows: &[StageRow], stage: Stage) -> &StageRow {
    &rows[stage as usize]
}

/// Sum of the durations of top-level spans (those with no parent).
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(Span::dur_ns)
        .sum()
}

fn human_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

impl Stage {
    /// The root span the harness opens around one tick or one
    /// operation: its *self* time is what no named stage accounts for.
    pub fn is_root(self) -> bool {
        matches!(self, Stage::Tick | Stage::Op)
    }
}

/// Share of root-span time (ticks, operations) that no child span
/// covers — the residue of the time-conservation identity.
pub fn unattributed_share(rows: &[StageRow]) -> f64 {
    let (total, own) = rows
        .iter()
        .filter(|r| r.stage.is_root())
        .fold((0u64, 0u64), |(t, s), r| (t + r.total_ns, s + r.self_ns));
    own as f64 / total.max(1) as f64
}

/// The `renacer -c`-shaped stage table: one row per stage that ran,
/// `% wall` from self time so the column adds up, and a final
/// unattributed row (the root spans' self time) closing the
/// time-conservation identity `Σ self + unattributed == wall`, where
/// `wall_ns` is the sum of all top-level spans.
pub fn render_table(rows: &[StageRow], wall_ns: u64) -> String {
    let mut out = format!(
        "{:<30} {:>9} {:>11} {:>11} {:>10} {:>10} {:>10} {:>11} {:>7}\n",
        "Stage", "Calls", "Total", "Self", "Avg", "p50", "p95", "Allocs/call", "% wall"
    );
    let wall = wall_ns.max(1) as f64;
    let mut attributed = 0u64;
    for r in rows.iter().filter(|r| r.calls > 0 && !r.stage.is_root()) {
        attributed += r.self_ns;
        let p50 = crate::stats::median_sorted(&r.durs);
        let p95 = crate::stats::percentile(&r.durs, 0.95)
            .map(human_ns)
            .unwrap_or_else(|_| "-".to_string());
        out.push_str(&format!(
            "{:<30} {:>9} {:>11} {:>11} {:>10} {:>10} {:>10} {:>11.2} {:>6.2}%\n",
            r.stage.name(),
            r.calls,
            human_ns(r.total_ns as f64),
            human_ns(r.self_ns as f64),
            human_ns(r.avg_ns()),
            human_ns(p50),
            p95,
            r.allocs_per_call(),
            100.0 * r.self_ns as f64 / wall,
        ));
    }
    let unattributed = wall_ns.saturating_sub(attributed);
    out.push_str(&format!(
        "{:<30} {:>9} {:>11} {:>11} {:>10} {:>10} {:>10} {:>11} {:>6.2}%\n",
        "(unattributed)",
        "",
        "",
        human_ns(unattributed as f64),
        "",
        "",
        "",
        "",
        100.0 * unattributed as f64 / wall,
    ));
    out
}

/// Write spans as JSON lines: `name, start_ns, end_ns, parent,
/// trace_id` (plus the tag and allocation count).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"trace_id\":{},\"tag\":{},\"allocs\":{}}}",
            s.stage.name(),
            s.start_ns,
            s.end_ns,
            parent,
            s.trace_id,
            s.tag,
            s.allocs
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _ = take();
        {
            let mut g = span(Stage::CoreStep);
            g.tag(TAG_WARM);
        }
        assert!(!enabled());
        assert!(take().is_empty());
    }

    #[test]
    fn child_coverage_never_exceeds_parent() {
        install(64);
        for tick in 0..4u32 {
            set_trace_id(tick);
            let _outer = span(Stage::DaemonTick);
            spin(20_000);
            for _ in 0..3 {
                let _inner = span(Stage::BrokerPublish);
                spin(10_000);
            }
        }
        let spans = take();
        assert_eq!(spans.len(), 16);
        let selfs = self_times(&spans);
        for (i, s) in spans.iter().enumerate() {
            assert!(s.end_ns >= s.start_ns);
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == i as u32)
                .map(Span::dur_ns)
                .sum();
            assert!(children <= s.dur_ns(), "children cover more than span {i}");
            assert_eq!(selfs[i], s.dur_ns() - children);
            if s.stage == Stage::BrokerPublish {
                let p = &spans[s.parent as usize];
                assert_eq!(p.stage, Stage::DaemonTick);
                assert_eq!(p.trace_id, s.trace_id);
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            } else {
                assert_eq!(s.parent, NO_PARENT);
            }
        }
        // Time conservation: self times of all spans add up to the
        // top-level total.
        let rows = summarize(&spans);
        let self_sum: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(self_sum, top_level_ns(&spans));
        assert_eq!(row(&rows, Stage::BrokerPublish).calls, 12);
        let table = render_table(&rows, top_level_ns(&spans) + 1000);
        assert!(table.contains("collect.daemon_tick"));
        assert!(table.contains("(unattributed)"));
    }

    #[test]
    fn self_time_saturates_instead_of_going_negative() {
        let spans = [
            Span {
                stage: Stage::DaemonTick,
                tag: 0,
                parent: NO_PARENT,
                trace_id: 0,
                start_ns: 0,
                end_ns: 10,
                allocs: 0,
            },
            Span {
                stage: Stage::BrokerPublish,
                tag: 0,
                parent: 0,
                trace_id: 0,
                start_ns: 0,
                end_ns: 15,
                allocs: 0,
            },
        ];
        assert_eq!(self_times(&spans), vec![0, 15]);
    }
}
