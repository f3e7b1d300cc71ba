//! The one portal query client both `portal_read` and `system_live`
//! drive: a `QueryCache` plus the bookkeeping of timing each search and
//! Fig. 4 request, splitting it by hit or miss, and checking the answer
//! against the harness reference after the clock stops.

use crate::common::Outcome;
use crate::reference::{self, Expected};
use crate::trace::{self, Stage, TAG_COLD, TAG_WARM};
use std::collections::BTreeMap;
use std::time::Instant;
use tacc_jobdb::table::Table;
use tacc_portal::cache::QueryCache;
use tacc_portal::search::SearchSpec;

/// A `QueryCache` and what its client has seen of it.
pub struct PortalClient {
    /// The cache under test.
    pub cache: QueryCache,
    // Operation walls in µs, split by the miss delta in `QueryCache::stats`.
    search_cold: Vec<f64>,
    search_warm: Vec<f64>,
    fig4_cold: Vec<f64>,
    fig4_warm: Vec<f64>,
    rows_returned: u64,
    rows_scanned: u64,
}

impl PortalClient {
    /// A client of `cache`.
    pub fn new(cache: QueryCache) -> PortalClient {
        PortalClient {
            cache,
            search_cold: Vec::new(),
            search_warm: Vec::new(),
            fig4_cold: Vec::new(),
            fig4_warm: Vec::new(),
            rows_returned: 0,
            rows_scanned: 0,
        }
    }

    /// Forget what was seen so far (the end of a warm-up).
    pub fn reset(&mut self) {
        let cache = std::mem::take(&mut self.cache);
        *self = PortalClient::new(cache);
    }

    /// Run `f` against the cache inside an operation root span and a
    /// `stage` span tagged warm or cold. A Fig. 4 miss may also miss (and
    /// store) the row set, so "cold" is any new miss.
    fn timed<R>(&mut self, stage: Stage, f: impl FnOnce(&mut QueryCache) -> R) -> (R, u64, bool) {
        let misses_before = self.cache.stats().misses;
        let t = Instant::now();
        let root = trace::span(Stage::Op);
        let mut span = trace::span(stage);
        let answer = f(&mut self.cache);
        let cold = self.cache.stats().misses != misses_before;
        span.tag(if cold { TAG_COLD } else { TAG_WARM });
        drop(span);
        drop(root);
        (answer, t.elapsed().as_nanos() as u64, cold)
    }

    /// One `QueryCache::search`, checked against `want`. Returns its
    /// wall nanoseconds.
    pub fn search(
        &mut self,
        spec: &SearchSpec,
        want: &Expected,
        table: &Table,
        watermark: u64,
        now_secs: u64,
        out: &mut Outcome,
    ) -> u64 {
        let (list, ns, cold) = self.timed(Stage::PortalSearch, |cache| {
            cache.search(spec, table, None, watermark, now_secs)
        });
        out.attempted += 1;
        let split = if cold {
            &mut self.search_cold
        } else {
            &mut self.search_warm
        };
        split.push(ns as f64 / 1e3);
        match list {
            Ok(list) => {
                let ck = reference::id_checksum(table, list.rows());
                self.rows_returned += list.len() as u64;
                if cold {
                    self.rows_scanned += table.len() as u64;
                }
                out.check(list.len() == want.len && ck == want.id_checksum, || {
                    format!(
                        "search {spec:?} at watermark {watermark}: {} jobs (checksum {ck:x}), \
                         reference {} ({:x})",
                        list.len(),
                        want.len,
                        want.id_checksum
                    )
                });
            }
            Err(e) => out.violation(format!("search {spec:?} failed: {e}")),
        }
        ns
    }

    /// One `QueryCache::fig4`, its panel totals checked against `want`.
    /// Returns its wall nanoseconds.
    pub fn fig4(
        &mut self,
        spec: &SearchSpec,
        want: &Expected,
        table: &Table,
        watermark: u64,
        now_secs: u64,
        out: &mut Outcome,
    ) -> u64 {
        let (panels, ns, cold) = self.timed(Stage::PortalFig4, |cache| {
            cache.fig4(spec, table, None, watermark, now_secs)
        });
        out.attempted += 1;
        let split = if cold {
            &mut self.fig4_cold
        } else {
            &mut self.fig4_warm
        };
        split.push(ns as f64 / 1e3);
        match panels {
            Ok(p) => {
                let got = [
                    p.runtime.total(),
                    p.nodes.total(),
                    p.queue_wait.total(),
                    p.metadata_reqs.total(),
                ];
                out.check(got == want.panel_totals, || {
                    format!(
                        "fig4 {spec:?} at watermark {watermark}: panel totals {got:?}, reference {:?}",
                        want.panel_totals
                    )
                });
            }
            Err(e) => out.violation(format!("fig4 {spec:?} failed: {e}")),
        }
        ns
    }

    /// The `portal.*` per-layer values this client can speak for.
    pub fn layer(&self, l: &mut BTreeMap<&'static str, f64>) {
        let median = crate::stats::median;
        l.insert("portal.search.us_p50_cold", median(&self.search_cold));
        l.insert("portal.search.us_p50_warm", median(&self.search_warm));
        l.insert("portal.fig4.us_p50_cold", median(&self.fig4_cold));
        l.insert("portal.fig4.us_p50_warm", median(&self.fig4_warm));
        l.insert(
            "portal.search.rows_scanned_per_row_returned",
            self.rows_scanned as f64 / self.rows_returned.max(1) as f64,
        );
    }
}
