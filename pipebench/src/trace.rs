//! In-memory span recorder for the traced run.
//!
//! A span is one call the benchmark makes into a layer: its name
//! (`<layer>.<operation>`, where the layer is a workspace crate), its start
//! and end relative to the recorder's epoch, the span that caused it and
//! the workload item it belongs to. Counters recorded at the same call
//! sites (documents scored, rows returned, cache hits) sit beside the
//! spans, so ratios are measured where the work happens. Spans stay in
//! memory until the run ends and are then written out as one TSV file.
//!
//! Self time is a span's duration minus the time its child spans cover.
//! Batches are the one cross-thread case: a `pool.batch` span holds one
//! lane per worker, its items run on other threads, and its self time is
//! the lane time no item covered — the time the pool waited on its
//! slowest part.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::time::Instant;

use bp_storage::{available_threads, batch_map};

/// Name of the span that wraps every batch fanned out on the worker pool.
pub const BATCH_SPAN: &str = "pool.batch";

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Workload item the span belongs to.
    pub item: usize,
    /// Worker lanes the span holds: the pool size for a batch, else 1.
    pub lanes: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans and counters for one thread of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    item: usize,
    counters: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_epoch(Instant::now(), 0)
    }
}

impl Tracer {
    fn with_epoch(epoch: Instant, item: usize) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            item,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds since the recorder started.
    pub fn elapsed_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Attribute the spans that follow to workload item `item`.
    pub fn set_item(&mut self, item: usize) {
        self.item = item;
    }

    fn open_span(&mut self, name: &'static str, lanes: u64) -> usize {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            item: self.item,
            lanes,
        });
        self.open.push(index);
        index
    }

    fn close_span(&mut self, index: usize) {
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
    }

    /// Run `body` inside a span named `name`; spans `body` opens become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.open_span(name, 1);
        let out = body(self);
        self.close_span(index);
        out
    }

    /// Add `delta` to counter `name`.
    pub fn count(&mut self, name: &'static str, delta: f64) {
        *self.counters.entry(name).or_insert(0.0) += delta;
    }

    /// `bp_storage::batch_map` at the machine's thread count, traced: one
    /// `pool.batch` span on this thread, and each item's spans recorded on
    /// its worker and merged back as children of the batch span.
    pub fn batch<R, F>(&mut self, count: usize, work: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut Tracer) -> R + Sync,
    {
        let threads = available_threads();
        let lanes = u64::try_from(threads.min(count).max(1)).unwrap_or(1);
        let epoch = self.epoch;
        let batch = self.open_span(BATCH_SPAN, lanes);
        let results = batch_map(threads, count, |index| {
            let mut local = Tracer::with_epoch(epoch, index);
            let value = work(index, &mut local);
            Ok::<_, Infallible>((value, local))
        })
        .unwrap_or_else(|never: Infallible| match never {});
        self.close_span(batch);
        let mut out = Vec::with_capacity(results.len());
        for (value, local) in results {
            let offset = self.spans.len();
            for mut span in local.spans {
                span.parent = Some(span.parent.map_or(batch, |parent| parent + offset));
                self.spans.push(span);
            }
            for (name, value) in local.counters {
                self.count(name, value);
            }
            out.push(value);
        }
        out
    }

    /// Summarize the recorded spans of a pass that took `wall_ns`.
    pub fn profile(&self, wall_ns: u64) -> Profile {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut profile = Profile {
            capacity_ns: wall_ns,
            counters: self.counters.clone(),
            ..Profile::default()
        };
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let duration = span.duration_ns();
            let held = duration * span.lanes;
            let self_ns = held.saturating_sub(*children);
            if span.lanes > 1 {
                profile.capacity_ns += duration * (span.lanes - 1);
            }
            if span.name == BATCH_SPAN {
                profile.batch_lane_ns += held;
            }
            let entry = profile.by_name.entry(span.name).or_default();
            entry.calls += 1;
            entry.busy_ns += duration;
            entry.self_ns += self_ns;
            entry.max_ns = entry.max_ns.max(duration);
        }
        profile
    }

    /// The spans as TSV: index, name, start, end, parent, item.
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\titem\n");
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{index}\t{}\t{}\t{}\t{parent}\t{}",
                span.name, span.start_ns, span.end_ns, span.item
            );
        }
        out
    }
}

/// Totals of every span that shares one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Number of spans.
    pub calls: u64,
    /// Summed durations.
    pub busy_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

/// The per-layer summary of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Lane time of the pass: wall time plus the extra lanes batches held.
    pub capacity_ns: u64,
    /// Lane time held by batches.
    pub batch_lane_ns: u64,
    /// Span totals per span name.
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Summed counters.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Profile {
    /// Totals for span `name` (zero when the pass never made that call).
    pub fn name(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Counter `name` (zero when never recorded).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Self time per layer (the span-name prefix before the first dot).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut layers = BTreeMap::new();
        for (name, totals) in &self.by_name {
            let layer = name.split('.').next().unwrap_or(name);
            *layers.entry(layer).or_insert(0) += totals.self_ns;
        }
        layers
    }

    /// Σ named self time ÷ lane time of the pass.
    pub fn coverage(&self) -> f64 {
        let named: u64 = self.by_name.values().map(|t| t.self_ns).sum();
        ratio(named as f64, self.capacity_ns as f64)
    }

    /// Idle lane time of batches ÷ the lane time they held.
    pub fn pool_idle_frac(&self) -> f64 {
        ratio(
            self.name(BATCH_SPAN).self_ns as f64,
            self.batch_lane_ns as f64,
        )
    }
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// FNV-1a 64 over everything written into it: the output digest that must
/// agree between passes and between the untraced and traced runs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, text: &str) -> std::fmt::Result {
        for byte in text.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::default();
        tracer.span("core.outer", |t| {
            spin(200);
            t.span("sql.inner", |_| spin(400));
        });
        let profile = tracer.profile(tracer.elapsed_ns());
        let outer = profile.name("core.outer");
        let inner = profile.name("sql.inner");
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.self_ns + inner.busy_ns, outer.busy_ns);
        assert!(profile.coverage() > 0.5 && profile.coverage() <= 1.0);
    }

    #[test]
    fn batch_items_are_children_of_the_batch_span() {
        let mut tracer = Tracer::default();
        let out = tracer.batch(8, |index, t| {
            t.count("test.items", 1.0);
            t.span("llm.item", |_| index * 2)
        });
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        let profile = tracer.profile(tracer.elapsed_ns());
        assert_eq!(profile.name("llm.item").calls, 8);
        assert_eq!(profile.counter("test.items"), 8.0);
        let idle = profile.pool_idle_frac();
        assert!((0.0..=1.0).contains(&idle));
    }
}
