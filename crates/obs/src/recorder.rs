//! The global recorder: runtime toggle, event store and metric entry
//! points.
//!
//! The recorder is a process-wide singleton. When disabled (the default)
//! every entry point reduces to one relaxed atomic load and a branch —
//! nothing is measured, allocated or locked, which is what lets the
//! instrumented binary prove byte-identical `flipper-results/v1` output
//! with tracing on or off. When enabled, spans accumulate in thread-local
//! sheets (see [`mod@crate::span`]) and metrics go through a mutex that is
//! only touched at batch granularity (per counting batch, per cell, per
//! sweep point — never per candidate).

use crate::metrics::MetricsRegistry;
use crate::span::{self, SpanEvent};
use crate::{clock, trace};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

static ENABLED: AtomicBool = AtomicBool::new(false);
static STORE: Mutex<Store> = Mutex::new(Store {
    events: Vec::new(),
    metrics: None,
});

struct Store {
    events: Vec<SpanEvent>,
    // Boxed lazily so the static initializer stays const.
    metrics: Option<Box<MetricsRegistry>>,
}

fn store() -> MutexGuard<'static, Store> {
    // A panic while holding this lock cannot leave the store logically
    // corrupt (it only ever appends), so poisoning is ignored.
    STORE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Is the recorder currently enabled? One relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable the recorder. Pins the clock epoch on first use and claims the
/// first span lane for the calling thread.
pub fn enable() {
    clock::init_epoch();
    span::touch_current_thread();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disable the recorder. Events already sitting in thread-local sheets
/// stay there and are picked up by the next [`drain`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Merge a batch of events from a dying thread sheet into the store.
pub(crate) fn merge_events(events: Vec<SpanEvent>) {
    let mut s = store();
    s.events.extend(events);
}

/// Add `v` to the global counter `name` (no-op while disabled).
pub fn counter_add(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    store()
        .metrics
        .get_or_insert_with(Default::default)
        .counter_add(name, v);
}

/// Set the global gauge `name` to `v` (no-op while disabled).
pub fn gauge_set(name: &'static str, v: i64) {
    if !enabled() {
        return;
    }
    store()
        .metrics
        .get_or_insert_with(Default::default)
        .gauge_set(name, v);
}

/// Record `v` in the global histogram `name` (no-op while disabled).
pub fn observe(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    store()
        .metrics
        .get_or_insert_with(Default::default)
        .observe(name, v);
}

/// Everything the recorder captured since the last drain.
///
/// Events are sorted by start time (ties: longer span first, then lane,
/// then name) so parents precede children within a lane.
#[derive(Debug, Default, Clone)]
pub struct Capture {
    /// Completed span and instant events.
    pub events: Vec<SpanEvent>,
    /// Metrics snapshot.
    pub metrics: MetricsRegistry,
}

/// One row of the per-phase summary: an event name with call count and
/// total duration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Event name (`mine.count`, `view.build`, …).
    pub name: String,
    /// Number of events with this name.
    pub calls: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
}

/// The worker-lane summary of a capture's `exec.shard` spans. Shards of
/// one batch run at the same time on different lanes, so their summed
/// duration is busy time, which can exceed the run's wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneSummary {
    /// Number of `exec.shard` spans.
    pub shards: u64,
    /// Summed shard duration across all lanes, in nanoseconds.
    pub busy_ns: u64,
    /// Longest shard of the run, in nanoseconds.
    pub max_ns: u64,
    /// Median shard of the batch that holds the longest shard, in
    /// nanoseconds: that batch is the one whose imbalance cost the most.
    pub median_ns: u64,
}

impl LaneSummary {
    /// Longest over median shard time; 1.0 when there are no shards.
    pub fn skew(&self) -> f64 {
        if self.median_ns == 0 {
            1.0
        } else {
            self.max_ns as f64 / self.median_ns as f64
        }
    }
}

/// Span name of one exec-pool chunk; see [`crate::shard_span`].
const SHARD_SPAN: &str = "exec.shard";

impl Capture {
    /// Render the capture as `flipper-trace/v1` Chrome trace-event JSON.
    pub fn render_trace(&self) -> String {
        trace::render_chrome_trace(&self.events)
    }

    /// Render the metrics snapshot as `flipper-metrics/v1` text.
    pub fn render_metrics(&self) -> String {
        self.metrics.render()
    }

    /// Aggregate events by name into per-phase totals, longest first
    /// (ties broken by name so the order is reproducible). `exec.shard`
    /// spans are left out: they overlap across worker lanes, so their sum
    /// is not a phase of the run (see [`Capture::lanes`]).
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for ev in self.events.iter().filter(|e| e.name != SHARD_SPAN) {
            let slot = by_name.entry(ev.name).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += ev.dur_ns;
        }
        let mut rows: Vec<PhaseRow> = by_name
            .into_iter()
            .map(|(name, (calls, total_ns))| PhaseRow {
                name: name.to_string(),
                calls,
                total_ns,
            })
            .collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        rows
    }

    /// Summarize the `exec.shard` spans: count, busy time, and the longest
    /// shard against the median of its own batch. Shards of one pool call
    /// share a spawn stamp (`start − queue_ns`); a shard without `queue_ns`
    /// ran inline and is a batch of its own.
    pub fn lanes(&self) -> LaneSummary {
        let mut batches: BTreeMap<(u64, u64), Vec<u64>> = BTreeMap::new();
        let mut summary = LaneSummary::default();
        for ev in self.events.iter().filter(|e| e.name == SHARD_SPAN) {
            let queue = ev.args.iter().find(|(k, _)| *k == "queue_ns");
            let key = match queue {
                Some(&(_, q)) => (ev.start_ns.saturating_sub(q), u64::MAX),
                None => (ev.start_ns, u64::from(ev.lane)),
            };
            batches.entry(key).or_default().push(ev.dur_ns);
            summary.shards += 1;
            summary.busy_ns += ev.dur_ns;
        }
        for mut durs in batches.into_values() {
            durs.sort_unstable();
            let max = durs[durs.len() - 1];
            if max > summary.max_ns {
                let n = durs.len();
                summary.max_ns = max;
                summary.median_ns = if n % 2 == 1 {
                    durs[n / 2]
                } else {
                    (durs[n / 2 - 1] + durs[n / 2]) / 2
                };
            }
        }
        summary
    }
}

/// Take everything recorded so far, leaving the recorder empty (but still
/// enabled if it was enabled).
///
/// Flushes the calling thread's sheet first; worker threads spawned by
/// `flipper_data::exec` have already merged their sheets when their scope
/// exited, so after the pipeline joins its workers this sees every event.
pub fn drain() -> Capture {
    span::flush_current_thread();
    let mut s = store();
    let mut events = std::mem::take(&mut s.events);
    let metrics = s.metrics.take().map(|b| *b).unwrap_or_default();
    drop(s);
    events.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(b.dur_ns.cmp(&a.dur_ns))
            .then(a.lane.cmp(&b.lane))
            .then(a.name.cmp(b.name))
    });
    Capture { events, metrics }
}
