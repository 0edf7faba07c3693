//! Per-op profile from one traced op's spans.
//!
//! The benchmark wraps each op in a `bench.op` span and the calls it makes
//! in `api.open` / `core.mine` / `sink.emit` spans; the program adds its
//! own (`session.ingest`, `view.build`, `store.chunk`, `mine.*`,
//! `exec.shard`). Spans on the op's lane nest by construction (they are
//! RAII guards on one thread), so a span's self time is its duration minus
//! the durations of its direct children, and the self times of every span
//! on the lane sum to the `bench.op` duration. `exec.shard` spans on other
//! lanes are parallel worker time: they feed the shard metrics, not the
//! self-time sum.

use crate::report::SELF_SPANS;
use flipper_obs::SpanEvent;
use std::collections::BTreeMap;

/// What one traced op's spans say.
#[derive(Debug, Clone, Default)]
pub struct OpProfile {
    /// `bench.op` duration, seconds.
    pub job_s: f64,
    /// Self time per [`SELF_SPANS`] name (unknown names fold into
    /// `other`), seconds.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Summed inclusive duration per span name on the op lane, seconds.
    pub inclusive_s: BTreeMap<&'static str, f64>,
    /// Counting `exec.shard` spans (inside a `mine.count` batch), every
    /// lane.
    pub shards: u64,
    /// Summed duration of the counting shards, seconds.
    pub shard_busy_s: f64,
    /// Max / median shard duration within the batch whose longest shard
    /// is longest (1.0 with one shard per batch).
    pub shard_skew: f64,
    /// Events recorded during the op, all lanes.
    pub events: u64,
}

/// Profile the op rooted at the (single) `bench.op` span of `events`.
pub fn profile(events: &[SpanEvent]) -> Result<OpProfile, String> {
    let mut roots = events.iter().filter(|e| e.name == "bench.op");
    let root = roots.next().ok_or("no bench.op span recorded")?;
    if roots.next().is_some() {
        return Err("more than one bench.op span in one capture".into());
    }
    let (start, end) = (root.start_ns, root.start_ns + root.dur_ns);
    let within = |e: &&SpanEvent| e.start_ns >= start && e.start_ns + e.dur_ns <= end;
    let in_op: Vec<&SpanEvent> = events.iter().filter(within).collect();

    let mut p = OpProfile {
        job_s: secs(root.dur_ns),
        events: in_op.len() as u64,
        ..Default::default()
    };
    for name in SELF_SPANS {
        p.self_s.insert(name, 0.0);
    }

    // Sorted by start, longer first on ties, a parent comes before its
    // children.
    let mut lane: Vec<&SpanEvent> = in_op
        .iter()
        .copied()
        .filter(|e| e.lane == root.lane && e.dur_ns > 0)
        .collect();
    lane.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.dur_ns.cmp(&a.dur_ns)));
    let mut self_ns: Vec<i128> = lane.iter().map(|e| i128::from(e.dur_ns)).collect();
    let mut stack: Vec<usize> = Vec::new();
    for (i, e) in lane.iter().enumerate() {
        while let Some(&top) = stack.last() {
            if lane[top].start_ns + lane[top].dur_ns <= e.start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            let pe = lane[parent];
            if e.start_ns + e.dur_ns > pe.start_ns + pe.dur_ns {
                return Err(format!("span {} overlaps its parent {}", e.name, pe.name));
            }
            self_ns[parent] -= i128::from(e.dur_ns);
        }
        stack.push(i);
    }
    for (e, ns) in lane.iter().zip(&self_ns) {
        let key = SELF_SPANS
            .iter()
            .copied()
            .find(|n| *n == e.name)
            .unwrap_or("other");
        *p.self_s.entry(key).or_default() += *ns as f64 / 1e9;
        *p.inclusive_s.entry(e.name).or_default() += secs(e.dur_ns);
    }

    // Counting shards: `exec.shard` spans (any lane) that start inside a
    // `mine.count` batch. Ingest projection chunks also run as exec shards,
    // but they are not counting work.
    let batches: Vec<&SpanEvent> = lane
        .iter()
        .copied()
        .filter(|e| e.name == "mine.count")
        .collect();
    p.shard_skew = 1.0;
    let mut worst_max = 0u64;
    for batch in batches {
        let b_end = batch.start_ns + batch.dur_ns;
        let mut durs: Vec<u64> = in_op
            .iter()
            .filter(|s| {
                s.name == "exec.shard" && s.start_ns >= batch.start_ns && s.start_ns <= b_end
            })
            .map(|s| s.dur_ns)
            .collect();
        p.shards += durs.len() as u64;
        p.shard_busy_s += durs.iter().map(|&d| secs(d)).sum::<f64>();
        durs.sort_unstable();
        let Some(&max) = durs.last() else { continue };
        if max > worst_max {
            worst_max = max;
            let n = durs.len();
            let median = if n % 2 == 1 {
                durs[n / 2] as f64
            } else {
                (durs[n / 2 - 1] + durs[n / 2]) as f64 / 2.0
            };
            p.shard_skew = if median > 0.0 {
                max as f64 / median
            } else {
                1.0
            };
        }
    }
    Ok(p)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, lane: u32, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            name,
            label: None,
            lane,
            start_ns: start,
            dur_ns: dur,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_times_partition_the_op() {
        let events = vec![
            ev("bench.op", 0, 0, 1000),
            ev("core.mine", 0, 100, 800),
            ev("mine.run", 0, 120, 700),
            ev("mine.gen", 0, 130, 200),
            ev("mine.count", 0, 400, 300),
            ev("exec.shard", 0, 410, 250),
            ev("exec.shard", 1, 420, 125),
            ev("view.build", 0, 20, 60),
            ev("exec.shard", 0, 30, 40),
            ev("some.new.span", 0, 950, 10),
            ev("cache.evict", 0, 960, 0),
        ];
        let p = profile(&events).unwrap();
        let total: f64 = p.self_s.values().sum();
        assert!((total - p.job_s).abs() < 1e-15);
        assert_eq!(p.self_s["bench.op"], 130e-9);
        assert_eq!(p.self_s["view.build"], 20e-9);
        assert_eq!(p.self_s["core.mine"], 100e-9);
        assert_eq!(p.self_s["mine.run"], 200e-9);
        assert_eq!(p.self_s["mine.count"], 50e-9);
        // Both lane-0 shards count as self time; only the counting ones
        // (inside mine.count) feed the shard metrics.
        assert_eq!(p.self_s["exec.shard"], 290e-9);
        assert_eq!(p.self_s["other"], 10e-9);
        assert_eq!(p.shards, 2);
        assert_eq!(p.shard_busy_s, 375e-9);
        // Batch durations 250 and 125: max / median = 250 / 187.5.
        assert!((p.shard_skew - 250.0 / 187.5).abs() < 1e-12);
        assert_eq!(p.events, 11);
    }

    #[test]
    fn requires_exactly_one_root() {
        assert!(profile(&[ev("mine.run", 0, 0, 5)]).is_err());
        let two = [ev("bench.op", 0, 0, 5), ev("bench.op", 0, 10, 5)];
        assert!(profile(&two).is_err());
    }
}
