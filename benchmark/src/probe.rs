//! Layer probes that sit outside the program: timing and counting
//! wrappers around its public `ControlHook` and `ArrivalSource` traits,
//! and a `moe-trace` sink that folds the cluster's simulated timeline
//! into per-layer aggregates as it is recorded.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use moe_cluster::workload::ClusterRequest;
use moe_cluster::{
    ArrivalSource, ControlAction, ControlHook, ControlObs, CONTROL_TRACK, REPLICA_TRACK_BASE,
};
use moe_trace::{ArgValue, Category, TraceEvent, TraceSink};

/// A control hook that records the host time of every tick, in µs.
#[derive(Debug)]
pub struct TimedHook<H> {
    inner: H,
    ticks_us: Rc<RefCell<Vec<f64>>>,
}

impl<H> TimedHook<H> {
    pub fn new(inner: H, ticks_us: Rc<RefCell<Vec<f64>>>) -> Self {
        Self { inner, ticks_us }
    }
}

impl<H: ControlHook> ControlHook for TimedHook<H> {
    fn tick(&mut self, obs: &ControlObs) -> Vec<ControlAction> {
        let t0 = Instant::now();
        let actions = self.inner.tick(obs);
        self.ticks_us
            .borrow_mut()
            .push(t0.elapsed().as_secs_f64() * 1e6);
        actions
    }
}

/// An arrival source that counts the requests it delivers.
#[derive(Debug)]
pub struct CountingSource<S> {
    inner: S,
    delivered: Arc<AtomicU64>,
}

impl<S> CountingSource<S> {
    pub fn new(inner: S, delivered: Arc<AtomicU64>) -> Self {
        Self { inner, delivered }
    }
}

impl<S: ArrivalSource> ArrivalSource for CountingSource<S> {
    fn next_request(&mut self) -> Option<ClusterRequest> {
        let req = self.inner.next_request();
        if req.is_some() {
            // A statistic read after the run; it publishes no other data.
            self.delivered.fetch_add(1, Ordering::Relaxed);
        }
        req
    }
}

/// Per-layer aggregates read off one cluster's simulated timeline.
#[derive(Debug, Default, Clone)]
pub struct TimelineAgg {
    /// Simulated seconds the router queue spent at each depth.
    queue_depth_s: BTreeMap<u64, f64>,
    /// Simulated replica-seconds ready replicas spent at each count of
    /// outstanding requests.
    outstanding_s: BTreeMap<u64, f64>,
    /// Simulated seconds replicas spent executing steps.
    pub step_busy_s: f64,
    /// Simulated seconds replicas were ready to serve (ready → retire,
    /// preemption or end of run).
    pub ready_s: f64,
    last_depth: Option<(f64, u64)>,
    last_outstanding: BTreeMap<i64, (f64, u64)>,
    ready_since: BTreeMap<i64, f64>,
}

impl TimelineAgg {
    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Counter { name, t_s, value } if name == "router-queue-depth" => {
                if let Some((t0, depth)) = self.last_depth {
                    *self.queue_depth_s.entry(depth).or_insert(0.0) += t_s - t0;
                }
                self.last_depth = Some((*t_s, value.max(0.0) as u64));
            }
            TraceEvent::Counter { name, t_s, value } => {
                let Some(r) = name
                    .strip_prefix("outstanding-r")
                    .and_then(|i| i.parse::<i64>().ok())
                else {
                    return;
                };
                let prev = self
                    .last_outstanding
                    .insert(r, (*t_s, value.max(0.0) as u64));
                if let Some((t0, n)) = prev {
                    if self.ready_since.contains_key(&r) {
                        *self.outstanding_s.entry(n).or_insert(0.0) += t_s - t0;
                    }
                }
            }
            TraceEvent::Span {
                cat: Category::Step,
                track,
                dur_s,
                ..
            } if *track >= REPLICA_TRACK_BASE => self.step_busy_s += dur_s,
            TraceEvent::Instant {
                name,
                track,
                t_s,
                args,
                ..
            } => {
                let replica = if *track == CONTROL_TRACK {
                    args.iter().find_map(|(k, v)| match (k, v) {
                        (&"replica", ArgValue::Int(i)) => Some(*i),
                        _ => None,
                    })
                } else {
                    track.checked_sub(REPLICA_TRACK_BASE).map(i64::from)
                };
                match (name.as_str(), replica) {
                    ("ready", Some(r)) if *track == CONTROL_TRACK => {
                        self.ready_since.insert(r, *t_s);
                    }
                    ("retire", Some(r)) if *track == CONTROL_TRACK => self.close(r, *t_s),
                    ("preempt", Some(r)) if *track != CONTROL_TRACK => self.close(r, *t_s),
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn close(&mut self, replica: i64, t_s: f64) {
        if let Some(t0) = self.ready_since.remove(&replica) {
            self.ready_s += t_s - t0;
        }
    }

    /// Close every replica still serving at `end_s` (the makespan).
    pub fn finish(mut self, end_s: f64) -> Self {
        let open: Vec<i64> = self.ready_since.keys().copied().collect();
        for r in open {
            self.close(r, end_s);
        }
        self
    }

    /// Fold another cluster's (shard's) aggregates into this one.
    pub fn merge(&mut self, other: &TimelineAgg) {
        for (depth, s) in &other.queue_depth_s {
            *self.queue_depth_s.entry(*depth).or_insert(0.0) += s;
        }
        for (n, s) in &other.outstanding_s {
            *self.outstanding_s.entry(*n).or_insert(0.0) += s;
        }
        self.step_busy_s += other.step_busy_s;
        self.ready_s += other.ready_s;
    }

    /// Smallest router queue depth the queue stayed at or below for
    /// `p` percent of simulated time.
    pub fn queue_depth_percentile(&self, p: f64) -> f64 {
        time_percentile(&self.queue_depth_s, p)
    }

    /// Smallest outstanding-request count a ready replica stayed at or
    /// below for `p` percent of replica time.
    pub fn outstanding_percentile(&self, p: f64) -> f64 {
        time_percentile(&self.outstanding_s, p)
    }
}

/// Smallest key whose cumulative time share reaches `p` percent.
fn time_percentile(time_at: &BTreeMap<u64, f64>, p: f64) -> f64 {
    let total: f64 = time_at.values().sum();
    let mut acc = 0.0;
    for (value, s) in time_at {
        acc += s;
        if acc >= total * p / 100.0 {
            return *value as f64;
        }
    }
    0.0
}

/// A trace sink that aggregates instead of storing: memory stays flat
/// however many events a run emits. The aggregate is handed to `out`
/// when the sink (with its tracer) is dropped.
pub struct AggSink {
    agg: TimelineAgg,
    out: Arc<Mutex<TimelineAgg>>,
}

impl AggSink {
    /// A sink for a cluster whose first `initial_replicas` slots serve
    /// from t = 0.
    pub fn new(initial_replicas: usize, out: Arc<Mutex<TimelineAgg>>) -> Self {
        let mut agg = TimelineAgg::default();
        for r in 0..initial_replicas {
            agg.ready_since
                .insert(i64::try_from(r).unwrap_or(i64::MAX), 0.0);
        }
        Self { agg, out }
    }
}

impl TraceSink for AggSink {
    fn record(&mut self, event: TraceEvent) {
        self.agg.record(&event);
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

impl Drop for AggSink {
    fn drop(&mut self) {
        // A poisoned lock means the reader already failed; nothing to do.
        if let Ok(mut out) = self.out.lock() {
            *out = std::mem::take(&mut self.agg);
        }
    }
}

/// Take the aggregate a dropped [`AggSink`] left behind.
pub fn take_agg(out: &Arc<Mutex<TimelineAgg>>) -> Result<TimelineAgg, String> {
    out.lock()
        .map(|mut g| std::mem::take(&mut *g))
        .map_err(|_| "trace aggregate lock poisoned".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_depth_is_time_weighted() {
        let mut agg = TimelineAgg::default();
        for (t, v) in [(0.0, 0.0), (9.0, 5.0), (10.0, 0.0), (20.0, 0.0)] {
            agg.record(&TraceEvent::Counter {
                name: "router-queue-depth".into(),
                t_s: t,
                value: v,
            });
        }
        // 19 s at depth 0, 1 s at depth 5.
        assert!(agg.queue_depth_percentile(90.0).abs() < 1e-12);
        assert!((agg.queue_depth_percentile(99.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ready_time_runs_from_ready_to_retire_or_end() {
        let out = Arc::new(Mutex::new(TimelineAgg::default()));
        let mut sink = AggSink::new(2, Arc::clone(&out));
        sink.record(TraceEvent::Instant {
            name: "retire".into(),
            cat: Category::Sched,
            track: CONTROL_TRACK,
            t_s: 4.0,
            args: vec![("replica", ArgValue::Int(1))],
        });
        drop(sink);
        let agg = take_agg(&out).unwrap().finish(10.0);
        assert!((agg.ready_s - 14.0).abs() < 1e-12);
    }
}
