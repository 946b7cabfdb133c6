//! Metrics both cluster workloads read off a `ClusterReport` and its
//! simulated timeline. Every `sim_*` value is simulated time or a
//! simulated outcome; everything else is host time or a count.

use moe_cluster::ClusterReport;

use crate::measure::{self, Metric, Outcome};
use crate::probe::TimelineAgg;

/// TTFT bound of the serving SLO (simulated s).
pub const TTFT_SLO_S: f64 = 0.1;

/// Simulated failure accounting: a submitted request fails when it
/// timed out, was dropped or was rejected; `fail_frac` is their share.
pub fn account(out: &mut Outcome, r: &ClusterReport) {
    let failed = r.timed_out + r.dropped + r.rejected;
    out.notes.push(format!(
        "simulated requests: {} submitted, {} completed, {} failed ({} timed out, {} dropped, {} rejected)",
        r.submitted, r.completed, failed, r.timed_out, r.dropped, r.rejected
    ));
    out.check(
        r.completed + failed == r.submitted,
        "every submitted request completed or failed exactly once",
    );
}

/// The simulated end-to-end outcome of one replay.
pub fn outcome_metrics(r: &ClusterReport) -> Vec<Metric> {
    let failed = (r.timed_out + r.dropped + r.rejected) as f64;
    let ttft_n = r.ttft_hist.count() as usize;
    vec![
        Metric::new(
            "fail_frac",
            measure::ratio(failed, r.submitted as f64),
            "frac",
        ),
        Metric::sampled("sim_ttft_p50_s", r.ttft.p50_s, "sim_s", ttft_n),
        Metric::sampled("sim_ttft_p99_s", r.ttft.p99_s, "sim_s", ttft_n),
        Metric::sampled(
            "sim_itl_p99_s",
            r.itl.p99_s,
            "sim_s",
            r.itl_hist.count() as usize,
        ),
        Metric::sampled(
            "sim_slo_attainment",
            r.slo_attainment(TTFT_SLO_S),
            "frac",
            r.submitted,
        ),
        Metric::new(
            "sim_cost_dev_s_per_mtok",
            measure::ratio(r.device_seconds * 1e6, r.completed_tokens as f64),
            "dev-s/Mtok",
        ),
    ]
}

/// Event-core, router and replica layer metrics, plus the tracing
/// overhead from alternating untraced (`plain_s`) and traced replays.
pub fn layer_metrics(
    r: &ClusterReport,
    agg: &TimelineAgg,
    plain_s: &[f64],
    traced_s: &[f64],
) -> Vec<Metric> {
    let run_s = measure::median(plain_s);
    let events = r.events as f64;
    let completed: Vec<f64> = r.per_replica_completed.iter().map(|&c| c as f64).collect();
    vec![
        Metric::new("cluster.events", events, "count"),
        Metric::sampled(
            "cluster.events_per_s",
            measure::ratio(events, run_s),
            "1/s",
            plain_s.len(),
        ),
        Metric::sampled(
            "cluster.ns_per_event",
            measure::ratio(run_s * 1e9, events),
            "ns",
            plain_s.len(),
        ),
        Metric::new("cluster.peak_live", r.peak_live as f64, "count"),
        Metric::new("cluster.retries", r.retries as f64, "count"),
        Metric::new("cluster.timed_out", r.timed_out as f64, "count"),
        Metric::new("cluster.dropped", r.dropped as f64, "count"),
        Metric::new("cluster.rejected", r.rejected as f64, "count"),
        Metric::new("router.prefix_hit_rate", r.prefix_hit_rate(), "frac"),
        Metric::new(
            "router.completed_max_over_mean",
            measure::ratio(
                completed.iter().copied().fold(0.0, f64::max),
                measure::mean(&completed),
            ),
            "ratio",
        ),
        Metric::new(
            "router.queue_depth_p99",
            agg.queue_depth_percentile(99.0),
            "count",
        ),
        Metric::new(
            "replica.outstanding_p99",
            agg.outstanding_percentile(99.0),
            "count",
        ),
        Metric::new(
            "replica.busy_frac",
            measure::ratio(agg.step_busy_s, agg.ready_s),
            "frac",
        ),
        Metric::sampled(
            "trace.overhead_frac",
            measure::ratio(measure::median(traced_s), run_s) - 1.0,
            "frac",
            traced_s.len(),
        ),
    ]
}
