//! `sim-diurnal-1k`: 1000 single-H100 OLMoE replicas, sharded 50 x 20,
//! under about 60k diurnal arrivals with TTFT timeouts, retries and a
//! seeded crash plan. Open loop on the simulated clock: every request is
//! due at its `arrival_s`, so generator lateness is zero by construction.
//!
//! Many replicas with tiny batches put host time in the event heap, the
//! router and the shard merge; there are no prefix groups, no
//! controller, no planner and no engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use moe_cluster::shard::{partition_faults, partition_trace};
use moe_cluster::{
    generate, run_sharded_detailed, ArrivalProcess, ClusterConfig, ClusterReport, ClusterSim,
    FaultPlan, RequestTrace, RoutePolicy, ShardPlan, TenantSpec, TraceSource, WorkloadSpec,
};
use moe_gpusim::perfmodel::PerfModel;
use moe_model::registry::olmoe_1b_7b;
use moe_par::derive_seed;
use moe_runtime::scheduler::SchedulerConfig;
use moe_runtime::simserver::scheduler_config_for;
use moe_trace::Tracer;

use crate::measure::{self, Metric, Outcome};
use crate::probe::{take_agg, AggSink, CountingSource, TimelineAgg};
use crate::sim;

const SHARDS: usize = 50;
const REPLICAS_PER_SHARD: usize = 20;
const REPLICAS: usize = SHARDS * REPLICAS_PER_SHARD;
const REQUESTS: usize = 60_000;
/// TTFT deadline (simulated s) after which the router cancels a request.
const TTFT_TIMEOUT_S: f64 = 2.0;
/// Crash outages over the first 15 simulated seconds, 5 s each.
const CRASHES: usize = 10;
/// Timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Everything one replay needs; built by the timed set-up.
struct Inputs {
    model: PerfModel,
    sched: SchedulerConfig,
    cfg: ClusterConfig,
    plan: ShardPlan,
    faults: FaultPlan,
    trace: RequestTrace,
    gen_s: f64,
}

fn setup(seed: u64) -> Inputs {
    let model = PerfModel::h100(olmoe_1b_7b());
    let sched = scheduler_config_for(&model, 2048);
    let spec = WorkloadSpec {
        arrivals: ArrivalProcess::Diurnal {
            base_qps: 400.0,
            peak_qps: 2000.0,
            period_s: 300.0,
        },
        num_requests: REQUESTS,
        tenants: vec![TenantSpec::uniform("u", 1.0, (128, 512), (16, 64))],
    };
    let (trace, gen_s) = measure::timed(|| generate(&spec, derive_seed(seed, 1)));
    let mut cfg = ClusterConfig {
        replicas: REPLICAS,
        policy: RoutePolicy::LeastOutstanding,
        prefix_capacity: 0,
        seed: derive_seed(seed, 2),
        ..ClusterConfig::default()
    };
    cfg.router.ttft_timeout_s = TTFT_TIMEOUT_S;
    let faults = FaultPlan::random_crashes(derive_seed(seed, 3), REPLICAS, 15.0, CRASHES, 5.0);
    Inputs {
        model,
        sched,
        cfg,
        plan: ShardPlan::single_region(SHARDS, REPLICAS_PER_SHARD),
        faults,
        trace,
        gen_s,
    }
}

fn replay(inp: &Inputs) -> (ClusterReport, Vec<ClusterReport>) {
    run_sharded_detailed(
        &inp.model,
        inp.sched,
        &inp.cfg,
        &inp.plan,
        &inp.faults,
        &inp.trace,
    )
}

/// One shard replay per shard on the `moe-par` pool, each with its own
/// tracer folding the timeline into a [`TimelineAgg`] when `traced`.
/// Used for both sides of the trace-overhead comparison so the two
/// differ only in tracing.
fn replay_probed(inp: &Inputs, traced: bool) -> (ClusterReport, TimelineAgg, u64) {
    let traces = partition_trace(&inp.trace, inp.cfg.seed, SHARDS);
    let faults = partition_faults(&inp.faults, SHARDS, REPLICAS_PER_SHARD);
    let delivered = Arc::new(AtomicU64::new(0));
    let shards = moe_par::map_collect(SHARDS, |s| {
        let mut cfg = inp.cfg;
        cfg.replicas = REPLICAS_PER_SHARD;
        cfg.seed = derive_seed(inp.cfg.seed, s as u64);
        let out = Arc::new(Mutex::new(TimelineAgg::default()));
        let mut tracer = if traced {
            Tracer::new(Box::new(AggSink::new(REPLICAS_PER_SHARD, Arc::clone(&out))))
        } else {
            Tracer::disabled()
        };
        let source =
            CountingSource::new(TraceSource::new(traces[s].clone()), Arc::clone(&delivered));
        let report = ClusterSim::with_source(
            &inp.model,
            inp.sched,
            cfg,
            faults[s].clone(),
            Box::new(source),
        )
        .run(&mut tracer);
        drop(tracer);
        let agg = take_agg(&out).unwrap_or_default().finish(report.makespan_s);
        (report, agg)
    });
    let mut agg = TimelineAgg::default();
    for (_, a) in &shards {
        agg.merge(a);
    }
    let reports: Vec<ClusterReport> = shards.into_iter().map(|(r, _)| r).collect();
    let merged = moe_cluster::shard::merge_reports(&reports);
    (merged, agg, delivered.load(Ordering::Relaxed))
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        workers: moe_par::workers(),
        ..Outcome::default()
    };
    let inp = setup(seed);
    let workers = out.workers;
    out.notes.push(format!(
        "{} requests, {REPLICAS} replicas as {SHARDS} shards x {REPLICAS_PER_SHARD}",
        inp.trace.requests.len()
    ));

    // Output check: a 1-worker replay, outside any timed window, is the
    // reference every other replay must match byte for byte.
    moe_par::set_workers_for_test(1);
    let (reference, shard_reports) = replay(&inp);
    moe_par::set_workers_for_test(0);
    let reference_json = moe_json::to_string(&reference);
    out.check(
        reference.submitted == inp.trace.requests.len(),
        "every generated request was submitted",
    );
    sim::account(&mut out, &reference);

    if !traced {
        let mut replays = 0;
        let mut differ = 0;
        let mut compare = |r: &ClusterReport| {
            replays += 1;
            differ += u64::from(moe_json::to_string(r) != reference_json);
        };
        compare(&replay(&inp).0); // warm-up
        let peak_rss_mb = measure::peak_rss_mb()?;
        let setup_runs = measure::setup_samples(SETUP_REPS, || {
            setup(seed);
            Ok(())
        })?;
        let samples = measure::measured_loop(
            seconds,
            5,
            workers,
            || (),
            |()| Ok(replay(&inp).0),
            |_, r| compare(&r),
        )?;
        out.operations(
            replays,
            differ,
            &format!("{workers}-worker replays serialize identically to the 1-worker replay"),
        );
        out.metrics = measure::host_metrics(&setup_runs, &samples, peak_rss_mb);
        out.metrics.extend(sim::outcome_metrics(&reference));
        return Ok(out);
    }

    // Traced run: untraced and traced probed replays alternate.
    let mut gen_s = Vec::new();
    measure::setup_samples(SETUP_REPS, || {
        gen_s.push(setup(seed).gen_s);
        Ok(())
    })?;
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut agg = TimelineAgg::default();
    let mut delivered = 0;
    let mut differ = 0;
    let mut spent = 0.0;
    while spent < seconds || traced_s.len() < 2 {
        let ((plain, _, _), dt_plain) = measure::timed(|| replay_probed(&inp, false));
        let ((report, a, d), dt_traced) = measure::timed(|| replay_probed(&inp, true));
        differ += u64::from(moe_json::to_string(&plain) != moe_json::to_string(&report));
        plain_s.push(dt_plain);
        traced_s.push(dt_traced);
        spent += dt_plain + dt_traced;
        agg = a;
        delivered = d;
    }
    out.operations(
        traced_s.len() as u64,
        differ,
        "traced shard-by-shard replays serialize identically to their untraced twin",
    );
    out.check(
        delivered == inp.trace.requests.len() as u64,
        "the arrival sources delivered every generated request",
    );
    let events: Vec<f64> = shard_reports.iter().map(|r| r.events as f64).collect();
    out.metrics = sim::outcome_metrics(&reference);
    out.metrics.extend([
        Metric::new("workload.requests", delivered as f64, "count"),
        Metric::sampled("workload.gen_s", measure::median(&gen_s), "s", gen_s.len()),
        Metric::new(
            "cluster.shard_events_max_over_mean",
            measure::ratio(
                events.iter().copied().fold(0.0, f64::max),
                measure::mean(&events),
            ),
            "ratio",
        ),
    ]);
    out.metrics
        .extend(sim::layer_metrics(&reference, &agg, &plain_s, &traced_s));
    Ok(out)
}
