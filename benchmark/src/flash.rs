//! `ctrl-flash-day`: one unsharded serving day of OLMoE-1B-7B/H100 —
//! a diurnal ramp plus a 3200-qps flash crowd, about 147.5k requests over
//! 153 simulated seconds. Open loop on the simulated clock: every request
//! is due at its `arrival_s`, so generator lateness is zero by
//! construction.
//!
//! The fleet starts on the night's fp16 plan under the `moe-ctrl`
//! controller with its warm re-planner and spot preemptions on the
//! scale-out slots. A second tenant sends shared-prefix groups, routed
//! by prefix affinity onto each replica's prefix LRU. A few replicas
//! with large batches put host time in the replica step and scheduler;
//! the controller and affinity routing decide the simulated SLO and cost.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use moe_cluster::{
    generate, ClusterConfig, ClusterReport, ClusterSim, FaultPlan, RequestTrace, RoutePolicy,
    TenantSpec, TraceSource, WorkloadSpec,
};
use moe_ctrl::{Controller, ControllerConfig, Decision, DecisionLog};
use moe_gpusim::perfmodel::PerfModel;
use moe_par::derive_seed;
use moe_plan::score::build_engine;
use moe_plan::{
    search, CandidateConfig, CandidateScore, FleetSpec, PlannerSpec, ReachableSpace, SearchMode,
    SearchOutcome, SearchSpace, SloSpec, WorkloadSketch,
};
use moe_runtime::scheduler::SchedulerConfig;
use moe_runtime::simserver::scheduler_config_for;
use moe_tensor::Precision;
use moe_trace::Tracer;

use crate::measure::{self, Metric, Outcome};
use crate::probe::{take_agg, AggSink, CountingSource, TimedHook, TimelineAgg};
use crate::sim::{self, TTFT_SLO_S};

/// The day: (offered qps, duration in simulated seconds).
const DAY_PHASES: &[(f64, f64)] = &[
    (400.0, 20.0),
    (700.0, 20.0),
    (1000.0, 20.0),
    (1800.0, 10.0),
    (3200.0, 15.0),
    (1000.0, 20.0),
    (600.0, 20.0),
    (300.0, 25.0),
];
/// Share of requests from the shared-prefix tenant.
const SHARED_WEIGHT: f64 = 0.3;
/// Prefix groups per replica the prefix LRU holds.
const PREFIX_CAPACITY: usize = 16;
const ITL_SLO_S: f64 = 0.2;
const TARGET_ATTAINMENT: f64 = 0.95;
/// Simulated seconds between controller ticks.
const CTRL_INTERVAL_S: f64 = 2.5;
/// Scale-out slots on spot capacity, and their mean lifetime (s).
const SPOT_SLOTS: std::ops::Range<usize> = 8..20;
const SPOT_MEAN_LIFE_S: f64 = 80.0;
/// Timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

fn web() -> TenantSpec {
    TenantSpec::uniform("web", 1.0 - SHARED_WEIGHT, (128, 256), (16, 64))
}

fn shared() -> TenantSpec {
    TenantSpec::uniform("chat", SHARED_WEIGHT, (192, 320), (16, 64)).with_shared_prefixes(32, 128)
}

fn day_len() -> f64 {
    DAY_PHASES.iter().map(|&(_, d)| d).sum()
}

fn mean_qps() -> f64 {
    DAY_PHASES.iter().map(|&(q, d)| q * d).sum::<f64>() / day_len()
}

/// One Poisson segment per phase, shifted to its offset and merged.
fn day_trace(seed: u64) -> RequestTrace {
    let mut parts = Vec::new();
    let mut offset = 0.0;
    for (i, &(qps, dur)) in DAY_PHASES.iter().enumerate() {
        let spec = WorkloadSpec {
            arrivals: moe_cluster::ArrivalProcess::Poisson { rate_qps: qps },
            num_requests: (qps * dur).round() as usize,
            tenants: vec![web(), shared()],
        };
        parts.push(generate(&spec, derive_seed(seed, i as u64)).shifted(offset));
        offset += dur;
    }
    RequestTrace::merge(parts)
}

fn sketch(qps: f64) -> WorkloadSketch {
    WorkloadSketch {
        offered_qps: qps,
        mean_input: 192,
        mean_output: 40,
        max_seq: 2048,
    }
}

fn planner_spec(space: SearchSpace, seed: u64) -> PlannerSpec {
    PlannerSpec {
        model: moe_model::registry::olmoe_1b_7b(),
        draft: None,
        fleet: FleetSpec::h100(12),
        workload: WorkloadSpec::poisson(200.0, 64, web()),
        slo: SloSpec::latency(TTFT_SLO_S, ITL_SLO_S),
        space,
        mode: SearchMode::Exhaustive,
        refine_top_k: 1,
        seed,
    }
}

/// SLO-meeting first, then fewest devices, then cheapest.
fn candidate_rank(c: &CandidateScore) -> (u8, usize, u64, String) {
    (
        u8::from(!c.meets_slo),
        c.config.devices(),
        c.cost_per_token_device_s.to_bits(),
        c.label.clone(),
    )
}

fn controller_config() -> ControllerConfig {
    let mut cc = ControllerConfig::for_slo(TTFT_SLO_S, ITL_SLO_S);
    cc.target_attainment = TARGET_ATTAINMENT;
    cc.window_ticks = 3;
    cc.upscale_burn = 0.5;
    cc.downscale_burn = 0.15;
    cc.calm_ticks = 6;
    cc.cooldown_ticks = 1;
    cc.min_replicas = 2;
    cc.max_replicas = 10;
    cc.max_scale_step = 6;
    cc.provision_delay_s = 3.0;
    cc.migration_s = 3.0;
    cc.spot_scaleout = true;
    cc.spot_price_factor = 0.35;
    cc.replan_every_ticks = 1;
    cc.canary_fraction = 0.15;
    cc.canary_ticks = 4;
    cc.promote_burn = 1.0;
    cc
}

/// Host time and accounting of the offline planning in set-up.
#[derive(Debug, Default, Clone, Copy)]
struct PlanStats {
    search_s: f64,
    scored: usize,
    infeasible_oom: usize,
    frontier: usize,
}

impl PlanStats {
    fn add(&mut self, o: &SearchOutcome, dt: f64) {
        self.search_s += dt;
        self.scored += o.counts.scored;
        self.infeasible_oom += o.counts.infeasible_oom;
        self.frontier += o.frontier.len();
    }
}

struct Inputs {
    engine: PerfModel,
    sched: SchedulerConfig,
    spec: PlannerSpec,
    incumbent: CandidateConfig,
    cfg: ClusterConfig,
    faults: FaultPlan,
    trace: RequestTrace,
    gen_s: f64,
    plan: PlanStats,
}

fn setup(seed: u64) -> Result<Inputs, String> {
    let (trace, gen_s) = measure::timed(|| day_trace(derive_seed(seed, 1)));

    // The day's shape: the best single-device completion at mean load.
    let mut plan = PlanStats::default();
    let spec = planner_spec(SearchSpace::minimal(), derive_seed(seed, 2));
    let (day, dt) = measure::timed(|| search(&spec, &sketch(mean_qps())));
    plan.add(&day, dt);
    let shape = day
        .scored
        .iter()
        .filter(|c| c.config.plan.degree == 1)
        .min_by_key(|c| candidate_rank(c))
        .ok_or("planner grid has no single-device layout")?
        .config;
    // The night's offline plan: fp16 weights on that layout, sized for
    // the first phase.
    let mut fp16 = SearchSpace::minimal();
    fp16.precisions = vec![Precision::F16];
    let fp16_spec = planner_spec(fp16, derive_seed(seed, 2));
    let (night, dt) = measure::timed(|| search(&fp16_spec, &sketch(DAY_PHASES[0].0)));
    plan.add(&night, dt);
    let incumbent = night
        .scored
        .iter()
        .filter(|c| c.config.plan == shape.plan)
        .min_by_key(|c| candidate_rank(c))
        .ok_or("fp16 grid misses the day's layout")?
        .config;

    let (engine, _) =
        build_engine(&spec, &incumbent).map_err(|e| format!("night plan infeasible: {e:?}"))?;
    let mut sched = scheduler_config_for(&engine, 2048);
    sched.max_batched_tokens = incumbent.max_batch_tokens;
    let slots: Vec<usize> = SPOT_SLOTS.collect();
    let faults =
        FaultPlan::spot_preemptions(derive_seed(seed, 3), &slots, day_len(), SPOT_MEAN_LIFE_S);
    let cfg = ClusterConfig {
        replicas: incumbent.replicas.max(2),
        policy: RoutePolicy::PrefixAffinity,
        prefix_capacity: PREFIX_CAPACITY,
        seed: derive_seed(seed, 4),
        ..ClusterConfig::default()
    };
    Ok(Inputs {
        engine,
        sched,
        spec,
        incumbent,
        cfg,
        faults,
        trace,
        gen_s,
        plan,
    })
}

fn controller(inp: &Inputs) -> Controller {
    let mut reach = ReachableSpace::rolling(12);
    reach.allow_plan_change = false;
    Controller::new(controller_config(), inp.engine.clone(), inp.sched).with_replanner(
        inp.spec.clone(),
        sketch(mean_qps()),
        inp.incumbent,
        reach,
    )
}

/// A fresh controller, its decision log and the trace, built untimed.
struct Replay {
    ctl: Controller,
    log: DecisionLog,
    trace: RequestTrace,
}

fn prepare(inp: &Inputs) -> Replay {
    let ctl = controller(inp);
    let log = ctl.log_handle();
    Replay {
        ctl,
        log,
        trace: inp.trace.clone(),
    }
}

/// One controlled day, untraced: the report and the controller's
/// decision log.
fn replay(inp: &Inputs, r: Replay) -> (ClusterReport, Vec<Decision>) {
    let report = ClusterSim::new(&inp.engine, inp.sched, inp.cfg, inp.faults.clone(), r.trace)
        .with_controller(Box::new(r.ctl), CTRL_INTERVAL_S)
        .run(&mut Tracer::disabled());
    let decisions = r.log.borrow().clone();
    (report, decisions)
}

/// What a traced day adds to the untraced one.
struct Probed {
    agg: TimelineAgg,
    ticks_us: Vec<f64>,
    delivered: u64,
}

fn replay_traced(
    inp: &Inputs,
    r: Replay,
) -> Result<(ClusterReport, Vec<Decision>, Probed), String> {
    let ticks = Rc::new(RefCell::new(Vec::new()));
    let delivered = Arc::new(AtomicU64::new(0));
    let out = Arc::new(Mutex::new(TimelineAgg::default()));
    let mut tracer = Tracer::new(Box::new(AggSink::new(inp.cfg.replicas, Arc::clone(&out))));
    let source = CountingSource::new(TraceSource::new(r.trace), Arc::clone(&delivered));
    let report = ClusterSim::with_source(
        &inp.engine,
        inp.sched,
        inp.cfg,
        inp.faults.clone(),
        Box::new(source),
    )
    .with_controller(
        Box::new(TimedHook::new(r.ctl, Rc::clone(&ticks))),
        CTRL_INTERVAL_S,
    )
    .run(&mut tracer);
    drop(tracer);
    let agg = take_agg(&out)?.finish(report.makespan_s);
    let decisions = r.log.borrow().clone();
    let ticks_us = ticks.borrow().clone();
    Ok((
        report,
        decisions,
        Probed {
            agg,
            ticks_us,
            delivered: delivered.load(Ordering::Relaxed),
        },
    ))
}

fn fingerprint(report: &ClusterReport, decisions: &[Decision]) -> String {
    moe_json::to_string(report) + &moe_json::to_string(decisions)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        workers: moe_par::workers(),
        ..Outcome::default()
    };
    let inp = setup(seed)?;
    out.notes.push(format!(
        "{} requests over {} simulated s, night plan `{}` starting on {} replicas",
        inp.trace.requests.len(),
        day_len(),
        inp.incumbent.label(),
        inp.cfg.replicas
    ));

    if !traced {
        let mut reference = None;
        let mut replays = 0;
        let mut differ = 0;
        let mut compare = |fp: String| {
            replays += 1;
            let first = reference.get_or_insert_with(|| fp.clone());
            differ += u64::from(*first != fp);
        };
        let warm = replay(&inp, prepare(&inp));
        compare(fingerprint(&warm.0, &warm.1));
        let peak_rss_mb = measure::peak_rss_mb()?;
        let setup_runs = measure::setup_samples(SETUP_REPS, || setup(seed).map(drop))?;
        // The event loop runs on one thread.
        let samples = measure::measured_loop(
            seconds,
            3,
            1,
            || prepare(&inp),
            |r| Ok(replay(&inp, r)),
            |_, (r, d)| compare(fingerprint(&r, &d)),
        )?;
        out.operations(
            replays,
            differ,
            "replays give identical reports and decision logs",
        );
        out.check(
            warm.0.submitted == inp.trace.requests.len(),
            "every generated request was submitted",
        );
        sim::account(&mut out, &warm.0);
        out.metrics = measure::host_metrics(&setup_runs, &samples, peak_rss_mb);
        out.metrics.extend(sim::outcome_metrics(&warm.0));
        return Ok(out);
    }

    // Traced run: untraced and traced days alternate.
    let mut gen_s = Vec::new();
    let mut plan_s = Vec::new();
    measure::setup_samples(SETUP_REPS, || {
        let i = setup(seed)?;
        gen_s.push(i.gen_s);
        plan_s.push(i.plan.search_s);
        Ok(())
    })?;
    let (reference, ref_decisions) = replay(&inp, prepare(&inp));
    let reference_fp = fingerprint(&reference, &ref_decisions);
    sim::account(&mut out, &reference);
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut probed = None;
    let mut differ = 0;
    let mut spent = 0.0;
    while spent < seconds || traced_s.len() < 2 {
        let r = prepare(&inp);
        let ((plain, plain_d), dt_plain) = measure::timed(|| replay(&inp, r));
        let r = prepare(&inp);
        let (traced_out, dt_traced) = measure::timed(|| replay_traced(&inp, r));
        let (report, decisions, p) = traced_out?;
        differ += u64::from(fingerprint(&plain, &plain_d) != reference_fp)
            + u64::from(fingerprint(&report, &decisions) != reference_fp);
        plain_s.push(dt_plain);
        traced_s.push(dt_traced);
        spent += dt_plain + dt_traced;
        probed = Some(p);
    }
    let p = probed.ok_or("traced loop never ran")?;
    out.operations(
        2 * traced_s.len() as u64 + 1,
        differ,
        "traced and untraced days give identical reports and decision logs",
    );
    out.check(
        p.delivered as usize == inp.trace.requests.len(),
        "the arrival source delivered every generated request",
    );

    let count =
        |pred: fn(&Decision) -> bool| ref_decisions.iter().filter(|d| pred(d)).count() as f64;
    out.metrics = sim::outcome_metrics(&reference);
    out.metrics.extend([
        Metric::new("workload.requests", p.delivered as f64, "count"),
        Metric::sampled("workload.gen_s", measure::median(&gen_s), "s", gen_s.len()),
        Metric::new("ctrl.ticks", p.ticks_us.len() as f64, "count"),
        Metric::new("ctrl.tick_s", p.ticks_us.iter().sum::<f64>() / 1e6, "s"),
        Metric::sampled(
            "ctrl.tick_us_p50",
            measure::median(&p.ticks_us),
            "us",
            p.ticks_us.len(),
        ),
        Metric::new(
            "ctrl.scale_ups",
            count(|d| matches!(d, Decision::ScaleUp { .. })),
            "count",
        ),
        Metric::new(
            "ctrl.scale_downs",
            count(|d| matches!(d, Decision::ScaleDown { .. })),
            "count",
        ),
        Metric::new(
            "ctrl.rollouts",
            count(|d| matches!(d, Decision::RolloutStart { .. })),
            "count",
        ),
        Metric::new(
            "ctrl.promotes",
            count(|d| matches!(d, Decision::Promote { .. })),
            "count",
        ),
        Metric::new(
            "ctrl.rollbacks",
            count(|d| matches!(d, Decision::Rollback { .. })),
            "count",
        ),
        Metric::new("ctrl.reconfigs", reference.reconfigs as f64, "count"),
        Metric::new("ctrl.preemptions", reference.preemptions as f64, "count"),
        Metric::new("ctrl.device_s", reference.device_seconds, "dev-s"),
        Metric::sampled("plan.search_s", measure::median(&plan_s), "s", plan_s.len()),
        Metric::new("plan.scored", inp.plan.scored as f64, "count"),
        Metric::new(
            "plan.infeasible_oom",
            inp.plan.infeasible_oom as f64,
            "count",
        ),
        Metric::new("plan.frontier", inp.plan.frontier as f64, "count"),
    ]);
    out.metrics
        .extend(sim::layer_metrics(&reference, &p.agg, &plain_s, &traced_s));
    Ok(out)
}
