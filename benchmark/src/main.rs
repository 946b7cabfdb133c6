//! The repository benchmark: three seeded workloads measuring simulator
//! speed, simulated SLO and cost, and live tokens/s, with output checks.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <sim-diurnal-1k|ctrl-flash-day|live-sessions|all> \
//!     --seed <n> --seconds <s> [--trace <0|1>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` alternates untraced and traced replays and reports the
//! per-layer metrics and the tracing overhead. Without `--trace`, both
//! runs are made. Each run prints its checks and every metric with its
//! unit and sample count, then, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Any
//! failed output check makes the command exit with status 1.
//!
//! The benchmark only calls the program's public API and writes no file.

#![forbid(unsafe_code)]

mod diurnal;
mod flash;
mod live;
mod measure;
mod probe;
mod sim;

use moe_json::Json;

use crate::measure::{Metric, Outcome};

const WORKLOADS: &[&str] = &["sim-diurnal-1k", "ctrl-flash-day", "live-sessions"];

/// End-to-end metrics every workload reports with tracing off.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics every traced run reports; a layer a workload does
/// not exercise reads 0. The workload-specific outcome metrics ride
/// along so the traced run carries them in machine-readable form.
const PER_LAYER: &[(&str, &str)] = &[
    ("fail_frac", "frac"),
    ("sim_ttft_p50_s", "sim_s"),
    ("sim_ttft_p99_s", "sim_s"),
    ("sim_itl_p99_s", "sim_s"),
    ("sim_slo_attainment", "frac"),
    ("sim_cost_dev_s_per_mtok", "dev-s/Mtok"),
    ("live_gen_tok_per_s", "tok/s"),
    ("live_step_p50_ms", "ms"),
    ("live_step_p95_ms", "ms"),
    ("workload.requests", "count"),
    ("workload.gen_s", "s"),
    ("cluster.events", "count"),
    ("cluster.events_per_s", "1/s"),
    ("cluster.ns_per_event", "ns"),
    ("cluster.shard_events_max_over_mean", "ratio"),
    ("cluster.peak_live", "count"),
    ("cluster.retries", "count"),
    ("cluster.timed_out", "count"),
    ("cluster.dropped", "count"),
    ("cluster.rejected", "count"),
    ("router.prefix_hit_rate", "frac"),
    ("router.completed_max_over_mean", "ratio"),
    ("router.queue_depth_p99", "count"),
    ("replica.outstanding_p99", "count"),
    ("replica.busy_frac", "frac"),
    ("ctrl.ticks", "count"),
    ("ctrl.tick_s", "s"),
    ("ctrl.tick_us_p50", "us"),
    ("ctrl.scale_ups", "count"),
    ("ctrl.scale_downs", "count"),
    ("ctrl.rollouts", "count"),
    ("ctrl.promotes", "count"),
    ("ctrl.rollbacks", "count"),
    ("ctrl.reconfigs", "count"),
    ("ctrl.preemptions", "count"),
    ("ctrl.device_s", "dev-s"),
    ("plan.search_s", "s"),
    ("plan.scored", "count"),
    ("plan.infeasible_oom", "count"),
    ("plan.frontier", "count"),
    ("live.prefill_steps", "count"),
    ("live.decode_steps", "count"),
    ("live.prefill_step_ms_p50", "ms"),
    ("live.decode_step_ms_p50", "ms"),
    ("live.batch_mean", "seqs"),
    ("live.prefix_hit_rate", "frac"),
    ("live.prefix_tokens_saved_frac", "frac"),
    ("live.shared_prefix_token_frac", "frac"),
    ("live.kv_blocks_peak", "count"),
    ("engine.tokens_forward", "count"),
    ("engine.forward_per_generated", "ratio"),
    ("engine.par_slowdown", "ratio"),
    ("trace.overhead_frac", "frac"),
];

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    /// `None`: both the untraced and the traced run.
    trace: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = WORKLOADS.to_vec();
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = if value == "all" {
                    WORKLOADS.to_vec()
                } else {
                    vec![*WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
                };
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    match name {
        "sim-diurnal-1k" => diurnal::run(seed, seconds, traced),
        "ctrl-flash-day" => flash::run(seed, seconds, traced),
        "live-sessions" => live::run(seed, seconds, traced),
        _ => Err(format!("unknown workload {name}")),
    }
}

fn print_outcome(name: &str, seed: u64, traced: bool, out: &Outcome) {
    println!("== {name} (seed {seed}, trace {}) ==", u8::from(traced));
    println!(
        "host: nproc {}, moe-par workers {}, build profile {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        out.workers,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "operations: {} attempted, {} succeeded, {} failed",
        out.attempted,
        out.attempted.saturating_sub(out.failed),
        out.failed
    );
    for m in &out.metrics {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<36} {:>16.6} {}{samples}", m.name, m.value, m.unit);
    }
}

/// The result object's metrics: exactly the catalogue for the mode,
/// named `<prefix><metric>`.
fn catalogue_json(
    out: &Outcome,
    traced: bool,
    prefix: &str,
    into: &mut Vec<(String, Json)>,
) -> Result<(), String> {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    for &(name, unit) in catalogue {
        let value = match out.metrics.iter().find(|m| m.name == name) {
            Some(Metric { value, .. }) => *value,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        into.push((
            format!("{prefix}{name}"),
            Json::Obj(vec![
                ("value".into(), Json::Float(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        ));
    }
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let modes = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let single = args.workloads.len() == 1 && modes.len() == 1;
    if args.workloads.len() > 1 {
        println!("note: peak_rss_mb is this process's high-water mark so far; run one workload per process for its own");
    }
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Vec::new();
    for &name in &args.workloads {
        for &traced in &modes {
            let out = run_workload(name, args.seed, args.seconds, traced)?;
            print_outcome(name, args.seed, traced, &out);
            let prefix = if single {
                String::new()
            } else {
                format!("{name}/trace{}/", u8::from(traced))
            };
            catalogue_json(&out, traced, &prefix, &mut metrics)?;
            correct &= out.correct;
            attempted += out.attempted;
            failed += out.failed;
        }
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(i128::from(attempted))),
        ("failed".into(), Json::Int(i128::from(failed))),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render_compact());
    Ok(correct)
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => {
            eprintln!("moe-benchmark: an output check failed");
            1
        }
        Err(e) => {
            eprintln!("moe-benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics the result object
    /// carries, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let bench = moe_json::parse(&text).unwrap();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(listed)) = bench.get(key) else {
                panic!("{key} is not a list");
            };
            let listed: Vec<(&str, &str)> = listed
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Json::Str(n)), Some(Json::Str(u))) => (n.as_str(), u.as_str()),
                    _ => panic!("malformed {key} entry"),
                })
                .collect();
            assert_eq!(listed, catalogue.to_vec(), "{key}");
        }
    }
}
