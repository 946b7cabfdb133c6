//! `live-sessions`: a closed loop of clients on the real `LiveServer`
//! running `tiny_test_model(8, 2)` with seeded weights, greedy decoding
//! and the `PrefixCache` on. Most clients hold multi-turn sessions whose
//! prompt grows by the last reply and a new user message each turn; the
//! rest send one-shot unshared prompts. Each client sends its next
//! request once its reply is back; `LiveServer` hands replies back when
//! the server drains, so the clients move in lockstep, one wave per turn.
//!
//! The only workload with real arithmetic: attention, MoE dispatch,
//! matmul and prefix-cache snapshot and restore. It bypasses gpusim,
//! cluster, ctrl and plan.
//!
//! Passes run on one `moe-par` worker. With more, the engine forks
//! threads for every small matmul and MoE dispatch; on this model that
//! costs several times the arithmetic, and the cost swings with whatever
//! else the host runs, too much for a bounded metric. The traced run
//! reports that cost as `engine.par_slowdown`.

use std::collections::BTreeMap;

use moe_engine::MoeTransformer;
use moe_model::registry::tiny_test_model;
use moe_par::derive_seed;
use moe_runtime::liveserver::LiveServer;
use moe_runtime::prefixcache::PrefixCache;
use moe_runtime::scheduler::SchedulerConfig;
use moe_tensor::rng::{rng_from_seed, DetRng};
use moe_trace::{Category, MemorySink, TraceEvent, Tracer, ENGINE_TRACK};

use crate::measure::{self, Metric, Outcome};

const SESSIONS: usize = 12;
const ONE_SHOT_CLIENTS: usize = 4;
const TURNS: usize = 4;
const NEW_TOKENS: usize = 16;
const VOCAB: usize = 256;
const BLOCK_TOKENS: usize = 16;
/// Timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

fn sched_config() -> SchedulerConfig {
    SchedulerConfig {
        max_running: SESSIONS + ONE_SHOT_CLIENTS,
        max_batched_tokens: 512,
        block_tokens: BLOCK_TOKENS,
        total_blocks: 1024,
    }
}

/// Seeded token material; the session prompts are assembled from it
/// and the reference replies. Lengths follow a fixed schedule over the
/// clients, so every seed costs the same work and the seed only picks
/// the tokens (and, separately, the weights).
struct Material {
    openings: Vec<Vec<usize>>,
    /// `user[s][t]`: what session `s` appends after reply `t`.
    user: Vec<Vec<Vec<usize>>>,
    /// `one_shot[t][c]`: client `c`'s prompt in wave `t`.
    one_shot: Vec<Vec<Vec<usize>>>,
}

fn tokens(rng: &mut DetRng, n: usize) -> Vec<usize> {
    (0..n).map(|_| rng.next_below(VOCAB)).collect()
}

fn material(seed: u64) -> Material {
    let mut rng = rng_from_seed(seed);
    // Openings of 24..=46 tokens, user turns of 8..=24, one-shots of
    // 24..=64.
    let openings = (0..SESSIONS)
        .map(|s| tokens(&mut rng, 24 + 2 * s))
        .collect();
    let user = (0..SESSIONS)
        .map(|s| {
            (0..TURNS)
                .map(|t| tokens(&mut rng, 8 + (5 * s + 7 * t) % 17))
                .collect()
        })
        .collect();
    let one_shot = (0..TURNS)
        .map(|t| {
            (0..ONE_SHOT_CLIENTS)
                .map(|c| tokens(&mut rng, 24 + (13 * c + 11 * t) % 41))
                .collect()
        })
        .collect();
    Material {
        openings,
        user,
        one_shot,
    }
}

/// One request and the reply greedy generation must give.
struct Turn {
    prompt: Vec<usize>,
    expect: Vec<usize>,
}

/// Assemble the waves, decoding each reference reply with plain greedy
/// generation on an identical model — outside any timed window.
fn script(m: &Material, model: &MoeTransformer) -> Vec<Vec<Turn>> {
    let mut reference = model.clone();
    let mut prompts = m.openings.clone();
    let mut waves = Vec::with_capacity(TURNS);
    for t in 0..TURNS {
        let mut wave = Vec::new();
        for (s, prompt) in prompts.iter_mut().enumerate() {
            let expect = LiveServer::reference(&mut reference, prompt, NEW_TOKENS);
            wave.push(Turn {
                prompt: prompt.clone(),
                expect: expect.clone(),
            });
            prompt.extend_from_slice(&expect);
            prompt.extend_from_slice(&m.user[s][t]);
        }
        for p in &m.one_shot[t] {
            let expect = LiveServer::reference(&mut reference, p, NEW_TOKENS);
            wave.push(Turn {
                prompt: p.clone(),
                expect,
            });
        }
        waves.push(wave);
    }
    waves
}

/// Share of prompt tokens that repeat a prefix of an earlier prompt.
fn shared_prefix_frac(waves: &[Vec<Turn>]) -> f64 {
    let prompts: Vec<&[usize]> = waves
        .iter()
        .flatten()
        .map(|t| t.prompt.as_slice())
        .collect();
    let mut shared = 0;
    for (i, p) in prompts.iter().enumerate() {
        let lcp = prompts[..i]
            .iter()
            .map(|q| p.iter().zip(q.iter()).take_while(|(a, b)| a == b).count())
            .max()
            .unwrap_or(0);
        shared += lcp;
    }
    let total: usize = prompts.iter().map(|p| p.len()).sum();
    measure::ratio(shared as f64, total as f64)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    Prefill,
    Decode,
}

/// One executed `LiveServer::step`.
struct Step {
    kind: StepKind,
    host_s: f64,
    /// Tokens the model ran forward in the step.
    tokens: u64,
}

/// What one pass over every wave produced.
struct Pass {
    steps: Vec<Step>,
    requests: usize,
    mismatched: usize,
    generated: usize,
    prompt_tokens: usize,
    tokens_forward: u64,
    prefix: (u64, u64, u64),
    kv_blocks_peak: usize,
}

/// Serve every wave on a fresh server; with a tracer, record one span
/// per step (host seconds since the pass began).
fn serve(model: &MoeTransformer, waves: &[Vec<Turn>], tracer: Option<&mut Tracer>) -> Pass {
    let mut server = LiveServer::new(model.clone(), sched_config())
        .with_prefix_cache(PrefixCache::new(BLOCK_TOKENS, 16 * 1024));
    let mut tracer = tracer;
    let t_pass = std::time::Instant::now();
    let forward0 = server.tokens_processed();
    let mut steps = Vec::new();
    let mut submitted = Vec::new();
    let mut kv_blocks_peak = 0;
    for wave in waves {
        for turn in wave {
            let id = server.submit(turn.prompt.clone(), NEW_TOKENS);
            submitted.push((id, turn));
        }
        loop {
            let lookups0 = server.prefix_stats().map_or(0, |(h, m, _)| h + m);
            let tokens0 = server.tokens_processed();
            let start = t_pass.elapsed().as_secs_f64();
            let t0 = std::time::Instant::now();
            let more = server.step();
            let host_s = t0.elapsed().as_secs_f64();
            if !more {
                break;
            }
            kv_blocks_peak = kv_blocks_peak.max(server.used_blocks());
            let tokens = server.tokens_processed() - tokens0;
            let lookups = server.prefix_stats().map_or(0, |(h, m, _)| h + m) - lookups0;
            // A prefill step looks every admitted prompt up in the prefix
            // cache; a decode step runs one token per running sequence.
            let kind = if lookups > 0 {
                StepKind::Prefill
            } else if tokens > 0 {
                StepKind::Decode
            } else {
                continue;
            };
            if let Some(tr) = tracer.as_deref_mut() {
                let name = if kind == StepKind::Prefill {
                    "prefill"
                } else {
                    "decode"
                };
                tr.span_with(
                    ENGINE_TRACK,
                    Category::Step,
                    name,
                    start,
                    host_s,
                    vec![("tokens", tokens.into())],
                );
            }
            steps.push(Step {
                kind,
                host_s,
                tokens,
            });
        }
    }
    let prefix = server.prefix_stats().unwrap_or((0, 0, 0));
    let tokens_forward = server.tokens_processed() - forward0;
    let outputs: BTreeMap<_, _> = server.run();
    let mut mismatched = 0;
    let mut generated = 0;
    let mut prompt_tokens = 0;
    for (id, turn) in &submitted {
        let got = outputs.get(id);
        generated += got.map_or(0, Vec::len);
        prompt_tokens += turn.prompt.len();
        if got != Some(&turn.expect) {
            mismatched += 1;
        }
    }
    Pass {
        steps,
        requests: submitted.len(),
        mismatched,
        generated,
        prompt_tokens,
        tokens_forward,
        prefix,
        kv_blocks_peak,
    }
}

fn step_ms(passes: &[&Pass], kind: StepKind) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.steps.iter())
        .filter(|s| s.kind == kind)
        .map(|s| s.host_s * 1e3)
        .collect()
}

/// The live end-to-end metrics over measured passes.
fn live_metrics(runs: &[(f64, Pass)]) -> Vec<Metric> {
    let passes: Vec<&Pass> = runs.iter().map(|(_, p)| p).collect();
    let tok_s: Vec<f64> = runs
        .iter()
        .map(|(dt, p)| measure::ratio(p.generated as f64, *dt))
        .collect();
    let decode = step_ms(&passes, StepKind::Decode);
    let requests: usize = passes.iter().map(|p| p.requests).sum();
    let mismatched: usize = passes.iter().map(|p| p.mismatched).sum();
    vec![
        Metric::sampled(
            "fail_frac",
            measure::ratio(mismatched as f64, requests as f64),
            "frac",
            requests,
        ),
        Metric::sampled(
            "live_gen_tok_per_s",
            measure::median(&tok_s),
            "tok/s",
            tok_s.len(),
        ),
        Metric::sampled(
            "live_step_p50_ms",
            measure::median(&decode),
            "ms",
            decode.len(),
        ),
        Metric::sampled(
            "live_step_p95_ms",
            measure::percentile(&decode, 95.0),
            "ms",
            decode.len(),
        ),
    ]
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    moe_par::set_workers_for_test(1);
    let out = run_pinned(seed, seconds, traced);
    moe_par::set_workers_for_test(0);
    out
}

fn run_pinned(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        workers: 1,
        ..Outcome::default()
    };
    // Set-up: seeded weights and seeded prompt material.
    let setup = |gen_s: &mut Vec<f64>| {
        let model = MoeTransformer::new(tiny_test_model(8, 2), derive_seed(seed, 1));
        let (mat, dt) = measure::timed(|| material(derive_seed(seed, 2)));
        gen_s.push(dt);
        (model, mat)
    };
    let mut gen_s = Vec::new();
    let (model, mat) = setup(&mut gen_s);
    let (waves, check_s) = measure::timed(|| script(&mat, &model));
    let per_pass: usize = waves.iter().map(Vec::len).sum();
    out.notes.push(format!(
        "{SESSIONS} session clients + {ONE_SHOT_CLIENTS} one-shot clients x {TURNS} turns = {per_pass} requests per pass, {NEW_TOKENS} new tokens each; reference replies took {check_s:.3} s"
    ));

    let record = |out: &mut Outcome, passes: &[&Pass]| {
        let requests: usize = passes.iter().map(|p| p.requests).sum();
        let mismatched: usize = passes.iter().map(|p| p.mismatched).sum();
        out.operations(
            requests as u64,
            mismatched as u64,
            "served replies equal LiveServer::reference",
        );
    };

    if !traced {
        let warm = serve(&model, &waves, None);
        let peak_rss_mb = measure::peak_rss_mb()?;
        let setup_runs = measure::setup_samples(SETUP_REPS, || {
            setup(&mut gen_s);
            Ok(())
        })?;
        let mut runs = Vec::new();
        let samples = measure::measured_loop(
            seconds,
            5,
            1,
            || (),
            |()| Ok(serve(&model, &waves, None)),
            |dt, p| runs.push((dt, p)),
        )?;
        let mut all: Vec<&Pass> = vec![&warm];
        all.extend(runs.iter().map(|(_, p)| p));
        record(&mut out, &all);
        out.metrics = measure::host_metrics(&setup_runs, &samples, peak_rss_mb);
        out.metrics.extend(live_metrics(&runs));
        return Ok(out);
    }

    // Traced run: untraced passes alternate with passes that record a
    // span per step, and with passes on the host's default worker count.
    let warm = serve(&model, &waves, None);
    measure::setup_samples(SETUP_REPS, || {
        setup(&mut gen_s);
        Ok(())
    })?;
    let mut plain = Vec::new();
    let mut traced_s = Vec::new();
    let mut fanned_s = Vec::new();
    let mut spans = Vec::new();
    let mut other_passes = Vec::new();
    let mut fanned_workers = 1;
    let mut spent = 0.0;
    while spent < seconds || traced_s.len() < 3 {
        let (p, dt) = measure::timed(|| serve(&model, &waves, None));
        plain.push((dt, p));
        let mut tracer = Tracer::new(Box::new(MemorySink::new()));
        let (q, dt_traced) = measure::timed(|| serve(&model, &waves, Some(&mut tracer)));
        traced_s.push(dt_traced);
        spans.extend(tracer.snapshot());
        other_passes.push(q);
        moe_par::set_workers_for_test(0);
        fanned_workers = moe_par::workers();
        let (f, dt_fanned) = measure::timed(|| serve(&model, &waves, None));
        moe_par::set_workers_for_test(1);
        fanned_s.push(dt_fanned);
        other_passes.push(f);
        spent += dt + dt_traced + dt_fanned;
    }
    let mut all: Vec<&Pass> = vec![&warm];
    all.extend(plain.iter().map(|(_, p)| p));
    all.extend(other_passes.iter());
    record(&mut out, &all);
    out.notes.push(format!(
        "engine.par_slowdown compares passes on {fanned_workers} moe-par workers with passes on 1"
    ));

    let span_ms = |want: &str| -> Vec<f64> {
        spans
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span { name, dur_s, .. } if name == want => Some(dur_s * 1e3),
                _ => None,
            })
            .collect()
    };
    let prefill_ms = span_ms("prefill");
    let decode_ms = span_ms("decode");
    let p = &warm;
    let decodes: Vec<&Step> = p
        .steps
        .iter()
        .filter(|s| s.kind == StepKind::Decode)
        .collect();
    let batch: Vec<f64> = decodes.iter().map(|s| s.tokens as f64).collect();
    let (hits, misses, saved) = p.prefix;
    let plain_s: Vec<f64> = plain.iter().map(|(dt, _)| *dt).collect();
    out.metrics = live_metrics(&plain);
    out.metrics.extend([
        Metric::new("workload.requests", p.requests as f64, "count"),
        Metric::sampled("workload.gen_s", measure::median(&gen_s), "s", gen_s.len()),
        Metric::new(
            "live.prefill_steps",
            (p.steps.len() - decodes.len()) as f64,
            "count",
        ),
        Metric::new("live.decode_steps", decodes.len() as f64, "count"),
        Metric::sampled(
            "live.prefill_step_ms_p50",
            measure::median(&prefill_ms),
            "ms",
            prefill_ms.len(),
        ),
        Metric::sampled(
            "live.decode_step_ms_p50",
            measure::median(&decode_ms),
            "ms",
            decode_ms.len(),
        ),
        Metric::sampled(
            "live.batch_mean",
            measure::mean(&batch),
            "seqs",
            batch.len(),
        ),
        Metric::new(
            "live.prefix_hit_rate",
            measure::ratio(hits as f64, (hits + misses) as f64),
            "frac",
        ),
        Metric::new(
            "live.prefix_tokens_saved_frac",
            measure::ratio(saved as f64, p.prompt_tokens as f64),
            "frac",
        ),
        Metric::new(
            "live.shared_prefix_token_frac",
            shared_prefix_frac(&waves),
            "frac",
        ),
        Metric::new("live.kv_blocks_peak", p.kv_blocks_peak as f64, "count"),
        Metric::new("engine.tokens_forward", p.tokens_forward as f64, "count"),
        Metric::new(
            "engine.forward_per_generated",
            measure::ratio(p.tokens_forward as f64, p.generated as f64),
            "ratio",
        ),
        Metric::sampled(
            "engine.par_slowdown",
            measure::ratio(measure::median(&fanned_s), measure::median(&plain_s)),
            "ratio",
            fanned_s.len(),
        ),
        Metric::sampled(
            "trace.overhead_frac",
            measure::ratio(measure::median(&traced_s), measure::median(&plain_s)) - 1.0,
            "frac",
            traced_s.len(),
        ),
    ]);
    Ok(out)
}
