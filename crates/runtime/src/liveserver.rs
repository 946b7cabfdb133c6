//! The live serving engine: the same continuous-batching scheduler driving
//! the *real* `moe-engine` executor on down-scaled models. Its purpose is
//! to prove the serving machinery end-to-end: batching, block accounting,
//! preemption and recompute must never change what the model generates.

use std::collections::BTreeMap;

use moe_engine::generate::{generate, GenerateParams};
use moe_engine::kvcache::{KvStore, PagedKv};
use moe_engine::model::MoeTransformer;
use moe_tensor::ops::argmax;

use crate::prefixcache::PrefixCache;
use crate::request::{Request, RequestId, SeqState};
use crate::scheduler::{FinishedSeq, Scheduler, SchedulerConfig, StepPlan};

/// One live sequence's token state.
#[derive(Debug)]
struct LiveSeq {
    prompt: Vec<usize>,
    generated: Vec<usize>,
    kv: Option<PagedKv>,
}

fn is_running(scheduler: &Scheduler, id: RequestId) -> bool {
    scheduler
        .seq(id)
        .is_some_and(|s| s.state == SeqState::Running)
}

/// A serving engine running real forward passes.
pub struct LiveServer {
    model: MoeTransformer,
    scheduler: Scheduler,
    seqs: BTreeMap<RequestId, LiveSeq>,
    prefix_cache: Option<PrefixCache>,
}

impl LiveServer {
    pub fn new(model: MoeTransformer, cfg: SchedulerConfig) -> Self {
        Self {
            model,
            scheduler: Scheduler::new(cfg),
            seqs: BTreeMap::new(),
            prefix_cache: None,
        }
    }

    /// Enable automatic prefix caching: block-aligned prompt prefixes of
    /// earlier requests are reused instead of recomputed.
    pub fn with_prefix_cache(mut self, cache: PrefixCache) -> Self {
        self.prefix_cache = Some(cache);
        self
    }

    /// Prefix-cache statistics `(hits, misses, tokens_saved)`, if enabled.
    pub fn prefix_stats(&self) -> Option<(u64, u64, u64)> {
        self.prefix_cache
            .as_ref()
            .map(|c| (c.hits, c.misses, c.tokens_saved))
    }

    /// Total prompt/generated tokens the underlying model has actually run
    /// forward passes over.
    pub fn tokens_processed(&self) -> u64 {
        self.model.tokens_processed()
    }

    /// Submit a prompt; greedy decoding of `max_new` tokens.
    pub fn submit(&mut self, prompt: Vec<usize>, max_new: usize) -> RequestId {
        let id = self.scheduler.submit(Request::new(prompt.len(), max_new));
        self.seqs.insert(
            id,
            LiveSeq {
                prompt,
                generated: Vec::new(),
                kv: None,
            },
        );
        id
    }

    /// Total KV blocks currently allocated by the scheduler's accountant.
    pub fn used_blocks(&self) -> usize {
        self.scheduler.blocks().used_blocks()
    }

    /// Drop KV of sequences the scheduler preempted since the last step
    /// (recompute-style preemption).
    fn reap_preempted(&mut self) {
        for (id, live) in self.seqs.iter_mut() {
            if live.kv.is_some() && !is_running(&self.scheduler, *id) {
                live.kv = None;
            }
        }
    }

    /// Drop the KV of sequences that just finished.
    fn release_kv(&mut self, finished: &[FinishedSeq]) {
        for done in finished {
            if let Some(live) = self.seqs.get_mut(&done.id) {
                live.kv = None;
            }
        }
    }

    /// Execute one engine step; returns false when drained.
    pub fn step(&mut self) -> bool {
        if !self.scheduler.has_work() {
            return false;
        }
        match self.scheduler.plan_step() {
            StepPlan::Prefill { ids, .. } => {
                self.reap_preempted();
                for &id in &ids {
                    let live = self.seqs.get_mut(&id).expect("submitted seq"); // lint:allow(no-panic-in-lib) -- seqs map invariant: every scheduled id was inserted at submit
                                                                               // (Re-)prefill over prompt + already-generated prefix.
                    let mut prefix = live.prompt.clone();
                    prefix.extend_from_slice(&live.generated);
                    let mut kv = self.model.new_kv();

                    // Reuse cached KV for the longest block-aligned prompt
                    // prefix; at least one token must still run forward to
                    // produce logits.
                    if let Some(cache) = &mut self.prefix_cache {
                        if let Some(snapshot) = cache.lookup(&prefix) {
                            snapshot.restore(&mut kv);
                            if kv.len() >= prefix.len() {
                                kv.truncate(prefix.len() - 1);
                            }
                        }
                    }

                    let from = kv.len();
                    let tokens = &prefix[from..];
                    let positions: Vec<usize> = (from..prefix.len()).collect();
                    let logits = self.model.forward(tokens, &positions, &mut kv);
                    let next = argmax(logits.row(tokens.len() - 1));

                    if let Some(cache) = &mut self.prefix_cache {
                        let live = self.seqs.get(&id).expect("submitted seq"); // lint:allow(no-panic-in-lib) -- seqs map invariant: every scheduled id was inserted at submit
                        cache.insert(&live.prompt, &kv);
                    }
                    let live = self.seqs.get_mut(&id).expect("submitted seq"); // lint:allow(no-panic-in-lib) -- seqs map invariant: every scheduled id was inserted at submit
                    live.generated.push(next);
                    live.kv = Some(kv);
                }
                let finished = self.scheduler.commit_prefill(&ids);
                self.release_kv(&finished);
            }
            StepPlan::Decode { ids } => {
                self.reap_preempted();
                // A preemption triggered while planning this very step may
                // have dropped some KV; those sequences re-prefill later.
                let active: Vec<RequestId> = ids
                    .into_iter()
                    .filter(|&id| is_running(&self.scheduler, id))
                    .collect();
                if active.is_empty() {
                    return true;
                }

                // One batched forward across all running sequences — the
                // continuous-batching decode step. Caches are taken out of
                // the sequence records for the duration of the call.
                let mut tokens = Vec::with_capacity(active.len());
                let mut positions = Vec::with_capacity(active.len());
                let mut kvs: Vec<PagedKv> = Vec::with_capacity(active.len());
                for id in &active {
                    let live = self.seqs.get_mut(id).expect("running seq"); // lint:allow(no-panic-in-lib) -- seqs map invariant: running ids were inserted at submit
                    let kv = live.kv.take().expect("running seq has KV"); // lint:allow(no-panic-in-lib) -- running seqs hold their KV store between steps by construction
                    tokens.push(*live.generated.last().expect("prefill emitted a token")); // lint:allow(no-panic-in-lib) -- prefill always emits one token before a seq can be running
                    positions.push(kv.len());
                    kvs.push(kv);
                }
                let mut refs: Vec<&mut dyn KvStore> =
                    kvs.iter_mut().map(|kv| kv as &mut dyn KvStore).collect();
                let logits = self.model.forward_multi(&tokens, &positions, &mut refs);

                for (row, (id, kv)) in active.iter().zip(kvs).enumerate() {
                    let next = argmax(logits.row(row));
                    let live = self.seqs.get_mut(id).expect("running seq"); // lint:allow(no-panic-in-lib) -- seqs map invariant: running ids were inserted at submit
                    live.generated.push(next);
                    live.kv = Some(kv);
                }
                let finished = self.scheduler.commit_decode_all(&active);
                self.release_kv(&finished);
            }
            StepPlan::Idle => return false,
        }
        true
    }

    /// Run to completion, returning each request's generated tokens.
    pub fn run(mut self) -> BTreeMap<RequestId, Vec<usize>> {
        let mut guard = 0;
        while self.step() {
            guard += 1;
            assert!(guard < 1_000_000, "live server livelock");
        }
        self.seqs
            .into_iter()
            .map(|(id, s)| (id, s.generated))
            .collect()
    }

    /// Reference output: what plain greedy generation produces for one
    /// prompt on an identical model.
    pub fn reference(model: &mut MoeTransformer, prompt: &[usize], max_new: usize) -> Vec<usize> {
        generate(model, prompt, GenerateParams::greedy(max_new)).tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_model::registry::tiny_test_model;

    fn tiny() -> MoeTransformer {
        MoeTransformer::new(tiny_test_model(8, 2), 42)
    }

    fn roomy_cfg() -> SchedulerConfig {
        SchedulerConfig {
            max_running: 8,
            max_batched_tokens: 512,
            block_tokens: 16,
            total_blocks: 1024,
        }
    }

    #[test]
    fn serving_matches_standalone_generation() {
        let prompts: Vec<Vec<usize>> = vec![vec![1, 2, 3], vec![100, 101], vec![7, 8, 9, 10, 11]];
        let max_new = 9;

        let mut server = LiveServer::new(tiny(), roomy_cfg());
        let ids: Vec<_> = prompts
            .iter()
            .map(|p| server.submit(p.clone(), max_new))
            .collect();
        let outputs = server.run();

        for (prompt, id) in prompts.iter().zip(&ids) {
            let expect = LiveServer::reference(&mut tiny(), prompt, max_new);
            assert_eq!(outputs[id], expect, "prompt {prompt:?}");
        }
    }

    #[test]
    fn preemption_does_not_change_outputs() {
        // A pool so small that concurrent sequences must preempt.
        let cfg = SchedulerConfig {
            max_running: 4,
            max_batched_tokens: 512,
            block_tokens: 4,
            total_blocks: 10,
        };
        let prompts: Vec<Vec<usize>> = vec![vec![5, 6, 7, 8], vec![9, 10, 11, 12]];
        let max_new = 14;

        let mut server = LiveServer::new(tiny(), cfg);
        let ids: Vec<_> = prompts
            .iter()
            .map(|p| server.submit(p.clone(), max_new))
            .collect();
        // Verify that pressure actually occurs.
        let outputs = server.run();

        for (prompt, id) in prompts.iter().zip(&ids) {
            let expect = LiveServer::reference(&mut tiny(), prompt, max_new);
            assert_eq!(outputs[id], expect, "prompt {prompt:?}");
        }
    }

    #[test]
    fn all_blocks_released_at_drain() {
        let mut server = LiveServer::new(tiny(), roomy_cfg());
        server.submit(vec![1, 2, 3], 5);
        server.submit(vec![4, 5], 5);
        let mut steps = 0;
        while server.step() {
            steps += 1;
            assert!(steps < 1000);
        }
        assert_eq!(server.used_blocks(), 0);
    }

    #[test]
    fn prefix_cache_preserves_outputs_and_saves_compute() {
        let long_prompt: Vec<usize> = (1..40).collect();
        let max_new = 6;

        // Without caching: serve the same prompt twice.
        let mut plain = LiveServer::new(tiny(), roomy_cfg());
        plain.submit(long_prompt.clone(), max_new);
        plain.submit(long_prompt.clone(), max_new);
        let mut steps = 0;
        while plain.step() {
            steps += 1;
            assert!(steps < 1000);
        }
        let plain_tokens = plain.tokens_processed();

        // With caching.
        let mut cached =
            LiveServer::new(tiny(), roomy_cfg()).with_prefix_cache(PrefixCache::new(16, 10_000));
        let a = cached.submit(long_prompt.clone(), max_new);
        let b = cached.submit(long_prompt.clone(), max_new);
        let mut steps = 0;
        while cached.step() {
            steps += 1;
            assert!(steps < 1000);
        }
        let cached_tokens = cached.tokens_processed();
        let (hits, _misses, saved) = cached.prefix_stats().expect("cache enabled");

        // Same outputs as the uncached reference.
        let expect = LiveServer::reference(&mut tiny(), &long_prompt, max_new);
        let outputs: BTreeMap<_, _> = cached
            .seqs
            .iter()
            .map(|(id, s)| (*id, s.generated.clone()))
            .collect();
        assert_eq!(outputs[&a], expect);
        assert_eq!(outputs[&b], expect);

        // And strictly less compute: the second prefill reused 32 of the
        // 39 prompt tokens (two 16-token blocks).
        assert!(hits >= 1, "expected a cache hit");
        assert_eq!(saved, 32);
        assert_eq!(cached_tokens + saved, plain_tokens);
    }

    #[test]
    fn prefix_cache_hits_across_diverging_suffixes() {
        let mut server =
            LiveServer::new(tiny(), roomy_cfg()).with_prefix_cache(PrefixCache::new(8, 10_000));
        let shared: Vec<usize> = (1..17).collect(); // two 8-token blocks
        let mut p1 = shared.clone();
        p1.extend([100, 101]);
        let mut p2 = shared.clone();
        p2.extend([200, 201, 202]);

        let a = server.submit(p1.clone(), 4);
        let b = server.submit(p2.clone(), 4);
        let outputs = {
            let mut steps = 0;
            loop {
                if !server.step() {
                    break;
                }
                steps += 1;
                assert!(steps < 1000);
            }
            server
                .seqs
                .iter()
                .map(|(id, s)| (*id, s.generated.clone()))
                .collect::<BTreeMap<_, _>>()
        };
        assert_eq!(outputs[&a], LiveServer::reference(&mut tiny(), &p1, 4));
        assert_eq!(outputs[&b], LiveServer::reference(&mut tiny(), &p2, 4));
    }

    #[test]
    fn many_requests_all_finish_with_correct_lengths() {
        let mut server = LiveServer::new(tiny(), roomy_cfg());
        let mut ids = Vec::new();
        for i in 0..6 {
            ids.push(server.submit(vec![i + 1, i + 2], 3 + i));
        }
        let outputs = server.run();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(outputs[id].len(), 3 + i);
        }
    }
}
