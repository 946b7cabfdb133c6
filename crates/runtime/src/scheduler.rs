//! The continuous-batching scheduler (vLLM-style):
//!
//! * **Admission**: waiting sequences are admitted FCFS into a prefill
//!   step, bounded by a batched-token budget and the block-manager
//!   watermark.
//! * **Decode**: all running sequences advance one token per step.
//! * **Preemption**: if a decode step cannot grow some sequence's KV
//!   allocation, the *most recently admitted* running sequence is evicted
//!   (recompute-style: blocks freed, sequence re-queued with its generated
//!   prefix intact) until the step fits.
//!
//! ## The FCFS invariant
//!
//! Admission order is a **total order on `RequestId`** within each
//! priority class: ids are assigned in submission order, fresh arrivals
//! queue at the tail in id order, and preempted sequences re-queue at the
//! *head* (they hold generated tokens that must not starve) — also in id
//! order among themselves, because preemption evicts strictly newest-first
//! and each eviction prepends. Every tie anywhere in the scheduler is
//! broken by `RequestId`, never by map iteration order, so cluster-level
//! replays that fan requests across schedulers are byte-stable. The
//! `fcfs_admission_is_ordered_by_request_id` test pins this.
//!
//! ## Bookkeeping
//!
//! Every per-sequence operation is O(1), so a step costs O(batch):
//!
//! * **Slot table.** Sequence records live in a [`SlotTable`] indexed by
//!   `RequestId` (ids are dense and ascending, one counter per
//!   scheduler). Each record carries its own [`BlockLease`], so reserving
//!   KV for a sequence is one index and no map. A record leaves the table
//!   when its sequence finishes or is cancelled, and the table trims its
//!   ends, so it spans only the oldest live id to the newest: the
//!   scheduler's memory follows concurrency, not how many requests it
//!   has served.
//! * **Admission order of `running`.** `running` is sorted by admission
//!   stamp: admission appends strictly larger stamps and every removal
//!   keeps the order. The newest running sequence is therefore the tail,
//!   and preemption pops it. When a decode plan fails to grow sequence
//!   `i`, it preempts and resumes at `i` rather than at 0, because growth
//!   is idempotent per block: a decode plan costs O(running +
//!   preemptions).
//! * **Waiting queue.** A `VecDeque`: admission pops the head, preemption
//!   pushes onto it.
//! * **Running context sum.** [`Scheduler::running_context_tokens`] is
//!   kept up to date as sequences are admitted, grow, finish, are
//!   preempted or cancelled, so pricing a decode step needs no pass over
//!   the batch.
//!
//! ## Commit contract
//!
//! A planned step is committed with the plan's ids through
//! [`Scheduler::commit_prefill`] or [`Scheduler::commit_decode_all`].
//! Each call adds one generated token to every listed sequence that is
//! still live (ids cancelled while the step was in flight are skipped),
//! compacts `running` once, and returns the sequences that finished as
//! [`FinishedSeq`] values, in plan order. A finished sequence's record is
//! gone when the call returns — [`Scheduler::seq`] answers `None` for it
//! — so callers take what they need from the returned value.
//!
//! The scheduler is pure bookkeeping — no clock, no tensors — so both the
//! simulated and the live server drive it and its behaviour is
//! deterministic and unit-testable.

use std::collections::VecDeque;

use moe_json::{FromJson, ToJson};

use crate::blockmgr::{BlockLease, BlockManager};
use crate::request::{Request, RequestId, SeqState};
use crate::slots::SlotTable;

/// Scheduler limits.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct SchedulerConfig {
    /// Maximum sequences decoding concurrently.
    pub max_running: usize,
    /// Maximum tokens in one prefill step (chunked-prefill budget).
    pub max_batched_tokens: usize,
    /// KV block size in tokens.
    pub block_tokens: usize,
    /// Total KV blocks available.
    pub total_blocks: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            max_running: 256,
            max_batched_tokens: 8192,
            block_tokens: 16,
            total_blocks: 4096,
        }
    }
}

/// Scheduler-internal record of a live (waiting or running) sequence.
#[derive(Debug, Clone)]
pub struct SeqRecord {
    pub id: RequestId,
    pub request: Request,
    pub state: SeqState,
    /// Tokens generated so far (survives preemption).
    pub generated: usize,
    /// Admission order stamp of the latest (re-)admission.
    pub admitted_at: u64,
    pub preemptions: usize,
    /// KV blocks held (empty while waiting).
    pub lease: BlockLease,
}

impl SeqRecord {
    /// Current total context length (prompt + generated).
    pub fn context_len(&self) -> usize {
        self.request.prompt_len + self.generated
    }

    /// Has the sequence generated everything it asked for?
    pub fn done(&self) -> bool {
        self.generated >= self.request.max_new_tokens
    }
}

/// A sequence that generated its last token, as the commit calls return
/// it. Its record and KV blocks are already released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishedSeq {
    pub id: RequestId,
    /// Total tokens generated.
    pub generated: usize,
    /// Times the sequence was preempted and recomputed.
    pub preemptions: usize,
}

/// One scheduler decision, recorded when event recording is on.
///
/// The scheduler itself is clock-free, so events carry no timestamp;
/// the serving loop drains them each step ([`Scheduler::drain_events`])
/// and stamps them with the simulated time of the step boundary they
/// occurred at.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedEvent {
    /// Sequence (re-)admitted into a prefill batch with this many
    /// context tokens to (re)compute.
    Admitted {
        /// Sequence id.
        id: RequestId,
        /// Prompt + regenerated tokens entering the prefill step.
        context_tokens: usize,
    },
    /// Sequence evicted under memory pressure (recompute-style) and
    /// returned to the head of the waiting queue.
    Preempted {
        /// Sequence id.
        id: RequestId,
        /// Lifetime preemption count for the sequence, after this one.
        preemptions: usize,
    },
    /// Sequence generated its final token and released its KV blocks.
    Finished {
        /// Sequence id.
        id: RequestId,
        /// Total tokens generated.
        generated: usize,
    },
}

/// What the engine should execute next.
#[derive(Debug, Clone, PartialEq)]
pub enum StepPlan {
    /// Prefill these sequences (tokens = total prompt+regenerated tokens
    /// to process).
    Prefill { ids: Vec<RequestId>, tokens: usize },
    /// One decode iteration for these running sequences.
    Decode { ids: Vec<RequestId> },
    /// Nothing to do.
    Idle,
}

/// The continuous-batching scheduler.
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedulerConfig,
    blocks: BlockManager,
    /// Records of the live sequences, by id.
    seqs: SlotTable<SeqRecord>,
    /// FCFS waiting queue (front = next to admit).
    waiting: VecDeque<RequestId>,
    /// Running sequences in ascending admission-stamp order.
    running: Vec<RequestId>,
    /// Sum of `context_len()` over `running`.
    running_ctx: usize,
    next_id: RequestId,
    admission_stamp: u64,
    /// When true, decisions append to `events` (off by default: the hot
    /// path must not allocate for runs nobody is tracing).
    record_events: bool,
    events: Vec<SchedEvent>,
}

impl Scheduler {
    pub fn new(cfg: SchedulerConfig) -> Self {
        Self {
            blocks: BlockManager::new(cfg.total_blocks, cfg.block_tokens),
            cfg,
            seqs: SlotTable::new(),
            waiting: VecDeque::new(),
            running: Vec::new(),
            running_ctx: 0,
            next_id: 0,
            admission_stamp: 0,
            record_events: false,
            events: Vec::new(),
        }
    }

    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Turn decision recording on or off (off by default).
    pub fn set_record_events(&mut self, on: bool) {
        self.record_events = on;
        if !on {
            self.events.clear();
        }
    }

    /// Take the decisions recorded since the last drain (empty when
    /// recording is off).
    pub fn drain_events(&mut self) -> Vec<SchedEvent> {
        std::mem::take(&mut self.events)
    }

    fn record(&mut self, ev: SchedEvent) {
        if self.record_events {
            self.events.push(ev);
        }
    }

    pub fn blocks(&self) -> &BlockManager {
        &self.blocks
    }

    /// Submit a request; returns its id.
    pub fn submit(&mut self, request: Request) -> RequestId {
        assert!(request.prompt_len > 0, "empty prompt");
        assert!(request.max_new_tokens > 0, "nothing to generate");
        let id = self.next_id;
        self.next_id += 1;
        self.seqs.insert(
            id,
            SeqRecord {
                id,
                request,
                state: SeqState::Waiting,
                generated: 0,
                admitted_at: 0,
                preemptions: 0,
                lease: BlockLease::default(),
            },
        );
        self.waiting.push_back(id);
        id
    }

    /// The record of a live (waiting or running) sequence; `None` once
    /// it finished or was cancelled.
    pub fn seq(&self, id: RequestId) -> Option<&SeqRecord> {
        self.seqs.get(id)
    }

    pub fn num_waiting(&self) -> usize {
        self.waiting.len()
    }

    pub fn num_running(&self) -> usize {
        self.running.len()
    }

    /// Context tokens (prompt + generated) summed over the running
    /// sequences. Right after a decode plan this is the batch's context.
    pub fn running_context_tokens(&self) -> usize {
        self.running_ctx
    }

    /// Are there unfinished sequences anywhere?
    pub fn has_work(&self) -> bool {
        !self.waiting.is_empty() || !self.running.is_empty()
    }

    /// Decide the next step. Prefill admission takes priority (as in
    /// vLLM's default scheduler); otherwise a decode step for all running
    /// sequences; otherwise idle.
    pub fn plan_step(&mut self) -> StepPlan {
        // --- Try to admit waiting sequences into a prefill batch. ---
        let mut admit: Vec<RequestId> = Vec::new();
        let mut tokens = 0usize;
        while let Some(&id) = self.waiting.front() {
            if self.running.len() + admit.len() >= self.cfg.max_running {
                break;
            }
            let seq = &mut self.seqs[id];
            // On re-admission after preemption the whole prefix
            // (prompt + generated) is recomputed.
            let need = seq.context_len();
            let over_budget = tokens + need > self.cfg.max_batched_tokens;
            if over_budget && !admit.is_empty() {
                break;
            }
            if !self.blocks.can_admit(need) || !self.blocks.allocate(&mut seq.lease, need) {
                break;
            }
            self.waiting.pop_front();
            admit.push(id);
            tokens += need;
            if over_budget {
                // A single over-budget prompt still goes alone (chunking
                // is modeled as one long step).
                break;
            }
        }
        if !admit.is_empty() {
            for &id in &admit {
                let seq = &mut self.seqs[id];
                seq.state = SeqState::Running;
                seq.admitted_at = self.admission_stamp;
                self.admission_stamp += 1;
                let context_tokens = seq.context_len();
                self.running_ctx += context_tokens;
                self.record(SchedEvent::Admitted { id, context_tokens });
            }
            self.running.extend(&admit);
            return StepPlan::Prefill { ids: admit, tokens };
        }

        // --- Decode step: grow every running sequence by one token,
        // preempting the newest sequences until everything fits. ---
        let mut from = 0;
        while let Some(failed) = self.grow_running_from(from) {
            if !self.preempt_newest() {
                break; // nothing left to preempt; run with what fits
            }
            // Everything before `failed` already holds its next token's
            // block, and the eviction only removed the tail.
            from = failed;
        }
        if self.running.is_empty() {
            return StepPlan::Idle;
        }
        StepPlan::Decode {
            ids: self.running.clone(),
        }
    }

    /// Reserve one more token of KV for `running[from..]`. Returns the
    /// index of the first sequence that could not grow. Already reserved
    /// boundary blocks are free (grow is idempotent per block), so a
    /// failure needs no rollback.
    fn grow_running_from(&mut self, from: usize) -> Option<usize> {
        for (i, &id) in self.running.iter().enumerate().skip(from) {
            let seq = &mut self.seqs[id];
            let ctx = seq.context_len();
            if !self.blocks.grow(&mut seq.lease, ctx, ctx + 1) {
                return Some(i);
            }
        }
        None
    }

    /// Is `running` in strictly ascending admission-stamp order?
    fn running_in_admission_order(&self) -> bool {
        self.running
            .windows(2)
            .all(|w| self.seqs[w[0]].admitted_at < self.seqs[w[1]].admitted_at)
    }

    /// Evict the most recently admitted running sequence — the tail of
    /// `running` (see the module docs) — to the head of the waiting
    /// queue.
    fn preempt_newest(&mut self) -> bool {
        debug_assert!(
            self.running_in_admission_order(),
            "running must stay in admission order"
        );
        let Some(id) = self.running.pop() else {
            return false;
        };
        let seq = &mut self.seqs[id];
        self.blocks.release(&mut seq.lease);
        self.running_ctx -= seq.context_len();
        seq.state = SeqState::Waiting;
        seq.preemptions += 1;
        let preemptions = seq.preemptions;
        // Recompute-style: back to the head of the waiting queue.
        self.waiting.push_front(id);
        self.record(SchedEvent::Preempted { id, preemptions });
        true
    }

    /// Commit a prefill step: prefill also produces each sequence's first
    /// token. See the module docs for the commit contract.
    pub fn commit_prefill(&mut self, ids: &[RequestId]) -> Vec<FinishedSeq> {
        self.commit(ids, true)
    }

    /// Commit one decoded token for each sequence of a decode step (KV
    /// blocks already reserved by `plan_step`). See the module docs for
    /// the commit contract.
    pub fn commit_decode_all(&mut self, ids: &[RequestId]) -> Vec<FinishedSeq> {
        self.commit(ids, false)
    }

    fn commit(&mut self, ids: &[RequestId], prefill: bool) -> Vec<FinishedSeq> {
        let mut finished = Vec::new();
        for &id in ids {
            let Some(seq) = self.seqs.get_mut(id) else {
                continue; // canceled while the step was in flight
            };
            assert_eq!(seq.state, SeqState::Running, "commit on non-running seq");
            if prefill {
                // The first token occupies KV beyond the prompt. Growth
                // may dip into the watermark reserve; if even that fails
                // the next decode plan will preempt.
                let ctx = seq.context_len();
                let _ = self.blocks.grow(&mut seq.lease, ctx, ctx + 1);
            }
            seq.generated += 1;
            self.running_ctx += 1;
            if seq.done() {
                self.blocks.release(&mut seq.lease);
                self.running_ctx -= seq.context_len();
                let done = FinishedSeq {
                    id,
                    generated: seq.generated,
                    preemptions: seq.preemptions,
                };
                self.seqs.remove(id);
                self.record(SchedEvent::Finished {
                    id,
                    generated: done.generated,
                });
                finished.push(done);
            }
        }
        if !finished.is_empty() {
            let seqs = &self.seqs;
            self.running.retain(|&id| seqs.get(id).is_some());
        }
        finished
    }

    /// Remove a sequence entirely — its queue slot, KV blocks, and
    /// record. Used by serving front-ends to enforce per-request timeouts
    /// and to fail over requests off a crashed replica. Safe to call while
    /// a planned step is in flight: the commit path skips unknown ids.
    /// Returns `false` when the id is unknown or already finished.
    pub fn cancel(&mut self, id: RequestId) -> bool {
        let Some(mut seq) = self.seqs.remove(id) else {
            return false;
        };
        match seq.state {
            SeqState::Waiting => {
                if let Some(pos) = self.waiting.iter().position(|&w| w == id) {
                    self.waiting.remove(pos);
                }
            }
            SeqState::Running => {
                if let Some(pos) = self.running.iter().position(|&r| r == id) {
                    self.running.remove(pos);
                }
                self.running_ctx -= seq.context_len();
            }
        }
        self.blocks.release(&mut seq.lease);
        true
    }
}

#[cfg(test)]
impl Scheduler {
    /// Every bookkeeping invariant of the module docs, recomputed from
    /// scratch.
    fn check_invariants(&self) {
        // The table holds exactly the queued sequences, each queued once.
        let live: std::collections::BTreeSet<RequestId> =
            self.waiting.iter().chain(&self.running).copied().collect();
        assert_eq!(live.len(), self.waiting.len() + self.running.len());
        assert_eq!(live.len(), self.seqs.len());
        self.blocks
            .check_invariants(live.iter().map(|&id| &self.seqs[id].lease));
        assert!(
            self.running_in_admission_order(),
            "running out of admission order: {:?}",
            self.running
        );
        for &id in &self.running {
            assert_eq!(self.seqs[id].state, SeqState::Running);
        }
        for &id in &self.waiting {
            assert_eq!(self.seqs[id].state, SeqState::Waiting);
            assert_eq!(self.seqs[id].lease.blocks(), 0, "waiting {id} holds KV");
        }
        // FCFS: preempted sequences first, then never-admitted ones,
        // each group in ascending id order.
        let preempted = self
            .waiting
            .iter()
            .take_while(|&&id| self.seqs[id].preemptions > 0)
            .count();
        let (head, tail): (Vec<RequestId>, Vec<RequestId>) = (
            self.waiting.iter().take(preempted).copied().collect(),
            self.waiting.iter().skip(preempted).copied().collect(),
        );
        assert!(
            tail.iter().all(|&id| self.seqs[id].preemptions == 0),
            "a preempted sequence queues behind a fresh one: {:?}",
            self.waiting
        );
        for group in [&head, &tail] {
            assert!(
                group.windows(2).all(|w| w[0] < w[1]),
                "waiting out of id order: {:?}",
                self.waiting
            );
        }
        let ctx: usize = self
            .running
            .iter()
            .map(|&id| self.seqs[id].context_len())
            .sum();
        assert_eq!(self.running_ctx, ctx, "running context sum drifted");
        // The table spans only the live id range.
        let span = match (live.first(), live.last()) {
            (Some(lo), Some(hi)) => usize::try_from(hi - lo + 1).unwrap(),
            _ => 0,
        };
        assert!(
            self.seqs.span() <= span,
            "slot table spans {} slots for a live id range of {span}",
            self.seqs.span()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SchedulerConfig {
        SchedulerConfig {
            max_running: 4,
            max_batched_tokens: 64,
            block_tokens: 16,
            total_blocks: 32,
        }
    }

    #[test]
    fn fcfs_admission_under_token_budget() {
        let mut s = Scheduler::new(small_cfg());
        let a = s.submit(Request::new(30, 4));
        let b = s.submit(Request::new(30, 4));
        let c = s.submit(Request::new(30, 4));
        match s.plan_step() {
            StepPlan::Prefill { ids, tokens } => {
                // 30 + 30 fits the 64-token budget; the third does not.
                assert_eq!(ids, vec![a, b]);
                assert_eq!(tokens, 60);
            }
            other => panic!("expected prefill, got {other:?}"),
        }
        assert_eq!(s.num_waiting(), 1);
        let _ = c;
    }

    #[test]
    fn decode_follows_prefill() {
        let mut s = Scheduler::new(small_cfg());
        let a = s.submit(Request::new(10, 3));
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!()
        };
        s.commit_prefill(&ids);
        // Two decode steps remain (first token came from prefill).
        for step in 0..2 {
            match s.plan_step() {
                StepPlan::Decode { ids } => {
                    assert_eq!(ids, vec![a]);
                    assert_eq!(s.running_context_tokens(), 10 + 1 + step);
                    let finished = s.commit_decode_all(&ids);
                    assert_eq!(!finished.is_empty(), step == 1);
                }
                other => panic!("step {step}: {other:?}"),
            }
        }
        assert!(!s.has_work());
        assert_eq!(s.blocks().used_blocks(), 0);
    }

    #[test]
    fn oversized_prompt_admitted_alone() {
        let mut s = Scheduler::new(SchedulerConfig {
            max_batched_tokens: 16,
            ..small_cfg()
        });
        let big = s.submit(Request::new(100, 2));
        match s.plan_step() {
            StepPlan::Prefill { ids, tokens } => {
                assert_eq!(ids, vec![big]);
                assert_eq!(tokens, 100);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn preemption_under_memory_pressure() {
        // Pool of 8 blocks (128 tokens); two long-running sequences will
        // eventually collide and the newer one must be preempted.
        let mut s = Scheduler::new(SchedulerConfig {
            max_running: 4,
            max_batched_tokens: 256,
            block_tokens: 16,
            total_blocks: 7,
        });
        let a = s.submit(Request::new(48, 64)); // 3 blocks
        let b = s.submit(Request::new(48, 64)); // 3 blocks
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!()
        };
        assert_eq!(ids.len(), 2);
        s.commit_prefill(&ids);

        let mut b_preempted = false;
        for _ in 0..40 {
            match s.plan_step() {
                StepPlan::Decode { ids } => {
                    s.commit_decode_all(&ids);
                }
                StepPlan::Prefill { ids, .. } => {
                    s.commit_prefill(&ids);
                }
                StepPlan::Idle => break,
            }
            if s.seq(b).unwrap().preemptions > 0 {
                b_preempted = true;
                break;
            }
            if s.seq(a).unwrap().preemptions > 0 {
                panic!("older sequence preempted before newer one");
            }
        }
        assert!(b_preempted, "expected the newer sequence to be preempted");
        s.check_invariants();
    }

    #[test]
    fn preempted_sequence_resumes_and_finishes() {
        let mut s = Scheduler::new(SchedulerConfig {
            max_running: 4,
            max_batched_tokens: 256,
            block_tokens: 16,
            total_blocks: 7,
        });
        let ids = [
            s.submit(Request::new(48, 40)),
            s.submit(Request::new(48, 40)),
        ];
        let mut finished = Vec::new();
        let mut guard = 0;
        while s.has_work() {
            guard += 1;
            assert!(guard < 10_000, "scheduler livelock");
            match s.plan_step() {
                StepPlan::Prefill { ids, .. } => {
                    finished.extend(s.commit_prefill(&ids));
                }
                StepPlan::Decode { ids } => {
                    finished.extend(s.commit_decode_all(&ids));
                }
                StepPlan::Idle => break,
            }
        }
        assert_eq!(finished.len(), 2);
        finished.sort_by_key(|f| f.id);
        for (id, done) in ids.into_iter().zip(&finished) {
            assert_eq!(done.id, id);
            assert_eq!(done.generated, 40);
            assert!(s.seq(id).is_none(), "finished records leave the table");
        }
        assert!(
            finished.iter().any(|f| f.preemptions > 0),
            "the tight pool must have preempted"
        );
        assert_eq!(s.blocks().used_blocks(), 0);
    }

    #[test]
    fn max_running_respected() {
        let mut s = Scheduler::new(SchedulerConfig {
            max_running: 2,
            max_batched_tokens: 1024,
            block_tokens: 16,
            total_blocks: 1024,
        });
        for _ in 0..5 {
            s.submit(Request::new(8, 10));
        }
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!()
        };
        assert_eq!(ids.len(), 2);
        s.commit_prefill(&ids);
        // Running is full: next plan must be decode, not admission.
        assert!(matches!(s.plan_step(), StepPlan::Decode { .. }));
    }

    #[test]
    #[should_panic(expected = "empty prompt")]
    fn empty_prompt_rejected() {
        let mut s = Scheduler::new(small_cfg());
        s.submit(Request::new(0, 1));
    }

    /// The FCFS invariant (see the module docs): admission order within a
    /// priority class is ascending `RequestId` — for fresh arrivals because
    /// ids are assigned in submission order, and for preempted sequences
    /// because newest-first eviction prepends them back in id order.
    #[test]
    fn fcfs_admission_is_ordered_by_request_id() {
        // Fresh arrivals: admitted strictly in id order.
        let mut s = Scheduler::new(SchedulerConfig {
            max_running: 8,
            max_batched_tokens: 1024,
            block_tokens: 16,
            total_blocks: 1024,
        });
        let ids: Vec<RequestId> = (0..5).map(|_| s.submit(Request::new(16, 4))).collect();
        let StepPlan::Prefill { ids: admitted, .. } = s.plan_step() else {
            panic!("expected prefill");
        };
        assert_eq!(admitted, ids, "fresh admission must follow id order");
        s.commit_prefill(&admitted);

        // Preemption: evict the newest running sequence under block
        // pressure, then check the waiting queue re-admits it ahead of any
        // fresh arrival — and that never-admitted requests keep id order.
        let mut tight = Scheduler::new(SchedulerConfig {
            max_running: 4,
            max_batched_tokens: 512,
            block_tokens: 16,
            total_blocks: 9,
        });
        let a = tight.submit(Request::new(48, 64));
        let b = tight.submit(Request::new(48, 64));
        let c = tight.submit(Request::new(48, 64));
        let StepPlan::Prefill { ids, .. } = tight.plan_step() else {
            panic!("expected prefill");
        };
        assert_eq!(ids, vec![a, b], "only two fit: 4 blocks each, 9 total");
        tight.commit_prefill(&ids);
        let late = tight.submit(Request::new(48, 64)); // fresh arrival at the tail

        // Decode under pressure until the newest running sequence is evicted.
        let mut guard = 0;
        while tight.seq(b).is_some_and(|s| s.preemptions == 0) {
            guard += 1;
            assert!(guard < 200, "no preemption under pressure");
            match tight.plan_step() {
                StepPlan::Decode { ids } => {
                    tight.commit_decode_all(&ids);
                }
                StepPlan::Prefill { ids, .. } => {
                    tight.commit_prefill(&ids);
                }
                StepPlan::Idle => break,
            }
        }
        // The evicted sequence goes back to the head, ahead of both the
        // never-admitted `c` and the fresh arrival, all in ascending id
        // order: waiting == [b, c, late].
        assert_eq!(tight.waiting, vec![b, c, late]);
        assert_eq!(tight.running, vec![a]);
    }

    #[test]
    fn cancel_releases_blocks_and_queue_slots() {
        let mut s = Scheduler::new(small_cfg());
        let a = s.submit(Request::new(30, 8));
        let b = s.submit(Request::new(30, 8));
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!("expected prefill");
        };
        s.commit_prefill(&ids);
        assert!(s.blocks().used_blocks() > 0);
        assert!(s.cancel(a), "running sequence cancels");
        assert!(s.cancel(b), "running sequence cancels");
        assert!(!s.cancel(a), "double cancel is a no-op");
        assert!(!s.has_work());
        assert_eq!(s.blocks().used_blocks(), 0);
        s.check_invariants();

        // Waiting sequences cancel too.
        let c = s.submit(Request::new(30, 8));
        assert!(s.cancel(c));
        assert!(!s.has_work());
        assert!(!s.cancel(999), "unknown id");
    }

    #[test]
    fn cancel_mid_flight_is_skipped_by_commit() {
        let mut s = Scheduler::new(small_cfg());
        let a = s.submit(Request::new(20, 4));
        let b = s.submit(Request::new(20, 4));
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!("expected prefill");
        };
        // The front-end times `a` out while the planned step is in flight.
        assert!(s.cancel(a));
        let finished = s.commit_prefill(&ids);
        assert!(finished.is_empty());
        assert!(s.seq(a).is_none());
        assert_eq!(s.seq(b).map(|r| r.generated), Some(1));
        // Decode b to completion; the pool drains fully.
        while s.has_work() {
            match s.plan_step() {
                StepPlan::Decode { ids } => {
                    s.commit_decode_all(&ids);
                }
                StepPlan::Prefill { ids, .. } => {
                    s.commit_prefill(&ids);
                }
                StepPlan::Idle => break,
            }
        }
        assert_eq!(s.blocks().used_blocks(), 0);
    }

    #[test]
    fn events_off_by_default_on_when_enabled() {
        let mut s = Scheduler::new(small_cfg());
        let a = s.submit(Request::new(10, 1));
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!()
        };
        s.commit_prefill(&ids);
        assert!(s.drain_events().is_empty(), "recording must default off");

        s.set_record_events(true);
        let b = s.submit(Request::new(10, 1));
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!()
        };
        s.commit_prefill(&ids);
        let evs = s.drain_events();
        assert_eq!(
            evs,
            vec![
                SchedEvent::Admitted {
                    id: b,
                    context_tokens: 10
                },
                SchedEvent::Finished {
                    id: b,
                    generated: 1
                },
            ]
        );
        assert!(s.drain_events().is_empty(), "drain consumes");
        let _ = a;
    }

    #[test]
    fn preemption_recorded_when_enabled() {
        let mut s = Scheduler::new(SchedulerConfig {
            max_running: 4,
            max_batched_tokens: 256,
            block_tokens: 16,
            total_blocks: 7,
        });
        s.set_record_events(true);
        let b;
        {
            let _a = s.submit(Request::new(48, 64));
            b = s.submit(Request::new(48, 64));
        }
        let StepPlan::Prefill { ids, .. } = s.plan_step() else {
            panic!()
        };
        s.commit_prefill(&ids);
        let mut saw_preempt = false;
        for _ in 0..40 {
            match s.plan_step() {
                StepPlan::Decode { ids } => {
                    s.commit_decode_all(&ids);
                }
                StepPlan::Prefill { ids, .. } => {
                    s.commit_prefill(&ids);
                }
                StepPlan::Idle => break,
            }
            if s.drain_events()
                .iter()
                .any(|e| matches!(e, SchedEvent::Preempted { id, .. } if *id == b))
            {
                saw_preempt = true;
                break;
            }
        }
        assert!(saw_preempt, "expected a recorded preemption of {b}");
    }

    /// A decode plan reserves the next token's KV for every sequence in
    /// it.
    fn assert_decode_reserved(s: &Scheduler, plan: &StepPlan) {
        if let StepPlan::Decode { ids } = plan {
            for &id in ids {
                let seq = &s.seqs[id];
                assert!(
                    seq.lease.blocks() >= s.blocks.blocks_for(seq.context_len() + 1),
                    "decode plan left {id} without its next block"
                );
            }
        }
    }

    /// Seeded random submit / plan / commit / cancel traffic under a KV
    /// pool tight enough to preempt, checking every invariant of the
    /// module docs after every operation, and exact-once completion at
    /// the end.
    #[test]
    fn randomized_ops_keep_every_invariant() {
        let mut rng = moe_tensor::rng::rng_from_seed(0x5c4e_d01e);
        let mut total_preemptions = 0;
        for _ in 0..40 {
            let mut s = Scheduler::new(SchedulerConfig {
                max_running: 1 + rng.next_below(6),
                max_batched_tokens: 32 + rng.next_below(96),
                block_tokens: 8,
                total_blocks: 24,
            });
            let mut asked: Vec<usize> = Vec::new();
            let mut finished: Vec<Option<FinishedSeq>> = Vec::new();
            let mut cancelled: Vec<bool> = Vec::new();
            let mut in_flight: Option<StepPlan> = None;
            let commit = |s: &mut Scheduler, plan: StepPlan, finished: &mut Vec<Option<_>>| {
                let done = match plan {
                    StepPlan::Prefill { ids, .. } => s.commit_prefill(&ids),
                    StepPlan::Decode { ids } => s.commit_decode_all(&ids),
                    StepPlan::Idle => Vec::new(),
                };
                for f in done {
                    let slot: &mut Option<FinishedSeq> = &mut finished[f.id as usize];
                    assert!(slot.replace(f).is_none(), "{} finished twice", f.id);
                }
            };
            for _ in 0..400 {
                match rng.next_below(8) {
                    0..=2 => {
                        let max_new = 1 + rng.next_below(40);
                        let id = s.submit(Request::new(1 + rng.next_below(80), max_new));
                        assert_eq!(id as usize, asked.len());
                        asked.push(max_new);
                        finished.push(None);
                        cancelled.push(false);
                    }
                    // One step in flight at a time, as the servers run it;
                    // cancels may land while it is.
                    3..=6 => match in_flight.take() {
                        Some(plan) => commit(&mut s, plan, &mut finished),
                        None => {
                            let plan = s.plan_step();
                            assert_decode_reserved(&s, &plan);
                            in_flight = Some(plan);
                        }
                    },
                    _ => {
                        if !asked.is_empty() {
                            let id = rng.next_below(asked.len());
                            let live = s.seq(id as RequestId).is_some();
                            assert_eq!(s.cancel(id as RequestId), live);
                            cancelled[id] |= live;
                        }
                    }
                }
                s.check_invariants();
            }
            if let Some(plan) = in_flight.take() {
                commit(&mut s, plan, &mut finished);
            }
            let mut guard = 0;
            while s.has_work() {
                guard += 1;
                assert!(guard < 100_000, "scheduler livelock");
                let plan = s.plan_step();
                assert_decode_reserved(&s, &plan);
                commit(&mut s, plan, &mut finished);
                s.check_invariants();
            }
            assert_eq!(s.blocks().used_blocks(), 0);
            for (id, max_new) in asked.iter().enumerate() {
                match (&finished[id], cancelled[id]) {
                    (Some(f), false) => {
                        assert_eq!(f.generated, *max_new);
                        total_preemptions += f.preemptions;
                    }
                    (None, true) => {}
                    other => panic!("request {id}: {other:?}"),
                }
            }
        }
        assert!(total_preemptions > 0, "the pool never forced a preemption");
    }
}
