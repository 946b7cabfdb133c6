//! # moe-runtime
//!
//! The serving engine — the substitution for vLLM in the paper's stack.
//! It implements the serving-system mechanisms whose behaviour the paper
//! measures:
//!
//! * a **paged-KV block manager** with watermark admission and preemption
//!   accounting ([`blockmgr`]);
//! * a dense **slot table** keyed by request id, the O(1) per-sequence
//!   storage of the scheduler and the cluster replica ([`slots`]);
//! * a **continuous-batching scheduler**: FCFS admission of prefills under
//!   a token budget, batched decode for running sequences,
//!   recompute-style preemption under memory pressure ([`scheduler`]);
//! * a **simulated server** that drives the scheduler with step times from
//!   the `moe-gpusim` performance model and reports per-request TTFT /
//!   ITL / E2E and aggregate throughput ([`simserver`]);
//! * a **live server** that runs the same scheduler over the *real*
//!   `moe-engine` executor on down-scaled models, proving the scheduling
//!   machinery does not change model outputs ([`liveserver`]);
//! * the paper's metric definitions (Section 3.4) and simple aggregation
//!   helpers ([`metrics`]).

#![forbid(unsafe_code)]

pub mod blockmgr;
pub mod liveserver;
pub mod metrics;
pub mod prefixcache;
pub mod request;
pub mod scheduler;
pub mod simserver;
pub mod slots;

pub use blockmgr::{BlockLease, BlockManager};
pub use request::{Request, RequestId, RequestOutput, SeqState};
pub use scheduler::{FinishedSeq, Scheduler, SchedulerConfig, StepPlan};
pub use simserver::{SimReport, SimServer};
pub use slots::SlotTable;
