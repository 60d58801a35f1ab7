//! Whodunit core: transactional profiling for multi-tier applications.
//!
//! This crate implements the primary contribution of *Whodunit:
//! Transactional Profiling for Multi-Tier Applications* (Chanda, Cox,
//! Zwaenepoel — EuroSys 2007):
//!
//! - **Transaction contexts** ([`context`]): the concatenated execution
//!   path of a request through the stages of a multi-tier application,
//!   with the paper's collapse and loop-pruning rules (§2, §4.1).
//! - **Calling Context Trees** ([`cct`]): the per-context call-path
//!   profile store, following csprof/Ammons et al. (§7.1).
//! - **Shared-memory transaction-flow detection** ([`shm`]): the §3
//!   algorithm over `MOV`/non-`MOV` operations in critical sections,
//!   including the invalid-context rule, lock-tag flushing, and the
//!   producer/consumer-list exclusion of allocator-like patterns.
//! - **Event and SEDA stage tracking** ([`events`], [`seda`]): the §4
//!   continuation / stage-queue context propagation.
//! - **Message-passing propagation** ([`synopsis`], [`ipc`]): 4-byte
//!   transaction-context synopses, `#`-delimited chains, and
//!   caller-prefix response detection (§5, §7.4).
//! - **Transaction crosstalk** ([`crosstalk`]): lock-wait attribution
//!   between concurrent transactions (§6, §7.5).
//! - **The Whodunit runtime** ([`profiler`]): ties everything together
//!   behind the [`rt::Runtime`] hook interface that execution substrates
//!   (the discrete-event simulator, the instruction emulator) drive.
//! - **Post-mortem stitching** ([`stitch`]): joining per-stage profiles
//!   into one end-to-end transactional profile (§5, Figure 7).
//! - **Black-box communication logs** ([`blackbox`]): the passive
//!   send/recv trace + ground truth that the `whodunit-infer` crate
//!   scores its synopsis-free inference against, and the
//!   [`blackbox::TierVisibility`] knob for hybrid deployments.
//! - **Invariant oracles** ([`oracle`]): the properties a transactional
//!   profile must uphold under any fault plan and schedule — mass
//!   conservation, dictionary consistency, stitch completeness, fault
//!   accounting, bounded progress — checked after every chaos run.
//! - **Chaos repro files** ([`repro`]): self-contained serialized
//!   scenarios (seed + schedule policy + fault plan + workload) that
//!   re-execute a failing run bit-identically.
//!
//! The crate is substrate-agnostic: it never performs I/O or spawns
//! threads; it only reacts to hook invocations and hands back overhead
//! costs expressed in CPU cycles so the substrate can charge them.

#![warn(missing_docs)]

pub mod blackbox;
pub mod cct;
pub mod context;
pub mod cost;
pub mod crosstalk;
pub mod delta;
pub mod dumpjson;
pub mod events;
pub mod frame;
pub mod hash;
pub mod ids;
pub mod ipc;
pub mod oracle;
pub mod pipeline;
pub mod profiler;
pub mod repro;
pub mod rt;
pub mod seda;
pub mod shm;
pub mod sketch;
pub mod stitch;
pub mod summary;
pub mod synopsis;
pub mod txt;
pub mod wire;

pub use blackbox::{CommEvent, CommEventId, CommKind, CommLog, CommRecorder, CommTag, CommTruth, TierVisibility};
pub use cct::{Cct, CctNodeId, Metrics};
pub use context::{ContextAtom, ContextPolicy, ContextTable, CtxId, TransactionContext};
pub use crosstalk::{CrosstalkMatrix, CrosstalkRecorder, CrosstalkReport, OriginKey, WaitStats};
pub use delta::{
    diff_dump, DeltaSink, EpochBatch, RecordedResync, ResyncSource, StageAccumulator, StageDelta,
    StreamHeader,
};
pub use frame::{FrameId, FrameKind, FrameTable, SharedFrameTable};
pub use hash::{fnv1a, Fnv64};
pub use ids::{ChanId, LockId, LockMode, ProcId, ThreadId};
pub use oracle::{
    check_all, check_capture, check_inference, CaptureEvidence, Evidence, InferenceEvidence,
    InferenceScore, ProgressState, Violation,
};
pub use pipeline::{
    analyze, replicate_fleet, OriginProfile, PhaseTiming, PipelineConfig, PipelineReport,
};
pub use profiler::{Whodunit, WhodunitConfig};
pub use repro::{repro_from_json, repro_to_json, ChaosRepro, FaultEntry, ReproWindow};
pub use rt::{NullRuntime, Runtime};
pub use shm::{FlowDetector, FlowEvent, Loc, MemEvent};
pub use sketch::QuantileSketch;
pub use summary::{merge_stage_delta, seal_delta, LeafGauges, SummaryFrame, TierSketch};
pub use synopsis::{SynChain, Synopsis, SynopsisTable};
pub use wire::{
    apply_batch, decode_batch, decode_header, decode_summary, encode_batch, encode_header,
    encode_summary, WireBatchInfo, WireError, WIRE_VERSION,
};
