//! # taurus-runtime — the sharded multi-core switch runtime
//!
//! The paper's Taurus device processes every packet through per-packet
//! ML at line rate; one simulated [`TaurusSwitch`] on one thread cannot
//! come close. This crate is the execution layer above the single
//! device, and [`StreamingRuntime`] ([`service`]) is its one runtime
//! type. It hosts **N independent switch replicas**, each owned by a
//! resident worker thread, and routes packets by **flow-consistent
//! slot routing**: [`shard_of`] folds a flow key's register slot
//! (`flow_key % flow_slots`), or its bucket in keyed mode, onto the
//! shard count, so per-flow register state stays coherent within one
//! shard. Workers are fed **fixed-size batches over bounded SPSC
//! channels** ([`spsc`]) by the ingest pipeline ([`pipeline`]), and the
//! per-shard [`SwitchReport`]s **merge** into one global report.
//!
//! The load-bearing property is *exactness*: on the same trace, the
//! merged report equals the sequential switch's report bit for bit —
//! counters, drops, flags (see [`runtime`] module docs for why, and
//! `tests/determinism.rs` for the pinning suite). Parallelism changes
//! the wall clock, never the semantics.
//!
//! Ingest is push-style ([`StreamingRuntime::feed`] /
//! [`StreamingRuntime::drain`] / [`StreamingRuntime::shutdown`]). The
//! runtime also serves **live model updates**: a
//! [`taurus_core::ModelUpdate`] scheduled via
//! [`StreamingRuntime::schedule_update`] at a global stream index is
//! applied on every shard at that same index (an in-band message at a
//! batch boundary), extending the exactness guarantee across weight
//! swaps — and [`deploy::run_online_deployment`] closes the §5.2.3 loop
//! by training online against the live runtime and measuring the
//! *deployed* F1. The per-flow table supports idle-timeout eviction
//! ([`taurus_pisa::PipelineConfig::idle_timeout_ns`]) so flow state
//! stays bounded on endless streams.
//!
//! The keyed set-associative flow table
//! ([`taurus_pisa::FlowTableKind::Keyed`]) takes the bounded-state
//! story to its end: per-flow counters live in `buckets × ways` keyed
//! entries with oldest-last-seen replacement, flow starts resolve by
//! table-miss semantics (deleting the unbounded per-connection
//! seen-set from ingest), and routing by *bucket* keeps sharding exact
//! — replacement only ever involves one bucket, and a bucket lives on
//! one shard (`tests/keyed.rs` pins the sweep).
//!
//! ```
//! use taurus_core::apps::SynFloodDetector;
//! use taurus_core::EngineBackend;
//! use taurus_dataset::kdd::KddGenerator;
//! use taurus_dataset::trace::{PacketTrace, TraceConfig};
//! use taurus_runtime::RuntimeBuilder;
//!
//! let syn = SynFloodDetector::default_deployment();
//! let mut runtime = RuntimeBuilder::new()
//!     .shards(4)
//!     .batch_size(32)
//!     .register_on(&syn, EngineBackend::Threshold)
//!     .build_streaming();
//!
//! let records = KddGenerator::new(7).take(100);
//! let trace = PacketTrace::expand(records, &TraceConfig::default());
//! let report = runtime.run_trace(&trace);
//! assert_eq!(report.merged.packets, trace.packets.len() as u64);
//! ```
//!
//! [`TaurusSwitch`]: taurus_core::TaurusSwitch
//! [`SwitchReport`]: taurus_core::SwitchReport

pub mod deploy;
pub mod fault;
pub mod overload;
pub mod pipeline;
pub mod runtime;
pub mod service;
pub mod spsc;

pub use deploy::{run_online_deployment, DeploymentConfig, DeploymentReport, DeploymentRound};
pub use fault::{
    canary_decision, CanaryDecision, CanaryGuardrails, CanaryVerdictRecord, FaultPlan, FaultRecord,
    FaultRecordKind, FaultReport, InstallError, ShardError,
};
pub use overload::{OverloadPolicy, OverloadReport, QuarantineCounts};
pub use pipeline::{epoch_count, parse_packet, resolve_and_count, EpochBatch, ParsedSlot};
pub use runtime::{
    shard_of, BuildError, PreparedPacket, RuntimeBuilder, RuntimeReport, ShardStats,
};
pub use service::StreamingRuntime;
