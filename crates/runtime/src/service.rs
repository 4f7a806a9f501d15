//! The long-lived streaming service: resident engine workers behind a
//! push-style ingest API. The paper's device serves traffic
//! *indefinitely*; this is the runtime's one host for it:
//!
//! - **Resident engine workers.** One OS thread per shard is spawned at
//!   construction, *owns* its [`TaurusSwitch`] replica, and stays alive
//!   across feeds — no thread spawn/join (and no allocation) in the
//!   steady state.
//! - **Push-style ingest.** [`StreamingRuntime::feed`] pushes a slice
//!   of the stream through the ingest pipeline ([`crate::pipeline`]) —
//!   parsed on the calling thread, or on parse workers scoped to the
//!   feed (they borrow the fed slice, which a resident thread could
//!   not) — with bounded-SPSC backpressure toward the engines. Partial
//!   batches are flushed at every feed boundary, so the engines observe
//!   each feed completely.
//! - **Asynchronous updates.** [`StreamingRuntime::schedule_update`]
//!   keys on the *global stream index* (monotone across feeds) and is
//!   applied in-band at exactly that barrier;
//!   [`StreamingRuntime::install_update`] installs "now" via a
//!   request/reply message and keeps the fleet transactional.
//! - **Deterministic drain.** [`StreamingRuntime::drain`] installs any
//!   still-pending updates, flushes every staged partial batch, and
//!   barriers on every worker for a snapshot: the merged
//!   [`RuntimeReport`] is bit-identical to one feed of the
//!   concatenation of all feeds since the last drain (batch counts
//!   aside — feed boundaries flush partial batches early).
//!   [`StreamingRuntime::shutdown`] is drain + worker join.
//!
//! # Panic containment
//!
//! A panic inside a worker (an app engine exploding, a scheduled update
//! failing to install) must not kill a resident thread, but it must
//! also not be swallowed. Workers catch panics, keep draining their
//! lanes (discarding batches — the run is poisoned anyway) so ingest
//! never deadlocks, and surface the payload at the next drain, which
//! re-raises it on the caller's thread — the same observable behavior
//! as the old per-run scope join. [`StreamingRuntime::reset`] clears
//! the poisoned state and the service keeps serving.

use std::any::Any;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use taurus_core::ingest::ObsBuilder;
use taurus_core::{ModelUpdate, RollbackPoint, SwitchReport, TaurusSwitch, UpdateError};
use taurus_dataset::trace::{PacketTrace, TracePacket};
use taurus_ml::BinaryMetrics;
use taurus_pisa::{CrossFlowWindows, FlowTable, Verdict};

use crate::fault::{
    canary_decision, CanaryDecision, CanaryGuardrails, CanaryVerdictRecord, FaultPlan, FaultRecord,
    FaultRecordKind, FaultReport, InstallError, ShardError, WorkerFaults,
};
use crate::overload::{OverloadPolicy, OverloadState};
use crate::pipeline::epoch::EpochBatch;
use crate::pipeline::steer::{Batch, ShardMsg, SteerState, Steering};
use crate::pipeline::{self, PipelineRun};
use crate::runtime::{RuntimeReport, ShardStats};
use crate::spsc;

/// One worker's per-run state at a drain barrier.
pub(crate) struct WorkerSnapshot {
    /// Packets processed since the last drain.
    processed: u64,
    /// Batches received since the last drain.
    batches: u64,
    /// Per-model-segment deployed-verdict confusion since the last
    /// drain (see [`RuntimeReport::segments`]).
    segments: Vec<BinaryMetrics>,
    /// The replica's cumulative report.
    report: SwitchReport,
    /// The replica's installed model versions (registration order).
    versions: Vec<(String, u64)>,
}

/// A worker's answer on its reply lane.
pub(crate) enum WorkerReply {
    /// Drain barrier reached; per-run counters were reset.
    Snapshot(Box<WorkerSnapshot>),
    /// Result of a control-plane [`ShardMsg::Install`],
    /// [`ShardMsg::Rollback`], or [`ShardMsg::Promote`].
    Install(Result<(), UpdateError>),
    /// Result of a [`ShardMsg::CanaryInstall`]: the rollback point
    /// captured *before* the canary model was activated, or the
    /// rejection (in which case the replica is untouched).
    Canary(Result<Box<RollbackPoint>, UpdateError>),
    /// Segment confusions read at a [`ShardMsg::Metrics`] probe:
    /// the segment before the last boundary and the one after it.
    Metrics { previous: BinaryMetrics, current: BinaryMetrics },
    /// The worker caught this panic earlier in the run. Without spare
    /// replicas the drain barrier re-raises it on the caller's thread;
    /// with supervision it becomes a [`FaultRecord`] and the pre-panic
    /// snapshot merges so surviving traffic is still accounted.
    Panicked {
        payload: Box<dyn Any + Send>,
        snapshot: Box<WorkerSnapshot>,
        /// Batches received and discarded while poisoned.
        dropped_batches: u64,
    },
}

/// The resident engine-worker loop: owns one [`TaurusSwitch`] replica
/// for the lifetime of the service and serves its steer lane until the
/// sender side is dropped (shutdown). `faults` is this shard's slice of
/// the builder's deterministic [`FaultPlan`]; it is empty in production
/// and checked per packet only while armed.
fn engine_worker(
    mut switch: TaurusSwitch,
    rx: spsc::Receiver<ShardMsg>,
    pool_tx: spsc::Sender<Batch>,
    reply_tx: spsc::Sender<WorkerReply>,
    mut faults: WorkerFaults,
) {
    let mut processed = 0u64;
    let mut batches = 0u64;
    let mut dropped_batches = 0u64;
    let mut segments = vec![BinaryMetrics::default()];
    // First panic caught this run; while set, batches are drained but
    // discarded (the run is poisoned — its report will never be built)
    // so ingest keeps its backpressure guarantees and never deadlocks
    // on a full lane.
    let mut poisoned: Option<Box<dyn Any + Send>> = None;
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Batch(batch) => {
                if poisoned.is_none() {
                    batches += 1;
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        for p in &batch {
                            if faults.is_armed() {
                                faults.check_packet(p.index);
                            }
                            // Verdict-only entry point: same counters
                            // and combined verdict as process_prepared,
                            // minus the per-packet per_app allocation.
                            let r = switch.process_prepared_verdict(
                                &p.pkt,
                                p.obs,
                                p.dst_count,
                                p.srv_count,
                            );
                            segments
                                .last_mut()
                                .expect("nonempty")
                                .record(r.verdict == Verdict::Drop, p.anomalous);
                            processed += 1;
                        }
                    }));
                    if let Err(payload) = outcome {
                        poisoned = Some(payload);
                    }
                } else {
                    dropped_batches += 1;
                }
                // Hand the drained buffer back for reuse (ingest may
                // already be gone on teardown paths; dropping is fine).
                let _ = pool_tx.send(batch);
            }
            ShardMsg::Update(update) => {
                if poisoned.is_none() {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        switch
                            .install_update(&update)
                            .unwrap_or_else(|e| panic!("live model update failed on a shard: {e}"));
                    }));
                    match outcome {
                        Ok(()) => segments.push(BinaryMetrics::default()),
                        Err(payload) => poisoned = Some(payload),
                    }
                }
            }
            ShardMsg::Install(update) => {
                let result = switch.install_update(&update);
                if !faults.drop_this_install() {
                    let _ = reply_tx.send(WorkerReply::Install(result));
                }
            }
            ShardMsg::CanaryInstall(update) => {
                // Capture first: a rejected install leaves the replica
                // untouched and nothing to restore.
                let result = match switch.capture_rollback(&update.app) {
                    Ok(point) => switch.install_update(&update).map(|()| Box::new(point)),
                    Err(e) => Err(e),
                };
                if result.is_ok() {
                    segments.push(BinaryMetrics::default());
                }
                let _ = reply_tx.send(WorkerReply::Canary(result));
            }
            ShardMsg::MarkSegment => {
                // Segment boundary with no model change: keeps segment
                // lists aligned across shards when only a subset
                // actually swapped models (see the canary protocol).
                if poisoned.is_none() {
                    segments.push(BinaryMetrics::default());
                }
            }
            ShardMsg::Metrics => {
                let current = *segments.last().expect("nonempty");
                let previous = if segments.len() >= 2 {
                    segments[segments.len() - 2]
                } else {
                    BinaryMetrics::default()
                };
                let _ = reply_tx.send(WorkerReply::Metrics { previous, current });
            }
            ShardMsg::Rollback(point) => {
                let result = switch.rollback_to(&point);
                if result.is_ok() {
                    segments.push(BinaryMetrics::default());
                }
                let _ = reply_tx.send(WorkerReply::Install(result));
            }
            ShardMsg::Promote(update) => {
                let result = switch.install_update(&update);
                if result.is_ok() {
                    segments.push(BinaryMetrics::default());
                }
                let _ = reply_tx.send(WorkerReply::Install(result));
            }
            ShardMsg::Drain => {
                let snapshot = Box::new(WorkerSnapshot {
                    processed,
                    batches,
                    segments: std::mem::take(&mut segments),
                    report: switch.report(),
                    versions: switch.app_versions(),
                });
                let reply = match poisoned.take() {
                    Some(payload) => WorkerReply::Panicked { payload, snapshot, dropped_batches },
                    None => WorkerReply::Snapshot(snapshot),
                };
                processed = 0;
                batches = 0;
                dropped_batches = 0;
                segments.clear();
                segments.push(BinaryMetrics::default());
                let _ = reply_tx.send(reply);
            }
            ShardMsg::Reset => {
                switch.reset();
                poisoned = None;
                processed = 0;
                batches = 0;
                dropped_batches = 0;
                segments.clear();
                segments.push(BinaryMetrics::default());
            }
        }
    }
}

/// Spawns one resident engine worker and returns its lane ends. Used
/// both at construction and when the supervisor respawns a replacement
/// for a faulted worker.
fn spawn_worker(
    switch: TaurusSwitch,
    queue_depth: usize,
    faults: WorkerFaults,
) -> (
    spsc::Sender<ShardMsg>,
    spsc::Receiver<Batch>,
    spsc::Receiver<WorkerReply>,
    std::thread::JoinHandle<()>,
) {
    let (tx, rx) = spsc::channel::<ShardMsg>(queue_depth);
    // Reverse lane carrying drained buffers back to ingest. A shard's
    // cycle holds at most `queue_depth + 3` buffers at once (1 staging
    // + queue_depth in flight + 1 at the worker + 1 freshly taken), so
    // with one extra slot of slack the worker's return send can never
    // block — no deadlock against a blocked forward send.
    let (pool_tx, pool_rx) = spsc::channel::<Batch>(queue_depth + 4);
    // Reply lane for the synchronous control-plane exchanges (drain
    // snapshots, install/canary/metrics results): at most one request
    // is ever outstanding per shard.
    let (reply_tx, reply_rx) = spsc::channel::<WorkerReply>(2);
    let handle = std::thread::spawn(move || {
        engine_worker(switch, rx, pool_tx, reply_tx, faults);
    });
    (tx, pool_rx, reply_rx, handle)
}

/// A persistent streaming host for [`TaurusSwitch`] replicas: resident
/// engine workers, push-style feeds, asynchronous model updates, and a
/// deterministic drain/shutdown.
///
/// Built by [`crate::runtime::RuntimeBuilder::build_streaming`]. Ingest
/// runs [`crate::pipeline`] on every feed: with zero parse workers the
/// calling thread parses each epoch itself, otherwise scoped parse
/// workers do, and either way one merge stage steers the packets — so
/// every parse-worker count yields the same stream.
///
/// ```
/// use taurus_core::apps::SynFloodDetector;
/// use taurus_core::EngineBackend;
/// use taurus_dataset::kdd::KddGenerator;
/// use taurus_dataset::trace::{PacketTrace, TraceConfig};
/// use taurus_runtime::RuntimeBuilder;
///
/// let syn = SynFloodDetector::default_deployment();
/// let mut service = RuntimeBuilder::new()
///     .shards(2)
///     .register_on(&syn, EngineBackend::Threshold)
///     .build_streaming();
///
/// let records = KddGenerator::new(7).take(60);
/// let trace = PacketTrace::expand(records, &TraceConfig::default());
/// service.feed(&trace.packets);
/// service.feed(&trace.packets); // workers stay resident between feeds
/// let report = service.shutdown();
/// assert_eq!(report.merged.packets, 2 * trace.packets.len() as u64);
/// ```
pub struct StreamingRuntime {
    senders: Vec<spsc::Sender<ShardMsg>>,
    recycle: Vec<spsc::Receiver<Batch>>,
    replies: Vec<spsc::Receiver<WorkerReply>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Handles of replaced (faulted) workers, joined at teardown.
    retired: Vec<std::thread::JoinHandle<()>>,
    shards: usize,
    batch_size: usize,
    queue_depth: usize,
    parse_workers: usize,
    epoch_len: usize,
    route_slots: usize,
    obs_builder: ObsBuilder,
    windows: CrossFlowWindows,
    /// Keyed mode's shared ingest-side flow directory: the same
    /// set-associative [`FlowTable`] geometry as every replica, run in
    /// global arrival order so flow starts resolve by table-miss
    /// semantics with bounded state (`None` direct-mapped).
    directory: Option<FlowTable>,
    /// The admission layer: overload policy, injected saturation
    /// windows, and the shed/degrade/quarantine accounting. Ingest-side
    /// by design — a shard that sheds and then panics recovers with its
    /// counters intact, because they were never inside the worker.
    overload: OverloadState,
    /// Resident per-shard staging arenas (see `pipeline::steer`).
    steer: SteerState,
    /// Cross-feed pool of steer→engine batch arenas, provisioned once
    /// at construction so steady-state feeds allocate no batch memory.
    batch_pool: Vec<Batch>,
    /// Cross-feed pool of epoch arenas.
    epoch_pool: Vec<EpochBatch>,
    /// The epoch-local candidate set the calling thread parses with
    /// when there are no parse workers, sized to `epoch_len` once.
    epoch_seen: HashSet<u32>,
    /// Updates awaiting their global stream index, sorted by it (stable
    /// for equal indices: scheduling order is install order).
    pending: Vec<(u64, Arc<ModelUpdate>)>,
    /// Global stream position: packets accepted across all feeds.
    position: u64,
    /// Mirror of the fleet's installed versions (all replicas agree by
    /// construction), refreshed from a healthy snapshot at every drain.
    versions: Vec<(String, u64)>,
    /// Spare replicas for supervised recovery: cold switches built from
    /// the same roster, consumed (newest first) when a faulted worker
    /// is respawned. Empty ⇒ legacy panic-at-drain semantics.
    spares: Vec<TaurusSwitch>,
    /// Whether supervision was requested at build time (spares > 0).
    /// Stays true after the spares run out so fault accounting (rather
    /// than a re-raised panic) remains the drain's contract.
    supervised: bool,
    /// Every update the fleet accepted, in install order — replayed
    /// onto a spare to rehydrate it to the fleet's current versions.
    history: Vec<Arc<ModelUpdate>>,
    /// How long a control-plane exchange (install reply, drain
    /// snapshot) may take before the shard is declared unresponsive.
    control_timeout: Duration,
    /// Fault accounting accumulated since the last drain.
    fault_acc: FaultReport,
    /// The in-flight canary rollout, if any.
    canary: Option<CanaryRun>,
    /// Shards retired after their worker faulted with no spare left.
    lost: Vec<bool>,
}

/// An in-flight canary rollout: the candidate update, the shard split,
/// and the rollback points captured on each canary shard.
struct CanaryRun {
    update: Arc<ModelUpdate>,
    /// Shards `first_canary..shards` run the candidate; `0..first_canary`
    /// stay on the incumbent as the control group.
    first_canary: usize,
    points: Vec<(usize, RollbackPoint)>,
}

/// Supervision plan handed from the builder to the resident service.
pub(crate) struct SupervisePlan {
    pub(crate) spares: Vec<TaurusSwitch>,
    pub(crate) control_timeout: Duration,
    pub(crate) faults: FaultPlan,
}

/// Ingest-side plan handed from the builder to the resident service:
/// pipeline geometry, routing modulus, the shared cross-flow windows,
/// and (keyed mode) the ingest-side flow directory.
pub(crate) struct IngestPlan {
    pub(crate) parse_workers: usize,
    pub(crate) epoch_len: usize,
    pub(crate) route_slots: usize,
    pub(crate) windows: CrossFlowWindows,
    pub(crate) directory: Option<FlowTable>,
    pub(crate) overload: OverloadPolicy,
}

impl StreamingRuntime {
    /// Spawns the resident workers, each owning one replica. Called by
    /// the builder after validation.
    pub(crate) fn new(
        switches: Vec<TaurusSwitch>,
        batch_size: usize,
        queue_depth: usize,
        ingest: IngestPlan,
        supervise: SupervisePlan,
    ) -> Self {
        let IngestPlan { parse_workers, epoch_len, route_slots, windows, directory, overload } =
            ingest;
        let SupervisePlan { spares, control_timeout, faults } = supervise;
        // Ingest-side overload state: the saturation windows are carved
        // off the fault plan before the per-shard worker slices are.
        let overload = OverloadState::new(overload, faults.for_ingest(), route_slots);
        let shards = switches.len();
        // Provision the recycle pool up front: a shard's buffer cycle
        // peaks at `queue_depth + 3` buffers (staging + in-flight +
        // worker + freshly taken), so this many can ever be live. With
        // the pool pre-filled, `take_buf` never allocates — every feed
        // past the first is allocation-free (the first still grows each
        // arena's slots to `batch_size` in place).
        let mut batch_pool: Vec<Batch> = Vec::new();
        let provision = shards * (queue_depth + 3);
        while batch_pool.len() < provision {
            batch_pool.push(Vec::with_capacity(batch_size));
        }
        let versions = switches.first().map(TaurusSwitch::app_versions).unwrap_or_default();
        let steer = SteerState::new(shards, &mut batch_pool);
        let mut senders = Vec::with_capacity(shards);
        let mut recycle = Vec::with_capacity(shards);
        let mut replies = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (shard, switch) in switches.into_iter().enumerate() {
            let (tx, pool_rx, reply_rx, handle) =
                spawn_worker(switch, queue_depth, faults.for_shard(shard));
            senders.push(tx);
            recycle.push(pool_rx);
            replies.push(reply_rx);
            workers.push(handle);
        }
        let supervised = !spares.is_empty();
        Self {
            senders,
            recycle,
            replies,
            workers,
            retired: Vec::new(),
            shards,
            batch_size,
            queue_depth,
            parse_workers,
            epoch_len,
            route_slots,
            // With a keyed directory, flow starts are table-miss
            // semantics: the builder keeps no seen-set at all.
            obs_builder: if directory.is_some() {
                ObsBuilder::untracked()
            } else {
                ObsBuilder::new()
            },
            windows,
            directory,
            overload,
            steer,
            batch_pool,
            epoch_pool: Vec::new(),
            epoch_seen: HashSet::with_capacity(if parse_workers == 0 { epoch_len } else { 0 }),
            pending: Vec::new(),
            position: 0,
            versions,
            spares,
            supervised,
            history: Vec::new(),
            control_timeout,
            fault_acc: FaultReport::default(),
            canary: None,
            lost: vec![false; shards],
        }
    }

    /// Number of shards (resident switch replicas / worker threads).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Packets per ingest batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Parse workers per feed (`0` = the calling thread parses).
    pub fn parse_worker_count(&self) -> usize {
        self.parse_workers
    }

    /// Packets per ingest epoch.
    pub fn epoch_len(&self) -> usize {
        self.epoch_len
    }

    /// Global stream position: packets fed since construction. A feed
    /// advances the clock by its length, whatever became of its packets
    /// (quarantined, shed, or cut off by a dead shard) and whatever the
    /// parse-worker count. Monotone — [`StreamingRuntime::reset`] clears
    /// flow state, not the stream clock.
    pub fn stream_position(&self) -> u64 {
        self.position
    }

    /// The configured [`OverloadPolicy`]: what the steer stage does
    /// when a shard's lane is saturated.
    pub fn overload_policy(&self) -> OverloadPolicy {
        self.overload.policy()
    }

    /// Pushes a slice of the stream through the resident service: the
    /// ingest pipeline parses it (on the calling thread, or on
    /// `parse_workers` scoped workers), merges observations and the
    /// shared cross-flow windows in arrival order, routes and batches,
    /// while the resident engine workers consume over the bounded SPSC
    /// lanes — the lanes' backpressure is the feed's backpressure. Partial
    /// batches are flushed before returning, so the engines observe
    /// the whole feed without waiting for the next one.
    ///
    /// Packets must be in arrival order; timestamps should be monotone
    /// across feeds (the stream is one logical trace). Returns the
    /// number of scheduled updates consumed by this feed.
    pub fn feed(&mut self, packets: &[TracePacket]) -> usize {
        // Take the pending list so ingest can borrow it immutably next
        // to the mutable field borrows below; moved back (minus the
        // consumed prefix) afterwards — no allocation either way.
        let mut updates = std::mem::take(&mut self.pending);
        let consumed = pipeline::run(PipelineRun {
            packets,
            stream_base: self.position,
            workers: self.parse_workers,
            epoch_len: self.epoch_len,
            route_slots: self.route_slots,
            shards: self.shards,
            batch_size: self.batch_size,
            updates: &updates,
            seen: &mut self.obs_builder,
            windows: &mut self.windows,
            directory: &mut self.directory,
            overload: &mut self.overload,
            steer: &mut self.steer,
            batch_pool: &mut self.batch_pool,
            epoch_pool: &mut self.epoch_pool,
            epoch_seen: &mut self.epoch_seen,
            recycle: &self.recycle,
            senders: &self.senders,
        });
        self.position += packets.len() as u64;
        for (_, update) in updates.drain(..consumed) {
            self.note_installed(&update);
        }
        self.pending = updates;
        consumed
    }

    /// Drains the service deterministically: installs every update
    /// still pending (they were scheduled for this stream, and the
    /// stream is ending), flushes every staged partial batch, then
    /// barriers on all workers for their snapshots and assembles the
    /// merged report.
    /// Per-run statistics ([`ShardStats::packets`]/`batches`, the
    /// segment confusions) restart after a drain; replica reports and
    /// flow state persist.
    ///
    /// # Panics
    ///
    /// Without supervision (no spare replicas configured), re-raises
    /// the first panic a worker caught since the last drain (an app
    /// engine panicking, a scheduled update failing to install) — after
    /// the barrier completed on every shard, so the service is quiesced
    /// and can be [`StreamingRuntime::reset`] and reused. With spares,
    /// the fault becomes accounting instead: the pre-panic snapshot
    /// merges, the worker is respawned from a rehydrated spare, and
    /// [`RuntimeReport::faults`] records what happened.
    pub fn drain(&mut self) -> RuntimeReport {
        // Leftover updates land after the last fed packet.
        let updates = std::mem::take(&mut self.pending);
        let batch_size = self.batch_size;
        let mut installed = 0usize;
        {
            let Self { senders, recycle, steer, batch_pool, fault_acc, overload, .. } = self;
            let mut steer =
                Steering::new(steer, batch_size, batch_pool, recycle, senders, overload);
            for (_, update) in &updates {
                match steer.flush_and_update(update) {
                    Ok(()) => installed += 1,
                    Err(err) => {
                        fault_acc.records.push(FaultRecord {
                            shard: err.shard(),
                            kind: FaultRecordKind::InstallFailed,
                            detail: format!(
                                "in-band update `{}` v{} not delivered: {err}",
                                update.app, update.version
                            ),
                        });
                        break;
                    }
                }
            }
            let _ = steer.flush_partials();
        }
        for (_, update) in updates.iter().take(installed) {
            self.note_installed(update);
        }
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::Drain);
        }
        // Collect every reply before acting on any: the full barrier
        // guarantees all shards are quiesced even if one panicked.
        let timeout = self.control_timeout;
        let raw: Vec<Option<Result<WorkerReply, spsc::RecvTimeoutError>>> = self
            .replies
            .iter()
            .enumerate()
            .map(|(shard, rx)| if self.lost[shard] { None } else { Some(rx.recv_timeout(timeout)) })
            .collect();
        // Reclaim buffers parked in the recycle lanes so the next feed
        // starts fully provisioned.
        for lane in &self.recycle {
            while let Ok(buf) = lane.try_recv() {
                self.batch_pool.push(buf);
            }
        }
        // (shard, snapshot, faulted): faulted snapshots carry only the
        // traffic processed before the panic.
        let mut snapshots: Vec<(usize, WorkerSnapshot, bool)> = Vec::with_capacity(self.shards);
        let mut to_respawn: Vec<usize> = Vec::new();
        let mut panic_payload: Option<Box<dyn Any + Send>> = None;
        for (shard, entry) in raw.into_iter().enumerate() {
            let Some(result) = entry else { continue };
            match result {
                Ok(WorkerReply::Snapshot(snapshot)) => snapshots.push((shard, *snapshot, false)),
                Ok(WorkerReply::Panicked { payload, snapshot, dropped_batches }) => {
                    if self.supervised {
                        self.fault_acc.records.push(FaultRecord {
                            shard,
                            kind: FaultRecordKind::WorkerPanic,
                            detail: panic_detail(payload.as_ref()),
                        });
                        self.fault_acc.batches_dropped += dropped_batches;
                        snapshots.push((shard, *snapshot, true));
                        to_respawn.push(shard);
                    } else {
                        // Legacy contract: the drain re-raises.
                        panic_payload.get_or_insert(payload);
                    }
                }
                Ok(WorkerReply::Install(_))
                | Ok(WorkerReply::Canary(_))
                | Ok(WorkerReply::Metrics { .. }) => {
                    // A stale control-plane reply at the drain barrier:
                    // the shard is out of protocol; replace it.
                    self.fault_acc.records.push(FaultRecord {
                        shard,
                        kind: FaultRecordKind::Unresponsive,
                        detail: "stale control-plane reply at the drain barrier".into(),
                    });
                    to_respawn.push(shard);
                }
                Err(spsc::RecvTimeoutError::Timeout) => {
                    self.fault_acc.records.push(FaultRecord {
                        shard,
                        kind: FaultRecordKind::Unresponsive,
                        detail: format!("no drain reply within {} ms", timeout.as_millis()),
                    });
                    to_respawn.push(shard);
                }
                Err(spsc::RecvTimeoutError::Disconnected) => {
                    if self.supervised {
                        self.fault_acc.records.push(FaultRecord {
                            shard,
                            kind: FaultRecordKind::WorkerPanic,
                            detail: "worker lane closed outside the panic protocol".into(),
                        });
                        to_respawn.push(shard);
                    } else {
                        panic!("engine worker {shard} died outside the panic protocol");
                    }
                }
            }
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
        let any_faulted = !to_respawn.is_empty();
        for shard in to_respawn {
            if self.respawn(shard) {
                self.fault_acc.worker_restarts += 1;
            } else {
                self.retire_shard(shard);
                self.fault_acc.records.push(FaultRecord {
                    shard,
                    kind: FaultRecordKind::ShardLost,
                    detail: "no spare replica left; shard retired".into(),
                });
            }
        }
        if any_faulted {
            // Faulted lanes were replaced; clear the steer's dead latch
            // so the next feed flows again.
            self.steer.clear_dead();
        }
        let mut segments: Vec<BinaryMetrics> = Vec::new();
        let mut versions_seeded = false;
        let shards: Vec<ShardStats> = snapshots
            .into_iter()
            .map(|(shard, snapshot, faulted)| {
                if !faulted && !versions_seeded {
                    self.versions = snapshot.versions.clone();
                    versions_seeded = true;
                }
                // Absorb segments element-wise as a prefix: a panicked
                // worker skipped in-band updates while poisoned, so its
                // segment list may be shorter than a healthy shard's.
                if !any_faulted && !segments.is_empty() {
                    debug_assert_eq!(segments.len(), snapshot.segments.len());
                }
                if snapshot.segments.len() > segments.len() {
                    segments.resize(snapshot.segments.len(), BinaryMetrics::default());
                }
                for (acc, seg) in segments.iter_mut().zip(&snapshot.segments) {
                    acc.absorb(seg);
                }
                ShardStats {
                    shard,
                    packets: snapshot.processed,
                    batches: snapshot.batches,
                    report: snapshot.report,
                }
            })
            .collect();
        let merged = SwitchReport::merged(shards.iter().map(|s| &s.report)).unwrap_or_default();
        let faults = std::mem::take(&mut self.fault_acc);
        let overload = self.overload.take_report(self.shards);
        RuntimeReport { merged, shards, segments, faults, overload }
    }

    /// Replaces a faulted worker with a spare replica rehydrated to the
    /// fleet's current models (builder roster + the accepted update
    /// history, plus the in-flight canary model on canary shards).
    /// Returns `false` when no spare is left.
    fn respawn(&mut self, shard: usize) -> bool {
        let Some(mut switch) = self.spares.pop() else {
            return false;
        };
        for update in &self.history {
            // The history was accepted by identical replicas; replay
            // cannot fail, but a spare must never panic the supervisor.
            let _ = switch.install_update(update);
        }
        if let Some(run) = &mut self.canary {
            if shard >= run.first_canary {
                if let Ok(point) = switch.capture_rollback(&run.update.app) {
                    if switch.install_update(&run.update).is_ok() {
                        match run.points.iter_mut().find(|(s, _)| *s == shard) {
                            Some(entry) => entry.1 = point,
                            None => run.points.push((shard, point)),
                        }
                    }
                }
            }
        }
        let (tx, pool_rx, reply_rx, handle) =
            spawn_worker(switch, self.queue_depth, WorkerFaults::none());
        // Dropping the old sender ends the old worker's loop; its
        // handle parks in `retired` and is joined at teardown.
        drop(std::mem::replace(&mut self.senders[shard], tx));
        self.recycle[shard] = pool_rx;
        self.replies[shard] = reply_rx;
        self.retired.push(std::mem::replace(&mut self.workers[shard], handle));
        true
    }

    /// Retires a shard for good: its lanes are replaced with closed
    /// ones (sends fail fast) and it is skipped by every later barrier.
    fn retire_shard(&mut self, shard: usize) {
        let (dead_tx, _) = spsc::channel::<ShardMsg>(1);
        drop(std::mem::replace(&mut self.senders[shard], dead_tx));
        let (_, dead_pool) = spsc::channel::<Batch>(1);
        let (_, dead_reply) = spsc::channel::<WorkerReply>(1);
        self.recycle[shard] = dead_pool;
        self.replies[shard] = dead_reply;
        self.lost[shard] = true;
    }

    /// Drains, then tears the service down: closes every lane, joins
    /// every resident worker, and returns the final report.
    pub fn shutdown(mut self) -> RuntimeReport {
        let report = self.drain();
        self.senders.clear(); // closing the lanes ends the worker loops
        for worker in self.workers.drain(..).chain(self.retired.drain(..)) {
            let _ = worker.join();
        }
        report
    }

    /// Feeds a whole trace and drains.
    pub fn run_trace(&mut self, trace: &PacketTrace) -> RuntimeReport {
        self.feed(&trace.packets);
        self.drain()
    }

    /// Installs a model update on every shard *now* (at the current
    /// stream barrier: after everything already fed, before anything
    /// fed next). The install is **broadcast before any reply is
    /// awaited**: replicas are identical by construction, so they all
    /// render the same accept/reject verdict, and a shard whose
    /// acknowledgement is lost cannot leave the rest of the fleet
    /// behind — the model still reached every live worker, and the
    /// next [`StreamingRuntime::drain`] re-syncs the version mirror
    /// from the worker snapshots.
    ///
    /// # Errors
    ///
    /// [`InstallError::Rejected`] wraps the replica's verdict (see
    /// [`TaurusSwitch::install_update`]); [`InstallError::Shard`] means
    /// a shard is dead or did not reply within the control timeout;
    /// [`InstallError::CanaryActive`] means a canary rollout must be
    /// concluded first.
    pub fn install_update(&mut self, update: &ModelUpdate) -> Result<(), InstallError> {
        if self.canary.is_some() {
            return Err(InstallError::CanaryActive);
        }
        let shared = Arc::new(update.clone());
        let mut sent = 0;
        let mut first_err: Option<InstallError> = None;
        for shard in 0..self.shards {
            if self.lost[shard]
                || self.senders[shard].send(ShardMsg::Install(Arc::clone(&shared))).is_err()
            {
                first_err = Some(ShardError::Dead { shard }.into());
                break;
            }
            sent += 1;
        }
        // Gather every outstanding reply even after a failure so the
        // reply lanes stay aligned for the next control operation.
        for shard in 0..sent {
            if let Err(e) = self.await_install_reply(shard) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => {
                self.note_installed(&shared);
                Ok(())
            }
            Some(e) => Err(e),
        }
    }

    fn await_install_reply(&mut self, shard: usize) -> Result<(), InstallError> {
        match self.replies[shard].recv_timeout(self.control_timeout) {
            Ok(WorkerReply::Install(result)) => result.map_err(InstallError::Rejected),
            Ok(_) => Err(ShardError::Dead { shard }.into()),
            Err(spsc::RecvTimeoutError::Timeout) => {
                self.fault_acc.records.push(FaultRecord {
                    shard,
                    kind: FaultRecordKind::Unresponsive,
                    detail: format!(
                        "no install reply within {} ms",
                        self.control_timeout.as_millis()
                    ),
                });
                Err(ShardError::Unresponsive { shard, waited: self.control_timeout }.into())
            }
            Err(spsc::RecvTimeoutError::Disconnected) => Err(ShardError::Dead { shard }.into()),
        }
    }

    /// Schedules a live update for **global stream index**
    /// `at_stream_index`: it is applied on every shard at that barrier
    /// — packets with a smaller stream index are decided by the old
    /// model, later ones by the new — whichever future feed contains
    /// the index. Indices at or before the current position install at
    /// the next feed's first packet; indices past the stream's end
    /// install at the drain.
    ///
    /// Invalid updates (unknown app, stale version, wrong backend)
    /// surface as a re-raised panic at the next drain — scheduling
    /// cannot check them against the future stream.
    pub fn schedule_update(&mut self, at_stream_index: u64, update: ModelUpdate) {
        self.pending.push((at_stream_index, Arc::new(update)));
        self.pending.sort_by_key(|&(at, _)| at);
    }

    /// Updates still awaiting their stream index (index, app, version).
    pub fn scheduled_updates(&self) -> Vec<(u64, String, u64)> {
        self.pending.iter().map(|(at, u)| (*at, u.app.clone(), u.version)).collect()
    }

    /// Installed model versions per app (registration order). All
    /// shards agree by construction; this reads the service's mirror,
    /// which every install advances and every drain re-syncs from
    /// shard 0.
    pub fn app_versions(&self) -> Vec<(String, u64)> {
        self.versions.clone()
    }

    fn note_installed(&mut self, update: &Arc<ModelUpdate>) {
        if let Some(entry) = self.versions.iter_mut().find(|(name, _)| *name == update.app) {
            entry.1 = update.version;
        }
        // Remember every accepted update so a spare replica can be
        // rehydrated to the fleet's current models on respawn.
        self.history.push(Arc::clone(update));
    }

    /// Flushes every staged partial batch — a stream barrier: all
    /// packets fed so far are delivered before whatever comes next.
    fn flush_partials_now(&mut self) -> Result<(), ShardError> {
        let Self { senders, recycle, steer, batch_pool, batch_size, overload, .. } = self;
        let mut steer = Steering::new(steer, *batch_size, batch_pool, recycle, senders, overload);
        steer.flush_partials()
    }

    /// Starts a canary rollout: installs `update` on the **last**
    /// `canary_shards` shards (clamped to `1..=shards`; shard 0 always
    /// stays in the control group) at the current stream barrier, after
    /// capturing a bit-exact rollback point on each. Control shards
    /// take a synchronized segment boundary, so from this barrier on,
    /// every shard's *current* segment isolates probation traffic.
    /// Conclude with [`StreamingRuntime::conclude_canary`] before the
    /// next drain.
    ///
    /// ```
    /// use taurus_core::apps::SynFloodDetector;
    /// use taurus_core::EngineBackend;
    /// use taurus_dataset::kdd::KddGenerator;
    /// use taurus_dataset::trace::{PacketTrace, TraceConfig};
    /// use taurus_runtime::{CanaryDecision, CanaryGuardrails, RuntimeBuilder};
    ///
    /// let syn = SynFloodDetector::default_deployment();
    /// let mut service = RuntimeBuilder::new()
    ///     .shards(2)
    ///     .register_on(&syn, EngineBackend::Threshold)
    ///     .build_streaming();
    /// let records = KddGenerator::new(7).take(120);
    /// let trace = PacketTrace::expand(records, &TraceConfig::default());
    ///
    /// // Guardrails sized for a short probation: the canary shard sees
    /// // different flows than the control shard, so even an identical
    /// // model shows slice-to-slice metric noise.
    /// let guardrails =
    ///     CanaryGuardrails { max_f1_drop: 30.0, max_positive_rate_delta: 0.3, min_samples: 50 };
    /// // The incumbent's own cutoff: expected to promote.
    /// let candidate = syn.retune(40, 1, EngineBackend::Threshold);
    /// service.begin_canary(&candidate, 1).expect("fresh rollout");
    /// service.feed(&trace.packets); // probation traffic
    /// let verdict = service.conclude_canary(&guardrails).expect("rollout concludes");
    /// assert_eq!(verdict.decision, CanaryDecision::Promote);
    /// ```
    ///
    /// # Errors
    ///
    /// [`InstallError::CanaryActive`] if a rollout is already in
    /// flight; [`InstallError::Rejected`] if the candidate is invalid
    /// (stale version, wrong backend, no formatter factory to capture a
    /// rollback point from) — the fleet is untouched in that case;
    /// [`InstallError::Shard`] on a dead or unresponsive shard.
    pub fn begin_canary(
        &mut self,
        update: &ModelUpdate,
        canary_shards: usize,
    ) -> Result<(), InstallError> {
        if self.canary.is_some() {
            return Err(InstallError::CanaryActive);
        }
        let n = canary_shards.clamp(1, self.shards);
        let first_canary = self.shards - n;
        self.flush_partials_now()?;
        let shared = Arc::new(update.clone());
        let mut points: Vec<(usize, RollbackPoint)> = Vec::new();
        for shard in first_canary..self.shards {
            if self.lost[shard] {
                return Err(ShardError::Dead { shard }.into());
            }
            if self.senders[shard].send(ShardMsg::CanaryInstall(Arc::clone(&shared))).is_err() {
                return Err(ShardError::Dead { shard }.into());
            }
            match self.replies[shard].recv_timeout(self.control_timeout) {
                Ok(WorkerReply::Canary(Ok(point))) => points.push((shard, *point)),
                Ok(WorkerReply::Canary(Err(e))) => {
                    // Replicas are identical, so the first canary shard
                    // vets the candidate for all of them: a rejection
                    // lands here before any other replica changed. (If
                    // a later shard disagreed anyway, restore the ones
                    // already switched.)
                    for (s, p) in &points {
                        let _ = self.senders[*s].send(ShardMsg::Rollback(Box::new(p.clone())));
                        let _ = self.replies[*s].recv_timeout(self.control_timeout);
                    }
                    return Err(InstallError::Rejected(e));
                }
                Ok(_) => return Err(ShardError::Dead { shard }.into()),
                Err(spsc::RecvTimeoutError::Timeout) => {
                    return Err(
                        ShardError::Unresponsive { shard, waited: self.control_timeout }.into()
                    )
                }
                Err(spsc::RecvTimeoutError::Disconnected) => {
                    return Err(ShardError::Dead { shard }.into())
                }
            }
        }
        // Synchronized segment boundary on the control shards: segment
        // lists stay aligned across the fleet and each shard's current
        // segment now covers exactly the probation window.
        for shard in 0..first_canary {
            let _ = self.senders[shard].send(ShardMsg::MarkSegment);
        }
        self.canary = Some(CanaryRun { update: shared, first_canary, points });
        Ok(())
    }

    /// Whether a canary rollout is currently in flight.
    pub fn canary_active(&self) -> bool {
        self.canary.is_some()
    }

    /// Ends the probation window at the current stream barrier and
    /// decides the rollout: merges the probation-window confusion of
    /// the canary shards against the control group (see
    /// [`canary_decision`] — a pure function of the merged metrics, so
    /// the verdict is invariant to shard geometry for models the two
    /// groups score identically). **Promote** installs the candidate on
    /// the control shards; **Rollback** restores every canary shard
    /// from its captured point, bit-exactly. Either way the fleet is
    /// uniform again and the verdict lands in the next drain's
    /// [`RuntimeReport::faults`].
    ///
    /// With a single shard there is no control group; the shard's own
    /// pre-canary segment is the baseline instead.
    ///
    /// # Errors
    ///
    /// [`InstallError::NoCanary`] without a rollout in flight;
    /// [`InstallError::Shard`] on a dead or unresponsive shard.
    pub fn conclude_canary(
        &mut self,
        guardrails: &CanaryGuardrails,
    ) -> Result<CanaryVerdictRecord, InstallError> {
        let run = self.canary.take().ok_or(InstallError::NoCanary)?;
        self.flush_partials_now()?;
        let mut canary_now = BinaryMetrics::default();
        let mut control_now = BinaryMetrics::default();
        let mut fleet_before = BinaryMetrics::default();
        for shard in 0..self.shards {
            if self.lost[shard] {
                continue;
            }
            if self.senders[shard].send(ShardMsg::Metrics).is_err() {
                return Err(ShardError::Dead { shard }.into());
            }
            match self.replies[shard].recv_timeout(self.control_timeout) {
                Ok(WorkerReply::Metrics { previous, current }) => {
                    fleet_before.absorb(&previous);
                    if shard >= run.first_canary {
                        canary_now.absorb(&current);
                    } else {
                        control_now.absorb(&current);
                    }
                }
                Ok(_) => return Err(ShardError::Dead { shard }.into()),
                Err(spsc::RecvTimeoutError::Timeout) => {
                    return Err(
                        ShardError::Unresponsive { shard, waited: self.control_timeout }.into()
                    )
                }
                Err(spsc::RecvTimeoutError::Disconnected) => {
                    return Err(ShardError::Dead { shard }.into())
                }
            }
        }
        let control = if run.first_canary == 0 { fleet_before } else { control_now };
        let decision = canary_decision(&canary_now, &control, guardrails);
        match decision {
            CanaryDecision::Promote => {
                for shard in 0..run.first_canary {
                    if self.lost[shard] {
                        continue;
                    }
                    if self.senders[shard].send(ShardMsg::Promote(Arc::clone(&run.update))).is_err()
                    {
                        return Err(ShardError::Dead { shard }.into());
                    }
                    match self.replies[shard].recv_timeout(self.control_timeout) {
                        Ok(WorkerReply::Install(_)) => {}
                        Ok(_) | Err(spsc::RecvTimeoutError::Disconnected) => {
                            return Err(ShardError::Dead { shard }.into())
                        }
                        Err(spsc::RecvTimeoutError::Timeout) => {
                            return Err(ShardError::Unresponsive {
                                shard,
                                waited: self.control_timeout,
                            }
                            .into())
                        }
                    }
                }
                for shard in run.first_canary..self.shards {
                    let _ = self.senders[shard].send(ShardMsg::MarkSegment);
                }
                self.note_installed(&run.update);
            }
            CanaryDecision::Rollback => {
                for (shard, point) in &run.points {
                    if self.lost[*shard] {
                        continue;
                    }
                    if self.senders[*shard]
                        .send(ShardMsg::Rollback(Box::new(point.clone())))
                        .is_err()
                    {
                        return Err(ShardError::Dead { shard: *shard }.into());
                    }
                    match self.replies[*shard].recv_timeout(self.control_timeout) {
                        Ok(WorkerReply::Install(_)) => {}
                        Ok(_) | Err(spsc::RecvTimeoutError::Disconnected) => {
                            return Err(ShardError::Dead { shard: *shard }.into())
                        }
                        Err(spsc::RecvTimeoutError::Timeout) => {
                            return Err(ShardError::Unresponsive {
                                shard: *shard,
                                waited: self.control_timeout,
                            }
                            .into())
                        }
                    }
                }
                for shard in 0..run.first_canary {
                    let _ = self.senders[shard].send(ShardMsg::MarkSegment);
                }
                self.fault_acc.rollbacks_taken += 1;
            }
        }
        let record = CanaryVerdictRecord {
            app: run.update.app.clone(),
            version: run.update.version,
            decision,
            canary: canary_now,
            control,
        };
        self.fault_acc.canary_verdicts.push(record.clone());
        Ok(record)
    }

    /// Clears every replica's flow state and counters (including any
    /// caught panic) plus the shared ingest state. Installed models and
    /// their versions survive, as do scheduled updates and the stream
    /// position — reset separates experiment phases, it does not roll
    /// back deployments or rewind the stream clock. The reset message
    /// travels in-band, so it takes effect after everything already fed
    /// and before anything fed next.
    pub fn reset(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::Reset);
        }
        self.obs_builder.reset();
        self.windows.clear();
        if let Some(dir) = &mut self.directory {
            dir.clear();
        }
    }
}

impl Drop for StreamingRuntime {
    /// Tears down without a report: closes the lanes and joins the
    /// workers (no-op after [`StreamingRuntime::shutdown`]). A caught
    /// worker panic dies with the service — dropping instead of
    /// draining is the "I don't care about the outcome" path.
    fn drop(&mut self) {
        self.senders.clear();
        for worker in self.workers.drain(..).chain(self.retired.drain(..)) {
            let _ = worker.join();
        }
    }
}

impl core::fmt::Debug for StreamingRuntime {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StreamingRuntime")
            .field("shards", &self.shards)
            .field("batch_size", &self.batch_size)
            .field("parse_workers", &self.parse_workers)
            .field("epoch_len", &self.epoch_len)
            .field("stream_position", &self.position)
            .finish()
    }
}

/// Renders a caught panic payload for a [`FaultRecord`].
fn panic_detail(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}
