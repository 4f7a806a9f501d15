//! The ingest pipeline: epoch-stamped flow steering in front of the
//! sharded engine workers. It is the runtime's one ingest path.
//!
//! ```text
//!            ┌──────────────┐  EpochBatch lanes   ┌───────────────┐
//!  trace ──▶ │ parse worker │ ──────────────────▶ │               │   PreparedPacket   ┌───────────────┐
//!  (slices,  │      0..N    │   (epochs in index  │  merge+steer  │ ─────batches─────▶ │ engine worker │
//!   epochs   │  order-free  │    order, one lane  │  order-bound  │   (recycled-arena  │     0..S      │
//!   e%N→w)   │  parse/route │ ◀──────per worker)  │  windows+seen │     SPSC lanes)    │  MATs + CGRA  │
//!            └──────────────┘   arena recycle     └───────────────┘                    └───────────────┘
//! ```
//!
//! The trace is cut into contiguous epochs of `epoch_len` packets;
//! parse worker `w` owns epochs `w, w+N, w+2N, …` and does everything
//! packet-local — wire form, register keys, flow-start flag predicate,
//! home shard, and the epoch-local first-seen *candidate* filter — with
//! no shared state at all. The merge stage consumes epochs strictly in
//! index order (each worker's output lane is itself FIFO, so lane
//! round-robin by `epoch % N` *is* index order), finishes each packet
//! with the only order-bound work left (global first-seen resolution on
//! candidates, the one shared [`CrossFlowWindows`] walk), and steers it
//! onto its home shard's engine lane. The reassembled stream the
//! engines observe is the global arrival order, so the merged report is
//! bit-identical to the sequential switch — see `steer.rs` for the
//! candidate-resolution argument and `tests/prop_pipeline.rs` for the
//! property pin.
//!
//! With **zero** parse workers the calling thread parses each epoch
//! itself (`stage::parse_epoch`, the parse workers' own code) into
//! one resident arena and merges it with the same code that merges the
//! workers' epochs — no threads, no lanes, and the same stream.
//!
//! # Allocation discipline
//!
//! Epoch arenas follow the same recycled-arena protocol as the
//! steer→engine batches: [`ARENAS_PER_WORKER`] arenas circulate per
//! worker over a dedicated out/recycle lane pair, pre-provisioned from
//! a cross-run pool before any worker spawns, rewritten in place, and
//! deterministically recovered at run end (the merge stage pushes each
//! worker's final arena straight to the pool; the worker drains the
//! rest and returns them through its join value). Steady-state runs
//! allocate no epoch memory; `tests/no_alloc.rs` pins this with the
//! counting allocator. The zero-worker path enters no thread scope and
//! draws its arena and candidate set from the runtime's resident pools,
//! so a warmed feed allocates nothing at all.
//!
//! # Update barrier
//!
//! Scheduled updates key on *global packet index*, which every slot
//! carries (`arena.base + i`), so the merge stage applies the in-band
//! barrier: flush every staged partial batch, then enqueue the update
//! on every engine lane. Mid-epoch indices need no special case — the
//! check runs per slot, not per epoch.

pub mod epoch;
pub mod stage;
pub mod steer;

pub use epoch::{epoch_count, EpochBatch, ParsedSlot, ARENAS_PER_WORKER};
pub use stage::parse_packet;
pub use steer::resolve_and_count;

use std::collections::HashSet;
use std::sync::Arc;

use taurus_core::ingest::{IngestValidator, ObsBuilder};
use taurus_core::ModelUpdate;
use taurus_dataset::trace::TracePacket;
use taurus_pisa::{CrossFlowWindows, FlowTable};

use crate::overload::OverloadState;
use crate::pipeline::stage::{parse_epoch, parse_worker, ParsePlan};
use crate::pipeline::steer::{Batch, ShardMsg, SteerState, Steering};
use crate::spsc;

/// Everything one ingest feed borrows from the runtime: the stream, the
/// geometry, the order-bound state, and the lanes/pools the engine side
/// already set up.
pub(crate) struct PipelineRun<'a> {
    /// The packet stream, in arrival order.
    pub packets: &'a [TracePacket],
    /// Global stream index of `packets[0]` — nonzero once earlier feeds
    /// advanced the resident runtime's position.
    pub stream_base: u64,
    /// Parse workers to spawn; `0` parses on the calling thread.
    pub workers: usize,
    /// Packets per epoch.
    pub epoch_len: usize,
    /// Register-slot count routing folds through (see
    /// [`crate::runtime::shard_of`]).
    pub route_slots: usize,
    /// Engine shard count.
    pub shards: usize,
    /// Packets per steer→engine batch.
    pub batch_size: usize,
    /// Pending updates, sorted by global install index. Only those whose
    /// index falls inside this feed are consumed (the return value says
    /// how many); later ones stay pending for future feeds or the drain.
    pub updates: &'a [(u64, Arc<ModelUpdate>)],
    /// Global first-seen bookkeeping (order-bound, merge-stage-owned).
    pub seen: &'a mut ObsBuilder,
    /// The one shared cross-flow window instance (order-bound).
    pub windows: &'a mut CrossFlowWindows,
    /// Keyed mode's shared flow directory (order-bound, merge-stage
    /// owned): `Some` routes flow-start resolution through table-miss
    /// semantics instead of the seen-set.
    pub directory: &'a mut Option<FlowTable>,
    /// The admission layer: overload policy, injected saturation
    /// windows, and the shed/degrade/quarantine accounting.
    pub overload: &'a mut OverloadState,
    /// The resident steer staging state.
    pub steer: &'a mut SteerState,
    /// Cross-run pool of steer→engine batch arenas.
    pub batch_pool: &'a mut Vec<Batch>,
    /// Cross-run pool of epoch arenas.
    pub epoch_pool: &'a mut Vec<EpochBatch>,
    /// The resident epoch-local candidate set the calling thread parses
    /// with when `workers == 0` (parse workers own their own).
    pub epoch_seen: &'a mut HashSet<u32>,
    /// Per-shard reverse lanes returning drained engine batches.
    pub recycle: &'a [spsc::Receiver<Batch>],
    /// Per-shard steer→engine lanes.
    pub senders: &'a [spsc::Sender<ShardMsg>],
}

/// The merge stage: the order-bound half of ingest, fed one parsed
/// epoch at a time in index order.
struct Merge<'a> {
    packets: &'a [TracePacket],
    stream_base: u64,
    updates: &'a [(u64, Arc<ModelUpdate>)],
    /// Updates installed so far this feed.
    next_update: usize,
    seen: &'a mut ObsBuilder,
    windows: &'a mut CrossFlowWindows,
    directory: &'a mut Option<FlowTable>,
    /// The feed-scoped ingest frontier. Validation runs here, in global
    /// arrival order, so quarantine decisions (monotonicity included)
    /// do not depend on the parse-worker count.
    validator: IngestValidator,
    steer: Steering<'a>,
    /// Per-epoch candidate requeue: when an epoch's first-seen candidate
    /// for a connection is quarantined or bypassed, the next surviving
    /// packet of that connection *in the same epoch* inherits the
    /// candidate bit — so the first admitted packet of every connection
    /// still probes the global seen-set, exactly as a per-packet
    /// `mark_seen` would on the filtered stream. Cleared at each epoch
    /// boundary (candidates are epoch-local); empty on every clean run,
    /// so the steady state allocates nothing.
    requeue: HashSet<u32>,
}

impl Merge<'_> {
    /// Merges one parsed epoch and steers its packets onto the engine
    /// lanes. Returns `false` once an engine worker is found dead: the
    /// feed stops and the runtime's next drain diagnoses the shard.
    fn epoch(&mut self, arena: &mut EpochBatch) -> bool {
        self.requeue.clear();
        for i in 0..arena.len {
            // Arena bases are feed-relative; updates key on the global
            // stream index. `<=` (not `==`) so an update scheduled at
            // an index an earlier feed already passed installs before
            // this feed's first packet rather than never.
            let index = self.stream_base + arena.base + i as u64;
            while self.next_update < self.updates.len() && self.updates[self.next_update].0 <= index
            {
                if self.steer.flush_and_update(&self.updates[self.next_update].1).is_err() {
                    return false;
                }
                self.next_update += 1;
            }
            let slot = &mut arena.slots[i];
            let tp = &self.packets[arena.base as usize + i];
            // Quarantine before any stateful ingest: a refused packet
            // costs one counter and still occupies its stream index.
            if let Err(err) = self.validator.admit(tp) {
                self.steer.overload().record_quarantine(err);
                if slot.candidate {
                    self.requeue.insert(slot.conn_id);
                }
                continue;
            }
            let shard = slot.shard as usize;
            if self.steer.overload().saturated(shard, index) {
                self.steer.overload().record_bypass(
                    shard,
                    slot.prepared.obs.flow_key,
                    tp.anomalous,
                );
                if slot.candidate {
                    self.requeue.insert(slot.conn_id);
                }
                continue;
            }
            if !self.requeue.is_empty() && !slot.candidate && self.requeue.remove(&slot.conn_id) {
                slot.candidate = true;
            }
            slot.prepared.index = index;
            resolve_and_count(slot, self.seen, self.windows, self.directory.as_mut());
            self.steer.slot(shard).clone_from(&slot.prepared);
            if !self.steer.commit(shard) {
                return false;
            }
        }
        true
    }
}

/// Drives one ingest feed: parses the feed epoch by epoch — on the
/// calling thread when `workers == 0`, otherwise on `workers` scoped
/// parse workers running alongside the already-running engine workers
/// — merges the epochs in index order, and steers finished packets to
/// the engine lanes. Partial batches are flushed at the feed boundary,
/// so the engines observe every packet without waiting for a next feed.
/// Returns the number of scheduled updates consumed, with every parse
/// worker joined; a parse-worker panic is resumed on the calling thread
/// (engine panics surface later, at the runtime's drain).
pub(crate) fn run(job: PipelineRun<'_>) -> usize {
    let PipelineRun {
        packets,
        stream_base,
        workers,
        epoch_len,
        route_slots,
        shards,
        batch_size,
        updates,
        seen,
        windows,
        directory,
        overload,
        steer,
        batch_pool,
        epoch_pool,
        epoch_seen,
        recycle,
        senders,
    } = job;
    let epochs = epoch_count(packets.len(), epoch_len);
    let plan = ParsePlan { workers, epoch_len, route_slots, shards, keyed: directory.is_some() };
    let mut merge = Merge {
        packets,
        stream_base,
        updates,
        next_update: 0,
        seen,
        windows,
        directory,
        validator: IngestValidator::new(),
        steer: Steering::new(steer, batch_size, batch_pool, recycle, senders, overload),
        requeue: HashSet::new(),
    };
    let parse_panic = if workers == 0 {
        let mut arena = epoch_pool.pop().unwrap_or_else(|| EpochBatch::with_capacity(epoch_len));
        for epoch in 0..epochs {
            parse_epoch(epoch, &plan, packets, &mut arena, epoch_seen);
            if !merge.epoch(&mut arena) {
                break;
            }
        }
        epoch_pool.push(arena);
        None
    } else {
        // Provision the epoch-arena pool before spawning anything: with
        // every preload drawn from the pool, steady-state runs of a
        // long-lived runtime allocate no epoch memory (first runs still
        // grow each arena's slots to `epoch_len` in place).
        while epoch_pool.len() < workers * ARENAS_PER_WORKER {
            epoch_pool.push(EpochBatch::with_capacity(epoch_len));
        }
        std::thread::scope(|scope| {
            let mut out_lanes = Vec::with_capacity(workers);
            let mut return_lanes = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for worker in 0..workers {
                // Out lane: at most the worker's own circulating arenas
                // can be in flight, so `ARENAS_PER_WORKER` deep never
                // blocks a send spuriously. Recycle lane: one slot of
                // slack beyond the arena count so the merge stage's
                // return send can never block — the same no-deadlock
                // argument as the engine batch lanes.
                let (out_tx, out_rx) = spsc::channel::<EpochBatch>(ARENAS_PER_WORKER);
                let (ret_tx, ret_rx) = spsc::channel::<EpochBatch>(ARENAS_PER_WORKER + 1);
                for _ in 0..ARENAS_PER_WORKER {
                    let arena = epoch_pool.pop().expect("pool provisioned above");
                    ret_tx.send(arena).expect("preload fits the fresh lane");
                }
                out_lanes.push(out_rx);
                return_lanes.push(ret_tx);
                handles.push(
                    scope.spawn(move || parse_worker(worker, &plan, packets, &out_tx, &ret_rx)),
                );
            }
            for epoch in 0..epochs {
                let worker = epoch % workers;
                let Ok(mut arena) = out_lanes[worker].recv() else {
                    break; // a parse worker died; its panic surfaces at join
                };
                debug_assert_eq!(arena.epoch, epoch as u64, "lanes deliver epochs in index order");
                if !merge.epoch(&mut arena) {
                    epoch_pool.push(arena);
                    break;
                }
                if epoch + workers >= epochs {
                    // The worker's final arena — it will never ask for
                    // another, so return it straight to the pool instead
                    // of the lane. This keeps end-of-run arena recovery
                    // deterministic: the worker drains exactly the
                    // non-final returns (see `parse_worker`), and
                    // nothing races a lane teardown.
                    epoch_pool.push(arena);
                } else if return_lanes[worker].send(arena).is_err() {
                    break; // the worker died; surface at join
                }
            }
            // Close both lane directions: a worker blocked on an
            // out-send (the merge bailed early) or a recycle recv wakes
            // up and exits.
            drop(out_lanes);
            drop(return_lanes);
            let mut panic = None;
            for handle in handles {
                match handle.join() {
                    Ok(kept) => epoch_pool.extend(kept),
                    Err(payload) => {
                        panic.get_or_insert(payload);
                    }
                }
            }
            panic
        })
    };
    // Feed boundary: the engines must observe every packet of this feed
    // now — a next feed (or the drain) may be far away. Updates beyond
    // the feed's end stay pending; the drain installs the leftovers. A
    // dead shard here is diagnosed (and possibly recovered) at the
    // runtime's next barrier, not mid-feed.
    let _ = merge.steer.flush_partials();
    if let Some(payload) = parse_panic {
        std::panic::resume_unwind(payload);
    }
    merge.next_update
}
