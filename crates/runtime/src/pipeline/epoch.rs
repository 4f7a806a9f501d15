//! Epoch-stamped parse output: the unit of work a parse worker hands
//! the merge stage.
//!
//! The trace is cut into contiguous **epochs** of `epoch_len` packets.
//! Epoch `e` is parsed by worker `e % workers`, entirely in parallel
//! with every other epoch, and the merge stage consumes epochs strictly
//! in index order — so the stream the engine shards observe is the
//! global arrival order, reassembled at epoch granularity.
//!
//! A [`ParsedSlot`] carries everything the order-free parse stage could
//! precompute — the wire [`taurus_pisa::Packet`], the keyed observation (minus the
//! first-seen bit), the home shard, and the epoch-local first-seen
//! **candidate** flag — plus the two inputs the merge stage needs to
//! finish the job (`conn_id` for global first-seen resolution,
//! `start_flags_ok` for the flow-start flag predicate). The epoch's
//! candidate set is the pipeline's *partial aggregate*: within one
//! epoch only the first packet of each connection can possibly be the
//! global flow start, so the sequential merge stage resolves first-seen
//! once per (connection, epoch) instead of once per packet.
//!
//! Arenas are recycled exactly like the ingest→worker batch arenas: an
//! [`EpochBatch`]'s slot vector is provisioned once (growing to
//! `epoch_len` during the first run), travels worker → merge → worker
//! over dedicated SPSC lanes, and is rewritten in place — steady-state
//! runs allocate no epoch memory.

use crate::runtime::PreparedPacket;

/// How many epoch arenas circulate per parse worker: one being filled,
/// one in flight on the output lane, one being merged. The recycle
/// lane is sized one deeper so the merge stage's return send can never
/// block (see `pipeline::run`).
pub const ARENAS_PER_WORKER: usize = 3;

/// One packet after the parse stage: the fully prepared form (window
/// counts still zero — the merge stage fills them) plus the merge
/// inputs the parse stage precomputed.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSlot {
    /// The packet as it will cross the steer→engine channel. Its
    /// `obs.is_flow_start`, `dst_count`, and `srv_count` are finalized
    /// by the merge stage; everything else is parse-stage output.
    pub prepared: PreparedPacket,
    /// Originating connection, for global first-seen resolution.
    pub conn_id: u32,
    /// Home shard (`shard_of` over the precomputed flow key), so the
    /// steer stage routes without rehashing.
    pub shard: u32,
    /// Whether this is the connection's first packet *within this
    /// epoch* — the only packets that can be global flow starts.
    pub candidate: bool,
    /// Whether the packet's flags qualify it as a flow start if it is
    /// the global first ([`taurus_core::ingest::flow_start_flags_ok`]).
    pub start_flags_ok: bool,
}

impl Default for ParsedSlot {
    /// A zeroed arena slot, overwritten in place by a parse worker.
    fn default() -> Self {
        Self {
            prepared: PreparedPacket::default(),
            conn_id: 0,
            shard: 0,
            candidate: false,
            start_flags_ok: false,
        }
    }
}

/// One epoch's worth of parsed packets: a recycled slot arena stamped
/// with its epoch index and global base offset.
#[derive(Debug, Default)]
pub struct EpochBatch {
    /// Epoch index in the run (slot `i` holds global packet
    /// `base + i`). The merge stage consumes epochs in this order.
    pub epoch: u64,
    /// Global index of the epoch's first packet.
    pub base: u64,
    /// Live slots (slots beyond `len` are stale leftovers from the
    /// arena's previous trip).
    pub len: usize,
    /// The slot arena; grows to `epoch_len` during the first run and is
    /// rewritten in place thereafter.
    pub slots: Vec<ParsedSlot>,
}

impl EpochBatch {
    /// An empty arena pre-sized for `epoch_len` slots.
    pub fn with_capacity(epoch_len: usize) -> Self {
        Self { epoch: 0, base: 0, len: 0, slots: Vec::with_capacity(epoch_len) }
    }

    /// The live slots.
    pub fn live(&self) -> &[ParsedSlot] {
        &self.slots[..self.len]
    }
}

/// Number of epochs a `packets`-long trace cuts into.
pub fn epoch_count(packets: usize, epoch_len: usize) -> usize {
    packets.div_ceil(epoch_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_count_covers_the_stream_exactly() {
        assert_eq!(epoch_count(0, 64), 0);
        assert_eq!(epoch_count(1, 64), 1);
        assert_eq!(epoch_count(64, 64), 1);
        assert_eq!(epoch_count(65, 64), 2);
        assert_eq!(epoch_count(1000, 1), 1000);
    }

    #[test]
    fn arenas_are_presized_and_grow_in_place() {
        let mut b = EpochBatch::with_capacity(8);
        assert_eq!(b.slots.capacity(), 8);
        assert!(b.live().is_empty());
        for _ in 0..8 {
            b.slots.push(ParsedSlot::default());
        }
        b.len = 5;
        assert_eq!(b.live().len(), 5);
        assert_eq!(b.slots.capacity(), 8, "growth to epoch_len never reallocates");
    }
}
