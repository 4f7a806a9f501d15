//! Queues and schedulers.
//!
//! Fig. 6 splits the traditional single packet queue into sub-queues
//! around the MapReduce block with a round-robin selector joining the ML
//! and bypass paths; egress uses a programmable scheduler (the paper
//! points at PIFO, its \[147\]). This module provides bounded FIFOs, the
//! RR join, a PIFO (push-in-first-out priority queue), and a
//! strict-priority egress scheduler.

use std::collections::{BinaryHeap, VecDeque};

/// A bounded FIFO with drop accounting.
#[derive(Debug, Clone)]
pub struct FifoQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    drops: u64,
}

impl<T> FifoQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self { items: VecDeque::new(), capacity, drops: 0 }
    }

    /// Enqueues, dropping (and counting) on overflow. Returns whether the
    /// item was accepted.
    pub fn push(&mut self, item: T) -> bool {
        if self.items.len() >= self.capacity {
            self.drops += 1;
            return false;
        }
        self.items.push_back(item);
        true
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Packets dropped due to overflow.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

/// Round-robin join of the ML and bypass paths (Fig. 6's "RR" box).
/// Alternates fairly while both queues are backlogged; work-conserving
/// otherwise.
#[derive(Debug, Clone)]
pub struct RoundRobinJoin<T> {
    /// The ML-path queue.
    pub ml: FifoQueue<T>,
    /// The bypass-path queue.
    pub bypass: FifoQueue<T>,
    next_ml: bool,
}

impl<T> RoundRobinJoin<T> {
    /// Creates the join with per-path capacities.
    pub fn new(ml_capacity: usize, bypass_capacity: usize) -> Self {
        Self {
            ml: FifoQueue::new(ml_capacity),
            bypass: FifoQueue::new(bypass_capacity),
            next_ml: true,
        }
    }

    /// Dequeues the next packet, alternating between paths.
    pub fn pop(&mut self) -> Option<T> {
        let first_ml = self.next_ml;
        let (first, second): (&mut FifoQueue<T>, &mut FifoQueue<T>) = if first_ml {
            (&mut self.ml, &mut self.bypass)
        } else {
            (&mut self.bypass, &mut self.ml)
        };
        if let Some(x) = first.pop() {
            self.next_ml = !first_ml;
            return Some(x);
        }
        second.pop()
    }

    /// Total queued packets.
    pub fn len(&self) -> usize {
        self.ml.len() + self.bypass.len()
    }

    /// Whether both paths are empty.
    pub fn is_empty(&self) -> bool {
        self.ml.is_empty() && self.bypass.is_empty()
    }
}

/// A PIFO: packets push in with an arbitrary rank and pop lowest-rank
/// first (ties FIFO). The abstraction behind programmable scheduling at
/// line rate (Sivaraman et al.).
#[derive(Debug, Clone)]
pub struct Pifo<T> {
    heap: BinaryHeap<PifoEntry<T>>,
    seq: u64,
    capacity: usize,
    drops: u64,
}

#[derive(Debug, Clone)]
struct PifoEntry<T> {
    rank: i64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for PifoEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank && self.seq == other.seq
    }
}
impl<T> Eq for PifoEntry<T> {}
impl<T> PartialOrd for PifoEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for PifoEntry<T> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Min-heap by (rank, seq) via reversal.
        other.rank.cmp(&self.rank).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> Pifo<T> {
    /// Creates a PIFO holding at most `capacity` packets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pifo capacity must be positive");
        Self { heap: BinaryHeap::new(), seq: 0, capacity, drops: 0 }
    }

    /// Pushes with a rank; lower ranks pop first. Returns whether the
    /// packet was accepted.
    pub fn push(&mut self, rank: i64, item: T) -> bool {
        if self.heap.len() >= self.capacity {
            self.drops += 1;
            return false;
        }
        self.heap.push(PifoEntry { rank, seq: self.seq, item });
        self.seq += 1;
        true
    }

    /// Pops the lowest-rank (oldest on ties) packet.
    pub fn pop(&mut self) -> Option<(i64, T)> {
        self.heap.pop().map(|e| (e.rank, e.item))
    }

    /// Packets queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the PIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Packets dropped due to overflow.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_overflow() {
        let mut q = FifoQueue::new(2);
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(!q.push(3), "overflow drops");
        assert_eq!(q.drops(), 1);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rr_alternates_under_backlog() {
        let mut j = RoundRobinJoin::new(8, 8);
        for i in 0..3 {
            j.ml.push(("ml", i));
            j.bypass.push(("by", i));
        }
        let order: Vec<&str> = std::iter::from_fn(|| j.pop()).map(|(p, _)| p).collect();
        assert_eq!(order, vec!["ml", "by", "ml", "by", "ml", "by"]);
    }

    #[test]
    fn rr_is_work_conserving() {
        let mut j = RoundRobinJoin::new(8, 8);
        j.bypass.push(1);
        j.bypass.push(2);
        assert_eq!(j.pop(), Some(1), "empty ML path does not block bypass");
        assert_eq!(j.pop(), Some(2));
        assert!(j.is_empty());
    }

    #[test]
    fn pifo_orders_by_rank_then_fifo() {
        let mut p = Pifo::new(8);
        p.push(5, "c");
        p.push(1, "a");
        p.push(5, "d");
        p.push(2, "b");
        let order: Vec<&str> = std::iter::from_fn(|| p.pop()).map(|(_, x)| x).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn pifo_overflow_drops() {
        let mut p = Pifo::new(1);
        assert!(p.push(0, ()));
        assert!(!p.push(0, ()));
        assert_eq!(p.drops(), 1);
        assert_eq!(p.len(), 1);
    }
}
