//! Broader application support beyond ML (§3.3.2, Fig. 5).
//!
//! The paper's MapReduce abstraction is deliberately wider than neural
//! networks: "map evaluates cores' suitability, and reduce selects the
//! closest core" (Elastic RSS), and "MapReduce can also support
//! sketching algorithms, including Count-Min-Sketches for flow-size
//! estimation". This module builds those two applications as MapReduce
//! programs, exercising the IR's state, hashing-by-arithmetic, and
//! reduction features on non-ML workloads.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, MapOp, NodeId, ReduceOp};

/// Multiplicative hash over lanes: `h_i = ((x · a_i) >> shift) mod width`
/// built from Map ops only — the form a CU computes in two stages.
fn lane_hash(
    b: &mut GraphBuilder,
    x: NodeId,
    multipliers: Vec<i32>,
    shift: i32,
    modulus: i32,
) -> NodeId {
    let m = b.map_const(MapOp::Mul, x, multipliers);
    let s = b.map_const(MapOp::Shr, m, vec![shift]);
    // Power-of-two modulus via mask (And is expressible as min/max pairs
    // on non-negative values; use shift trick: v & (mod-1) for mod = 2^k).
    debug_assert!(modulus.count_ones() == 1, "modulus must be a power of two");
    let k = modulus.trailing_zeros() as i32;
    let hi = b.map_const(MapOp::Shr, s, vec![k]);
    let hi_shifted = b.map_const(MapOp::Shl, hi, vec![k]);
    b.map(MapOp::Sub, s, hi_shifted)
}

/// Count-Min Sketch update + query in one pass (`d` hash rows of width
/// `w`, both powers of two ≤ 16 lanes).
///
/// Input: a single lane carrying the flow key (a small int code).
/// Output: the flow's estimated count = min over rows of the *updated*
/// counters — the classic conservative CMS read-after-increment.
///
/// The sketch rows live in persistent state: `d` vectors of `w` lanes,
/// exactly how MU-resident counters would be laid out.
///
/// # Panics
///
/// Panics if `w` is not a power of two or exceeds 16, or `d` is 0.
pub fn count_min_sketch(d: usize, w: usize) -> Graph {
    assert!(w.is_power_of_two() && w <= 16, "row width must be a power of two ≤ 16");
    assert!(d > 0 && d <= 4, "1–4 hash rows");
    let mut b = GraphBuilder::new();
    let key = b.input(1);

    // Odd multipliers per row (Knuth-style multiplicative hashing).
    let mults = [0x9E37i32, 0x85EB, 0xC2B3, 0x27D5];
    let mut estimates = Vec::with_capacity(d);
    for (row, &mult) in mults.iter().enumerate().take(d) {
        let idx = lane_hash(&mut b, key, vec![mult], 7, w as i32);
        // One-hot over the row: onehot_j = max(0, 1 − |j − idx|) computed
        // with map ops; the lane-index constant vector gives the width,
        // and the scalar `idx` broadcasts across it.
        let lane_ids = b.constant((0..w as i32).collect());
        let diff = b.map(MapOp::Sub, lane_ids, idx);
        // |diff| = max(diff, −diff).
        let neg = b.map_const(MapOp::Mul, diff, vec![-1]);
        let absd = b.map(MapOp::Max, diff, neg);
        // onehot = max(0, 1 − |diff|): 1 at the hashed lane, 0 elsewhere.
        let inv = b.map_const(MapOp::Mul, absd, vec![-1]);
        let one_minus = b.map_const(MapOp::Add, inv, vec![1]);
        let onehot = b.map_max_const(one_minus, 0);

        // counters' += onehot; estimate = Σ (counters'·onehot).
        let counters = b.state(format!("cms_row{row}"), w);
        let prev = b.state_read(counters);
        let updated = b.map(MapOp::Add, prev, onehot);
        let written = b.state_write(counters, updated);
        let masked = b.map(MapOp::Mul, written, onehot);
        let est = b.reduce(ReduceOp::Add, masked);
        estimates.push(est);
    }
    let all = b.concat(estimates);
    let min_est = b.reduce(ReduceOp::Min, all);
    b.output(min_est);
    b.finish().expect("cms is structurally valid")
}

/// Elastic RSS (Rucker et al., the paper's \[134\]): map scores every core
/// by load-adjusted hash affinity, reduce selects the best core.
///
/// Input: `[flow_key, load_0 … load_{n−1}]` (current per-core loads as
/// small codes). Output: the selected core index.
///
/// # Panics
///
/// Panics if `cores` is 0 or exceeds 15.
pub fn elastic_rss(cores: usize) -> Graph {
    assert!(cores > 0 && cores <= 15, "1–15 cores");
    let mut b = GraphBuilder::new();
    let input = b.input(1 + cores);
    let key = b.slice(input, 0, 1);
    let loads = b.slice(input, 1, cores);

    // Per-core affinity: hash(key, core) in [0, 64) via per-lane odd
    // multipliers, then subtract load × weight — a loaded core loses
    // affinity (the eRSS "suitability" function). Broadcast the key over
    // a width-`cores` lane vector first.
    let zeros = b.constant(vec![0; cores]);
    let key_lanes = b.map(MapOp::Add, zeros, key);
    let mults: Vec<i32> = (0..cores as i32).map(|c| 0x9E37 + 2 * c * 0x85).collect();
    let h = lane_hash(&mut b, key_lanes, mults, 5, 64);
    let load_penalty = b.map_const(MapOp::Mul, loads, vec![8]);
    let suitability = b.map(MapOp::Sub, h, load_penalty);
    let best = b.reduce(ReduceOp::ArgMax, suitability);
    b.output(best);
    b.finish().expect("erss is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;

    #[test]
    fn cms_counts_repeated_keys() {
        let g = count_min_sketch(3, 16);
        let mut interp = Interpreter::new(&g);
        // Insert key 42 five times: estimates must be 1..=5.
        for expect in 1..=5 {
            let est = interp.run_flat(&[42])[0];
            assert_eq!(est, expect, "after {expect} inserts");
        }
        // A different key starts near zero (bounded by collisions).
        let other = interp.run_flat(&[7])[0];
        assert!(other <= 6, "other-key estimate {other} bounded by CMS error");
    }

    #[test]
    fn cms_never_undercounts() {
        let g = count_min_sketch(2, 8);
        let mut interp = Interpreter::new(&g);
        let keys = [1, 5, 9, 1, 5, 1, 3, 3, 1];
        let mut truth = std::collections::HashMap::new();
        for &k in &keys {
            *truth.entry(k).or_insert(0i32) += 1;
            let est = interp.run_flat(&[k])[0];
            assert!(est >= truth[&k], "key {k}: est {est} < true {}", truth[&k]);
        }
    }

    #[test]
    fn erss_prefers_unloaded_cores() {
        let g = elastic_rss(4);
        let mut interp = Interpreter::new(&g);
        // With one core heavily loaded, it should rarely win.
        let mut loaded_wins = 0;
        for key in 0..64 {
            let mut input = vec![key, 0, 0, 0, 0];
            input[1] = 15; // core 0 heavily loaded
            let core = interp.run_flat(&input)[0];
            if core == 0 {
                loaded_wins += 1;
            }
        }
        assert!(loaded_wins < 8, "loaded core won {loaded_wins}/64");
    }

    #[test]
    fn erss_is_deterministic_per_flow() {
        let g = elastic_rss(4);
        let mut interp = Interpreter::new(&g);
        let a = interp.run_flat(&[17, 1, 2, 1, 3])[0];
        let b2 = interp.run_flat(&[17, 1, 2, 1, 3])[0];
        assert_eq!(a, b2, "same flow, same loads → same core");
    }

    #[test]
    fn both_apps_compile_shapes_validate() {
        assert!(count_min_sketch(4, 16).validate().is_ok());
        assert!(elastic_rss(8).validate().is_ok());
    }
}
