//! Cycle-level simulator of the Taurus MapReduce block.
//!
//! Executes a compiled [`GridProgram`] the way the hardware would: an
//! event-driven dataflow engine fires each placed unit when all of its
//! producers' values have traversed the static interconnect, evaluates
//! the unit's configured operation (SIMD map chain, dot-product row
//! group, LUT access, state read/write), and tracks cycle timestamps
//! using the same network-cost model as the compiler's static analysis
//! (§5.1.3's 1 GHz, 5-cycle-MapReduce, ~5-cycles-per-movement costs).
//!
//! # The compiled execution plan
//!
//! The pipeline is static: the firing order, every operand location,
//! and the whole cycle calculation depend only on the program, never on
//! a packet's values. [`CgraSim::shared`] therefore compiles the unit
//! list once into an `ExecPlan` — a dense `NodeId → (offset, width)`
//! slot map into one reusable `i32` slab plus a flattened op schedule
//! with all graph lookups (weight banks, biases, requantizers, LUT ids,
//! const vectors) resolved up front — and the per-packet path executes
//! that plan by reading and writing slab slices in place. Steady-state
//! [`CgraSim::process_into`] performs **zero heap allocations** (pinned
//! by the counting-allocator test in `tests/no_alloc.rs`), where the
//! previous implementation built a `HashMap` of lane vectors per packet
//! and copied every operand on consumption.
//!
//! Two properties are enforced by this crate's tests and the cross-crate
//! integration suite:
//!
//! 1. **Value equivalence** — outputs are bit-identical to the
//!    `taurus-ir` reference interpreter (and hence to the `taurus-ml`
//!    integer golden models) for every supported program, including
//!    time-multiplexed (under-unrolled) and recurrent (LSTM) ones.
//! 2. **Timing agreement** — the measured per-packet latency equals the
//!    compiler's static [`TimingReport`], validating the static analysis
//!    against an independent event-driven execution. (The cycle math is
//!    evaluated once per program at plan-build time — it is per-program,
//!    not per-packet — using the identical arrival/egress model.)
//!
//! [`TimingReport`]: taurus_compiler::TimingReport

use std::sync::Arc;

use taurus_compiler::timing::edge_cost;
use taurus_compiler::vu::VuKind;
use taurus_compiler::GridProgram;
use taurus_fixed::quant::Requantizer;
use taurus_ir::graph::Operand;
use taurus_ir::kernels::{matvec_rows_wide, sqdist_rows_wide};
use taurus_ir::{eval_map, eval_reduce, MapOp, NodeId, Op, ReduceOp};

/// Result of processing one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketResult {
    /// Program outputs, in declaration order.
    pub outputs: Vec<Vec<i32>>,
    /// Measured ingress-to-egress latency in cycles (all recurrence steps
    /// included).
    pub latency_cycles: u32,
}

/// Statistics from streaming a batch of packets.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Per-packet outputs.
    pub outputs: Vec<Vec<Vec<i32>>>,
    /// Per-packet latency (constant for a static pipeline).
    pub latency_cycles: u32,
    /// Cycles between successive packet admissions.
    pub initiation_interval: u32,
    /// Total cycles to drain the batch:
    /// `latency + (n − 1)·initiation_interval`.
    pub total_cycles: u64,
    /// Achieved packets per cycle (`1/II` for a full pipeline).
    pub throughput_ppc: f64,
}

/// A node's value region inside the slab: `slab[off..off + len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    off: u32,
    len: u32,
}

impl Slot {
    #[inline]
    fn range(self) -> core::ops::Range<usize> {
        self.off as usize..(self.off + self.len) as usize
    }
}

/// A fused tail stage of a dot-product row group (bias add or
/// requantize), with its parameters resolved — and gathered to this
/// group's row positions — at plan-build time.
#[derive(Debug, Clone)]
enum FusedOp {
    /// `acc[p] += bias[p]` (bias pre-gathered per position).
    Bias(Vec<i32>),
    /// `acc[p] = requant(acc[p])`.
    Requant(Requantizer),
}

/// One DotCu row group: the rows a physical CU computes, with the fused
/// bias/requant chain and all operand locations precompiled. The
/// group's int8 weight rows are **pre-widened to row-contiguous `i32`**
/// at plan-build time, the layout [`taurus_ir::kernels`]'s row-blocked
/// kernels consume — the per-packet loop touches no graph structure at
/// all.
#[derive(Debug, Clone)]
struct DotWork {
    /// This group's weight rows, pre-widened, row-major
    /// (`rows.len() × cols`).
    wide: Vec<i32>,
    /// Row width (= bank cols = input width).
    cols: usize,
    /// Input vector location.
    input: Slot,
    /// MatVec zero point (0 for SqDist).
    zero_point: i32,
    /// Squared-distance rather than dot-product rows.
    sqdist: bool,
    /// Global row index per group position (the dst scatter).
    rows: Vec<usize>,
    /// Fused tail stages, in firing order.
    fused: Vec<FusedOp>,
    /// Start of the destination (fused-chain tail) node's region; the
    /// group's position `p` lands at `dst_off + rows[p]`.
    dst_off: u32,
}

/// One precompiled firing: every graph lookup already resolved, every
/// operand a slab slice.
#[derive(Debug, Clone)]
enum PlanOp {
    /// Load the packet's feature vector (the PHV interface).
    Input { dst: Slot },
    /// Materialize a constant vector.
    Const { values: Vec<i32>, dst: Slot },
    /// Element-wise map with a node operand (`b.len == 1` broadcasts).
    MapNode { op: MapOp, a: Slot, b: Slot, dst: Slot },
    /// Element-wise map with a constant operand (`len == 1` broadcasts).
    MapConst { op: MapOp, a: Slot, values: Vec<i32>, dst: Slot },
    /// Reduce a vector to one lane.
    Reduce { op: ReduceOp, src: Slot, dst_off: u32 },
    /// Dot-product / squared-distance row group with fused tail.
    Dot(DotWork),
    /// `dst = src + bias` (standalone, unfused bias).
    AddBias { bias: Vec<i32>, src: Slot, dst: Slot },
    /// Requantize `i32` accumulators to int8 codes (standalone).
    Requant { requant: Requantizer, src: Slot, dst: Slot },
    /// 256-entry LUT lookup (table resolved at plan-build time).
    Lut { table: Box<[i8]>, src: Slot, dst: Slot },
    /// Lane-wise `> 0`.
    GreaterZero { src: Slot, dst: Slot },
    /// Static routing: copy `len` lanes from `src_off` to `dst_off`
    /// (slice extraction and single-input concats).
    Copy { src_off: u32, len: u32, dst_off: u32 },
    /// Concatenate several regions into `dst`, in order.
    Concat { srcs: Vec<Slot>, dst: Slot },
    /// Read a persistent state vector into the slab.
    StateRead { state: u32, dst: Slot },
    /// Stage a persistent state write (committed at end of step) and
    /// pass the value through.
    StateWrite { state: u32, src: Slot, dst: Slot },
}

/// The compiled per-packet schedule for one [`GridProgram`]: built once
/// in [`CgraSim::shared`], executed allocation-free per packet.
#[derive(Debug, Clone)]
struct ExecPlan {
    /// Flattened firing schedule in unit (level, index) order.
    ops: Vec<PlanOp>,
    /// Output node regions, in declaration order.
    outputs: Vec<Slot>,
    /// Total slab length (sum of node widths).
    slab_len: usize,
    /// Largest dot row group (sizes the shared accumulator scratch).
    dot_scratch_len: usize,
    /// Ingress-to-egress latency of one recurrence step, from the same
    /// arrival/egress model the static analysis uses.
    step_latency: u32,
}

impl ExecPlan {
    /// Compiles a program's unit list into the flat schedule. The
    /// firing order, slot layout, and cycle model mirror the original
    /// event-driven loop exactly — this is a staging transformation,
    /// not a semantic one.
    fn compile(program: &GridProgram) -> Self {
        let graph = &program.graph;
        let units = &program.units;

        // Dense NodeId → slab slot map.
        let mut slots = Vec::with_capacity(graph.nodes().len());
        let mut off = 0u32;
        for node in graph.nodes() {
            slots.push(Slot { off, len: node.width as u32 });
            off += node.width as u32;
        }
        let slot = |id: NodeId| slots[id.0 as usize];

        // Topological firing order (by placement level), as before.
        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by_key(|&i| (program.placement.levels[i], i));

        // Per-program cycle math: arrival times under the shared network
        // model, then egress from every output-producing unit.
        let mut complete = vec![0u32; units.len()];
        for &i in &order {
            let vu = &units[i];
            let fanin =
                vu.deps.iter().filter(|d| units[d.0 as usize].kind != VuKind::WeightMu).count();
            let arrive = vu
                .deps
                .iter()
                .map(|d| {
                    let di = d.0 as usize;
                    let src = &units[di];
                    let dist = program.placement.distance(di, i);
                    complete[di] + edge_cost(src, fanin, dist, src.kind == VuKind::Interface)
                })
                .max()
                .unwrap_or(0);
            complete[i] = arrive + vu.latency;
        }
        let out_nodes: std::collections::HashSet<_> = graph.outputs().iter().copied().collect();
        let mut step_latency = 0u32;
        for (i, vu) in units.iter().enumerate() {
            if vu.produces.iter().any(|(n, _)| out_nodes.contains(n)) {
                step_latency =
                    step_latency.max(complete[i] + taurus_compiler::timing::INTERFACE_BASE + 2);
            }
        }

        // Physical CUs split a dot node's rows across units (the
        // paper's lane budget), but execution is idempotent dataflow:
        // merging every unit's row share back into **one plan op per
        // dot node** changes no value, and replaces per-row op dispatch
        // with one row-blocked kernel call over the node's whole bank.
        // Rows are gathered in sorted order so the pre-widened block is
        // row-contiguous.
        let mut dot_rows: Vec<Vec<usize>> = vec![Vec::new(); graph.nodes().len()];
        for vu in units {
            if vu.kind == VuKind::DotCu {
                for rw in &vu.row_work {
                    dot_rows[rw.node.0 as usize].extend_from_slice(&rw.rows);
                }
            }
        }
        for rows in &mut dot_rows {
            rows.sort_unstable();
        }

        // Flatten the schedule. Lane-split units list the same node more
        // than once across units; evaluation is idempotent (each split
        // recomputes the full vector), so each node is scheduled once —
        // dot nodes at their first firing, with their merged row set.
        let mut ops = Vec::new();
        let mut scheduled = vec![false; graph.nodes().len()];
        for &i in &order {
            let vu = &units[i];
            match vu.kind {
                VuKind::Interface => {
                    let id = vu.nodes[0];
                    if !scheduled[id.0 as usize] {
                        scheduled[id.0 as usize] = true;
                        ops.push(PlanOp::Input { dst: slot(id) });
                    }
                }
                VuKind::WeightMu => {}
                VuKind::DotCu => {
                    for rw in &vu.row_work {
                        if scheduled[rw.node.0 as usize] {
                            continue;
                        }
                        scheduled[rw.node.0 as usize] = true;
                        let rows = &dot_rows[rw.node.0 as usize];
                        let node = graph.node(rw.node);
                        let (bank, input, zero_point, sqdist) = match node.op {
                            Op::MatVec { weights, zero_point, input } => {
                                (weights.0, input, zero_point, false)
                            }
                            Op::SqDist { weights, input } => (weights.0, input, 0, true),
                            _ => unreachable!("dot row work on non-dot node"),
                        };
                        // Gather fused parameters to the merged group's
                        // row positions so the exec loop indexes
                        // nothing but its own dense arrays.
                        let fused = rw
                            .fused
                            .iter()
                            .map(|&f| match &graph.node(f).op {
                                Op::AddBias { bias, .. } => {
                                    FusedOp::Bias(rows.iter().map(|&r| bias[r]).collect())
                                }
                                Op::Requant { requant, .. } => FusedOp::Requant(*requant),
                                other => unreachable!("unsupported fused op {other:?}"),
                            })
                            .collect();
                        let final_node = rw.fused.last().copied().unwrap_or(rw.node);
                        // Pre-widen the merged rows into one
                        // row-contiguous i32 block.
                        let bank = graph.weight(taurus_ir::WeightId(bank));
                        let wide: Vec<i32> = rows
                            .iter()
                            .flat_map(|&r| bank.row(r).iter().map(|&w| i32::from(w)))
                            .collect();
                        ops.push(PlanOp::Dot(DotWork {
                            wide,
                            cols: bank.cols,
                            input: slot(input),
                            zero_point,
                            sqdist,
                            rows: rows.clone(),
                            fused,
                            dst_off: slot(final_node).off,
                        }));
                    }
                }
                VuKind::Wire | VuKind::Cu | VuKind::LutCu | VuKind::StateMu => {
                    for &nid in &vu.nodes {
                        if scheduled[nid.0 as usize] {
                            continue;
                        }
                        scheduled[nid.0 as usize] = true;
                        ops.push(Self::compile_node(graph, nid, &slot));
                    }
                }
            }
        }

        let outputs = graph.outputs().iter().map(|&o| slot(o)).collect();
        let dot_scratch_len = ops
            .iter()
            .map(|op| match op {
                PlanOp::Dot(dw) => dw.rows.len(),
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        ExecPlan { ops, outputs, slab_len: off as usize, dot_scratch_len, step_latency }
    }

    fn compile_node(graph: &taurus_ir::Graph, id: NodeId, slot: &dyn Fn(NodeId) -> Slot) -> PlanOp {
        let dst = slot(id);
        match &graph.node(id).op {
            Op::Input { .. } => unreachable!("input handled by the interface unit"),
            Op::Const { values } => PlanOp::Const { values: values.clone(), dst },
            Op::Map { op, a, b } => match b {
                Operand::Node(n) => PlanOp::MapNode { op: *op, a: slot(*a), b: slot(*n), dst },
                Operand::Const(c) => {
                    PlanOp::MapConst { op: *op, a: slot(*a), values: c.clone(), dst }
                }
            },
            Op::Reduce { op, input } => {
                PlanOp::Reduce { op: *op, src: slot(*input), dst_off: dst.off }
            }
            Op::MatVec { .. } | Op::SqDist { .. } => {
                unreachable!("dot nodes handled by DotCu units")
            }
            Op::AddBias { bias, input } => {
                PlanOp::AddBias { bias: bias.clone(), src: slot(*input), dst }
            }
            Op::Requant { requant, input } => {
                PlanOp::Requant { requant: *requant, src: slot(*input), dst }
            }
            Op::Lut { lut, input } => {
                PlanOp::Lut { table: graph.lut(*lut).into(), src: slot(*input), dst }
            }
            Op::GreaterZero { input } => PlanOp::GreaterZero { src: slot(*input), dst },
            Op::Concat { inputs } => {
                // Concat of one input is a plain copy; wider concats are
                // emitted as one op that walks the pieces at exec time.
                if let [single] = inputs.as_slice() {
                    let src = slot(*single);
                    PlanOp::Copy { src_off: src.off, len: src.len, dst_off: dst.off }
                } else {
                    PlanOp::Concat { srcs: inputs.iter().map(|&n| slot(n)).collect(), dst }
                }
            }
            Op::Slice { input, start, len } => PlanOp::Copy {
                src_off: slot(*input).off + *start as u32,
                len: *len as u32,
                dst_off: dst.off,
            },
            Op::StateRead { state } => PlanOp::StateRead { state: state.0, dst },
            Op::StateWrite { state, input } => {
                PlanOp::StateWrite { state: state.0, src: slot(*input), dst }
            }
        }
    }
}

/// The simulator: owns persistent state, shares the compiled program
/// (`Arc`, so many simulators/switches can run one compilation without
/// borrow lifetimes), and streams packets through its precompiled
/// `ExecPlan`.
#[derive(Debug, Clone)]
pub struct CgraSim {
    program: Arc<GridProgram>,
    /// Persistent state vectors (survive across packets, like MU-resident
    /// LSTM state).
    state: Vec<Vec<i32>>,
    /// The compiled schedule (per-program, allocation-free per packet).
    plan: ExecPlan,
    /// The reusable value slab all plan ops read and write.
    slab: Vec<i32>,
    /// Accumulator scratch shared by all dot row groups.
    dot_scratch: Vec<i32>,
    /// Staged state writes (committed at end of each recurrence step).
    pending: Vec<Vec<i32>>,
    pending_written: Vec<bool>,
}

impl CgraSim {
    /// Creates a simulator with zero-initialized state from a borrowed
    /// program (cloned into shared ownership; use [`CgraSim::shared`] to
    /// avoid the copy when an `Arc` is already at hand).
    pub fn new(program: &GridProgram) -> Self {
        Self::shared(Arc::new(program.clone()))
    }

    /// Creates a simulator sharing an already-compiled program, compiling
    /// its execution plan once.
    pub fn shared(program: Arc<GridProgram>) -> Self {
        let state: Vec<Vec<i32>> =
            program.graph.states().iter().map(|s| vec![0i32; s.width]).collect();
        let plan = ExecPlan::compile(&program);
        let slab = vec![0i32; plan.slab_len];
        let dot_scratch = vec![0i32; plan.dot_scratch_len];
        let pending = state.clone();
        let pending_written = vec![false; state.len()];
        Self { program, state, plan, slab, dot_scratch, pending, pending_written }
    }

    /// The compiled program this simulator executes.
    pub fn program(&self) -> &Arc<GridProgram> {
        &self.program
    }

    /// Current persistent state (for tests).
    pub fn state(&self) -> &[Vec<i32>] {
        &self.state
    }

    /// Processes one packet (all recurrence steps), returning outputs and
    /// measured latency.
    ///
    /// # Panics
    ///
    /// Panics if `input` width differs from the program's input node.
    pub fn process(&mut self, input: &[i32]) -> PacketResult {
        let mut outputs = Vec::new();
        let latency_cycles = self.process_into(input, &mut outputs);
        PacketResult { outputs, latency_cycles }
    }

    /// Processes one packet, writing outputs into caller-owned buffers
    /// (cleared and refilled; capacity is reused across packets, so the
    /// steady state allocates nothing). Returns the measured
    /// ingress-to-egress latency in cycles.
    ///
    /// All recurrence steps execute over the same slab; only the final
    /// step's outputs are gathered — a recurrent program no longer
    /// materializes (and discards) every intermediate step's outputs.
    ///
    /// # Panics
    ///
    /// Panics if `input` width differs from the program's input node.
    pub fn process_into(&mut self, input: &[i32], outputs: &mut Vec<Vec<i32>>) -> u32 {
        assert_eq!(input.len(), self.program.graph.input_width(), "input width mismatch");
        let steps = self.program.graph.sequence_steps();
        for _ in 0..steps {
            self.exec_step(input);
        }
        outputs.resize_with(self.plan.outputs.len(), Vec::new);
        for (buf, slot) in outputs.iter_mut().zip(&self.plan.outputs) {
            buf.clear();
            buf.extend_from_slice(&self.slab[slot.range()]);
        }
        self.plan.step_latency * steps as u32
    }

    /// Streams a batch of packets and reports throughput.
    pub fn stream(&mut self, inputs: &[Vec<i32>]) -> StreamStats {
        let mut outputs = Vec::with_capacity(inputs.len());
        let mut latency = 0;
        for x in inputs {
            let r = self.process(x);
            latency = r.latency_cycles;
            outputs.push(r.outputs);
        }
        let ii = self.program.timing.initiation_interval;
        let n = inputs.len() as u64;
        let total = if n == 0 { 0 } else { u64::from(latency) + (n - 1) * u64::from(ii) };
        StreamStats {
            outputs,
            latency_cycles: latency,
            initiation_interval: ii,
            total_cycles: total,
            throughput_ppc: if ii == 0 { 0.0 } else { 1.0 / f64::from(ii) },
        }
    }

    /// One recurrence step: runs the precompiled schedule over the slab,
    /// then commits staged state writes.
    ///
    /// Slots are assigned in topological (= node) order, so every
    /// operand region lies strictly below its consumer's own region;
    /// [`dst_split`] exploits that to hand each op disjoint
    /// source/destination slices — the inner loops are plain slice zips
    /// the compiler can keep in registers and autovectorize.
    fn exec_step(&mut self, input: &[i32]) {
        let Self { state, plan, slab, dot_scratch, pending, pending_written, .. } = self;
        for op in &plan.ops {
            match op {
                PlanOp::Input { dst } => slab[dst.range()].copy_from_slice(input),
                PlanOp::Const { values, dst } => slab[dst.range()].copy_from_slice(values),
                PlanOp::MapNode { op, a, b, dst } => {
                    let (lo, d) = dst_split(slab, *dst);
                    let av = slot_in(lo, *a);
                    let bv = slot_in(lo, *b);
                    if let [scalar] = bv {
                        for (o, &x) in d.iter_mut().zip(av) {
                            *o = eval_map(*op, x, *scalar);
                        }
                    } else {
                        for ((o, &x), &y) in d.iter_mut().zip(av).zip(bv) {
                            *o = eval_map(*op, x, y);
                        }
                    }
                }
                PlanOp::MapConst { op, a, values, dst } => {
                    let (lo, d) = dst_split(slab, *dst);
                    let av = slot_in(lo, *a);
                    if let [scalar] = values.as_slice() {
                        for (o, &x) in d.iter_mut().zip(av) {
                            *o = eval_map(*op, x, *scalar);
                        }
                    } else {
                        for ((o, &x), &y) in d.iter_mut().zip(av).zip(values) {
                            *o = eval_map(*op, x, y);
                        }
                    }
                }
                PlanOp::Reduce { op, src, dst_off } => {
                    slab[*dst_off as usize] = eval_reduce(*op, &slab[src.range()]);
                }
                PlanOp::Dot(dw) => {
                    let acc = &mut dot_scratch[..dw.rows.len()];
                    let x = &slab[dw.input.range()];
                    if dw.sqdist {
                        sqdist_rows_wide(&dw.wide, dw.cols, x, acc);
                    } else {
                        matvec_rows_wide(&dw.wide, dw.cols, x, dw.zero_point, acc);
                    }
                    for f in &dw.fused {
                        match f {
                            FusedOp::Bias(bias) => {
                                for (a, &b) in acc.iter_mut().zip(bias) {
                                    *a = a.wrapping_add(b);
                                }
                            }
                            FusedOp::Requant(rq) => {
                                for a in acc.iter_mut() {
                                    *a = i32::from(rq.apply(*a));
                                }
                            }
                        }
                    }
                    let base = dw.dst_off as usize;
                    for (p, &r) in dw.rows.iter().enumerate() {
                        slab[base + r] = acc[p];
                    }
                }
                PlanOp::AddBias { bias, src, dst } => {
                    let (lo, d) = dst_split(slab, *dst);
                    for ((o, &v), &b) in d.iter_mut().zip(slot_in(lo, *src)).zip(bias) {
                        *o = v.wrapping_add(b);
                    }
                }
                PlanOp::Requant { requant, src, dst } => {
                    let (lo, d) = dst_split(slab, *dst);
                    for (o, &v) in d.iter_mut().zip(slot_in(lo, *src)) {
                        *o = i32::from(requant.apply(v));
                    }
                }
                PlanOp::Lut { table, src, dst } => {
                    let (lo, d) = dst_split(slab, *dst);
                    for (o, &v) in d.iter_mut().zip(slot_in(lo, *src)) {
                        let code = v.clamp(-128, 127);
                        *o = i32::from(table[(code + 128) as usize]);
                    }
                }
                PlanOp::GreaterZero { src, dst } => {
                    let (lo, d) = dst_split(slab, *dst);
                    for (o, &v) in d.iter_mut().zip(slot_in(lo, *src)) {
                        *o = i32::from(v > 0);
                    }
                }
                PlanOp::Copy { src_off, len, dst_off } => {
                    let (s, l) = (*src_off as usize, *len as usize);
                    slab.copy_within(s..s + l, *dst_off as usize);
                }
                PlanOp::Concat { srcs, dst } => {
                    let mut d = dst.off as usize;
                    for s in srcs {
                        slab.copy_within(s.range(), d);
                        d += s.len as usize;
                    }
                }
                PlanOp::StateRead { state: idx, dst } => {
                    slab[dst.range()].copy_from_slice(&state[*idx as usize]);
                }
                PlanOp::StateWrite { state: idx, src, dst } => {
                    let i = *idx as usize;
                    pending[i].copy_from_slice(&slab[src.range()]);
                    pending_written[i] = true;
                    slab.copy_within(src.range(), dst.off as usize);
                }
            }
        }
        // Commit state at end of step (reads within the step saw the
        // previous packet/step's values).
        for (i, written) in pending_written.iter_mut().enumerate() {
            if *written {
                state[i].copy_from_slice(&pending[i]);
                *written = false;
            }
        }
    }
}

/// Splits the slab at a destination slot: everything below `dst` (where
/// all of the op's operands live, by topological slot assignment) and
/// `dst`'s own lanes as a mutable slice.
#[inline]
fn dst_split(slab: &mut [i32], dst: Slot) -> (&[i32], &mut [i32]) {
    let (lo, hi) = slab.split_at_mut(dst.off as usize);
    (lo, &mut hi[..dst.len as usize])
}

/// A slot's lanes within the lower slab half returned by [`dst_split`].
#[inline]
fn slot_in(lo: &[i32], s: Slot) -> &[i32] {
    &lo[s.off as usize..][..s.len as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use taurus_compiler::{compile, CompileOptions, GridConfig};
    use taurus_ir::{microbench, Graph, GraphBuilder, Interpreter, MapOp};

    fn compile_default(g: &Graph) -> GridProgram {
        compile(g, &GridConfig::default(), &CompileOptions::default()).expect("fits")
    }

    fn assert_equiv(g: &Graph, inputs: &[Vec<i32>]) {
        let p = compile_default(g);
        let mut sim = CgraSim::new(&p);
        let mut interp = Interpreter::new(g);
        for x in inputs {
            let got = sim.process(x);
            let want = interp.run(x);
            assert_eq!(got.outputs, want, "input {x:?}");
        }
    }

    #[test]
    fn microbenchmarks_match_interpreter() {
        for name in microbench::ALL_MICROBENCHMARKS {
            let g = microbench::by_name(name);
            let w = g.input_width();
            let inputs: Vec<Vec<i32>> = (0..20)
                .map(|k| (0..w).map(|j| ((k * 37 + j * 11) % 255) as i32 - 127).collect())
                .collect();
            assert_equiv(&g, &inputs);
        }
    }

    #[test]
    fn conv_time_multiplexed_values_match_fully_unrolled() {
        let g = microbench::conv1d();
        let x: Vec<i32> = (0..9).map(|i| i * 3 - 10).collect();
        let mut expected = None;
        for unroll in [1usize, 2, 4, 8] {
            let p = compile(
                &g,
                &GridConfig::default(),
                &CompileOptions { unroll: Some(unroll), max_cus: None },
            )
            .expect("fits");
            let mut sim = CgraSim::new(&p);
            let out = sim.process(&x).outputs;
            match &expected {
                None => expected = Some(out),
                Some(e) => assert_eq!(&out, e, "unroll {unroll}"),
            }
        }
    }

    #[test]
    fn measured_latency_matches_static_report() {
        for name in microbench::ALL_MICROBENCHMARKS {
            let g = microbench::by_name(name);
            let p = compile_default(&g);
            let mut sim = CgraSim::new(&p);
            let x = vec![1i32; g.input_width()];
            let r = sim.process(&x);
            assert_eq!(r.latency_cycles, p.timing.latency_cycles, "{name}: event-driven vs static");
        }
    }

    #[test]
    fn state_persists_across_packets() {
        let mut b = GraphBuilder::new();
        let x = b.input(1);
        let s = b.state("acc", 1);
        let prev = b.state_read(s);
        let sum = b.map(MapOp::Add, x, prev);
        let wr = b.state_write(s, sum);
        b.output(wr);
        let g = b.finish().expect("valid");
        let p = compile_default(&g);
        let mut sim = CgraSim::new(&p);
        assert_eq!(sim.process(&[5]).outputs, vec![vec![5]]);
        assert_eq!(sim.process(&[3]).outputs, vec![vec![8]]);
        assert_eq!(sim.state(), &[vec![8]]);
    }

    #[test]
    fn process_into_reuses_buffers_and_matches_process() {
        let g = microbench::inner_product();
        let p = compile_default(&g);
        let mut a = CgraSim::new(&p);
        let mut b = CgraSim::new(&p);
        let mut outputs = Vec::new();
        for k in 0..10 {
            let x: Vec<i32> = (0..16).map(|j| k * 13 + j - 20).collect();
            let latency = a.process_into(&x, &mut outputs);
            let want = b.process(&x);
            assert_eq!(outputs, want.outputs);
            assert_eq!(latency, want.latency_cycles);
            let ptr_before = outputs[0].as_ptr();
            let latency2 = a.process_into(&x, &mut outputs);
            assert_eq!(latency2, latency);
            assert_eq!(outputs[0].as_ptr(), ptr_before, "buffer reused in place");
        }
    }

    #[test]
    fn stream_reports_line_rate_for_ii_1() {
        let g = microbench::inner_product();
        let p = compile_default(&g);
        let mut sim = CgraSim::new(&p);
        let inputs: Vec<Vec<i32>> = (0..10).map(|k| vec![k; 16]).collect();
        let stats = sim.stream(&inputs);
        assert_eq!(stats.initiation_interval, 1);
        assert_eq!(stats.throughput_ppc, 1.0);
        assert_eq!(stats.total_cycles, u64::from(stats.latency_cycles) + 9);
        assert_eq!(stats.outputs.len(), 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_random_map_chains_match_interpreter(
            ops in proptest::collection::vec(0usize..5, 1..12),
            consts in proptest::collection::vec(-20i32..20, 12),
            input in proptest::collection::vec(-100i32..100, 8),
        ) {
            let mut b = GraphBuilder::new();
            let x = b.input(8);
            let mut h = x;
            for (k, &o) in ops.iter().enumerate() {
                let c = consts[k % consts.len()];
                h = match o {
                    0 => b.map_const(MapOp::Add, h, vec![c]),
                    1 => b.map_const(MapOp::Sub, h, vec![c]),
                    2 => b.map_const(MapOp::Mul, h, vec![c.clamp(-3, 3)]),
                    3 => b.map_const(MapOp::Max, h, vec![c]),
                    4 => b.map_const(MapOp::Shr, h, vec![(c.unsigned_abs() % 4) as i32]),
                    _ => unreachable!(),
                };
            }
            let r = b.reduce(taurus_ir::ReduceOp::Add, h);
            b.output(h);
            b.output(r);
            let g = b.finish().expect("valid");
            let p = compile_default(&g);
            let mut sim = CgraSim::new(&p);
            let mut interp = Interpreter::new(&g);
            prop_assert_eq!(sim.process(&input).outputs, interp.run(&input));
        }

        /// The ExecPlan equivalence net over the op families the map
        /// chains above don't reach: dot-product/sq-dist row groups with
        /// fused bias/requant tails, LUT lookups, persistent state
        /// accumulation, and wire ops (concat/slice) — every output
        /// bit-identical to the `taurus-ir` reference interpreter
        /// across a stream of packets.
        #[test]
        fn prop_random_dot_programs_match_interpreter(
            rows in 1usize..6,
            cols in 1usize..9,
            weights in proptest::collection::vec(-128i32..128, 48),
            bias in proptest::collection::vec(-500i32..500, 6),
            zp in -8i32..8,
            mult in 0.01f64..1.5,
            rq_zp in -10i32..10,
            lut_mul in 1i32..7,
            use_sqdist in proptest::any::<bool>(),
            use_requant in proptest::any::<bool>(),
            use_lut in proptest::any::<bool>(),
            use_state in proptest::any::<bool>(),
            inputs in proptest::collection::vec(
                proptest::collection::vec(-100i32..100, 9), 1..5),
        ) {
            let mut b = GraphBuilder::new();
            let x_full = b.input(cols);
            let w = b.weights(
                "w",
                rows,
                cols,
                weights[..rows * cols].iter().map(|&v| v as i8).collect(),
            );
            let dot = if use_sqdist {
                b.sq_dist_rows(w, x_full)
            } else {
                b.map_reduce_rows(w, x_full, zp)
            };
            let mut h = b.add_bias(dot, bias[..rows].to_vec());
            if use_requant {
                let rq = taurus_fixed::quant::Requantizer::from_real_multiplier(mult, rq_zp);
                h = b.requant(h, rq);
            }
            if use_lut {
                let table: Vec<i8> = (0..256)
                    .map(|i| (((i - 128) * lut_mul) % 127) as i8)
                    .collect();
                let t = b.lut(table);
                h = b.lookup(h, t);
            }
            if use_state {
                let s = b.state("acc", rows);
                let prev = b.state_read(s);
                let sum = b.map(MapOp::Add, h, prev);
                h = b.state_write(s, sum);
            }
            let red = b.reduce(taurus_ir::ReduceOp::Max, h);
            let gz = b.greater_zero(h);
            let cat = b.concat(vec![h, gz]);
            let sl = b.slice(cat, rows / 2, rows);
            b.output(h);
            b.output(red);
            b.output(sl);
            let g = b.finish().expect("valid");
            let p = compile_default(&g);
            let mut sim = CgraSim::new(&p);
            let mut interp = Interpreter::new(&g);
            for x in &inputs {
                prop_assert_eq!(sim.process(&x[..cols]).outputs, interp.run(&x[..cols]));
            }
        }
    }
}
