//! The layer replay: the 1-shard streaming path rebuilt from each
//! layer's public functions, timed stage by stage.
//!
//! The calling thread runs the ingest layers over each batch and sends
//! it over a real `taurus_runtime::spsc` lane (at the workload's queue
//! depth) to a replay worker. The worker runs the worker layers stage
//! by stage over the batch (parse, registers, pre-MATs, formatter,
//! engine, post-MATs), recording one span per (batch, layer) so timer
//! cost is spread over the batch, then pushes the same batch through a
//! shadow `TaurusSwitch::process_prepared_verdict` as the `core.switch`
//! span. Every composed verdict must equal the switch's, and the final
//! counters must equal the sequential oracle's, so the decomposition
//! measures the same program.

use std::time::Instant;

use taurus_core::ingest::{flow_start_flags_ok, to_packet_into, wire_obs};
use taurus_core::{
    BoxedEngine, CgraEngine, FeatureFormatter, IngestValidator, ObsBuilder, SwitchVerdict,
    TaurusApp, TaurusSwitch, VerdictPolicy,
};
use taurus_dataset::trace::TracePacket;
use taurus_pisa::registers::FlowFeatures;
use taurus_pisa::{
    Access, CrossFlowWindows, Field, FlowTable, FlowTableKind, FlowTracker, MatchTable, Parser,
    Phv, Verdict,
};
use taurus_runtime::{spsc, PreparedPacket};

use crate::e2e::Failure;
use crate::spans::{self, SpanBuf, ROOT};
use crate::stats;
use crate::workload::{build_switch, first_difference, Expected, Geometry};

type Batch = Vec<PreparedPacket>;

const VALIDATE: &str = "core.ingest.validate";
const OBS: &str = "core.ingest.obs";
const DIRECTORY: &str = "pisa.flow_table.access";
const WINDOWS: &str = "pisa.registers.windows";
const TO_PACKET: &str = "core.ingest.to_packet";
const RECYCLE: &str = "runtime.spsc.recycle";
const SEND: &str = "runtime.spsc.send";
const RECV: &str = "runtime.spsc.recv";
const PARSE: &str = "pisa.parser.parse";
const OBSERVE: &str = "pisa.registers.observe";
const PRE_MAT: &str = "pisa.mat.pre";
const FORMATTER: &str = "core.apps.formatter";
const ENGINE: &str = "core.engine.infer";
const POST_MAT: &str = "pisa.mat.post";
const SWITCH: &str = "core.switch";

/// Spans one pass records per batch on each thread, with headroom.
const SPANS_PER_BATCH: usize = 12;

/// Deterministic counts of one replay pass. Every pass over the same
/// stream must produce the same counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub packets: u64,
    pub batches: u64,
    pub quarantined: u64,
    pub directory_accesses: u64,
    pub directory_hits: u64,
    pub capacity_evictions: u64,
    /// Σ (way + 1) × accesses resolved at that way (keyed directory).
    pub probe_weighted: u64,
    pub probe_total: u64,
    pub mat_applies: u64,
    pub ml_packets: u64,
    pub formatter_calls: u64,
    pub cgra_invocations: u64,
}

/// Time per layer of one pass, nanoseconds summed over the pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTimes {
    pub validate: u64,
    pub obs: u64,
    pub directory: u64,
    pub windows: u64,
    pub to_packet: u64,
    pub send_blocked: u64,
    pub recv_idle: u64,
    pub parse: u64,
    pub observe: u64,
    pub pre_mat: u64,
    pub formatter: u64,
    pub engine: u64,
    pub post_mat: u64,
    pub switch: u64,
}

impl PassTimes {
    /// `core.switch` time per packet minus the composed worker layers'
    /// time per packet: signed, never clamped, so a decomposition that
    /// over-counts shows as a negative remainder.
    pub fn unattributed_ns(&self, packets: f64) -> f64 {
        let composed =
            self.parse + self.observe + self.pre_mat + self.formatter + self.engine + self.post_mat;
        (self.switch as f64 - composed as f64) / packets
    }
}

/// The calling thread's half: the ingest layers of the 1-shard path.
struct Ingest {
    /// The runtime scopes its ingest frontier to one feed.
    validator: IngestValidator,
    seen: ObsBuilder,
    directory: Option<FlowTable>,
    windows: CrossFlowWindows,
    admitted: Vec<usize>,
    counts: Counts,
}

impl Ingest {
    fn new(g: &Geometry) -> Self {
        let cfg = g.pipeline_config();
        let (seen, directory) = match cfg.flow_table {
            FlowTableKind::DirectMapped => (ObsBuilder::new(), None),
            FlowTableKind::Keyed { buckets, ways } => (
                ObsBuilder::untracked(),
                Some(FlowTable::keyed(buckets, ways, cfg.idle_timeout_ns)),
            ),
        };
        Self {
            validator: IngestValidator::new(),
            seen,
            directory,
            windows: CrossFlowWindows::new(cfg.flow_slots, cfg.window_ns),
            admitted: Vec::with_capacity(g.batch),
            counts: Counts::default(),
        }
    }

    fn start_feed(&mut self) {
        self.validator = IngestValidator::new();
    }

    /// Runs every ingest layer over `tps` into `out`, one span per layer.
    fn batch(
        &mut self,
        tps: &[TracePacket],
        base_index: u64,
        out: &mut Batch,
        sp: &mut SpanBuf,
        bid: u64,
    ) {
        let parent = sp.open("replay.ingest", ROOT, bid);
        let t = sp.now();
        self.admitted.clear();
        for (i, tp) in tps.iter().enumerate() {
            match self.validator.admit(tp) {
                Ok(()) => self.admitted.push(i),
                Err(_) => self.counts.quarantined += 1,
            }
        }
        let mut t = stage(sp, VALIDATE, t, parent, bid);
        out.resize_with(self.admitted.len(), PreparedPacket::default);
        for (slot, &i) in out.iter_mut().zip(&self.admitted) {
            wire_obs(&tps[i], &mut slot.obs);
        }
        t = stage(sp, OBS, t, parent, bid);
        for (slot, &i) in out.iter_mut().zip(&self.admitted) {
            let tp = &tps[i];
            let first = self.seen.mark_seen(tp.conn_id);
            slot.obs.is_flow_start = first && flow_start_flags_ok(tp);
            self.counts.directory_accesses += 1;
            match self.directory.as_mut() {
                Some(dir) => {
                    let (_, access) = dir.access(slot.obs.flow_key, slot.obs.ts_ns);
                    slot.obs.is_flow_start = access.is_start();
                    self.counts.directory_hits += u64::from(access == Access::Hit);
                }
                None => self.counts.directory_hits += u64::from(!first),
            }
        }
        t = stage(sp, DIRECTORY, t, parent, bid);
        for slot in out.iter_mut() {
            (slot.dst_count, slot.srv_count) = self.windows.observe(&slot.obs);
        }
        t = stage(sp, WINDOWS, t, parent, bid);
        for (slot, &i) in out.iter_mut().zip(&self.admitted) {
            let tp = &tps[i];
            to_packet_into(tp, &mut slot.pkt);
            slot.anomalous = tp.anomalous;
            slot.index = base_index + i as u64;
        }
        stage(sp, TO_PACKET, t, parent, bid);
        sp.close(parent);
    }

    /// The ingest side's counts, with the directory's statistics.
    fn finish(mut self) -> Counts {
        let counts = &mut self.counts;
        if let Some(dir) = &self.directory {
            counts.capacity_evictions = dir.capacity_evictions();
            for (way, &n) in dir.probe_hist().iter().enumerate() {
                counts.probe_weighted += (way as u64 + 1) * n;
                counts.probe_total += n;
            }
        }
        self.counts
    }
}

/// Records a stage span from `start` to now and returns now.
fn stage(sp: &mut SpanBuf, name: &'static str, start: u64, parent: u32, bid: u64) -> u64 {
    let now = sp.now();
    sp.record(name, start, now, parent, bid);
    now
}

/// The replay worker: the worker layers of one app's pipeline, rebuilt
/// from the app's public parts, next to a shadow switch of the same
/// roster.
struct Worker {
    parser: Parser,
    tracker: FlowTracker,
    pre: Vec<MatchTable>,
    formatter: FeatureFormatter,
    engine: BoxedEngine,
    post: Vec<MatchTable>,
    enforce: bool,
    feature_count: usize,
    shadow: TaurusSwitch,
    phv: Vec<Phv>,
    features: Vec<FlowFeatures>,
    bypass: Vec<bool>,
    codes: Vec<i32>,
    code_len: Vec<usize>,
    scratch: Vec<i32>,
    counts: Counts,
    /// (dropped, flagged) by composed verdict.
    verdicts: (u64, u64),
    switch_verdicts: Vec<SwitchVerdict>,
    mismatch: Option<String>,
    spans: SpanBuf,
}

impl Worker {
    fn new(g: &Geometry, app: &dyn TaurusApp, spans: SpanBuf) -> Self {
        let cfg = g.pipeline_config();
        let mut tracker = FlowTracker::with_kind(cfg.flow_table, cfg.flow_slots, cfg.window_ns);
        tracker.set_idle_timeout(cfg.idle_timeout_ns);
        let fc = app.feature_count();
        Self {
            parser: Parser::new(),
            tracker,
            pre: app.pre_tables(),
            formatter: app.formatter(),
            engine: app.build_engine(g.backend),
            post: app.post_tables(g.backend),
            enforce: app.verdict_policy() == VerdictPolicy::Enforce,
            feature_count: fc,
            shadow: build_switch(g, app),
            phv: vec![Phv::new(); g.batch],
            features: Vec::with_capacity(g.batch),
            bypass: vec![false; g.batch],
            codes: vec![0; g.batch * fc],
            code_len: vec![0; g.batch],
            scratch: Vec::with_capacity(fc),
            counts: Counts::default(),
            verdicts: (0, 0),
            switch_verdicts: vec![
                SwitchVerdict {
                    verdict: Verdict::Forward,
                    latency_ns: 0,
                    bypassed: false
                };
                g.batch
            ],
            mismatch: None,
            spans,
        }
    }

    fn run(&mut self, rx: spsc::Receiver<Batch>, pool: spsc::Sender<Batch>) {
        loop {
            let t = self.spans.now();
            let Ok(batch) = rx.recv() else { break };
            let bid = self.counts.batches;
            stage(&mut self.spans, RECV, t, ROOT, bid);
            self.batch(&batch, bid);
            self.counts.batches += 1;
            // The ingest side may have stopped early; a closed lane is fine.
            let _ = pool.send(batch);
        }
        self.counts.cgra_invocations =
            self.engine.as_any_mut().downcast_mut::<CgraEngine>().map_or(0, |e| e.invocations());
    }

    fn batch(&mut self, batch: &[PreparedPacket], bid: u64) {
        let n = batch.len();
        let fc = self.feature_count;
        let sp = &mut self.spans;
        let parent = sp.open("replay.batch", ROOT, bid);
        let mut t = sp.now();
        for (p, phv) in batch.iter().zip(&mut self.phv) {
            self.parser.parse_into(&p.pkt, phv);
        }
        t = stage(sp, PARSE, t, parent, bid);
        self.features.clear();
        for p in batch {
            self.features.push(self.tracker.observe_prepared(&p.obs, p.dst_count, p.srv_count));
        }
        t = stage(sp, OBSERVE, t, parent, bid);
        for (phv, bypass) in self.phv[..n].iter_mut().zip(&mut self.bypass) {
            for table in &mut self.pre {
                table.apply(phv);
            }
            *bypass = phv.get(Field::BypassMl) != 0;
        }
        self.counts.mat_applies += (n * self.pre.len()) as u64;
        t = stage(sp, PRE_MAT, t, parent, bid);
        for i in (0..n).filter(|&i| !self.bypass[i]) {
            self.scratch.clear();
            (self.formatter)(&self.features[i], &mut self.scratch);
            self.scratch.truncate(fc);
            self.phv[i].set_features(&self.scratch);
            self.codes[i * fc..i * fc + self.scratch.len()].copy_from_slice(&self.scratch);
            self.code_len[i] = self.scratch.len();
            self.counts.formatter_calls += 1;
        }
        t = stage(sp, FORMATTER, t, parent, bid);
        for i in (0..n).filter(|&i| !self.bypass[i]) {
            let ml_out = self.engine.infer(&self.codes[i * fc..i * fc + self.code_len[i]]);
            self.phv[i].set(Field::MlOut, ml_out);
        }
        t = stage(sp, ENGINE, t, parent, bid);
        for phv in &mut self.phv[..n] {
            for table in &mut self.post {
                table.apply(phv);
            }
        }
        self.counts.mat_applies += (n * self.post.len()) as u64;
        t = stage(sp, POST_MAT, t, parent, bid);
        for (p, v) in batch.iter().zip(&mut self.switch_verdicts) {
            *v = self.shadow.process_prepared_verdict(&p.pkt, p.obs, p.dst_count, p.srv_count);
        }
        stage(sp, SWITCH, t, parent, bid);
        sp.close(parent);
        self.check(batch);
    }

    /// Compares every packet's composed verdict with the shadow switch's
    /// and counts the composed outcomes.
    fn check(&mut self, batch: &[PreparedPacket]) {
        for (i, p) in batch.iter().enumerate() {
            let app_verdict = Verdict::from_code(self.phv[i].get(Field::Decision));
            let composed = if self.enforce { app_verdict } else { Verdict::line_rate_default() };
            let sv = self.switch_verdicts[i];
            if self.mismatch.is_none() && (sv.verdict != composed || sv.bypassed != self.bypass[i])
            {
                self.mismatch = Some(format!(
                    "packet {}: composed verdict {composed:?} (bypassed {}), \
                     process_prepared_verdict {:?} (bypassed {})",
                    p.index, self.bypass[i], sv.verdict, sv.bypassed
                ));
            }
            self.counts.packets += 1;
            self.counts.ml_packets += u64::from(!self.bypass[i]);
            self.verdicts.0 += u64::from(app_verdict == Verdict::Drop);
            self.verdicts.1 += u64::from(app_verdict == Verdict::Flag);
        }
    }
}

/// Spans and counts of every replay pass; pass 0 is the warm-up.
pub struct Replay {
    pub ingest: SpanBuf,
    pub worker: SpanBuf,
    /// Per pass: span index ranges in `ingest` and `worker`.
    ranges: Vec<(std::ops::Range<usize>, std::ops::Range<usize>)>,
    pub counts: Counts,
}

/// Runs replay passes over `stream` until `deadline` (at least
/// `min_passes` measured passes after one warm-up, at most `max_passes`),
/// checking each against `expected`, the no-install oracle.
pub fn run(
    g: &Geometry,
    app: &dyn TaurusApp,
    stream: &[TracePacket],
    expected: &Expected,
    deadline: Instant,
    (min_passes, max_passes): (usize, usize),
    epoch: Instant,
) -> Result<Replay, Failure> {
    let batches = stream.len().div_ceil(g.batch) + stream.len().div_ceil(g.closed_slice);
    let capacity = (max_passes + 1) * batches * SPANS_PER_BATCH;
    let mut replay = Replay {
        ingest: SpanBuf::new(capacity, epoch),
        worker: SpanBuf::new(capacity, epoch),
        ranges: Vec::new(),
        counts: Counts::default(),
    };
    loop {
        let (i0, w0) = (replay.ingest.len(), replay.worker.len());
        let worker_spans = std::mem::replace(&mut replay.worker, SpanBuf::new(0, epoch));
        let (counts, worker_spans) =
            pass(g, app, stream, expected, &mut replay.ingest, worker_spans)?;
        replay.worker = worker_spans;
        replay.ranges.push((i0..replay.ingest.len(), w0..replay.worker.len()));
        if replay.ranges.len() == 1 {
            replay.counts = counts;
        } else if counts != replay.counts {
            return Err(Failure {
                phase: "layer replay",
                detail: format!("counts differ between passes: {:?} vs {counts:?}", replay.counts),
            });
        }
        let measured = replay.ranges.len() - 1;
        if measured >= max_passes || (measured >= min_passes && Instant::now() >= deadline) {
            break;
        }
    }
    if replay.ingest.dropped() + replay.worker.dropped() > 0 {
        return Err(Failure {
            phase: "layer replay",
            detail: "span buffer overflowed".to_string(),
        });
    }
    Ok(replay)
}

/// One replay pass over the whole stream with fresh layer state.
fn pass(
    g: &Geometry,
    app: &dyn TaurusApp,
    stream: &[TracePacket],
    expected: &Expected,
    sp: &mut SpanBuf,
    worker_spans: SpanBuf,
) -> Result<(Counts, SpanBuf), Failure> {
    let fail = |detail: String| Failure { phase: "layer replay", detail };
    let mut ingest = Ingest::new(g);
    let mut worker = Worker::new(g, app, worker_spans);
    let (tx, rx) = spsc::channel::<Batch>(g.queue_depth);
    let (pool_tx, pool_rx) = spsc::channel::<Batch>(g.queue_depth + 3);
    let mut pool: Vec<Batch> =
        (0..g.queue_depth + 3).map(|_| Vec::with_capacity(g.batch)).collect();
    let joined = std::thread::scope(|s| {
        let handle = s.spawn(move || {
            worker.run(rx, pool_tx);
            worker
        });
        let mut bid = 0u64;
        let mut index = 0u64;
        'feeds: for feed in stream.chunks(g.closed_slice) {
            ingest.start_feed();
            for tps in feed.chunks(g.batch) {
                let t = sp.now();
                let buf = match pool_rx.try_recv() {
                    Ok(buf) => Some(buf),
                    Err(_) => pool.pop().or_else(|| pool_rx.recv().ok()),
                };
                let Some(mut buf) = buf else { break 'feeds };
                stage(sp, RECYCLE, t, ROOT, bid);
                ingest.batch(tps, index, &mut buf, sp, bid);
                index += tps.len() as u64;
                let t = sp.now();
                if tx.send(buf).is_err() {
                    break 'feeds;
                }
                stage(sp, SEND, t, ROOT, bid);
                bid += 1;
            }
        }
        drop(tx);
        handle.join()
    });
    let worker = joined.map_err(|_| fail("the replay worker panicked".to_string()))?;
    if let Some(m) = worker.mismatch {
        return Err(fail(m));
    }
    let mut counts = ingest.finish();
    let w = worker.counts;
    counts.packets = w.packets;
    counts.batches = w.batches;
    counts.mat_applies = w.mat_applies;
    counts.ml_packets = w.ml_packets;
    counts.formatter_calls = w.formatter_calls;
    counts.cgra_invocations = w.cgra_invocations;
    if let Some(detail) = first_difference(&expected.report, &worker.shadow.report()) {
        return Err(fail(format!("shadow switch vs oracle: {detail}")));
    }
    let want = expected.report.apps[0].counters;
    let composed = [
        ("packets", want.packets, w.packets),
        ("ml_packets", want.ml_packets, w.ml_packets),
        ("dropped", want.dropped, worker.verdicts.0),
        ("flagged", want.flagged, worker.verdicts.1),
    ];
    if let Some((name, want, got)) = composed.into_iter().find(|(_, w, g)| w != g) {
        return Err(fail(format!("composed {name} (want {want}, got {got})")));
    }
    if counts.capacity_evictions != expected.report.capacity_evictions {
        return Err(fail(format!(
            "directory capacity_evictions (want {}, got {})",
            expected.report.capacity_evictions, counts.capacity_evictions
        )));
    }
    Ok((counts, worker.spans))
}

impl Replay {
    /// Layer times of every measured pass (the warm-up excluded).
    pub fn pass_times(&self) -> Vec<PassTimes> {
        let ing_self = spans::self_times(self.ingest.spans());
        let wrk_self = spans::self_times(self.worker.spans());
        let sum =
            |spans: &[spans::Span], self_ns: &[u64], range: &std::ops::Range<usize>, name: &str| {
                spans::total_self(&spans[range.clone()], &self_ns[range.clone()], name).0
            };
        self.ranges[1..]
            .iter()
            .map(|(ir, wr)| {
                let (i, is) = (self.ingest.spans(), &ing_self[..]);
                let (w, ws) = (self.worker.spans(), &wrk_self[..]);
                PassTimes {
                    validate: sum(i, is, ir, VALIDATE),
                    obs: sum(i, is, ir, OBS),
                    directory: sum(i, is, ir, DIRECTORY),
                    windows: sum(i, is, ir, WINDOWS),
                    to_packet: sum(i, is, ir, TO_PACKET),
                    send_blocked: sum(i, is, ir, SEND) + sum(i, is, ir, RECYCLE),
                    recv_idle: sum(w, ws, wr, RECV),
                    parse: sum(w, ws, wr, PARSE),
                    observe: sum(w, ws, wr, OBSERVE),
                    pre_mat: sum(w, ws, wr, PRE_MAT),
                    formatter: sum(w, ws, wr, FORMATTER),
                    engine: sum(w, ws, wr, ENGINE),
                    post_mat: sum(w, ws, wr, POST_MAT),
                    switch: sum(w, ws, wr, SWITCH),
                }
            })
            .collect()
    }

    /// The per-layer metrics: medians over measured passes of each
    /// layer's time, plus the pass counts.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let c = self.counts;
        let pkts = c.packets.max(1) as f64;
        let ml = c.formatter_calls.max(1) as f64;
        let batches = c.batches.max(1) as f64;
        let times = self.pass_times();
        let med =
            |f: &dyn Fn(&PassTimes) -> f64| stats::median(&times.iter().map(f).collect::<Vec<_>>());
        vec![
            ("core.ingest.validate_ns", med(&|t| t.validate as f64 / pkts), "ns"),
            ("core.ingest.obs_ns", med(&|t| t.obs as f64 / pkts), "ns"),
            ("core.ingest.to_packet_ns", med(&|t| t.to_packet as f64 / pkts), "ns"),
            ("core.ingest.quarantined", c.quarantined as f64, "count"),
            ("pisa.flow_table.access_ns", med(&|t| t.directory as f64 / pkts), "ns"),
            (
                "pisa.flow_table.hit_ratio",
                c.directory_hits as f64 / c.directory_accesses.max(1) as f64,
                "ratio",
            ),
            (
                "pisa.flow_table.probe_mean",
                if c.probe_total == 0 {
                    0.0
                } else {
                    c.probe_weighted as f64 / c.probe_total as f64
                },
                "ways",
            ),
            ("pisa.flow_table.capacity_evictions", c.capacity_evictions as f64, "count"),
            ("pisa.registers.windows_ns", med(&|t| t.windows as f64 / pkts), "ns"),
            ("pisa.registers.observe_ns", med(&|t| t.observe as f64 / pkts), "ns"),
            ("pisa.parser.parse_ns", med(&|t| t.parse as f64 / pkts), "ns"),
            ("pisa.mat.apply_ns", med(&|t| (t.pre_mat + t.post_mat) as f64 / pkts), "ns"),
            ("pisa.mat.applies", c.mat_applies as f64, "count"),
            ("pisa.mat.bypass_frac", (c.packets - c.ml_packets) as f64 / pkts, "ratio"),
            ("core.apps.formatter_ns", med(&|t| t.formatter as f64 / ml), "ns"),
            ("core.apps.formatter_calls", c.formatter_calls as f64, "count"),
            ("core.engine.infer_ns", med(&|t| t.engine as f64 / ml), "ns"),
            ("cgra.invocations", c.cgra_invocations as f64, "count"),
            ("core.switch.process_ns", med(&|t| t.switch as f64 / pkts), "ns"),
            ("core.switch.unattributed_ns", med(&|t| t.unattributed_ns(pkts)), "ns"),
            ("runtime.spsc.send_blocked_ns", med(&|t| t.send_blocked as f64 / batches), "ns"),
            ("runtime.spsc.recv_idle_ns", med(&|t| t.recv_idle as f64 / batches), "ns"),
            ("runtime.spsc.batches", c.batches as f64, "count"),
        ]
    }

    /// Measured passes (the warm-up excluded).
    pub fn passes(&self) -> usize {
        self.ranges.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_stream, oracle, setup, WORKLOADS};

    #[test]
    fn unattributed_remainder_is_signed() {
        let t = PassTimes { switch: 1_000, parse: 200, engine: 500, ..PassTimes::default() };
        assert_eq!(t.unattributed_ns(10.0), 30.0);
        let over = PassTimes { switch: 600, parse: 300, formatter: 400, ..PassTimes::default() };
        assert_eq!(over.unattributed_ns(10.0), -10.0);
    }

    /// On a small stream, every workload's composed replay agrees with
    /// `process_prepared_verdict` on every packet and with the oracle's
    /// final counters (`run` fails otherwise), and two passes produce
    /// identical counts.
    #[test]
    fn composed_replay_matches_the_switch_on_every_roster() {
        for g in &WORKLOADS {
            let g = Geometry { records: 300, ..g.clone() };
            let stream = generate_stream(&g, 5);
            let s = setup(&g, 5, &stream.packets);
            let expected = oracle(&g, s.app.as_app(), &stream.packets, None);
            let replay = run(
                &g,
                s.app.as_app(),
                &stream.packets,
                &expected,
                Instant::now(),
                (1, 1),
                Instant::now(),
            )
            .unwrap_or_else(|f| panic!("{}: {}: {}", g.name, f.phase, f.detail));
            assert_eq!(replay.passes(), 1);
            assert_eq!(replay.counts.packets, stream.packets.len() as u64, "{}", g.name);
            assert_eq!(replay.counts.ml_packets, expected.report.ml_packets, "{}", g.name);
            let metrics = replay.metrics();
            assert!(metrics.iter().all(|(_, v, _)| v.is_finite()), "{}", g.name);
            drop(s.runtime.shutdown());
        }
    }
}
