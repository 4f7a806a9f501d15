//! The two workloads: their geometry, their inputs (generated from the
//! seed), the models and runtime they set up, and the sequential
//! `TaurusSwitch` oracle every measured pass is checked against.

use std::time::Instant;

use taurus_core::apps::{AnomalyDetector, SynFloodDetector};
use taurus_core::{
    EngineBackend, EngineUpdate, ModelUpdate, SwitchBuilder, SwitchReport, TaurusApp, TaurusSwitch,
};
use taurus_dataset::kdd::{FeatureView, KddGenerator};
use taurus_dataset::trace::{PacketTrace, TraceConfig, TracePacket};
use taurus_ml::{BinaryMetrics, TrainParams};
use taurus_pisa::{FlowTableKind, PipelineConfig, Verdict};
use taurus_runtime::{OverloadPolicy, RuntimeBuilder, StreamingRuntime};

/// Which app a workload hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Roster {
    /// The anomaly-detection DNN (`AnomalyDetector`).
    Dnn,
    /// The SYN-flood linear scorer (`SynFloodDetector::default_deployment`).
    Syn,
}

/// Everything that defines one workload. README.md in this directory
/// lists the same table with the reason each workload exists.
#[derive(Debug, Clone)]
pub struct Geometry {
    pub name: &'static str,
    pub roster: Roster,
    pub backend: EngineBackend,
    pub flow_table: FlowTableKind,
    pub shards: usize,
    pub batch: usize,
    pub queue_depth: usize,
    /// KDD connection records expanded into the packet stream.
    pub records: usize,
    /// Packets per `feed` in the closed loop.
    pub closed_slice: usize,
    /// Closed-loop passes per measurement round (one open-loop pass).
    pub closed_passes: usize,
    /// The percentile of the closed-loop window rates reported as
    /// `throughput_pps`, in basis points. It follows the thread that
    /// bounds the rate; README.md gives the measurements behind each.
    pub throughput_bp: u32,
    /// Packets per open-loop chunk (one `feed` + one `drain`).
    pub chunk: usize,
    /// Open-loop offered rate, packets per second.
    pub rate_pps: f64,
}

pub const WORKLOADS: [Geometry; 2] = [
    Geometry {
        name: "dnn-cgra",
        roster: Roster::Dnn,
        backend: EngineBackend::CgraSim,
        flow_table: FlowTableKind::DirectMapped,
        shards: 1,
        batch: 256,
        queue_depth: 4,
        records: 12_000,
        closed_slice: 4_096,
        closed_passes: 16,
        // The engine worker bounds the rate. On the host this was built
        // on its speed has two modes about a factor of two apart, and the
        // fast one held for at least a twentieth of nearly every run.
        throughput_bp: 9_500,
        chunk: 64,
        rate_pps: 100_000.0,
    },
    Geometry {
        name: "syn-keyed",
        roster: Roster::Syn,
        backend: EngineBackend::Threshold,
        flow_table: FlowTableKind::Keyed { buckets: 1_024, ways: 4 },
        shards: 1,
        batch: 1_024,
        queue_depth: 4,
        records: 12_000,
        closed_slice: 8_192,
        closed_passes: 16,
        // The calling thread bounds the rate. Its window rates form one
        // broad hump, whose upper tail moved between runs about twice as
        // much as its middle.
        throughput_bp: 5_000,
        chunk: 256,
        rate_pps: 500_000.0,
    },
];

impl Geometry {
    pub fn by_name(name: &str) -> Option<&'static Geometry> {
        WORKLOADS.iter().find(|g| g.name == name)
    }

    pub fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig { flow_table: self.flow_table, ..PipelineConfig::default() }
    }

    /// One-line description of the geometry for the report header.
    pub fn describe(&self) -> String {
        format!(
            "{:?} on {:?}, {:?}, {} shard(s), batch {}, queue depth {}, {} records, \
             closed slice {} ({} passes a round, throughput at window p{}), chunk {}, {} pkts/s offered, \
             installs timed on the idle service",
            self.roster,
            self.backend,
            self.flow_table,
            self.shards,
            self.batch,
            self.queue_depth,
            self.records,
            self.closed_slice,
            self.closed_passes,
            self.throughput_bp / 100,
            self.chunk,
            self.rate_pps
        )
    }
}

/// Seed of the models, derived from the workload seed so the model is
/// never trained on the records the stream replays.
fn model_seed(seed: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15
}

/// The packet stream: `records` KDD connections from `seed`, expanded
/// with the default trace shape under the same seed.
pub fn generate_stream(g: &Geometry, seed: u64) -> PacketTrace {
    let records = KddGenerator::new(seed).take(g.records);
    PacketTrace::expand(records, &TraceConfig { seed, ..TraceConfig::default() })
}

/// The hosted app.
pub enum App {
    Dnn(Box<AnomalyDetector>),
    Syn(SynFloodDetector),
}

impl App {
    pub fn as_app(&self) -> &dyn TaurusApp {
        match self {
            App::Dnn(d) => d.as_ref(),
            App::Syn(s) => s,
        }
    }
}

/// Hands out model updates that alternate between two prepared models,
/// each under a fresh version.
#[derive(Clone)]
pub struct Installer {
    updates: [ModelUpdate; 2],
    version: u64,
    next: usize,
}

impl Installer {
    fn new(updates: [ModelUpdate; 2]) -> Self {
        Self { updates, version: 0, next: 0 }
    }

    fn versioned(&mut self, which: usize) -> ModelUpdate {
        self.version += 1;
        let mut u = self.updates[which].clone();
        u.version = self.version;
        u
    }

    /// The update every pass starts from: the build-time deployment, so
    /// each pass begins on the same model whatever the last one ended on.
    pub fn start_update(&mut self) -> ModelUpdate {
        self.next = 0;
        self.versioned(1)
    }

    /// The next update in the alternation.
    pub fn next_update(&mut self) -> ModelUpdate {
        let which = self.next;
        self.next ^= 1;
        self.versioned(which)
    }
}

/// Wall times of the set-up steps, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub train_s: f64,
    pub compile_s: f64,
    pub build_s: f64,
    pub warmup_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.train_s + self.compile_s + self.build_s + self.warmup_s
    }
}

/// A set-up workload: models, the two prepared updates, and the
/// resident runtime after one warm-up pass.
pub struct Setup {
    pub app: App,
    pub installer: Installer,
    pub runtime: StreamingRuntime,
    pub times: SetupTimes,
}

/// Trains (or builds) the roster's models and prepares the two updates.
fn build_models(g: &Geometry, seed: u64, times: &mut SetupTimes) -> (App, Installer) {
    let t = Instant::now();
    match g.roster {
        Roster::Dnn => {
            let ms = model_seed(seed);
            let detector = AnomalyDetector::train_default(ms, 2_000);
            // The second model: the deployed float model trained further
            // on fresh records, so installs genuinely change verdicts.
            let mut retrained = detector.float_model.clone();
            let mut ds =
                KddGenerator::new(ms.wrapping_add(1)).binary_dataset(600, FeatureView::Dnn6);
            detector.standardizer.apply(&mut ds);
            retrained.train(
                ds.features(),
                ds.labels(),
                &TrainParams { epochs: 5, seed: ms, ..TrainParams::default() },
            );
            times.train_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let updates =
                [detector.prepare_update(&retrained, ds.features(), 0), redeploy(&detector)];
            times.compile_s = t.elapsed().as_secs_f64();
            (App::Dnn(Box::new(detector)), Installer::new(updates))
        }
        Roster::Syn => {
            let syn = SynFloodDetector::default_deployment();
            times.train_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let updates = [
                syn.retune(syn.threshold + 1, 0, g.backend),
                syn.retune(syn.threshold, 0, g.backend),
            ];
            times.compile_s = t.elapsed().as_secs_f64();
            (App::Syn(syn), Installer::new(updates))
        }
    }
}

/// An update that puts the build-time deployment of a CGRA-hosted app
/// back: its compiled program, formatter and verdict tables.
fn redeploy(app: &dyn TaurusApp) -> ModelUpdate {
    ModelUpdate {
        app: app.name().to_string(),
        version: 0,
        weights: None,
        engine: EngineUpdate::Program(app.program().expect("a CGRA app has a program")),
        formatter: app.formatter_factory(),
        post_tables: Some(app.post_tables(EngineBackend::CgraSim)),
    }
}

pub fn build_runtime(g: &Geometry, app: &dyn TaurusApp) -> StreamingRuntime {
    RuntimeBuilder::new()
        .shards(g.shards)
        .parse_workers(0)
        .batch_size(g.batch)
        .queue_depth(g.queue_depth)
        .overload_policy(OverloadPolicy::Block)
        .config(g.pipeline_config())
        .register_on(app, g.backend)
        .build_streaming()
}

pub fn build_switch(g: &Geometry, app: &dyn TaurusApp) -> TaurusSwitch {
    SwitchBuilder::new().config(g.pipeline_config()).register_on(app, g.backend).build()
}

/// One full set-up: models, `build_streaming`, and a warm-up pass over
/// the stream.
pub fn setup(g: &Geometry, seed: u64, stream: &[TracePacket]) -> Setup {
    let mut times = SetupTimes::default();
    let (app, installer) = build_models(g, seed, &mut times);
    let t = Instant::now();
    let mut runtime = build_runtime(g, app.as_app());
    times.build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for slice in stream.chunks(g.closed_slice) {
        runtime.feed(slice);
    }
    std::hint::black_box(runtime.drain());
    times.warmup_s = t.elapsed().as_secs_f64();
    Setup { app, installer, runtime, times }
}

/// What a correct pass over the stream must report.
pub struct Expected {
    pub report: SwitchReport,
    /// Deployed verdicts (drop = positive) against ground truth.
    pub confusion: BinaryMetrics,
    /// `TaurusSwitch::ml_latency_ns` at the end of the stream.
    pub modeled_latency_ns: u64,
}

/// The sequential oracle: one `TaurusSwitch` over the stream. With an
/// installer it starts on the start model, as every measured pass does;
/// without one it runs the build-time model.
pub fn oracle(
    g: &Geometry,
    app: &dyn TaurusApp,
    stream: &[TracePacket],
    mut installer: Option<Installer>,
) -> Expected {
    let mut switch = build_switch(g, app);
    if let Some(inst) = installer.as_mut() {
        switch.install_update(&inst.start_update()).expect("oracle accepts the start model");
    }
    let mut confusion = BinaryMetrics::default();
    for tp in stream {
        let v = switch.process_trace_verdict(tp);
        confusion.record(v.verdict == Verdict::Drop, tp.anomalous);
    }
    Expected { report: switch.report(), confusion, modeled_latency_ns: switch.ml_latency_ns() }
}

/// The first field in which `got` differs from `want`, if any.
pub fn first_difference(want: &SwitchReport, got: &SwitchReport) -> Option<String> {
    let top = [
        ("packets", want.packets, got.packets),
        ("ml_packets", want.ml_packets, got.ml_packets),
        ("dropped", want.dropped, got.dropped),
        ("flagged", want.flagged, got.flagged),
        ("evictions", want.evictions, got.evictions),
        ("capacity_evictions", want.capacity_evictions, got.capacity_evictions),
        ("flow_occupancy", want.flow_occupancy, got.flow_occupancy),
    ];
    if let Some((name, w, g)) = top.into_iter().find(|(_, w, g)| w != g) {
        return Some(format!("{name} (want {w}, got {g})"));
    }
    if want.probe_hist != got.probe_hist {
        return Some(format!("probe_hist (want {:?}, got {:?})", want.probe_hist, got.probe_hist));
    }
    if want.apps.len() != got.apps.len() {
        return Some(format!("apps.len (want {}, got {})", want.apps.len(), got.apps.len()));
    }
    for (i, (w, g)) in want.apps.iter().zip(&got.apps).enumerate() {
        if w.name != g.name {
            return Some(format!("apps[{i}].name (want {}, got {})", w.name, g.name));
        }
        let (w, g) = (w.counters, g.counters);
        let fields = [
            ("packets", w.packets, g.packets),
            ("ml_packets", w.ml_packets, g.ml_packets),
            ("dropped", w.dropped, g.dropped),
            ("flagged", w.flagged, g.flagged),
        ];
        if let Some((name, w, g)) = fields.into_iter().find(|(_, w, g)| w != g) {
            return Some(format!("apps[{i}].counters.{name} (want {w}, got {g})"));
        }
    }
    (want != got).then(|| "report (a field outside the compared set)".to_string())
}

/// The first confusion cell in which `got` differs from `want`.
pub fn confusion_difference(want: &BinaryMetrics, got: &BinaryMetrics) -> Option<String> {
    [
        ("tp", want.tp, got.tp),
        ("fp", want.fp, got.fp),
        ("tn", want.tn, got.tn),
        ("fn", want.fn_, got.fn_),
    ]
    .into_iter()
    .find(|(_, w, g)| w != g)
    .map(|(name, w, g)| format!("segments.{name} (want {w}, got {g})"))
}
