//! The repository's benchmark: two workloads through
//! `taurus_runtime::StreamingRuntime`, every pass checked against the
//! sequential `TaurusSwitch` oracle.
//!
//! ```text
//! perfbench --workload <dnn-cgra|syn-keyed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced service and the layer replay and reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. A mismatch
//! against the oracle exits non-zero without printing it. See README.md.

mod e2e;
mod replay;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use taurus_core::apps::AnomalyDetector;
use taurus_core::TaurusSwitch;
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};

use e2e::{Bench, Failure};
use spans::{SpanBuf, ROOT};
use workload::{Geometry, SetupTimes};

/// Rounds every run makes, however short.
const MIN_ROUNDS: usize = 3;
/// A round's planned wall time in open-loop pass durations (each
/// workload's closed passes take about as long as its open-loop pass).
const ROUND_PER_OPEN: f64 = 2.2;
/// Installs on the idle service after each closed pass. Spreading them
/// over the run, rather than timing them in one burst, samples the host
/// at many moments; `MIN_ROUNDS` rounds pool enough for a p99 with ten
/// samples beyond.
const INSTALLS_PER_PASS: usize = 32;

/// Counts of the traced run that must repeat bit for bit with one seed.
const TRACE_REPEAT: [&str; 6] = [
    "cgra.invocations",
    "core.apps.formatter_calls",
    "pisa.mat.applies",
    "pisa.mat.bypass_frac",
    "pisa.flow_table.capacity_evictions",
    "runtime.spsc.batches",
];
/// Caps that bound the traced run's span buffers.
const MAX_TRACED_ROUNDS: usize = 12;
const MAX_REPLAY_PASSES: usize = 16;

struct Args {
    workload: &'static Geometry,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Geometry::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// A reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Values that must repeat bit for bit across runs with one seed.
    repeat: Vec<(&'static str, f64)>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <dnn-cgra|syn-keyed> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let g = args.workload;
    println!("# workload {} seed {} ({})", g.name, args.seed, g.describe());
    print_host();
    let probe = Probe::new();
    let probe_before = probe.run();
    let result = if args.trace { run_traced(&args) } else { run_e2e(&args) };
    let probe_after = probe.run();
    println!(
        "# host speed probe (sequential DNN switch, fixed trace): {:.4} Mpkts/s before, \
         {:.4} Mpkts/s after; a diagnostic, never folded into a metric",
        probe_before / 1e6,
        probe_after / 1e6
    );
    let outcome = match result.and_then(|o| check_repeat(&args, &o).map(|()| o)) {
        Ok(o) => o,
        Err(f) => {
            eprintln!("perfbench: workload {}, phase {}: {}", g.name, f.phase, f.detail);
            std::process::exit(1);
        }
    };
    for (name, value, unit) in &outcome.metrics {
        println!("# {name:<36} {value:>16.4} {unit}");
    }
    println!("{}", to_json(&outcome));
}

/// What the measurement rounds collected beside the `Bench` pools.
#[derive(Default)]
struct Rounds {
    /// Seconds per traced and untraced closed pass.
    traced_s: Vec<f64>,
    plain_s: Vec<f64>,
    setups: Vec<SetupTimes>,
    detection_f1: f64,
    balance: f64,
}

/// Runs `rounds` measurement rounds. A round is the workload's closed-loop
/// passes (alternately traced and untraced when `sp` is set), each
/// followed by `INSTALLS_PER_PASS` installs on the idle service, then one
/// open-loop pass and one more full set-up, so each metric samples the
/// whole run rather than one moment of it.
fn measure_rounds(
    ctx: &Context,
    bench: &mut Bench,
    rounds: usize,
    mut sp: Option<&mut SpanBuf>,
) -> Result<Rounds, Failure> {
    let g = ctx.g;
    let mut out = Rounds { setups: vec![ctx.setup_times], ..Rounds::default() };
    for _ in 0..rounds {
        for i in 0..g.closed_passes {
            let traced = sp.is_some() && i % 2 == 0;
            let (pps, report) = bench.closed_pass(if traced { sp.as_deref_mut() } else { None })?;
            out.balance = report.balance();
            if traced {
                out.traced_s.push(1.0 / pps);
            } else {
                out.plain_s.push(1.0 / pps);
            }
            bench.install_group(INSTALLS_PER_PASS, sp.as_deref_mut());
        }
        bench.open_pass(sp.as_deref_mut())?;
        let s = workload::setup(g, ctx.seed, &ctx.stream.packets);
        out.setups.push(s.times);
        drop(s.runtime.shutdown());
    }
    // Every pass's confusion equals the oracle's, so any pass gives it.
    out.detection_f1 = bench.confusion().f1();
    Ok(out)
}

/// Every end-to-end metric, measured with tracing off.
fn run_e2e(args: &Args) -> Result<Outcome, Failure> {
    let (ctx, runtime) = Context::new(args);
    let g = ctx.g;
    let mut bench =
        Bench::new(g, &ctx.stream.packets, &ctx.expected, ctx.installer.clone(), runtime);
    // The amount of work is planned from `--seconds` and the open-loop
    // schedule, not from a clock, so every run with one seed does the
    // same work and holds the same memory.
    let rounds = planned_rounds(g, ctx.stream.packets.len(), args.seconds);
    let r = measure_rounds(&ctx, &mut bench, rounds, None)?;
    let sum = bench.summary()?;
    let tally = bench.tally;
    let chunks = bench.chunks();
    let windows = stats::sorted(bench.window_rates());
    drop(bench.rt.shutdown());
    let setup_s = stats::median(&r.setups.iter().map(SetupTimes::total).collect::<Vec<_>>());
    println!(
        "# {rounds} rounds: {} closed-loop passes (pass-rate IQR/median {:.4}), {rounds} \
         open-loop passes of {} chunks, {} set-ups",
        r.plain_s.len(),
        stats::relative_iqr(&r.plain_s),
        chunks,
        r.setups.len()
    );
    println!(
        "# throughput: {} windows of {} packets; p5 {:.0}, p10 {:.0}, p50 {:.0}, p90 {:.0}, \
         p95 {:.0} pkts/s",
        windows.len(),
        g.closed_slice * e2e::WINDOW_SLICES,
        stats::percentile(&windows, 500),
        stats::percentile(&windows, 1_000),
        stats::percentile(&windows, 5_000),
        stats::percentile(&windows, 9_000),
        stats::percentile(&windows, 9_500)
    );
    println!("# latency_p99_us {:.4} us (unbounded: see README.md)", sum.latency_p99_us);
    println!("# install_p99_us {:.4} us (unbounded: see README.md)", sum.install_p99_us);
    println!(
        "# loadgen.late_p99_us {:.4} us (how late the open-loop generator ran)",
        sum.late_p99_us
    );
    println!(
        "# modeled_latency_ns {} ns (simulated: compiler TimingReport of the slowest hosted model)",
        ctx.expected.modeled_latency_ns
    );
    println!(
        "# error_rate {} ({} failed of {} attempted packets and installs)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            ("throughput_pps", sum.throughput_pps, "pkts/s"),
            ("latency_p50_us", sum.latency_p50_us, "us"),
            ("install_p50_us", sum.install_p50_us, "us"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mib(), "MiB"),
            ("detection_f1", r.detection_f1, "ratio"),
        ],
        repeat: vec![
            ("detection_f1", r.detection_f1),
            ("modeled_latency_ns", ctx.expected.modeled_latency_ns as f64),
        ],
    })
}

/// The per-layer metrics: service spans around the real runtime, then
/// the layer replay.
fn run_traced(args: &Args) -> Result<Outcome, Failure> {
    let (ctx, runtime) = Context::new(args);
    let g = ctx.g;
    let mut bench =
        Bench::new(g, &ctx.stream.packets, &ctx.expected, ctx.installer.clone(), runtime);
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);

    // Part 1, half the run: the real service with a span around every
    // feed, drain and install. Closed passes alternate traced and
    // untraced; their difference is the tracing overhead.
    let rounds = planned_rounds(g, ctx.stream.packets.len(), args.seconds.div_ceil(2))
        .min(MAX_TRACED_ROUNDS);
    let slices = ctx.stream.packets.len().div_ceil(g.closed_slice);
    let chunks = bench.chunks();
    let per_round = g.closed_passes * (2 * slices + 4 + INSTALLS_PER_PASS) + 5 * chunks + 4;
    let mut sp = SpanBuf::new(per_round * rounds, ctx.epoch);
    let r = measure_rounds(&ctx, &mut bench, rounds, Some(&mut sp))?;
    let sum = bench.summary()?;
    let refused = bench.refused;
    let tally = bench.tally;
    drop(bench.rt.shutdown());
    if sp.dropped() > 0 {
        return Err(Failure { phase: "traced service", detail: "span buffer overflowed".into() });
    }

    // Part 2: the layer replay of the build-time roster over the same
    // stream, checked against the no-install oracle.
    let expected = workload::oracle(g, ctx.app.as_app(), &ctx.stream.packets, None);
    let replay = replay::run(
        g,
        ctx.app.as_app(),
        &ctx.stream.packets,
        &expected,
        deadline,
        (MIN_ROUNDS, MAX_REPLAY_PASSES),
        ctx.epoch,
    )?;
    println!("# {rounds} traced service rounds, {} replay passes", replay.passes());

    let chunk_children = |name: &str| -> Vec<f64> {
        let s = sp.spans();
        let v: Vec<f64> = s
            .iter()
            .filter(|x| {
                x.name == name && x.parent != ROOT && s[x.parent as usize].name == "service.chunk"
            })
            .map(|x| x.duration_ns() as f64 / 1e3)
            .collect();
        stats::sorted(&v)
    };
    let feeds = chunk_children("runtime.service.feed");
    let drains = chunk_children("runtime.service.drain");
    let installs = stats::sorted(&spans::durations(sp.spans(), "runtime.service.install"));
    let plain = stats::median(&r.plain_s);
    let overhead = (stats::median(&r.traced_s) - plain) / plain;
    let setup_med =
        |f: fn(&SetupTimes) -> f64| stats::median(&r.setups.iter().map(f).collect::<Vec<_>>());

    let mut metrics = replay.metrics();
    metrics.extend([
        ("runtime.service.feed_us", stats::percentile(&feeds, 5_000), "us"),
        ("runtime.service.drain_us_p50", stats::percentile(&drains, 5_000), "us"),
        ("runtime.service.drain_us_p99", stats::percentile(&drains, 9_900), "us"),
        ("runtime.service.install_us", stats::percentile(&installs, 5_000) / 1e3, "us"),
        ("runtime.service.drains", (drains.len() / rounds) as f64, "count"),
        ("runtime.service.shard_balance", r.balance, "ratio"),
        ("runtime.overload.refused", refused as f64, "count"),
        ("latency_p99_us", sum.latency_p99_us, "us"),
        ("install_p99_us", sum.install_p99_us, "us"),
        ("setup.train_s", setup_med(|t| t.train_s), "s"),
        ("setup.compile_s", setup_med(|t| t.compile_s), "s"),
        ("setup.build_s", setup_med(|t| t.build_s), "s"),
        ("setup.warmup_s", setup_med(|t| t.warmup_s), "s"),
        ("loadgen.late_p99_us", sum.late_p99_us, "us"),
        ("loadgen.trace_gen_s", ctx.trace_gen_s, "s"),
        ("trace.overhead_frac", overhead, "ratio"),
    ]);
    write_spans(args, &sp, &replay);
    let repeat = TRACE_REPEAT
        .map(|name| (name, metrics.iter().find(|m| m.0 == name).expect("a replay metric").1))
        .to_vec();
    Ok(Outcome { attempted: tally.attempted, failed: tally.failed, metrics, repeat })
}

/// Measurement rounds for a run of `seconds`: planned from the
/// open-loop schedule, whose duration does not depend on host speed.
fn planned_rounds(g: &Geometry, packets: usize, seconds: u64) -> usize {
    let open_s = packets as f64 / g.rate_pps;
    ((seconds as f64 / (open_s * ROUND_PER_OPEN)) as usize).max(MIN_ROUNDS)
}

/// The inputs and set-up shared by both modes.
struct Context {
    g: &'static Geometry,
    seed: u64,
    epoch: Instant,
    stream: PacketTrace,
    trace_gen_s: f64,
    app: workload::App,
    installer: workload::Installer,
    setup_times: SetupTimes,
    expected: workload::Expected,
}

impl Context {
    /// Generates the stream, sets the workload up once, and runs the
    /// oracle. Returns the set-up's runtime beside the context.
    fn new(args: &Args) -> (Self, taurus_runtime::StreamingRuntime) {
        let g = args.workload;
        let epoch = Instant::now();
        let t = Instant::now();
        let stream = workload::generate_stream(g, args.seed);
        let trace_gen_s = t.elapsed().as_secs_f64();
        println!("# stream: {} packets from {} records", stream.packets.len(), g.records);
        let workload::Setup { app, installer, runtime, times } =
            workload::setup(g, args.seed, &stream.packets);
        let expected = workload::oracle(g, app.as_app(), &stream.packets, Some(installer.clone()));
        let ctx = Self {
            g,
            seed: args.seed,
            epoch,
            stream,
            trace_gen_s,
            app,
            installer,
            setup_times: times,
            expected,
        };
        (ctx, runtime)
    }
}

/// Where run-to-run state lives: next to the benchmark's own binary,
/// inside the build directory of the checkout.
fn state_dir(sub: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let build = exe.parent().and_then(|p| p.parent()).map(PathBuf::from).unwrap_or_default();
    build.join("perfbench-state").join(sub)
}

/// Fails when a value that must repeat bit for bit differs from the one
/// an earlier run of the same binary with the same workload, seed and
/// mode recorded. Keying on the binary's bytes keeps a rebuilt program,
/// whose values may legitimately differ, from being judged against the
/// old one.
fn check_repeat(args: &Args, o: &Outcome) -> Result<(), Failure> {
    use std::hash::{Hash, Hasher};
    let exe = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    exe.hash(&mut h);
    let dir = state_dir("repeat");
    let path = dir.join(format!(
        "{}-seed{}-trace{}-{:016x}.txt",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        h.finish()
    ));
    let now: String = o.repeat.iter().map(|(k, v)| format!("{k} {:016x}\n", v.to_bits())).collect();
    match std::fs::read_to_string(&path) {
        Ok(before) if before != now => Err(Failure {
            phase: "exact-repeat check",
            detail: format!(
                "{} differs from the earlier run with this seed: {}",
                before
                    .lines()
                    .zip(now.lines())
                    .find(|(a, b)| a != b)
                    .map_or("a recorded value", |(a, _)| a.split(' ').next().unwrap_or("")),
                path.display()
            ),
        }),
        Ok(_) => Ok(()),
        Err(_) => {
            // The first run with this seed records the values.
            let _ = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, now));
            Ok(())
        }
    }
}

/// Writes every span of the traced run as tab-separated lines.
fn write_spans(args: &Args, service: &SpanBuf, replay: &replay::Replay) {
    let dir = state_dir("spans");
    let path = dir.join(format!("{}-seed{}.tsv", args.workload.name, args.seed));
    let result = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        use std::io::Write;
        writeln!(out, "thread\tname\tstart_ns\tend_ns\tparent\trequest")?;
        service.write_tsv("service", &mut out)?;
        replay.ingest.write_tsv("replay-ingest", &mut out)?;
        replay.worker.write_tsv("replay-worker", &mut out)?;
        out.flush()
    });
    match result {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written ({e})"),
    }
}

fn to_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no infinity: a refused chunk's latency is reported
            // as the largest finite number.
            let v = if value.is_finite() { *value } else { f64::MAX };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn print_host() {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    println!("# host: nproc {cores}, cpu {model}, kernel {kernel}, {rustc}");
}

/// A fixed single-threaded workload timed before and after the
/// measurement, so host speed shifts show in every report.
struct Probe {
    detector: AnomalyDetector,
    trace: PacketTrace,
}

impl Probe {
    fn new() -> Self {
        Self {
            detector: AnomalyDetector::train_default(7, 500),
            trace: PacketTrace::expand(KddGenerator::new(7).take(300), &TraceConfig::default()),
        }
    }

    /// Median packets per second over nine passes.
    fn run(&self) -> f64 {
        let rates: Vec<f64> = (0..9)
            .map(|_| {
                let mut switch = TaurusSwitch::new(&self.detector);
                let t = Instant::now();
                for tp in &self.trace.packets {
                    std::hint::black_box(switch.process_trace_verdict(tp));
                }
                self.trace.packets.len() as f64 / t.elapsed().as_secs_f64()
            })
            .collect();
        stats::median(&rates)
    }
}
