//! End-to-end passes through `StreamingRuntime`: packets in through
//! `feed`, verdicts counted in the `RuntimeReport` that `drain` returns,
//! every pass checked against the sequential oracle.

use std::time::{Duration, Instant};

use taurus_dataset::trace::TracePacket;
use taurus_ml::BinaryMetrics;
use taurus_runtime::{RuntimeReport, StreamingRuntime};

use crate::spans::{SpanBuf, ROOT};
use crate::stats;
use crate::workload::{confusion_difference, first_difference, Expected, Geometry, Installer};

/// A correctness failure: the phase it happened in and the first field
/// that differs from the oracle.
#[derive(Debug)]
pub struct Failure {
    pub phase: &'static str,
    pub detail: String,
}

/// Attempted and failed operations. A packet fails when it gets no ML
/// verdict; an install fails when `install_update` returns `Err`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// The figures a run's sample pools give.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// The workload's percentile (`Geometry::throughput_bp`) of the
    /// closed-loop window rates, packets per second.
    pub throughput_pps: f64,
    /// The 10th percentile over open-loop passes of each pass's median
    /// chunk sojourn, microseconds: host interference only ever adds
    /// delay, so the calmer passes track the program, not the neighbours.
    pub latency_p50_us: f64,
    /// Over every chunk of the run, microseconds.
    pub latency_p99_us: f64,
    /// How late the open-loop generator ran.
    pub late_p99_us: f64,
    pub install_p50_us: f64,
    pub install_p99_us: f64,
}

/// The measured service plus what a pass over it must produce.
pub struct Bench<'a> {
    pub g: &'a Geometry,
    pub stream: &'a [TracePacket],
    pub expected: &'a Expected,
    pub installer: Installer,
    pub rt: StreamingRuntime,
    pub tally: Tally,
    /// Packets the admission layer refused (shed, degraded, quarantined).
    pub refused: u64,
    /// Confusion summed over the current pass's drains.
    confusion: BinaryMetrics,
    /// Packets refused or lost in the current pass.
    pass_failed: u64,
    /// The run's samples: closed-loop window rates, chunk sojourns,
    /// generator lateness, installs.
    window_pps: Vec<f64>,
    sojourn_us: Vec<f64>,
    /// Median chunk sojourn of each open-loop pass.
    pass_p50_us: Vec<f64>,
    late_us: Vec<f64>,
    install_us: Vec<f64>,
}

/// Open-loop passes a run's sample pools are sized for up front.
const POOLED_PASSES: usize = 64;
/// Closed-loop slices per throughput window. Timing whole windows
/// rather than single slices smooths over the lane's slack: a `feed`
/// returns once its last batch fits in the queue, so one slice's time
/// can borrow from the next.
pub const WINDOW_SLICES: usize = 4;

/// Opens a span if tracing; returns its index (or [`ROOT`]).
fn open(spans: &mut Option<&mut SpanBuf>, name: &'static str, parent: u32, request: u64) -> u32 {
    spans.as_mut().map_or(ROOT, |s| s.open(name, parent, request))
}

fn close(spans: &mut Option<&mut SpanBuf>, id: u32) {
    if let Some(s) = spans.as_mut() {
        s.close(id);
    }
}

/// Sleeps, then spins, until `due`, so the generator is not late by a
/// sleep's wake-up slack.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(400) {
            std::thread::sleep(left - Duration::from_micros(300));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl<'a> Bench<'a> {
    pub fn new(
        g: &'a Geometry,
        stream: &'a [TracePacket],
        expected: &'a Expected,
        installer: Installer,
        rt: StreamingRuntime,
    ) -> Self {
        let chunks = stream.len().div_ceil(g.chunk);
        Self {
            g,
            stream,
            expected,
            installer,
            rt,
            tally: Tally::default(),
            refused: 0,
            confusion: BinaryMetrics::default(),
            pass_failed: 0,
            window_pps: Vec::with_capacity(
                stream.len() / (g.closed_slice * WINDOW_SLICES) * g.closed_passes * POOLED_PASSES,
            ),
            sojourn_us: Vec::with_capacity(chunks * POOLED_PASSES),
            pass_p50_us: Vec::with_capacity(POOLED_PASSES),
            late_us: Vec::with_capacity(chunks * POOLED_PASSES),
            install_us: Vec::with_capacity(chunks * POOLED_PASSES),
        }
    }

    /// The run's closed-loop window rates so far, packets per second.
    pub fn window_rates(&self) -> &[f64] {
        &self.window_pps
    }

    /// Chunks in one open-loop pass.
    pub fn chunks(&self) -> usize {
        self.stream.len().div_ceil(self.g.chunk)
    }

    /// One timed `install_update`; `None` when it failed.
    fn install(
        &mut self,
        update_start: bool,
        spans: &mut Option<&mut SpanBuf>,
        request: u64,
    ) -> Option<f64> {
        let update =
            if update_start { self.installer.start_update() } else { self.installer.next_update() };
        self.tally.attempted += 1;
        let id = open(spans, "runtime.service.install", ROOT, request);
        let t = Instant::now();
        let result = self.rt.install_update(&update);
        let us = micros(t.elapsed());
        close(spans, id);
        match result {
            Ok(()) => Some(us),
            Err(_) => {
                self.tally.failed += 1;
                self.pass_failed += 1;
                None
            }
        }
    }

    /// Clears flow state and counters and puts every shard on the start
    /// model, whatever the installs since the last pass left running.
    fn begin_pass(&mut self, spans: &mut Option<&mut SpanBuf>) {
        self.rt.reset();
        self.confusion = BinaryMetrics::default();
        self.pass_failed = 0;
        self.install(true, spans, u64::MAX);
    }

    /// Folds one drain's report into the pass; returns how many packets
    /// of `offered` got no ML verdict.
    fn absorb(&mut self, report: &RuntimeReport, offered: usize) -> u64 {
        for seg in &report.segments {
            self.confusion.absorb(seg);
        }
        let processed: u64 = report.shards.iter().map(|s| s.packets).sum();
        self.refused += report.overload.refused();
        let missing = (offered as u64).saturating_sub(processed).max(report.overload.refused());
        self.pass_failed += missing;
        self.tally.failed += missing;
        missing
    }

    /// Compares the pass's final report with the oracle. A pass that
    /// refused packets or failed an install cannot match it; those are
    /// counted as failures instead.
    fn finish_pass(&mut self, phase: &'static str, report: &RuntimeReport) -> Result<(), Failure> {
        self.tally.attempted += self.stream.len() as u64;
        if self.pass_failed > 0 {
            return Ok(());
        }
        if let Some(detail) = first_difference(&self.expected.report, &report.merged) {
            return Err(Failure { phase, detail });
        }
        if let Some(detail) = confusion_difference(&self.expected.confusion, &self.confusion) {
            return Err(Failure { phase, detail });
        }
        Ok(())
    }

    /// Confusion of the last pass (deployed verdicts vs ground truth).
    pub fn confusion(&self) -> BinaryMetrics {
        self.confusion
    }

    /// Closed loop: the stream fed back to back in fixed slices, one
    /// `drain` at the end. Returns packets per second over the whole pass
    /// and the report. The rate of every window of `WINDOW_SLICES`
    /// slices, timed from one window's last `feed` return to the next's,
    /// joins the run's pool when the pass is untraced.
    pub fn closed_pass(
        &mut self,
        mut spans: Option<&mut SpanBuf>,
    ) -> Result<(f64, RuntimeReport), Failure> {
        self.begin_pass(&mut spans);
        let traced = spans.is_some();
        let first = self.window_pps.len();
        let pass = open(&mut spans, "service.closed_pass", ROOT, 0);
        let t0 = Instant::now();
        let mut window = (t0, 0);
        for (c, slice) in self.stream.chunks(self.g.closed_slice).enumerate() {
            let id = open(&mut spans, "runtime.service.feed", pass, c as u64);
            self.rt.feed(slice);
            close(&mut spans, id);
            window.1 += slice.len();
            if c % WINDOW_SLICES == 0 {
                // The first window opens after the first slice has filled
                // the lane.
                let now = Instant::now();
                if c > 0 && !traced {
                    self.window_pps.push(window.1 as f64 / (now - window.0).as_secs_f64());
                }
                window = (now, 0);
            }
        }
        let id = open(&mut spans, "runtime.service.drain", pass, 0);
        let report = self.rt.drain();
        close(&mut spans, id);
        let secs = t0.elapsed().as_secs_f64();
        close(&mut spans, pass);
        if self.absorb(&report, self.stream.len()) > 0 {
            // A pass that refused packets did not carry its windows' load.
            self.window_pps.truncate(first);
        }
        self.finish_pass("closed loop", &report)?;
        Ok((self.stream.len() as f64 / secs, report))
    }

    /// Open loop at the workload's offered rate: chunk `c` is due when
    /// its last packet arrives; its sojourn runs from then to the return
    /// of the `drain` that reports it. Samples join the run's pools.
    pub fn open_pass(&mut self, mut spans: Option<&mut SpanBuf>) -> Result<(), Failure> {
        self.begin_pass(&mut spans);
        let first = self.sojourn_us.len();
        let interval_s = self.g.chunk as f64 / self.g.rate_pps;
        let t0 = Instant::now() + Duration::from_micros(200);
        let mut last: Option<RuntimeReport> = None;
        for (c, chunk) in self.stream.chunks(self.g.chunk).enumerate() {
            let due = t0 + Duration::from_secs_f64((c + 1) as f64 * interval_s);
            wait_until(due);
            self.late_us.push(micros(Instant::now() - due));
            let parent = open(&mut spans, "service.chunk", ROOT, c as u64);
            let id = open(&mut spans, "runtime.service.feed", parent, c as u64);
            self.rt.feed(chunk);
            close(&mut spans, id);
            let id = open(&mut spans, "runtime.service.drain", parent, c as u64);
            let report = self.rt.drain();
            close(&mut spans, id);
            close(&mut spans, parent);
            let sojourn = micros(Instant::now() - due);
            let missed = self.absorb(&report, chunk.len());
            // A chunk holding a refused packet misses any latency limit.
            self.sojourn_us.push(if missed > 0 { f64::INFINITY } else { sojourn });
            last = Some(report);
        }
        let report = last.expect("the stream holds at least one chunk");
        self.pass_p50_us.push(stats::percentile(&stats::sorted(&self.sojourn_us[first..]), 5_000));
        self.finish_pass("open loop", &report)
    }

    /// `n` back-to-back installs on the idle service, alternating the
    /// two prepared models; their times join the run's install pool.
    pub fn install_group(&mut self, n: usize, mut spans: Option<&mut SpanBuf>) {
        for i in 0..n {
            if let Some(us) = self.install(false, &mut spans, i as u64) {
                self.install_us.push(us);
            }
        }
    }

    /// The closed-loop throughput, the open-loop latency, and the p99 of
    /// every chunk sojourn, generator lateness and install time of the run.
    pub fn summary(&self) -> Result<Summary, Failure> {
        let tail = |phase: &'static str, samples: &[f64]| {
            let n = samples.len();
            if stats::tail_bp(n).is_none_or(|bp| bp < 9_900) {
                return Err(Failure {
                    phase,
                    detail: format!("{n} samples leave fewer than 10 beyond p99"),
                });
            }
            let s = stats::sorted(samples);
            Ok((stats::percentile(&s, 5_000), stats::percentile(&s, 9_900)))
        };
        if self.window_pps.is_empty() {
            return Err(Failure {
                phase: "closed loop",
                detail: "no untraced pass completed a throughput window".into(),
            });
        }
        let throughput_pps =
            stats::percentile(&stats::sorted(&self.window_pps), self.g.throughput_bp);
        let (_, latency_p99_us) = tail("open loop", &self.sojourn_us)?;
        let latency_p50_us = stats::percentile(&stats::sorted(&self.pass_p50_us), 1_000);
        let (_, late_p99_us) = tail("open loop", &self.late_us)?;
        let (install_p50_us, install_p99_us) = tail("installs", &self.install_us)?;
        Ok(Summary {
            throughput_pps,
            latency_p50_us,
            latency_p99_us,
            late_p99_us,
            install_p50_us,
            install_p99_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_stream, oracle, setup, WORKLOADS};

    /// Closed and open passes over a small stream match the oracle on
    /// every workload, installs included, and fail loudly when the
    /// expected report is wrong.
    #[test]
    fn passes_match_the_oracle_and_mismatches_fail() {
        for g in &WORKLOADS {
            let g = Geometry { records: 200, rate_pps: 2_000_000.0, ..g.clone() };
            let stream = generate_stream(&g, 9);
            let s = setup(&g, 9, &stream.packets);
            let expected = oracle(&g, s.app.as_app(), &stream.packets, Some(s.installer.clone()));
            let mut bench =
                Bench::new(&g, &stream.packets, &expected, s.installer.clone(), s.runtime);
            for _ in 0..2 {
                bench.closed_pass(None).unwrap_or_else(|f| panic!("{}: {}", g.name, f.detail));
                bench.open_pass(None).unwrap_or_else(|f| panic!("{}: {}", g.name, f.detail));
            }
            bench.install_group(3, None);
            assert_eq!(bench.tally.failed, 0, "{}", g.name);
            assert_eq!(bench.sojourn_us.len(), 2 * stream.packets.len().div_ceil(g.chunk));

            let mut wrong = oracle(&g, s.app.as_app(), &stream.packets, Some(s.installer.clone()));
            wrong.report.dropped += 1;
            // The installer carries on from the live versions.
            let mut bad = Bench::new(&g, &stream.packets, &wrong, bench.installer, bench.rt);
            let err = bad.closed_pass(None).expect_err("a wrong oracle must fail the pass");
            assert_eq!(err.phase, "closed loop");
            assert!(err.detail.starts_with("dropped"), "{}", err.detail);
            drop(bad.rt.shutdown());
        }
    }
}
