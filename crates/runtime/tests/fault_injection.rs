//! Deterministic fault injection against the streaming service: an
//! injected engine panic lands at an exact (shard, stream index) point
//! every run, a supervised fleet absorbs it (respawn from a spare,
//! exact accounting in `RuntimeReport::faults`), an unsupervised fleet
//! keeps the legacy re-raise contract, and control-plane faults
//! (dropped install acks, stalled shards) degrade into typed errors
//! and watchdog records instead of hangs.

use std::time::Duration;

use taurus_core::apps::SynFloodDetector;
use taurus_core::EngineBackend;
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_runtime::{
    shard_of, FaultPlan, FaultRecordKind, InstallError, RuntimeBuilder, ShardError,
    StreamingRuntime,
};

const SHARDS: usize = 4;
const FLOW_SLOTS: usize = 4096; // the builder default

fn kdd_trace(n_records: usize, seed: u64) -> PacketTrace {
    let records = KddGenerator::new(seed).take(n_records);
    PacketTrace::expand(records, &TraceConfig { seed, ..TraceConfig::default() })
}

fn builder(syn: &SynFloodDetector, shards: usize) -> RuntimeBuilder<'_> {
    RuntimeBuilder::new()
        .shards(shards)
        .batch_size(16)
        .epoch_len(64)
        .register_on(syn, EngineBackend::Threshold)
}

/// Global stream indices the router assigns to `shard`.
fn assigned_indices(trace: &PacketTrace, shard: usize, shards: usize) -> Vec<u64> {
    trace
        .packets
        .iter()
        .enumerate()
        .filter(|(_, tp)| shard_of(tp.tuple.canonical().hash(), FLOW_SLOTS, shards) == shard)
        .map(|(i, _)| i as u64)
        .collect()
}

fn drain_report(
    service: &mut StreamingRuntime,
    trace: &PacketTrace,
) -> taurus_runtime::RuntimeReport {
    service.feed(&trace.packets);
    service.drain()
}

#[test]
fn a_panicked_worker_is_respawned_and_accounted() {
    // The acceptance pin: inject an engine panic mid-feed on one shard
    // of a supervised fleet. The drain must (a) merge the faulted
    // shard's exact pre-panic prefix, (b) leave every surviving shard
    // bit-identical to a fault-free run, (c) respawn the worker from a
    // spare with `worker_restarts == 1`, and (d) recover bit-exactly:
    // after a reset the fleet revalidates identically to a fleet that
    // never faulted.
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(200, 80);
    let validation = kdd_trace(150, 81);
    let victim = 2usize;
    let assigned = assigned_indices(&trace, victim, SHARDS);
    assert!(assigned.len() >= 4, "seed must give the victim shard real traffic");
    // Fire exactly at the middle assigned packet: the `>=` trigger
    // matches it, so the worker processes precisely the first half of
    // its slice.
    let fire_at = assigned[assigned.len() / 2];

    let mut subject = builder(&syn, SHARDS)
        .fault_plan(FaultPlan::new().engine_panic(victim, fire_at))
        .spare_replicas(1)
        .build_streaming();
    let mut twin = builder(&syn, SHARDS).build_streaming();

    let faulted = drain_report(&mut subject, &trace);
    let clean = drain_report(&mut twin, &trace);

    assert_eq!(faulted.faults.worker_restarts, 1);
    assert!(faulted.faults.batches_dropped >= 1, "post-panic batches are drained, not processed");
    assert_eq!(faulted.faults.records.len(), 1);
    let record = &faulted.faults.records[0];
    assert_eq!(record.shard, victim);
    assert_eq!(record.kind, FaultRecordKind::WorkerPanic);
    assert!(
        record.detail.contains(&format!("injected engine fault at stream index {fire_at}")),
        "{}",
        record.detail
    );

    // (a) the faulted shard merged its exact pre-panic prefix…
    let victim_stats = faulted.shards.iter().find(|s| s.shard == victim).expect("victim merged");
    assert_eq!(victim_stats.packets, (assigned.len() / 2) as u64);
    // …(b) and every surviving shard is untouched by the neighbour's
    // crash — bit-identical stats, reports and all.
    for s in &clean.shards {
        if s.shard == victim {
            continue;
        }
        let survivor = faulted.shards.iter().find(|f| f.shard == s.shard).expect("survivor");
        assert_eq!(survivor, s, "shard {} diverged", s.shard);
    }

    // (d) bit-exact recovery: the respawned replica was rehydrated from
    // the builder roster, so after a reset the two fleets are
    // indistinguishable.
    subject.reset();
    twin.reset();
    let after = drain_report(&mut subject, &validation);
    let control = drain_report(&mut twin, &validation);
    assert_eq!(after, control, "recovery must be bit-exact");
}

#[test]
fn fault_reports_are_deterministic() {
    // Same plan + same stream ⇒ the same faults, the same records in
    // the same order, the same merged prefix — run to run.
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(180, 82);
    let assigned = assigned_indices(&trace, 1, SHARDS);
    let fire_at = assigned[assigned.len() / 3];
    let run = || {
        let mut service = builder(&syn, SHARDS)
            .fault_plan(FaultPlan::new().engine_panic(1, fire_at))
            .spare_replicas(1)
            .build_streaming();
        drain_report(&mut service, &trace)
    };
    assert_eq!(run(), run());
}

#[test]
#[should_panic(expected = "injected engine fault")]
fn a_panic_without_spares_reraises_at_the_drain() {
    // No spares configured ⇒ the legacy contract holds: the drain
    // quiesces every shard, then re-raises the worker's panic.
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(100, 83);
    let mut service =
        builder(&syn, 2).fault_plan(FaultPlan::new().engine_panic(0, 0)).build_streaming();
    drain_report(&mut service, &trace);
}

#[test]
fn a_dropped_install_ack_times_out_without_forking_the_fleet() {
    // The install broadcast reaches every worker before any reply is
    // awaited, so losing one acknowledgement costs an error and a
    // fault record — never a fleet whose shards disagree on versions.
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(150, 84);
    let mut subject = builder(&syn, 2)
        .fault_plan(FaultPlan::new().drop_install_reply(0, 0))
        .control_timeout(Duration::from_millis(50))
        .build_streaming();
    let mut twin = builder(&syn, 2).build_streaming();

    let update = syn.retune(45, 1, EngineBackend::Threshold);
    let err = subject.install_update(&update).expect_err("the ack was swallowed");
    assert_eq!(
        err,
        InstallError::Shard(ShardError::Unresponsive {
            shard: 0,
            waited: Duration::from_millis(50)
        })
    );
    // The mirror is conservative until the fleet confirms…
    assert_eq!(subject.app_versions(), vec![("syn-flood".to_string(), 0)]);
    twin.install_update(&update).expect("fresh version");

    // …but the model really is live on every shard: the traffic report
    // matches the twin's, and the next drain re-syncs the mirror from
    // the worker snapshots.
    let subject_report = drain_report(&mut subject, &trace);
    let twin_report = drain_report(&mut twin, &trace);
    assert_eq!(subject_report.merged, twin_report.merged);
    assert_eq!(subject_report.shards, twin_report.shards);
    assert_eq!(subject_report.segments, twin_report.segments);
    assert_eq!(subject.app_versions(), vec![("syn-flood".to_string(), 1)], "mirror re-synced");

    assert_eq!(subject_report.faults.worker_restarts, 0, "the worker never misbehaved");
    assert_eq!(subject_report.faults.records.len(), 1);
    let record = &subject_report.faults.records[0];
    assert_eq!(record.shard, 0);
    assert_eq!(record.kind, FaultRecordKind::Unresponsive);
    assert!(record.detail.contains("no install reply"), "{}", record.detail);

    // Control flow continues normally afterwards.
    subject.install_update(&syn.retune(50, 2, EngineBackend::Threshold)).expect("fleet moved on");
    assert_eq!(subject.app_versions(), vec![("syn-flood".to_string(), 2)]);
}

#[test]
fn a_timed_out_canary_exchange_leaves_a_fault_record() {
    // Every control-plane exchange shares one watchdog, so a canary
    // install that outlives the control timeout is accounted exactly
    // like a lost install ack: a typed error now, a record at the drain.
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(120, 87);
    let mut subject = builder(&syn, 2)
        .queue_depth(64)
        .fault_plan(FaultPlan::new().stall(1, 0, Duration::from_millis(400)))
        .control_timeout(Duration::from_millis(50))
        .build_streaming();
    subject.feed(&trace.packets); // shard 1 wedges on its first packet

    let candidate = syn.retune(45, 1, EngineBackend::Threshold);
    let err = subject.begin_canary(&candidate, 1).expect_err("shard 1 is wedged");
    assert!(
        matches!(err, InstallError::Shard(ShardError::Unresponsive { shard: 1, .. })),
        "{err:?}"
    );
    let report = subject.drain();
    let record = report
        .faults
        .records
        .iter()
        .find(|r| r.shard == 1 && r.kind == FaultRecordKind::Unresponsive)
        .expect("the timed-out exchange is on the record");
    assert!(record.detail.contains("no canary install reply"), "{}", record.detail);
}

#[test]
fn a_stalled_shard_trips_the_watchdog_and_is_replaced() {
    // A wedged worker (stalled far past the control timeout) cannot
    // hang the drain: the watchdog gives up on its snapshot, records
    // the loss, and the supervisor swaps in a spare. The degraded
    // report carries only the responsive shards; after a reset the
    // replacement behaves exactly like a never-faulted fleet.
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(120, 85);
    let validation = kdd_trace(120, 86);
    // Deep queues: ingest must not absorb the stall as backpressure —
    // the whole trace fits in flight, feed returns while the worker is
    // still wedged, and the *drain* watchdog is what faces the stall.
    let mut subject = builder(&syn, 2)
        .queue_depth(64)
        .fault_plan(FaultPlan::new().stall(1, 0, Duration::from_secs(1)))
        .control_timeout(Duration::from_millis(100))
        .spare_replicas(1)
        .build_streaming();
    let mut twin = builder(&syn, 2).queue_depth(64).build_streaming();

    let degraded = drain_report(&mut subject, &trace);
    assert_eq!(degraded.faults.worker_restarts, 1);
    assert_eq!(degraded.faults.records.len(), 1);
    assert_eq!(degraded.faults.records[0].shard, 1);
    assert_eq!(degraded.faults.records[0].kind, FaultRecordKind::Unresponsive);
    // Degraded mode is explicit: the stalled shard's snapshot is
    // missing, not silently zeroed.
    assert_eq!(degraded.shards.len(), 1);
    assert_eq!(degraded.shards[0].shard, 0);

    let clean = drain_report(&mut twin, &trace);
    assert_eq!(degraded.shards[0], clean.shards[0], "the healthy shard never noticed");

    subject.reset();
    twin.reset();
    let after = drain_report(&mut subject, &validation);
    let control = drain_report(&mut twin, &validation);
    assert_eq!(after, control, "the replacement is a full citizen");
}

#[test]
fn a_feed_advances_the_stream_clock_by_its_length_after_a_shard_is_lost() {
    // Fault plans and scheduled updates key on the stream index, so the
    // clock must not depend on the parse-worker count. Two panicking
    // shards against one spare leave a shard lost; the next feed stops
    // steering at the dead lane, yet still advances the clock by its
    // full length in every ingest mode.
    let syn = SynFloodDetector::default_deployment();
    let trace = kdd_trace(200, 80);
    for workers in [0usize, 2] {
        let mut service = builder(&syn, SHARDS)
            .parse_workers(workers)
            .spare_replicas(1)
            .fault_plan(FaultPlan::new().engine_panic(1, 0).engine_panic(2, 0))
            .build_streaming();
        let report = drain_report(&mut service, &trace);
        let lost =
            report.faults.records.iter().filter(|r| r.kind == FaultRecordKind::ShardLost).count();
        assert_eq!(lost, 1, "workers={workers}: one spare for two faulted shards");
        let before = service.stream_position();
        service.feed(&trace.packets);
        assert_eq!(
            service.stream_position() - before,
            trace.packets.len() as u64,
            "workers={workers}: a feed advances the clock by its length"
        );
    }
}
