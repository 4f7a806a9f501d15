//! Determinism across live model updates: a sharded run with a
//! [`ModelUpdate`] installed at global packet index *k* must be
//! bit-identical to the sequential [`TaurusSwitch`] updated at *k*,
//! for shard counts {1, 2, 4} — the invariant that makes hot weight
//! swaps a semantics-preserving operation rather than a best-effort
//! one (§5.2.3's "install at flow-rule latency, no loss" claim).

use taurus_controlplane::training::derive_round_seed;
use taurus_core::apps::{AnomalyDetector, SynFloodDetector};
use taurus_core::{EngineBackend, ModelUpdate, SwitchBuilder, SwitchReport};
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_ml::{BinaryMetrics, TrainParams};
use taurus_pisa::Verdict;
use taurus_runtime::RuntimeBuilder;

fn default_kdd_trace(n_records: usize, seed: u64) -> PacketTrace {
    let records = KddGenerator::new(seed).take(n_records);
    PacketTrace::expand(records, &TraceConfig::default())
}

/// Sequential golden: process the prefix, install, process the rest —
/// returning the report and per-segment confusion for cross-checking.
fn sequential_with_update(
    build: impl Fn() -> taurus_core::TaurusSwitch,
    trace: &PacketTrace,
    k: usize,
    updates: &[&ModelUpdate],
) -> (SwitchReport, Vec<BinaryMetrics>) {
    let mut switch = build();
    let mut segments = vec![BinaryMetrics::default()];
    for (i, tp) in trace.packets.iter().enumerate() {
        if i == k {
            for update in updates {
                switch.install_update(update).expect("sequential install");
                segments.push(BinaryMetrics::default());
            }
        }
        let r = switch.process_trace_packet(tp);
        segments.last_mut().unwrap().record(r.verdict == Verdict::Drop, tp.anomalous);
    }
    (switch.report(), segments)
}

#[test]
fn cgra_weight_swap_at_k_matches_sequential_for_shards_1_2_4() {
    // A real retrain: continue the detector's float model with more SGD
    // on freshly generated data, so the swapped-in program genuinely
    // differs from the build-time one.
    let detector = AnomalyDetector::train_default(51, 1_200);
    let mut retrained = detector.float_model.clone();
    let mut gen = KddGenerator::new(52);
    let mut ds = gen.binary_dataset(600, taurus_dataset::kdd::FeatureView::Dnn6);
    detector.standardizer.apply(&mut ds);
    retrained.train(
        ds.features(),
        ds.labels(),
        &TrainParams { epochs: 6, seed: derive_round_seed(52, 0), ..TrainParams::default() },
    );
    let update = detector.prepare_update(&retrained, ds.features(), 1);

    let trace = default_kdd_trace(160, 53);
    let k = trace.packets.len() / 2;
    let (golden, golden_segments) = sequential_with_update(
        || SwitchBuilder::new().register(&detector).build(),
        &trace,
        k,
        &[&update],
    );

    // The update must actually change behavior, or this test is vacuous.
    let mut frozen = SwitchBuilder::new().register(&detector).build();
    for tp in &trace.packets {
        frozen.process_trace_packet(tp);
    }
    assert_ne!(frozen.report(), golden, "the swapped weights must decide differently");

    for shards in [1usize, 2, 4] {
        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .batch_size(32)
            .register(&detector)
            .build_streaming();
        rt.schedule_update(rt.stream_position() + k as u64, update.clone());
        let report = rt.run_trace(&trace);
        assert_eq!(
            report.merged, golden,
            "sharded run with update at {k} diverged from sequential at {shards} shards"
        );
        assert_eq!(
            report.segments, golden_segments,
            "per-segment confusion diverged at {shards} shards"
        );
        assert_eq!(rt.app_versions(), vec![("anomaly-detection".to_string(), 1)]);
    }
}

#[test]
fn threshold_retune_mid_stream_matches_sequential_for_shards_1_2_4() {
    // The in-place engine-edit path (no program swap), on a two-app
    // roster so registration order and per-app counters are exercised.
    let detector = AnomalyDetector::train_default(54, 1_000);
    let syn = SynFloodDetector::default_deployment();
    let retune = syn.retune(15, 1, EngineBackend::Threshold);
    let trace = default_kdd_trace(500, 55);
    let k = trace.packets.len() / 3;

    let build = || {
        SwitchBuilder::new()
            .register_on(&detector, EngineBackend::Threshold)
            .register_on(&syn, EngineBackend::Threshold)
            .build()
    };
    let (golden, golden_segments) = sequential_with_update(build, &trace, k, &[&retune]);

    for shards in [1usize, 2, 4] {
        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .batch_size(7) // deliberately unaligned with k
            .backend(EngineBackend::Threshold)
            .register(&detector)
            .register(&syn)
            .build_streaming();
        rt.schedule_update(rt.stream_position() + k as u64, retune.clone());
        let report = rt.run_trace(&trace);
        assert_eq!(report.merged, golden, "diverged at {shards} shards");
        assert_eq!(report.segments, golden_segments);
    }
}

#[test]
fn update_landing_mid_epoch_applies_at_the_same_global_index_under_the_pipeline() {
    // The parallel ingest pipeline consumes packets epoch by epoch, but
    // the update barrier keys on *global packet index* — an index that
    // falls in the middle of an epoch must split segments at exactly
    // that packet, just like inline ingest and the sequential switch.
    let detector = AnomalyDetector::train_default(54, 1_000);
    let syn = SynFloodDetector::default_deployment();
    let retune = syn.retune(15, 1, EngineBackend::Threshold);
    let trace = default_kdd_trace(500, 57);
    let epoch_len = 64usize;
    // Deliberately mid-epoch: well inside epoch 3, aligned to nothing.
    let k = 3 * epoch_len + 17;
    assert!(k < trace.packets.len());

    let build = || {
        SwitchBuilder::new()
            .register_on(&detector, EngineBackend::Threshold)
            .register_on(&syn, EngineBackend::Threshold)
            .build()
    };
    let (golden, golden_segments) = sequential_with_update(build, &trace, k, &[&retune]);

    for shards in [1usize, 2, 4] {
        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .batch_size(7) // unaligned with k and with epoch_len
            .parse_workers(2)
            .epoch_len(epoch_len)
            .backend(EngineBackend::Threshold)
            .register(&detector)
            .register(&syn)
            .build_streaming();
        rt.schedule_update(rt.stream_position() + k as u64, retune.clone());
        let report = rt.run_trace(&trace);
        assert_eq!(report.merged, golden, "pipelined run diverged at {shards} shards");
        assert_eq!(report.segments, golden_segments, "segment split moved at {shards} shards");
        assert_eq!(report.segments[0].total(), k as u64, "old model decided exactly {k} packets");
    }
}

#[test]
fn two_updates_at_the_same_index_install_in_schedule_order() {
    let syn = SynFloodDetector::default_deployment();
    let trace = default_kdd_trace(200, 56);
    let k = trace.packets.len() / 2;
    let u1 = syn.retune(100, 1, EngineBackend::Threshold);
    let u2 = syn.retune(10, 2, EngineBackend::Threshold);

    let build = || SwitchBuilder::new().register_on(&syn, EngineBackend::Threshold).build();
    let (golden, golden_segments) = sequential_with_update(build, &trace, k, &[&u1, &u2]);

    for shards in [1usize, 2, 4] {
        let mut rt = RuntimeBuilder::new()
            .shards(shards)
            .backend(EngineBackend::Threshold)
            .register(&syn)
            .build_streaming();
        rt.schedule_update(rt.stream_position() + k as u64, u1.clone());
        rt.schedule_update(rt.stream_position() + k as u64, u2.clone());
        let report = rt.run_trace(&trace);
        assert_eq!(report.merged, golden, "diverged at {shards} shards");
        assert_eq!(report.segments, golden_segments);
        assert_eq!(rt.app_versions(), vec![("syn-flood".to_string(), 2)]);
        // The middle segment (between the two same-index updates) is
        // empty on both sides: the barrier admitted no packets.
        assert_eq!(report.segments[1].total(), 0);
    }
}
