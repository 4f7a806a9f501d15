//! Criterion benchmark of the sharded runtime: wall-clock packets/sec
//! at 1/2/4/8 shards over a fixed default-config KDD trace, with the
//! per-packet sequential switch as the baseline. Complements the
//! `throughput` binary (which also reports modeled device rates and
//! checks determinism); this harness tracks *simulator* performance
//! regressions.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use taurus_core::apps::AnomalyDetector;
use taurus_core::SwitchBuilder;
use taurus_dataset::kdd::KddGenerator;
use taurus_dataset::trace::{PacketTrace, TraceConfig};
use taurus_runtime::RuntimeBuilder;

fn bench_throughput(c: &mut Criterion) {
    let detector = AnomalyDetector::train_default(3, 800);
    let records = KddGenerator::new(42).take(400);
    let trace = PacketTrace::expand(records, &TraceConfig::default());
    let n = trace.packets.len();

    c.bench_function(&format!("runtime/sequential_switch/{n}pkts"), |b| {
        let mut switch = SwitchBuilder::new().register(&detector).build();
        b.iter(|| {
            switch.reset();
            for tp in &trace.packets {
                black_box(switch.process_trace_packet(tp));
            }
        })
    });

    for shards in [1usize, 2, 4, 8] {
        c.bench_function(&format!("runtime/sharded/{shards}shards/{n}pkts"), |b| {
            let mut rt = RuntimeBuilder::new()
                .shards(shards)
                .batch_size(256)
                .register(&detector)
                .build_streaming();
            b.iter(|| {
                rt.reset();
                black_box(rt.run_trace(&trace))
            })
        });
    }
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
