//! Cost of the observability layer on the simulation hot path.
//!
//! Three variants over the same workload: no sink attached (the
//! default path), a [`NullSink`] attached (what instrumented call
//! sites pay when observation is off: one virtual `enabled()` call
//! per potential event), and a fresh [`VecSink`] per run actually
//! recording (the in-memory capture arm). The NullSink variant must
//! track the no-sink baseline within measurement noise — the
//! acceptance bar for "observability is free when off".

use bench::{NetworkSpec, WorldBuilder, PAYLOAD_LEN};
use criterion::{criterion_group, criterion_main, Criterion};
use lora_phy::channel::ChannelGrid;
use obs::{NullSink, VecSink};
use sim::traffic::duty_cycled;

const USERS: usize = 500;

fn workload() -> (WorldBuilder, Vec<sim::traffic::TxPlan>) {
    let channels = ChannelGrid::standard(916_800_000, 4_800_000).channels();
    let builder = WorldBuilder::testbed(1).network(NetworkSpec {
        network_id: 1,
        n_nodes: USERS,
        gw_channels: vec![channels[..8].to_vec(); 15],
    });
    let assigns: Vec<_> = (0..USERS)
        .map(|i| {
            (
                i,
                channels[i % channels.len()],
                lora_phy::types::DataRate::from_index(i % 6).unwrap(),
            )
        })
        .collect();
    let plans = duty_cycled(&assigns, PAYLOAD_LEN, 0.01, 10_000_000, 7);
    (builder, plans)
}

fn bench_obs_overhead(c: &mut Criterion) {
    let (builder, plans) = workload();
    let mut g = c.benchmark_group("obs_500u_1pct_10s");
    g.sample_size(40);

    g.bench_function("no_sink", |bch| {
        let mut w = builder.build();
        bch.iter(|| {
            w.reset();
            w.run(&plans).len()
        })
    });

    g.bench_function("null_sink", |bch| {
        let mut w = builder.build();
        w.set_obs_sink(Box::new(NullSink));
        bch.iter(|| {
            w.reset();
            w.run(&plans).len()
        })
    });

    g.bench_function("vec_sink", |bch| {
        let mut w = builder.build();
        bch.iter(|| {
            w.reset();
            w.set_obs_sink(Box::new(VecSink::new()));
            w.run(&plans).len()
        })
    });

    g.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
