//! Criterion bench sweeping the reactor master over fleet sizes, end to end.
//! The measured quantity is the wall-clock of a complete run (wire
//! volunteers, stream the input, collect every result, tear down). The
//! frozen comparison against the deleted thread-per-volunteer backend is
//! `BENCH_backends.json`.
//!
//! Run with: `cargo bench --bench reactor`

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pando_core::config::PandoConfig;
use pando_core::master::Pando;
use pando_core::worker::WorkerBuilder;
use pando_netsim::channel::ChannelConfig;
use pando_pull_stream::source::{count, SourceExt};
use std::time::Duration;

/// One full deployment: `volunteers` devices served by a worker pool, a
/// stream of `tasks` trivial values, results collected and seq-checked.
fn run_fleet(volunteers: usize, tasks: u64) {
    let channel = ChannelConfig {
        heartbeat_interval: Duration::from_millis(500),
        failure_timeout: Duration::from_secs(30),
        ..ChannelConfig::instant()
    };
    let config =
        PandoConfig::local_test().with_batch_size(4).with_reactor_threads(4).with_channel(channel);
    let pando = Pando::new(config);
    let endpoints: Vec<_> = (0..volunteers).map(|_| pando.open_volunteer_channel()).collect();
    let pool = WorkerBuilder::new()
        .pool_threads(8)
        .spawn_pool(endpoints, |payload: &Bytes| Ok(payload.clone()));
    let output = pando
        .run(count(tasks).map_values(|v| Bytes::from(v.to_string().into_bytes())))
        .collect_values()
        .expect("stream completes");
    assert_eq!(output.len() as u64, tasks);
    assert_eq!(output[0].as_ref(), b"1", "results stay ordered");
    pool.join();
    pando.join_volunteers();
}

fn bench_reactor(c: &mut Criterion) {
    let mut group = c.benchmark_group("volunteer_backend");
    group.sample_size(10);
    // The fleet grows; the reactor stays at its fixed pool of threads.
    for volunteers in [64usize, 512] {
        let tasks = (volunteers as u64) * 8;
        group.throughput(Throughput::Elements(tasks));
        group.bench_with_input(BenchmarkId::new("reactor", volunteers), &volunteers, |b, &n| {
            b.iter(|| run_fleet(n, tasks))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reactor);
criterion_main!(benches);
