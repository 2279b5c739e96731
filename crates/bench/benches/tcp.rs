//! Criterion bench sweeping the real-socket TCP transport (the shared epoll
//! readiness poller) over loopback fleet sizes. The measured quantity is the
//! wall-clock of a complete run (handshake the fleet, stream the input,
//! collect every result in order, tear down); alongside each fleet size the
//! bench prints the transport thread census (`/proc/self/task` names
//! starting `tcp-`) so the "O(1), not O(connections), threads" claim is
//! observable, not inferred. The frozen comparison against the deleted
//! pump-thread knob is the `pump` rows of `BENCH_tcp.json`.
//!
//! Run with: `cargo bench --bench tcp`

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pando_core::config::PandoConfig;
use pando_core::master::Pando;
use pando_core::transport::tcp::{transport_thread_census, TcpAcceptor, TcpConfig, TcpTransport};
use pando_core::worker::WorkerBuilder;
use pando_pull_stream::source::{count, SourceExt};
use std::time::Duration;

/// Liveness windows wide enough that a loaded bench machine never trips the
/// failure detector mid-measurement.
fn tcp_config() -> TcpConfig {
    TcpConfig {
        heartbeat_interval: Duration::from_millis(500),
        failure_timeout: Duration::from_secs(30),
        ..TcpConfig::default()
    }
}

/// One full deployment over real loopback sockets: `volunteers` connections
/// served by a worker pool in the same process, a stream of `tasks` trivial
/// values, results collected and seq-checked. Returns the transport thread
/// census observed while the fleet was fully wired.
fn run_fleet(volunteers: usize, tasks: u64) -> usize {
    let tcp = tcp_config();
    let config =
        PandoConfig::local_test().with_batch_size(4).with_reactor_threads(4).with_tcp(tcp.clone());
    let pando = Pando::new(config);
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tcp.clone()).expect("bind loopback");
    let addr = acceptor.local_addr();
    let server = acceptor.serve(&pando);

    let transports: Vec<TcpTransport> = (0..volunteers)
        .map(|i| TcpTransport::connect(addr, &format!("bench-{i}"), tcp.clone()).expect("connect"))
        .collect();
    let pool = WorkerBuilder::new()
        .heartbeats(true)
        .pool_threads(4)
        .spawn_pool(transports, |payload: &Bytes| Ok(payload.clone()));
    let census = transport_thread_census().unwrap_or(0);

    let output = pando
        .run(count(tasks).map_values(|v| Bytes::from(v.to_string().into_bytes())))
        .collect_values()
        .expect("stream completes");
    assert_eq!(output.len() as u64, tasks);
    assert_eq!(output[0].as_ref(), b"1", "results stay ordered");
    pool.join();
    server.stop();
    server.join();
    pando.join_volunteers();
    census
}

fn bench_tcp_poller(c: &mut Criterion) {
    let mut group = c.benchmark_group("tcp_backend");
    group.sample_size(10);
    // The census must stay at the fixed poller pool (plus the acceptor)
    // while the fleet grows 32-fold.
    for volunteers in [8usize, 64, 256] {
        let tasks = (volunteers as u64) * 8;
        group.throughput(Throughput::Elements(tasks));
        let census = run_fleet(volunteers, tasks);
        eprintln!("tcp_backend/poller/{volunteers}: transport thread census {census}");
        group.bench_with_input(BenchmarkId::new("poller", volunteers), &volunteers, |b, &n| {
            b.iter(|| run_fleet(n, tasks))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tcp_poller);
criterion_main!(benches);
