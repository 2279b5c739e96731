//! TCP demo, volunteer half: a separate OS process that connects a fleet of
//! worker loops to a running `tcp_master` over localhost TCP and processes
//! tasks until the master closes the stream — or, with `TCP_CRASH_AFTER`
//! set, kills itself abruptly mid-run to exercise crash detection and
//! re-lend across a real process boundary.
//!
//! See `examples/tcp_master.rs` for the two-terminal walkthrough and
//! `make tcp-demo` for the scripted version.
//!
//! Environment knobs:
//!
//! * `PANDO_TCP_ADDR` — master address (`host:port`)
//! * `PANDO_TCP_ADDR_FILE` — file to read the address from (written by the
//!   master; polled until it appears)
//! * `TCP_WORKERS` — number of volunteer connections to open (default 32)
//! * `TCP_NAME_PREFIX` — volunteer name prefix (default `vol`)
//! * `TCP_CRASH_AFTER` — if set, the whole process calls
//!   `std::process::exit(2)` once this many tasks were processed across the
//!   fleet: no close markers, no goodbyes, sockets torn down by the OS —
//!   exactly the "volunteer device dies" scenario of the paper.
//! * `TCP_DROP_AFTER` — if set, the fleet joins through resumable sessions
//!   ([`ReconnectingTcpTransport`]) and every connection severs its socket
//!   abruptly once this many tasks were processed across the fleet, then
//!   redials with backoff and resumes under its old session token. The
//!   master must ride the flap out inside its `reconnect_grace` window:
//!   zero crash re-lends, output still complete and in order.
//! * `TCP_SILENT` — if set, first open this many raw connections to the
//!   master that never send a byte and stay open for the whole run, then
//!   dial the workers. The master's handshake must not let them delay or
//!   fail a single legitimate join.

use bytes::Bytes;
use pando_core::transport::tcp::session::{ReconnectPolicy, ReconnectingTcpTransport};
use pando_core::transport::tcp::{TcpConfig, TcpTransport};
use pando_core::transport::Transport;
use pando_core::worker::WorkerBuilder;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Must mirror the master's liveness windows (see `tcp_master.rs`).
fn demo_tcp_config() -> TcpConfig {
    TcpConfig {
        heartbeat_interval: Duration::from_millis(200),
        failure_timeout: Duration::from_secs(3),
        ..TcpConfig::default()
    }
}

/// Resolves the master address from `PANDO_TCP_ADDR`, or polls
/// `PANDO_TCP_ADDR_FILE` until the master publishes it.
fn master_addr() -> String {
    if let Ok(addr) = std::env::var("PANDO_TCP_ADDR") {
        return addr;
    }
    let path =
        std::env::var("PANDO_TCP_ADDR_FILE").expect("set PANDO_TCP_ADDR or PANDO_TCP_ADDR_FILE");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match std::fs::read_to_string(&path) {
            Ok(addr) if !addr.trim().is_empty() => return addr.trim().to_string(),
            _ if Instant::now() > deadline => panic!("no master address in {path} after 30s"),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// The demo workload: f(v) = 3v + 1 over the decimal payload.
fn parse_task(payload: &Bytes) -> Result<u64, pando_pull_stream::StreamError> {
    std::str::from_utf8(payload)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| pando_pull_stream::StreamError::new("not a number"))
}

fn main() {
    let addr = master_addr();
    let workers = env_u64("TCP_WORKERS", 32) as usize;
    let prefix = std::env::var("TCP_NAME_PREFIX").unwrap_or_else(|_| "vol".to_string());
    let crash_after = std::env::var("TCP_CRASH_AFTER").ok().and_then(|v| v.parse::<u64>().ok());
    let drop_after = std::env::var("TCP_DROP_AFTER").ok().and_then(|v| v.parse::<u64>().ok());
    let silent = env_u64("TCP_SILENT", 0);
    let processed = Arc::new(AtomicU64::new(0));

    // Hostile clients: connected, silent, and held until the process ends.
    let _silent: Vec<TcpStream> = (0..silent)
        .map(|_| TcpStream::connect(addr.as_str()).expect("open a silent connection"))
        .collect();
    if silent > 0 {
        println!("holding {silent} silent connections open");
    }

    println!(
        "joining master at {addr} with {workers} workers{}{}",
        crash_after.map(|n| format!(", crashing the process after {n} tasks")).unwrap_or_default(),
        drop_after.map(|n| format!(", dropping every link after {n} tasks")).unwrap_or_default()
    );
    let mut observers: Vec<TcpTransport> = Vec::with_capacity(workers);
    let handles: Vec<_> = if let Some(drop_at) = drop_after {
        // Resumable-session mode: every worker joins through a redialing
        // session transport, and the first worker past the threshold severs
        // the whole fleet's sockets at once (one-shot). Each link redials
        // with backoff, presents its old token, and resumes mid-stream.
        let links: Arc<Vec<ReconnectingTcpTransport>> = Arc::new(
            (0..workers)
                .map(|i| {
                    ReconnectingTcpTransport::connect(
                        addr.as_str(),
                        &format!("{prefix}-{i}"),
                        demo_tcp_config(),
                        ReconnectPolicy::default(),
                    )
                    .expect("connect session to master")
                })
                .collect(),
        );
        let dropped = Arc::new(AtomicBool::new(false));
        (0..workers)
            .map(|i| {
                let transport = links[i].clone();
                let links = links.clone();
                let dropped = dropped.clone();
                let processed = processed.clone();
                WorkerBuilder::new().name(format!("{prefix}-{i}")).heartbeats(true).spawn(
                    transport,
                    move |payload: &Bytes| {
                        let v = parse_task(payload)?;
                        let done = processed.fetch_add(1, Ordering::SeqCst) + 1;
                        if done >= drop_at && !dropped.swap(true, Ordering::SeqCst) {
                            // Sever every socket abruptly — no goodbyes, no
                            // close markers — then let the redial loops
                            // resume the sessions inside the master's grace
                            // window. Nothing may be lost or re-lent.
                            for link in links.iter() {
                                link.drop_link();
                            }
                            println!(
                                "dropped all {} links after {done} tasks; redialing",
                                links.len()
                            );
                        }
                        Ok(Bytes::from((v * 3 + 1).to_string().into_bytes()))
                    },
                )
            })
            .collect()
    } else {
        (0..workers)
            .map(|i| {
                let transport =
                    TcpTransport::connect(&addr, &format!("{prefix}-{i}"), demo_tcp_config())
                        .expect("connect to master");
                // A cheap clone observes the write-path counters after the
                // worker consumed the original.
                observers.push(transport.clone());
                let processed = processed.clone();
                WorkerBuilder::new().name(format!("{prefix}-{i}")).heartbeats(true).spawn(
                    transport,
                    move |payload: &Bytes| {
                        let v = parse_task(payload)?;
                        let done = processed.fetch_add(1, Ordering::SeqCst) + 1;
                        if let Some(limit) = crash_after {
                            if done >= limit {
                                // Abrupt process death: no unwinding, no close
                                // markers. The master must detect the crash and
                                // re-lend every value this fleet held.
                                std::process::exit(2);
                            }
                        }
                        Ok(Bytes::from((v * 3 + 1).to_string().into_bytes()))
                    },
                )
            })
            .collect()
    };

    let mut total = 0u64;
    for handle in handles {
        total += handle.join().processed;
    }
    if !observers.is_empty() {
        let (mut frames, mut calls, mut bytes) = (0u64, 0u64, 0u64);
        for observer in &observers {
            let stats = observer.stats();
            frames += stats.frames_written;
            calls += stats.write_calls;
            bytes += stats.bytes_written;
        }
        let per_write = if calls == 0 { 0.0 } else { frames as f64 / calls as f64 };
        println!(
            "transport: {frames} frames in {calls} write calls ({per_write:.2} frames/write), \
             {bytes} bytes"
        );
    }
    println!("volunteer process done: {total} tasks processed across {workers} workers");
}
