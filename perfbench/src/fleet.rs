//! The `fleet_sim` workload: the virtual-clock fleet simulator at 10k
//! volunteers with seed-derived crashes, run single-threaded.
//!
//! Every simulation in a run uses the same parameters, so each one after the
//! first is checked against the first: output order, digest, crash count,
//! virtual makespan and reactor counters must repeat exactly.

use crate::measure::{self, percentile, ratio, sorted, Metrics};
use crate::trace::{self, Layer};
use crate::{Args, Outcome};
use pando_core::sim::{simulate_fleet, FleetParams, FleetReport};
use std::time::{Duration, Instant};

fn params(args: &Args, tasks: bool) -> FleetParams {
    let volunteers = if args.smoke { 200 } else { 10_000 };
    let tasks = if tasks { 2 * volunteers as u64 } else { 0 };
    FleetParams::new(args.seed, volunteers, tasks)
}

/// Values parsed from the trace lines `"[<us>] v<i> <event> ..."`.
fn events<'a>(
    report: &'a FleetReport,
    event: &'a str,
) -> impl Iterator<Item = (u64, usize, &'a str)> + 'a {
    report.trace.iter().filter_map(move |line| {
        let rest = line.strip_prefix('[')?;
        let (at, rest) = rest.split_once("] v")?;
        let (volunteer, rest) = rest.split_once(' ')?;
        let rest = rest.strip_prefix(event)?;
        Some((at.parse().ok()?, volunteer.parse().ok()?, rest))
    })
}

fn field(text: &str, key: &str) -> Option<u64> {
    text.split_whitespace().find_map(|part| part.strip_prefix(key)?.parse().ok())
}

/// The deterministic part of a report, compared across same-seed runs.
fn fingerprint(report: &FleetReport) -> (u64, u64, Duration, u64, u64, usize, Vec<usize>) {
    (
        report.output_digest,
        report.crashed,
        report.virtual_elapsed,
        report.reactor.polls,
        report.reactor.wakeups,
        report.trace.len(),
        report.claim_log.clone(),
    )
}

pub fn run(args: &Args) -> Outcome {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let full = params(args, true);
    println!(
        "config workload=fleet_sim nproc={} volunteers={} tasks={} crash_fraction={} \
         batch=default reactor=inline(virtual clock) threads=1 seed={}",
        measure::nproc(),
        full.volunteers,
        full.tasks,
        full.crash_fraction,
        args.seed
    );
    let empty = params(args, false);
    let mut setups: Vec<f64> = Vec::new();

    let mut outcome = Outcome::default();
    let mut reference: Option<FleetReport> = None;
    let mut phases: [Vec<(Duration, Duration)>; 2] = [Vec::new(), Vec::new()];
    let traced_from = started + budget / 2;
    let mut last: Option<FleetReport> = None;
    loop {
        let phase = usize::from(args.trace && Instant::now() >= traced_from);
        let runs = phases.iter().map(Vec::len).sum::<usize>();
        let enough = phases[0].len() >= 2 && (!args.trace || !phases[1].is_empty());
        if runs > 0 && enough && Instant::now() >= started + budget {
            break;
        }
        if !args.trace {
            // A set-up probe (the same fleet over an empty stream) before
            // each simulation: spread over the run, so a transient stall of
            // the shared host moves one probe of the median, not all.
            setups.push(simulate_fleet(&empty).wall_elapsed.as_secs_f64());
        }
        trace::set_enabled(phase == 1);
        let cpu0 = measure::process_cpu();
        let mut report = trace::span(Layer::SimRun, runs as u64, || simulate_fleet(&full));
        let cpu = measure::process_cpu() - cpu0;
        trace::set_enabled(false);
        phases[phase].push((report.wall_elapsed, cpu));
        if args.corrupt && runs == 1 {
            report.output_order.swap(0, 1);
        }
        outcome.attempted += full.tasks;
        let misplaced =
            report.output_order.iter().enumerate().filter(|(i, &seq)| *i as u64 != seq).count()
                as u64;
        let missing = full.tasks.saturating_sub(report.output_order.len() as u64);
        let mut failed = misplaced + missing;
        match &reference {
            None => reference = Some(report.clone()),
            Some(first) => {
                if fingerprint(first) != fingerprint(&report) {
                    outcome.errors.push("same-seed simulations diverged".to_string());
                    failed = full.tasks;
                }
            }
        }
        outcome.failed += failed.min(full.tasks);
        last = Some(report);
    }
    let report = last.expect("at least two simulations ran");
    // Per-simulation figures are reduced to their median, so a transient
    // stall of the shared host moves one simulation, not the run.
    let tasks_per_s = |runs: &[(Duration, Duration)]| {
        measure::median(
            &runs.iter().map(|r| ratio(full.tasks as f64, r.0.as_secs_f64())).collect::<Vec<_>>(),
        )
    };
    let all: Vec<(Duration, Duration)> = phases.concat();

    // Virtual completion instants: every record of every reply frame.
    let mut done_us: Vec<f64> = Vec::new();
    for (at, _, rest) in events(&report, "reply") {
        let records = field(rest, "records=").unwrap_or(0);
        done_us.extend(std::iter::repeat_n(at as f64, records as usize));
    }
    let done_us = sorted(done_us);
    // Join to first result: every volunteer joins at virtual time 0, and
    // becomes useful when its first result frame leaves it.
    let mut first_reply: Vec<Option<u64>> = vec![None; full.volunteers];
    for (at, v, _) in events(&report, "reply") {
        first_reply[v].get_or_insert(at);
    }
    let join_us = sorted(first_reply.into_iter().flatten().map(|at| at as f64).collect());
    let services: Vec<f64> = report
        .trace
        .iter()
        .filter_map(|line| field(line.strip_prefix("setup ")?, "service_us="))
        .map(|us| us as f64)
        .collect();
    let makespan = report.virtual_elapsed.as_secs_f64();
    println!(
        "samples: {} simulations, {} completions, {} first results; virtual makespan {makespan:.6}s, \
         {} crashed",
        all.len(),
        done_us.len(),
        join_us.len(),
        report.crashed
    );

    if args.trace {
        outcome.metrics = layer_metrics(
            args,
            &report,
            &phases,
            tasks_per_s(&phases[1]) / tasks_per_s(&phases[0]),
        );
        return outcome;
    }
    let mut m = Metrics::default();
    m.put("tasks_per_s", tasks_per_s(&all), "tasks/s");
    m.put("latency_p50_ms", percentile(&done_us, 50.0) / 1e3, "ms");
    m.put("setup_s", measure::median(&setups), "s");
    m.put("join_to_task_p50_ms", percentile(&join_us, 50.0) / 1e3, "ms");
    m.put(
        "speedup_vs_local",
        ratio(full.tasks as f64 * measure::median(&services) / 1e6, makespan),
        "ratio",
    );
    m.put(
        "cpu_us_per_task",
        measure::median(
            &all.iter().map(|r| r.1.as_secs_f64() * 1e6 / full.tasks as f64).collect::<Vec<_>>(),
        ),
        "us",
    );
    m.put("peak_rss_mb", measure::peak_rss_mb(), "MB");
    outcome.metrics = m;
    outcome.ungated.put("latency_p99_ms", percentile(&done_us, 99.0) / 1e3, "ms");
    outcome.ungated.put("join_to_task_p99_ms", percentile(&join_us, 99.0) / 1e3, "ms");
    outcome
}

fn layer_metrics(
    args: &Args,
    report: &FleetReport,
    phases: &[Vec<(Duration, Duration)>; 2],
    overhead: f64,
) -> Metrics {
    let tasks = report.params.tasks as f64;
    let stats = &report.reactor;
    let borrows: Vec<u64> =
        report.shard_rows.iter().filter_map(|row| field(row, "borrows=")).collect();
    let lends: u64 = borrows.iter().sum();
    let skew = ratio(
        borrows.iter().copied().max().unwrap_or(0) as f64,
        lends as f64 / borrows.len().max(1) as f64,
    );
    let (mut wire_tasks, mut wire_bytes, mut wire_frames) = (0u64, 0u64, 0u64);
    for row in report.meter_rows.iter().filter(|row| !row.starts_with("meter scheduler")) {
        wire_tasks += field(row, "tasks=").unwrap_or(0);
        wire_bytes += field(row, "wire_bytes=").unwrap_or(0);
        wire_frames += field(row, "wire_frames=").unwrap_or(0);
    }
    let traced = &phases[1];
    let cpu_us = ratio(
        traced.iter().map(|r| r.1.as_secs_f64()).sum::<f64>() * 1e6,
        tasks * traced.len() as f64,
    );
    let summary = trace::collect();
    let lender_ns = crate::probe::lender_roundtrip_ns(
        measure::nproc(),
        if args.smoke { 20_000 } else { 200_000 },
    );
    let trace_bytes: usize = report.trace.iter().map(|line| line.len() + 1).sum();
    println!(
        "per-task breakdown: the simulator runs inside one call, so all {cpu_us:.3} us of CPU per \
         task is residue; tracing overhead ratio {overhead:.4}"
    );

    let mut m = Metrics::default();
    m.put("input.readahead_max", 0.0, "count");
    m.put("lender.lends_per_task", ratio(lends as f64, tasks), "ratio");
    m.put("lender.relends", lends.saturating_sub(report.params.tasks) as f64, "count");
    m.put("shard.borrow_skew", skew, "ratio");
    m.put("merge.output_wait_share", 0.0, "ratio");
    m.put("lender.roundtrip_ns", lender_ns, "ns");
    m.put("codec.records_per_frame", ratio(wire_tasks as f64, wire_frames as f64), "ratio");
    m.put("codec.wire_bytes_per_task", ratio(wire_bytes as f64, tasks), "B");
    m.put("codec.encode_ns_per_record", 0.0, "ns");
    m.put("codec.decode_ns_per_record", 0.0, "ns");
    m.put("reactor.polls_per_task", ratio(stats.polls as f64, tasks), "ratio");
    m.put(
        "reactor.wasted_poll_ratio",
        ratio(stats.wasted_polls as f64, stats.polls as f64),
        "ratio",
    );
    m.put("reactor.wakeups_per_task", ratio(stats.wakeups as f64, tasks), "ratio");
    m.put("reactor.kicks_sent_per_task", ratio(stats.kicks_sent as f64, tasks), "ratio");
    m.put(
        "reactor.kicks_suppressed_per_task",
        ratio(stats.kicks_suppressed as f64, tasks),
        "ratio",
    );
    m.put("reactor.timer_fires", stats.timer_fires as f64, "count");
    m.put("reactor.max_ready_depth", stats.max_ready_depth as f64, "count");
    m.put("reactor.shard_hops", stats.shard_hops as f64, "count");
    m.put("reactor.crash_relends", stats.crash_relends as f64, "count");
    m.put(
        "reactor.wall_ns_per_poll",
        ratio(report.wall_elapsed.as_nanos() as f64, stats.polls as f64),
        "ns",
    );
    for (name, unit) in [
        ("transport.send_ns_p50", "ns"),
        ("transport.send_ns_p99", "ns"),
        ("transport.recv_calls_per_task", "ratio"),
        ("transport.recv_empty_ratio", "ratio"),
        ("transport.would_block", "count"),
        ("transport.frames_per_write", "ratio"),
        ("transport.bytes_per_write", "B"),
        ("acceptor.connect_ms_p50", "ms"),
        ("acceptor.connect_ms_p99", "ms"),
        ("session.control_frames_per_data_frame", "ratio"),
        ("session.resumes", "count"),
        ("session.resume_ms_p50", "ms"),
        ("worker.fn_us_per_task", "us"),
        ("worker.busy_share", "ratio"),
        ("worker.heartbeats_suppressed_ratio", "ratio"),
    ] {
        m.put(name, 0.0, unit);
    }
    m.put("sim.crashed", report.crashed as f64, "count");
    m.put("sim.trace_bytes", trace_bytes as f64, "B");
    m.put("sim.virtual_makespan_s", report.virtual_elapsed.as_secs_f64(), "s");
    m.put("coord.residue_us_per_task", cpu_us, "us");
    for name in [
        "self_us.input_pull",
        "self_us.output_pull",
        "self_us.worker_fn",
        "self_us.transport_send",
        "self_us.transport_try_recv",
        "self_us.codec_decode",
    ] {
        m.put(name, 0.0, "us");
    }
    m.put("trace.overhead_ratio", overhead, "ratio");
    m.put("trace.spans", summary.recorded() as f64, "count");
    m
}
