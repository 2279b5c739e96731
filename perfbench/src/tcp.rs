//! The loopback-TCP workloads: `tcp_echo`, `tcp_raytrace` and `tcp_churn`.
//!
//! A run is a sequence of rounds. Each round sets a deployment up from
//! scratch (`Pando::new`, bind, accept loop, the initial fleet joined),
//! streams a fixed number of seeded inputs through `Pando::run`, checks the
//! ordered output value by value, and tears the deployment down. Rounds
//! repeat until the run's time is spent, so set-up is measured many times
//! per run.

use crate::measure::{self, now_ns, percentile, ratio, sorted, Metrics, Rng};
use crate::trace::{self, Layer, Traced, LINKS};
use crate::{Args, Outcome};
use bytes::Bytes;
use pando_core::config::PandoConfig;
use pando_core::master::Pando;
use pando_core::protocol::Message;
use pando_core::reactor::ReactorStats;
use pando_core::transport::tcp::session::{ReconnectPolicy, ReconnectingTcpTransport};
use pando_core::transport::tcp::{
    SessionEvent, TcpAcceptor, TcpConfig, TcpServerHandle, TcpTransport,
};
use pando_core::worker::{run_worker_on, WorkerBuilder, WorkerOptions, WorkerReport};
use pando_core::Transport;
use pando_netsim::channel::{RecvError, SendError, Waker};
use pando_netsim::fault::FaultPlan;
use pando_pull_stream::codec::Payload;
use pando_pull_stream::codec::TaskCodec;
use pando_pull_stream::source::Source;
use pando_pull_stream::{Answer, Request, StreamError};
use pando_workloads::app::{PandoApp, RaytraceApp, RaytraceCodec};
use pando_workloads::raytrace::animation_angles;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Echo,
    Raytrace,
    Churn,
}

/// Tasks per round (full size, smoke size).
fn round_tasks(kind: Kind, smoke: bool) -> usize {
    match (kind, smoke) {
        (Kind::Echo, false) => 160_000,
        (Kind::Raytrace, false) => 2_400,
        (Kind::Churn, false) => 40_000,
        (Kind::Echo | Kind::Churn, true) => 400,
        (Kind::Raytrace, true) => 60,
    }
}

/// Batch size (tasks in flight per volunteer). Raytrace runs at 4: its
/// 8-frame result batches (about 166 KB each) outgrow the session layer's
/// ack window (8 unacked frames within the 1 MiB write bound), and the
/// volunteer's send then waits for an ack the master only sends after the
/// eighth frame, so the stream stalls for good.
fn batch(kind: Kind) -> usize {
    match kind {
        Kind::Echo | Kind::Churn => 8,
        Kind::Raytrace => 4,
    }
}

/// Echo tasks a churn volunteer processes before it leaves (seeded draw).
const CHURN_TASKS: (u64, u64) = (64, 512);
/// How long a round may wait for its initial fleet.
const JOIN_TIMEOUT: Duration = Duration::from_secs(30);

fn tcp_config() -> TcpConfig {
    TcpConfig {
        heartbeat_interval: Duration::from_millis(200),
        failure_timeout: Duration::from_secs(3),
        reconnect_grace: Duration::from_secs(5),
        ..TcpConfig::default()
    }
}

/// Everything a round needs that is fixed for the whole run.
struct Setup {
    kind: Kind,
    nproc: usize,
    seed: u64,
    tasks: usize,
    config: PandoConfig,
    tcp: TcpConfig,
    /// Raytrace only: the reference frame of every angle, rendered locally.
    reference: Vec<Bytes>,
    corrupt: bool,
}

/// The seeded inputs of one round: the payloads the program sees, and what
/// the benchmark needs to check each result.
struct RoundInputs {
    payloads: Arc<Vec<Bytes>>,
    /// Echo/churn: the value v of each input. Raytrace: the angle index.
    keys: Vec<u64>,
}

fn round_inputs(setup: &Setup, round: u64) -> RoundInputs {
    let mut rng = Rng::new(setup.seed.wrapping_mul(1_000_003).wrapping_add(round));
    let mut keys = Vec::with_capacity(setup.tasks);
    match setup.kind {
        Kind::Echo | Kind::Churn => {
            for _ in 0..setup.tasks {
                keys.push(rng.range(0, 1_000_000));
            }
        }
        Kind::Raytrace => {
            let frames = setup.reference.len();
            while keys.len() < setup.tasks {
                keys.extend(rng.permutation(frames).into_iter().map(|i| i as u64));
            }
            keys.truncate(setup.tasks);
        }
    }
    let angles = animation_angles(RaytraceApp::default().frames);
    let payloads = keys
        .iter()
        .map(|&key| match setup.kind {
            Kind::Echo | Kind::Churn => Bytes::from(key.to_string().into_bytes()),
            Kind::Raytrace => RaytraceCodec.encode_task(&angles[key as usize]),
        })
        .collect();
    RoundInputs { payloads: Arc::new(payloads), keys }
}

/// f(v) = 3v + 1 over a decimal payload: the echo kernel.
fn echo(payload: &Payload) -> Result<Bytes, StreamError> {
    let text = std::str::from_utf8(payload).map_err(|_| StreamError::protocol("not UTF-8"))?;
    let v: u64 = text.parse().map_err(|_| StreamError::protocol("not a number"))?;
    Ok(Bytes::from((3 * v + 1).to_string().into_bytes()))
}

fn kernel(kind: Kind) -> impl Fn(&Payload) -> Result<Bytes, StreamError> + Send + Sync + Clone {
    let app = RaytraceApp::default();
    move |payload: &Payload| {
        let compute = || match kind {
            Kind::Echo | Kind::Churn => echo(payload),
            Kind::Raytrace => app.process(payload),
        };
        if trace::enabled() {
            trace::span(Layer::WorkerFn, trace::next_record_id(), compute)
        } else {
            compute()
        }
    }
}

/// The benchmark's input source: hands out the round's payloads in order,
/// stamping the moment each value was pulled.
struct StampedSource {
    payloads: Arc<Vec<Bytes>>,
    next: usize,
    pulled_at: Arc<Vec<AtomicU64>>,
    emitted: Arc<AtomicU64>,
    readahead_max: Arc<AtomicU64>,
}

impl Source<Bytes> for StampedSource {
    fn pull(&mut self, request: Request) -> Answer<Bytes> {
        if !matches!(request, Request::Ask) || self.next >= self.payloads.len() {
            return Answer::Done;
        }
        let seq = self.next;
        self.next += 1;
        trace::span(Layer::InputPull, seq as u64, || {
            self.pulled_at[seq].store(now_ns(), Relaxed);
            let ahead = (seq as u64 + 1).saturating_sub(self.emitted.load(Relaxed));
            self.readahead_max.fetch_max(ahead, Relaxed);
            Answer::Value(self.payloads[seq].clone())
        })
    }

    fn try_pull(&mut self) -> Option<Answer<Bytes>> {
        Some(self.pull(Request::Ask))
    }
}

#[derive(Debug, Clone, Copy)]
enum Leave {
    Clean,
    Crash,
    Flap,
}

/// Per-volunteer observations, and the churn plan a volunteer follows.
#[derive(Default)]
struct Watch {
    connect_start_ns: u64,
    first_task_ns: AtomicU64,
    tasks_recv: AtomicU64,
    results_sent: AtomicU64,
    /// Churn: leave cleanly (fake a close from the master) after this many
    /// results.
    leave_after: Option<u64>,
    /// Churn: sever the session link once after this many tasks.
    flap_after: Option<u64>,
    flapped_at_ns: AtomicU64,
    resume_ns: AtomicU64,
    session: Option<ReconnectingTcpTransport>,
}

/// Volunteer-side decorator: notes the first task (join-to-task time) and
/// carries out a churn volunteer's clean leave and flap.
struct Volunteer {
    inner: Arc<dyn Transport>,
    watch: Arc<Watch>,
}

impl Volunteer {
    fn leaving(&self) -> bool {
        let watch = &self.watch;
        if watch.flapped_at_ns.load(Relaxed) != 0 && watch.resume_ns.load(Relaxed) == 0 {
            if let Some(session) = &watch.session {
                if !session.is_reconnecting() {
                    let took = now_ns() - watch.flapped_at_ns.load(Relaxed);
                    watch.resume_ns.store(took.max(1), Relaxed);
                }
            }
        }
        watch.leave_after.is_some_and(|n| watch.results_sent.load(Relaxed) >= n)
    }

    fn received(&self, result: Result<Message, RecvError>) -> Result<Message, RecvError> {
        if let Ok(message @ (Message::Task { .. } | Message::TaskBatch(_))) = &result {
            let watch = &self.watch;
            let _ = watch.first_task_ns.compare_exchange(0, now_ns(), Relaxed, Relaxed);
            let seen = watch.tasks_recv.fetch_add(message.record_count(), Relaxed)
                + message.record_count();
            if watch.flap_after.is_some_and(|n| seen >= n)
                && watch.flapped_at_ns.compare_exchange(0, now_ns(), Relaxed, Relaxed).is_ok()
            {
                self.inner.drop_link();
            }
        }
        result
    }

    fn sent(&self, records: u64, result: Result<(), SendError>) -> Result<(), SendError> {
        if result.is_ok() {
            self.watch.results_sent.fetch_add(records, Relaxed);
        }
        result
    }
}

impl Transport for Volunteer {
    fn try_recv(&self) -> Result<Message, RecvError> {
        if self.leaving() {
            return Err(RecvError::Closed);
        }
        self.received(self.inner.try_recv())
    }

    fn recv(&self) -> Result<Message, RecvError> {
        if self.leaving() {
            return Err(RecvError::Closed);
        }
        self.received(self.inner.recv())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Message, RecvError> {
        if self.leaving() {
            return Err(RecvError::Closed);
        }
        self.received(self.inner.recv_timeout(timeout))
    }

    fn send(&self, message: Message) -> Result<(), SendError> {
        let records = message.record_count();
        self.sent(records, self.inner.send(message))
    }

    fn send_records_with_size(
        &self,
        message: Message,
        size: usize,
        records: u64,
    ) -> Result<(), SendError> {
        self.sent(records, self.inner.send_records_with_size(message, size, records))
    }

    fn set_waker(&self, waker: Waker) {
        self.inner.set_waker(waker)
    }

    fn clear_waker(&self) {
        self.inner.clear_waker()
    }

    fn next_ready_at(&self) -> Option<Instant> {
        self.inner.next_ready_at()
    }

    fn close(&self) {
        self.inner.close()
    }

    fn crash(&self) {
        self.inner.crash()
    }

    fn is_peer_alive(&self) -> bool {
        self.inner.is_peer_alive()
    }

    fn heartbeat_interval(&self) -> Duration {
        self.inner.heartbeat_interval()
    }

    fn drop_link(&self) {
        self.inner.drop_link()
    }
}

/// Dials the master as volunteer `index`: a plain link, or a resumable
/// session. The connect call is timed (and spanned when tracing).
fn connect(
    setup: &Setup,
    addr: SocketAddr,
    index: u64,
    session: bool,
    mut watch: Watch,
) -> Result<(Volunteer, u64), String> {
    let name = format!("bench-{index}");
    let start = now_ns();
    watch.connect_start_ns = start;
    let traced = trace::enabled();
    let wrap = |t: Arc<dyn Transport>| -> Arc<dyn Transport> {
        if traced {
            Arc::new(Traced::new(t))
        } else {
            t
        }
    };
    let inner: Arc<dyn Transport> = trace::span(Layer::AcceptorConnect, index, || {
        if session {
            let policy = ReconnectPolicy {
                seed: setup.seed ^ index.wrapping_mul(0x9E37_79B9),
                ..ReconnectPolicy::local_test()
            };
            ReconnectingTcpTransport::connect(addr, &name, setup.tcp.clone(), policy).map(|t| {
                watch.session = Some(t.clone());
                wrap(Arc::new(t))
            })
        } else {
            TcpTransport::connect(addr, &name, setup.tcp.clone()).map(|t| wrap(Arc::new(t)))
        }
    })
    .map_err(|err| format!("volunteer {index} failed to connect: {err}"))?;
    let took = now_ns() - start;
    Ok((Volunteer { inner, watch: Arc::new(watch) }, took))
}

/// The master's accept loop: `TcpAcceptor::serve` in the untraced runs; in
/// the traced run an equivalent loop over `accept_session` that registers
/// each link behind the timing decorator.
enum Acceptor {
    Serve(TcpServerHandle),
    Own {
        stop: Arc<AtomicBool>,
        accepted: Arc<AtomicUsize>,
        resumed: Arc<AtomicUsize>,
        handle: thread::JoinHandle<()>,
    },
}

impl Acceptor {
    fn start(acceptor: TcpAcceptor, pando: &Pando) -> Self {
        if !trace::enabled() {
            return Acceptor::Serve(acceptor.serve(pando));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicUsize::new(0));
        let resumed = Arc::new(AtomicUsize::new(0));
        let (stop_flag, accepted_n, resumed_n, pando) =
            (stop.clone(), accepted.clone(), resumed.clone(), pando.clone());
        let handle = thread::spawn(move || {
            while !stop_flag.load(SeqCst) {
                match acceptor.accept_session() {
                    Ok(Some(SessionEvent::Plain { name, transport })) => {
                        pando.add_volunteer_transport(name, Arc::new(Traced::new(transport)));
                        accepted_n.fetch_add(1, SeqCst);
                    }
                    Ok(Some(SessionEvent::Joined { name, transport })) => {
                        pando.add_volunteer_transport(name, Arc::new(Traced::new(transport)));
                        accepted_n.fetch_add(1, SeqCst);
                    }
                    Ok(Some(SessionEvent::Resumed { .. })) => {
                        resumed_n.fetch_add(1, SeqCst);
                    }
                    // The same idle sleep as `TcpAcceptor::serve`.
                    Ok(None) | Err(_) => thread::sleep(Duration::from_millis(5)),
                }
            }
        });
        Acceptor::Own { stop, accepted, resumed, handle }
    }

    fn accepted(&self) -> usize {
        match self {
            Acceptor::Serve(server) => server.accepted(),
            Acceptor::Own { accepted, .. } => accepted.load(SeqCst),
        }
    }

    fn wait_for_volunteers(&self, count: usize, timeout: Duration) -> bool {
        match self {
            Acceptor::Serve(server) => server.wait_for_volunteers(count, timeout),
            Acceptor::Own { .. } => {
                let deadline = Instant::now() + timeout;
                while self.accepted() < count {
                    if Instant::now() >= deadline {
                        return false;
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                true
            }
        }
    }

    /// Stops the loop; returns the number of sessions resumed.
    fn stop(self) -> usize {
        match self {
            Acceptor::Serve(server) => {
                let resumed = server.resumed();
                server.join();
                resumed
            }
            Acceptor::Own { stop, resumed, handle, .. } => {
                stop.store(true, SeqCst);
                handle.join().expect("accept loop never panics");
                resumed.load(SeqCst)
            }
        }
    }
}

/// What one round measured.
#[derive(Default)]
struct Round {
    tasks: u64,
    failed: u64,
    errors: Vec<String>,
    setup: Duration,
    run: Duration,
    cpu: Duration,
    /// Pull-to-emit latency percentiles of the round, in ms: p50, p99.
    latency_ms: (f64, f64),
    latency_samples: usize,
    join_to_task_ns: Vec<u64>,
    connect_ns: Vec<u64>,
    resume_ns: Vec<u64>,
    readahead_max: u64,
    reactor: Option<ReactorStats>,
    lends: u64,
    relends: u64,
    shard_lends: Vec<u64>,
    reports: Vec<WorkerReport>,
    resumed: usize,
    /// Tasks per second of one local thread applying the kernel to this
    /// round's inputs, measured right after the round.
    local_rate: f64,
}

/// Consumes the ordered output, stamping and checking every result.
fn consume(
    setup: &Setup,
    inputs: &RoundInputs,
    mut output: impl Source<Bytes>,
    pulled_at: &[AtomicU64],
    emitted: &AtomicU64,
    round: &mut Round,
) {
    let mut index = 0usize;
    let mut latencies: Vec<f64> = Vec::with_capacity(inputs.keys.len());
    loop {
        let answer = trace::span(Layer::OutputPull, index as u64, || output.pull(Request::Ask));
        match answer {
            Answer::Value(mut payload) => {
                let now = now_ns();
                if index < inputs.keys.len() {
                    latencies.push(now.saturating_sub(pulled_at[index].load(Relaxed)) as f64 / 1e6);
                }
                if setup.corrupt && index == inputs.keys.len() / 2 {
                    payload = Bytes::copy_from_slice(b"corrupted");
                }
                if !result_ok(setup, inputs, index, &payload) {
                    round.failed += 1;
                }
                index += 1;
                emitted.store(index as u64, Relaxed);
            }
            Answer::Done => break,
            Answer::Err(err) => {
                round.errors.push(format!("ordered output failed: {err}"));
                break;
            }
        }
    }
    let latencies = sorted(latencies);
    round.latency_ms = (percentile(&latencies, 50.0), percentile(&latencies, 99.0));
    round.latency_samples = latencies.len();
    // Missing results are failures too (extra ones failed the check above).
    round.failed += inputs.keys.len().saturating_sub(index) as u64;
    round.tasks = inputs.keys.len() as u64;
}

fn result_ok(setup: &Setup, inputs: &RoundInputs, index: usize, payload: &Bytes) -> bool {
    let Some(&key) = inputs.keys.get(index) else {
        return false;
    };
    match setup.kind {
        Kind::Echo | Kind::Churn => std::str::from_utf8(payload)
            .ok()
            .and_then(|text| text.parse::<u64>().ok())
            .is_some_and(|value| value == 3 * key + 1),
        Kind::Raytrace => payload[..] == setup.reference[key as usize][..],
    }
}

/// Creates the master, binds a loopback listener and starts accepting.
fn start_master(setup: &Setup) -> Result<(Pando, Acceptor, SocketAddr), String> {
    let pando = Pando::new(setup.config.clone());
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", setup.tcp.clone())
        .map_err(|err| format!("bind failed: {err}"))?;
    let addr = acceptor.local_addr();
    let acceptor = Acceptor::start(acceptor, &pando);
    Ok((pando, acceptor, addr))
}

/// Streams the round through the running deployment, then snapshots the
/// stats of every layer.
fn run_stream(setup: &Setup, pando: &Pando, inputs: &RoundInputs, round: &mut Round) {
    let pulled_at: Arc<Vec<AtomicU64>> =
        Arc::new((0..inputs.payloads.len()).map(|_| AtomicU64::new(0)).collect());
    let emitted = Arc::new(AtomicU64::new(0));
    let readahead_max = Arc::new(AtomicU64::new(0));
    let source = StampedSource {
        payloads: inputs.payloads.clone(),
        next: 0,
        pulled_at: pulled_at.clone(),
        emitted: emitted.clone(),
        readahead_max: readahead_max.clone(),
    };
    let cpu0 = measure::process_cpu();
    let start = Instant::now();
    let output = pando.run(source);
    consume(setup, inputs, output, &pulled_at, &emitted, round);
    round.run = start.elapsed();
    round.cpu = measure::process_cpu() - cpu0;
    round.readahead_max = readahead_max.load(Relaxed);
    round.reactor = pando.reactor_stats();
    if let Some(stats) = pando.lender_stats() {
        round.lends = stats.lends;
        round.relends = stats.relends;
    }
    round.shard_lends = pando.shard_stats().unwrap_or_default().iter().map(|s| s.lends).collect();
}

/// Books a round whose fleet never assembled as entirely failed, and ends
/// the deployment with an empty stream so every joined volunteer is closed.
fn fail_round(pando: &Pando, inputs: &RoundInputs, round: &mut Round) {
    round.tasks = inputs.keys.len() as u64;
    round.failed = round.tasks;
    drop(pando.run(pando_pull_stream::source::empty()));
}

/// One `tcp_echo` / `tcp_raytrace` round: `nproc` session volunteers dial
/// concurrently and are served by one worker pool of `nproc` threads.
fn fleet_round(setup: &Setup, inputs: &RoundInputs) -> Round {
    let mut round = Round::default();
    let setup_start = Instant::now();
    let (pando, acceptor, addr) = match start_master(setup) {
        Ok(parts) => parts,
        Err(err) => {
            round.errors.push(err);
            return round;
        }
    };
    let dialed: Vec<Result<(Volunteer, u64), String>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..setup.nproc as u64)
            .map(|i| scope.spawn(move || connect(setup, addr, i, true, Watch::default())))
            .collect();
        handles.into_iter().map(|h| h.join().expect("connect thread never panics")).collect()
    });
    let mut volunteers = Vec::new();
    for result in dialed {
        match result {
            Ok((volunteer, took)) => {
                round.connect_ns.push(took);
                volunteers.push(volunteer);
            }
            Err(err) => round.errors.push(err),
        }
    }
    let watches: Vec<Arc<Watch>> = volunteers.iter().map(|v| v.watch.clone()).collect();
    let pool = WorkerBuilder::new()
        .heartbeats(true)
        .pool_threads(setup.nproc)
        .spawn_pool(volunteers, kernel(setup.kind));
    if !acceptor.wait_for_volunteers(watches.len(), JOIN_TIMEOUT) {
        round.errors.push(format!("only {} volunteers joined", acceptor.accepted()));
    }
    round.setup = setup_start.elapsed();
    if round.errors.is_empty() {
        run_stream(setup, &pando, inputs, &mut round);
    } else {
        fail_round(&pando, inputs, &mut round);
    }
    round.reports = pool.join();
    round.resumed = acceptor.stop();
    pando.join_volunteers();
    for watch in watches {
        let first = watch.first_task_ns.load(Relaxed);
        if first != 0 {
            round.join_to_task_ns.push(first - watch.connect_start_ns);
        }
    }
    round
}

/// Shared state of the churn slots during one round.
struct Churn {
    done: AtomicBool,
    initial_joined: AtomicUsize,
    observed: std::sync::Mutex<Vec<Arc<Watch>>>,
    connect_ns: std::sync::Mutex<Vec<u64>>,
    reports: std::sync::Mutex<Vec<WorkerReport>>,
    errors: std::sync::Mutex<Vec<String>>,
}

/// One churn slot: dials volunteer after volunteer until the round ends.
/// Each processes a seeded number of tasks, then leaves cleanly, crashes
/// (a plain link severed without a close marker) or flaps (a session link
/// drops, redials and resumes) and leaves cleanly afterwards.
fn churn_slot(setup: &Setup, addr: SocketAddr, round: u64, slot: u64, churn: &Churn) {
    let mut rng = Rng::new(setup.seed ^ (round << 32) ^ (slot << 16));
    let process = kernel(Kind::Churn);
    for k in 0u64.. {
        if churn.done.load(SeqCst) {
            break;
        }
        let tasks = rng.range(CHURN_TASKS.0, CHURN_TASKS.1 + 1);
        let leave = match rng.range(0, 3) {
            0 => Leave::Clean,
            1 => Leave::Crash,
            _ => Leave::Flap,
        };
        let watch = Watch {
            leave_after: (!matches!(leave, Leave::Crash)).then_some(tasks),
            flap_after: matches!(leave, Leave::Flap).then_some(tasks / 2),
            ..Watch::default()
        };
        let index = (slot << 20) | k;
        let session = matches!(leave, Leave::Flap);
        let (volunteer, took) = match connect(setup, addr, index, session, watch) {
            Ok(dialed) => dialed,
            Err(err) => {
                if !churn.done.load(SeqCst) {
                    churn.errors.lock().expect("no panic holding the lock").push(err);
                }
                break;
            }
        };
        churn.connect_ns.lock().expect("no panic holding the lock").push(took);
        churn.observed.lock().expect("no panic holding the lock").push(volunteer.watch.clone());
        if k == 0 {
            churn.initial_joined.fetch_add(1, SeqCst);
        }
        let options = WorkerOptions {
            fault: match leave {
                Leave::Crash => FaultPlan::AfterTasks(tasks),
                Leave::Clean | Leave::Flap => FaultPlan::None,
            },
            name: format!("churn-{slot}-{k}"),
            heartbeats: true,
        };
        let report = run_worker_on(&volunteer, &process, options);
        churn.reports.lock().expect("no panic holding the lock").push(report);
    }
}

/// One `tcp_churn` round: `nproc` slots cycle volunteers through the
/// acceptor while the stream runs.
fn churn_round(setup: &Setup, inputs: &RoundInputs, round_index: u64) -> Round {
    let mut round = Round::default();
    let setup_start = Instant::now();
    let (pando, acceptor, addr) = match start_master(setup) {
        Ok(parts) => parts,
        Err(err) => {
            round.errors.push(err);
            return round;
        }
    };
    let churn = Churn {
        done: AtomicBool::new(false),
        initial_joined: AtomicUsize::new(0),
        observed: Default::default(),
        connect_ns: Default::default(),
        reports: Default::default(),
        errors: Default::default(),
    };
    thread::scope(|scope| {
        for slot in 0..setup.nproc as u64 {
            let churn = &churn;
            scope.spawn(move || churn_slot(setup, addr, round_index, slot, churn));
        }
        if acceptor.wait_for_volunteers(setup.nproc, JOIN_TIMEOUT) {
            round.setup = setup_start.elapsed();
            run_stream(setup, &pando, inputs, &mut round);
        } else {
            round.errors.push(format!("only {} volunteers joined", acceptor.accepted()));
            fail_round(&pando, inputs, &mut round);
        }
        churn.done.store(true, SeqCst);
    });
    round.resumed = acceptor.stop();
    pando.join_volunteers();
    round.errors.extend(churn.errors.into_inner().expect("slots joined"));
    round.connect_ns = churn.connect_ns.into_inner().expect("slots joined");
    round.reports = churn.reports.into_inner().expect("slots joined");
    for watch in churn.observed.into_inner().expect("slots joined") {
        let first = watch.first_task_ns.load(Relaxed);
        if first != 0 {
            round.join_to_task_ns.push(first - watch.connect_start_ns);
        }
        let resume = watch.resume_ns.load(Relaxed);
        if resume != 0 {
            round.resume_ns.push(resume);
        }
    }
    round
}

/// Applies the kernel to the round's inputs on one local thread for
/// `budget`; returns tasks per second. The single-device baseline.
fn local_rate(kind: Kind, inputs: &RoundInputs, budget: Duration) -> f64 {
    let process = kernel(kind);
    let start = Instant::now();
    let mut done = 0u64;
    while done == 0 || start.elapsed() < budget {
        for payload in inputs.payloads.iter().take(256) {
            std::hint::black_box(process(payload).expect("generated inputs are valid"));
            done += 1;
        }
    }
    done as f64 / start.elapsed().as_secs_f64()
}

/// The aggregate of a run of rounds.
#[derive(Default)]
struct Phase {
    rounds: Vec<Round>,
}

impl Phase {
    fn tasks(&self) -> u64 {
        self.rounds.iter().map(|r| r.tasks).sum()
    }

    fn run_secs(&self) -> f64 {
        self.rounds.iter().map(|r| r.run.as_secs_f64()).sum()
    }

    fn tasks_per_s(&self) -> f64 {
        ratio(self.tasks() as f64, self.run_secs())
    }

    fn collect(&self, pick: impl Fn(&Round) -> &Vec<u64>) -> Vec<f64> {
        sorted(self.rounds.iter().flat_map(|r| pick(r).iter().map(|&v| v as f64)).collect())
    }
}

fn run_phase(setup: &Setup, until: Instant, min_rounds: usize, first_round: u64) -> Phase {
    let mut phase = Phase::default();
    while phase.rounds.len() < min_rounds || Instant::now() < until {
        let index = first_round + phase.rounds.len() as u64;
        let inputs = round_inputs(setup, index);
        let round = match setup.kind {
            Kind::Churn => churn_round(setup, &inputs, index),
            Kind::Echo | Kind::Raytrace => fleet_round(setup, &inputs),
        };
        let failed = !round.errors.is_empty();
        let mut round = round;
        // The single-device baseline is sampled next to every round, so the
        // fleet/local ratio sees the same host conditions on both sides.
        round.local_rate =
            local_rate(setup.kind, &inputs, round.run.mul_f64(0.1).max(Duration::from_millis(20)));
        phase.rounds.push(round);
        if failed {
            break;
        }
    }
    phase
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let nproc = measure::nproc();
    let tcp = tcp_config();
    let config = PandoConfig::local_test()
        .with_batch_size(batch(kind))
        .with_reactor_threads(nproc)
        .with_tcp(tcp.clone());
    let app = RaytraceApp::default();
    let reference: Vec<Bytes> = match kind {
        Kind::Raytrace => animation_angles(app.frames)
            .into_iter()
            .map(|angle| Bytes::from(app.render(angle)))
            .collect(),
        Kind::Echo | Kind::Churn => Vec::new(),
    };
    let setup = Setup {
        kind,
        nproc,
        seed: args.seed,
        tasks: round_tasks(kind, args.smoke),
        config,
        tcp,
        reference,
        corrupt: args.corrupt,
    };
    println!(
        "config workload={} nproc={nproc} batch={} reactor_threads={nproc} poller_threads={} \
         pool_threads={nproc} volunteers={nproc} session_mode={} tasks_per_round={} seed={}",
        args.workload,
        batch(kind),
        setup.tcp.poller_threads,
        match kind {
            Kind::Echo | Kind::Raytrace => "session",
            Kind::Churn => "mixed",
        },
        setup.tasks,
        args.seed
    );
    let min_rounds = if args.smoke { 1 } else { 3 };
    // One warm-up round starts the process-wide poller threads and fills
    // the allocator's caches; its outputs are checked but not measured.
    let warmup = run_phase(&setup, Instant::now(), 1, u64::MAX / 2);

    let outcome = if args.trace {
        let end = started + budget;
        let half = started + budget / 2;
        let untraced = run_phase(&setup, half, min_rounds, 0);
        trace::reset();
        let io0 = measure::write_counters();
        trace::set_enabled(true);
        let traced = run_phase(&setup, end, min_rounds, untraced.rounds.len() as u64);
        trace::set_enabled(false);
        let io1 = measure::write_counters();
        let summary = trace::collect();
        let metrics =
            layer_metrics(&setup, &untraced, &traced, &summary, (io1.0 - io0.0, io1.1 - io0.1));
        let spans = summary.spans;
        let path = std::path::Path::new(crate::OUT_DIR)
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match trace::write_spans(&path, &spans) {
            Ok(()) => println!("spans written: {} ({} kept)", path.display(), spans.len()),
            Err(err) => println!("spans not written: {err}"),
        }
        outcome_of(&[&warmup, &untraced, &traced], metrics)
    } else {
        let phase = run_phase(&setup, started + budget, min_rounds, 0);
        let (metrics, ungated) = end_to_end(&phase);
        Outcome { ungated, ..outcome_of(&[&warmup, &phase], metrics) }
    };
    outcome
}

fn outcome_of(phases: &[&Phase], metrics: Metrics) -> Outcome {
    let mut outcome = Outcome { metrics, ..Outcome::default() };
    for phase in phases {
        for round in &phase.rounds {
            outcome.attempted += round.tasks;
            outcome.failed += round.failed;
            outcome.errors.extend(round.errors.iter().cloned());
        }
    }
    outcome
}

/// End-to-end metrics: each per-round figure (a rate, a percentile) is
/// reduced to its median over the rounds, so a transient stall of the
/// shared host moves one round, not the run.
fn end_to_end(phase: &Phase) -> (Metrics, Metrics) {
    let per_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
        measure::median(&phase.rounds.iter().map(f).collect::<Vec<f64>>())
    };
    let rate = |r: &Round| ratio(r.tasks as f64, r.run.as_secs_f64());
    let join = |r: &Round, q: f64| {
        percentile(&sorted(r.join_to_task_ns.iter().map(|&v| v as f64 / 1e6).collect()), q)
    };
    let list = |f: &dyn Fn(&Round) -> f64| -> String {
        phase.rounds.iter().map(|r| format!("{:.6}", f(r))).collect::<Vec<_>>().join(",")
    };
    println!(
        "rounds {{\"tasks_per_s\": [{}], \"latency_p50_ms\": [{}], \"latency_p99_ms\": [{}], \
         \"setup_s\": [{}], \"cpu_us_per_task\": [{}], \"local_rate\": [{}]}}",
        list(&rate),
        list(&|r| r.latency_ms.0),
        list(&|r| r.latency_ms.1),
        list(&|r| r.setup.as_secs_f64()),
        list(&|r| ratio(r.cpu.as_secs_f64() * 1e6, r.tasks as f64)),
        list(&|r| r.local_rate)
    );
    println!(
        "samples: {} latencies, {} joins, {} rounds; local baseline {:.1} tasks/s (median)",
        phase.rounds.iter().map(|r| r.latency_samples).sum::<usize>(),
        phase.rounds.iter().map(|r| r.join_to_task_ns.len()).sum::<usize>(),
        phase.rounds.len(),
        per_round(&|r| r.local_rate)
    );
    let mut m = Metrics::default();
    m.put("tasks_per_s", per_round(&rate), "tasks/s");
    m.put("latency_p50_ms", per_round(&|r| r.latency_ms.0), "ms");
    let setups: Vec<f64> = phase.rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    m.put("setup_s", measure::interquartile_mean(&setups), "s");
    m.put("join_to_task_p50_ms", per_round(&|r| join(r, 50.0)), "ms");
    m.put("speedup_vs_local", per_round(&|r| ratio(rate(r), r.local_rate)), "ratio");
    m.put(
        "cpu_us_per_task",
        per_round(&|r| ratio(r.cpu.as_secs_f64() * 1e6, r.tasks as f64)),
        "us",
    );
    m.put("peak_rss_mb", measure::peak_rss_mb(), "MB");
    let mut ungated = Metrics::default();
    ungated.put("latency_p99_ms", per_round(&|r| r.latency_ms.1), "ms");
    ungated.put("join_to_task_p99_ms", per_round(&|r| join(r, 99.0)), "ms");
    (m, ungated)
}

fn layer_metrics(
    setup: &Setup,
    untraced: &Phase,
    traced: &Phase,
    summary: &trace::Summary,
    (writes, written): (u64, u64),
) -> Metrics {
    let tasks = traced.tasks() as f64;
    let run_ns = traced.run_secs() * 1e9;
    let cpu_ns: f64 = traced.rounds.iter().map(|r| r.cpu.as_secs_f64() * 1e9).sum();
    let per_task_us = |ns: f64| ratio(ns, tasks) / 1e3;
    let reactor = |pick: fn(&ReactorStats) -> u64| -> f64 {
        traced.rounds.iter().filter_map(|r| r.reactor.as_ref()).map(pick).sum::<u64>() as f64
    };
    let max_ready = traced
        .rounds
        .iter()
        .filter_map(|r| r.reactor.as_ref())
        .map(|s| s.max_ready_depth)
        .max()
        .unwrap_or(0);
    let mut shard_lends: Vec<u64> = Vec::new();
    for round in &traced.rounds {
        for (i, lends) in round.shard_lends.iter().enumerate() {
            if shard_lends.len() <= i {
                shard_lends.resize(i + 1, 0);
            }
            shard_lends[i] += lends;
        }
    }
    let skew = ratio(
        shard_lends.iter().copied().max().unwrap_or(0) as f64,
        shard_lends.iter().sum::<u64>() as f64 / shard_lends.len().max(1) as f64,
    );
    let frames = trace::captured_frames();
    let (encode_ns, decode_ns) = trace::retime_codec(&frames, Duration::from_millis(200));
    let data_frames = LINKS.data_frames_sent.load(Relaxed) as f64;
    let control_frames = LINKS.control_frames_sent.load(Relaxed) as f64;
    let records_sent = LINKS.records_sent.load(Relaxed) as f64;
    let api_bytes = LINKS.wire_bytes_sent.load(Relaxed) as f64;
    // Bytes written below the Transport API are session acks (13-byte
    // frames) plus a few close markers; count them as acks. On tcp_churn
    // they also hold the frames a resumed session replays, which this
    // counts as acks too.
    let acks = ((written as f64 - api_bytes).max(0.0) / 13.0).floor();
    let send = sorted(summary.send_ns.iter().map(|&v| v as f64).collect());
    let connect = traced.collect(|r| &r.connect_ns);
    let resume = traced.collect(|r| &r.resume_ns);
    let reports: Vec<&WorkerReport> = traced.rounds.iter().flat_map(|r| r.reports.iter()).collect();
    let hb_sent: u64 = reports.iter().map(|r| r.heartbeats_sent).sum();
    let hb_suppressed: u64 = reports.iter().map(|r| r.heartbeats_suppressed).sum();
    let fn_ns = summary.total_ns(Layer::WorkerFn) as f64;
    let fn_count = summary.count[Layer::WorkerFn as usize] as f64;
    let cpu_us = per_task_us(cpu_ns);
    let self_us = |layer: Layer| per_task_us(summary.self_ns(layer) as f64);
    let decode_us = ratio(decode_ns * records_sent, tasks) / 1e3;
    let measured_us = self_us(Layer::WorkerFn)
        + self_us(Layer::TransportSend)
        + self_us(Layer::TransportTryRecv)
        + self_us(Layer::InputPull)
        + decode_us;
    let lender_ns = crate::probe::lender_roundtrip_ns(setup.nproc, 200_000);
    let overhead = ratio(traced.tasks_per_s(), untraced.tasks_per_s());

    println!("per-task breakdown (traced rounds, {tasks} tasks, us per task):");
    println!("  cpu (process)            {cpu_us:10.3}");
    for (label, us) in [
        ("worker.fn", self_us(Layer::WorkerFn)),
        ("transport.send", self_us(Layer::TransportSend)),
        ("transport.try_recv", self_us(Layer::TransportTryRecv)),
        ("input.pull", self_us(Layer::InputPull)),
        ("codec.decode (re-timed)", decode_us),
        ("residue", cpu_us - measured_us),
    ] {
        println!("  {label:24} {us:10.3}");
    }
    println!(
        "  output.pull (waiting)    {:10.3}   acceptor.connect {:.3}",
        self_us(Layer::OutputPull),
        self_us(Layer::AcceptorConnect)
    );
    println!(
        "tracing overhead: traced {:.1} tasks/s vs untraced {:.1} tasks/s (ratio {overhead:.4})",
        traced.tasks_per_s(),
        untraced.tasks_per_s()
    );

    let mut m = Metrics::default();
    m.put(
        "input.readahead_max",
        traced.rounds.iter().map(|r| r.readahead_max).max().unwrap_or(0) as f64,
        "count",
    );
    m.put(
        "lender.lends_per_task",
        ratio(traced.rounds.iter().map(|r| r.lends).sum::<u64>() as f64, tasks),
        "ratio",
    );
    m.put("lender.relends", traced.rounds.iter().map(|r| r.relends).sum::<u64>() as f64, "count");
    m.put("shard.borrow_skew", skew, "ratio");
    m.put(
        "merge.output_wait_share",
        ratio(summary.total_ns(Layer::OutputPull) as f64, run_ns),
        "ratio",
    );
    m.put("lender.roundtrip_ns", lender_ns, "ns");
    m.put("codec.records_per_frame", ratio(records_sent, data_frames), "ratio");
    m.put("codec.wire_bytes_per_task", ratio(api_bytes, tasks), "B");
    m.put("codec.encode_ns_per_record", encode_ns, "ns");
    m.put("codec.decode_ns_per_record", decode_ns, "ns");
    m.put("reactor.polls_per_task", ratio(reactor(|s| s.polls), tasks), "ratio");
    m.put(
        "reactor.wasted_poll_ratio",
        ratio(reactor(|s| s.wasted_polls), reactor(|s| s.polls)),
        "ratio",
    );
    m.put("reactor.wakeups_per_task", ratio(reactor(|s| s.wakeups), tasks), "ratio");
    m.put("reactor.kicks_sent_per_task", ratio(reactor(|s| s.kicks_sent), tasks), "ratio");
    m.put(
        "reactor.kicks_suppressed_per_task",
        ratio(reactor(|s| s.kicks_suppressed), tasks),
        "ratio",
    );
    m.put("reactor.timer_fires", reactor(|s| s.timer_fires), "count");
    m.put("reactor.max_ready_depth", max_ready as f64, "count");
    m.put("reactor.shard_hops", reactor(|s| s.shard_hops), "count");
    m.put("reactor.crash_relends", reactor(|s| s.crash_relends), "count");
    m.put("reactor.wall_ns_per_poll", 0.0, "ns");
    m.put("transport.send_ns_p50", percentile(&send, 50.0), "ns");
    m.put("transport.send_ns_p99", percentile(&send, 99.0), "ns");
    m.put(
        "transport.recv_calls_per_task",
        ratio(LINKS.recv_calls.load(Relaxed) as f64, tasks),
        "ratio",
    );
    m.put(
        "transport.recv_empty_ratio",
        ratio(LINKS.recv_empty.load(Relaxed) as f64, LINKS.recv_calls.load(Relaxed) as f64),
        "ratio",
    );
    m.put("transport.would_block", LINKS.would_block.load(Relaxed) as f64, "count");
    m.put(
        "transport.frames_per_write",
        ratio(data_frames + control_frames + acks, writes as f64),
        "ratio",
    );
    m.put("transport.bytes_per_write", ratio(written as f64, writes as f64), "B");
    m.put("acceptor.connect_ms_p50", percentile(&connect, 50.0) / 1e6, "ms");
    m.put("acceptor.connect_ms_p99", percentile(&connect, 99.0) / 1e6, "ms");
    m.put(
        "session.control_frames_per_data_frame",
        ratio(control_frames + acks, data_frames),
        "ratio",
    );
    m.put(
        "session.resumes",
        traced.rounds.iter().map(|r| r.resumed).sum::<usize>() as f64,
        "count",
    );
    m.put("session.resume_ms_p50", percentile(&resume, 50.0) / 1e6, "ms");
    m.put("worker.fn_us_per_task", ratio(fn_ns, fn_count) / 1e3, "us");
    m.put("worker.busy_share", ratio(fn_ns, setup.nproc as f64 * run_ns), "ratio");
    m.put(
        "worker.heartbeats_suppressed_ratio",
        ratio(hb_suppressed as f64, (hb_sent + hb_suppressed) as f64),
        "ratio",
    );
    m.put("sim.crashed", 0.0, "count");
    m.put("sim.trace_bytes", 0.0, "B");
    m.put("sim.virtual_makespan_s", 0.0, "s");
    m.put("coord.residue_us_per_task", cpu_us - measured_us, "us");
    m.put("self_us.input_pull", self_us(Layer::InputPull), "us");
    m.put("self_us.output_pull", self_us(Layer::OutputPull), "us");
    m.put("self_us.worker_fn", self_us(Layer::WorkerFn), "us");
    m.put("self_us.transport_send", self_us(Layer::TransportSend), "us");
    m.put("self_us.transport_try_recv", self_us(Layer::TransportTryRecv), "us");
    m.put("self_us.codec_decode", decode_us, "us");
    m.put("trace.overhead_ratio", overhead, "ratio");
    m.put("trace.spans", summary.recorded() as f64, "count");
    m
}
