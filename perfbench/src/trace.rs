//! The traced run's span recorder and the timing [`Transport`] decorator.
//!
//! Spans are recorded only at boundaries in the benchmark's own code: around
//! the input source, the ordered output, the worker closure, volunteer
//! connects and every `Transport` call of a decorated link. Each thread
//! appends to its own buffer (an uncontended lock), keeps a stack of open
//! spans so a span's self time excludes the spans nested in it, and caps
//! the raw span list it keeps for the file written when the run ends.
//! Nothing is recorded while tracing is off, and in the untraced runs the
//! decorator is not installed at all.

use crate::measure::now_ns;
use bytes::Bytes;
use pando_core::protocol::Message;
use pando_core::Transport;
use pando_netsim::channel::{RecvError, SendError, Waker};
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The boundaries a span can sit on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    InputPull,
    OutputPull,
    WorkerFn,
    TransportSend,
    TransportTryRecv,
    AcceptorConnect,
    SimRun,
}

pub const LAYERS: [Layer; 7] = [
    Layer::InputPull,
    Layer::OutputPull,
    Layer::WorkerFn,
    Layer::TransportSend,
    Layer::TransportTryRecv,
    Layer::AcceptorConnect,
    Layer::SimRun,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::InputPull => "input.pull",
            Layer::OutputPull => "output.pull",
            Layer::WorkerFn => "worker.fn",
            Layer::TransportSend => "transport.send",
            Layer::TransportTryRecv => "transport.try_recv",
            Layer::AcceptorConnect => "acceptor.connect",
            Layer::SimRun => "sim.run",
        }
    }
}

/// Raw spans kept for the span file, across all threads.
const MAX_KEPT_SPANS: u64 = 200_000;
/// Send durations kept for the send-latency percentiles, across all threads.
const MAX_SEND_SAMPLES: u64 = 2_000_000;
/// Data frames captured for the codec re-timing.
const MAX_CAPTURED_FRAMES: usize = 512;

static ENABLED: AtomicBool = AtomicBool::new(false);
static KEPT_SPANS: AtomicU64 = AtomicU64::new(0);
static SEND_SAMPLES: AtomicU64 = AtomicU64::new(0);
static BUFFERS: Mutex<Vec<Arc<Mutex<ThreadBuf>>>> = Mutex::new(Vec::new());
static CAPTURED: Mutex<Vec<Message>> = Mutex::new(Vec::new());
/// Frames in `CAPTURED`, readable without its lock on every send.
static CAPTURED_LEN: AtomicUsize = AtomicUsize::new(0);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Counters of decorated links, summed over both sides of every link.
#[derive(Debug)]
pub struct LinkCounters {
    pub recv_calls: AtomicU64,
    pub recv_empty: AtomicU64,
    pub data_frames_sent: AtomicU64,
    pub records_sent: AtomicU64,
    pub control_frames_sent: AtomicU64,
    pub wire_bytes_sent: AtomicU64,
    pub would_block: AtomicU64,
}

pub static LINKS: LinkCounters = LinkCounters {
    recv_calls: AtomicU64::new(0),
    recv_empty: AtomicU64::new(0),
    data_frames_sent: AtomicU64::new(0),
    records_sent: AtomicU64::new(0),
    control_frames_sent: AtomicU64::new(0),
    wire_bytes_sent: AtomicU64::new(0),
    would_block: AtomicU64::new(0),
};

#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub thread: u64,
    pub layer: Layer,
    pub id: u64,
    pub start: u64,
    pub end: u64,
}

#[derive(Debug, Default)]
struct ThreadBuf {
    spans: Vec<SpanRec>,
    count: [u64; LAYERS.len()],
    total_ns: [u64; LAYERS.len()],
    self_ns: [u64; LAYERS.len()],
    send_ns: Vec<u64>,
}

struct Open {
    start: u64,
    child_ns: u64,
}

thread_local! {
    static BUF: RefCell<Option<(u64, Arc<Mutex<ThreadBuf>>)>> = const { RefCell::new(None) };
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    /// First sequence number of the task frame this thread received last,
    /// and how many of its records the worker closure has consumed: the id
    /// `worker.fn` spans carry.
    static FRAME_SEQ: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Runs `f` inside a span of `layer` carrying `id`, when tracing is on.
pub fn span<R>(layer: Layer, id: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = now_ns();
    STACK.with(|stack| stack.borrow_mut().push(Open { start, child_ns: 0 }));
    let result = f();
    let end = now_ns();
    let open = STACK.with(|stack| stack.borrow_mut().pop()).expect("span stack balanced");
    let duration = end - open.start;
    STACK.with(|stack| {
        if let Some(parent) = stack.borrow_mut().last_mut() {
            parent.child_ns += duration;
        }
    });
    with_buf(|thread, buf| {
        let i = layer as usize;
        buf.count[i] += 1;
        buf.total_ns[i] += duration;
        buf.self_ns[i] += duration.saturating_sub(open.child_ns);
        if layer == Layer::TransportSend && SEND_SAMPLES.fetch_add(1, Relaxed) < MAX_SEND_SAMPLES {
            buf.send_ns.push(duration);
        }
        if KEPT_SPANS.fetch_add(1, Relaxed) < MAX_KEPT_SPANS {
            buf.spans.push(SpanRec { thread, layer, id, start, end });
        }
    });
    result
}

fn with_buf(f: impl FnOnce(u64, &mut ThreadBuf)) {
    BUF.with(|slot| {
        let mut slot = slot.borrow_mut();
        let (thread, buf) = slot.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(ThreadBuf::default()));
            BUFFERS.lock().expect("no panic while registering").push(buf.clone());
            (NEXT_THREAD.fetch_add(1, Relaxed), buf)
        });
        f(*thread, &mut buf.lock().expect("no panic while recording"));
    });
}

/// Id for the next `worker.fn` span on this thread.
pub fn next_record_id() -> u64 {
    FRAME_SEQ.with(|cell| {
        let (seq, used) = cell.get();
        cell.set((seq, used + 1));
        seq + used
    })
}

/// Aggregates of everything recorded since the last [`reset`].
#[derive(Debug, Default)]
pub struct Summary {
    pub count: [u64; LAYERS.len()],
    pub total_ns: [u64; LAYERS.len()],
    pub self_ns: [u64; LAYERS.len()],
    pub send_ns: Vec<u64>,
    pub spans: Vec<SpanRec>,
}

impl Summary {
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.total_ns[layer as usize]
    }

    pub fn recorded(&self) -> u64 {
        self.count.iter().sum()
    }
}

/// Drains every thread's buffer into one summary.
pub fn collect() -> Summary {
    let mut summary = Summary::default();
    for buf in BUFFERS.lock().expect("no panic while registering").iter() {
        let mut buf = buf.lock().expect("no panic while recording");
        for i in 0..LAYERS.len() {
            summary.count[i] += buf.count[i];
            summary.total_ns[i] += buf.total_ns[i];
            summary.self_ns[i] += buf.self_ns[i];
        }
        summary.send_ns.append(&mut buf.send_ns);
        summary.spans.append(&mut buf.spans);
        *buf = ThreadBuf::default();
    }
    summary.spans.sort_by_key(|span| (span.start, span.thread));
    summary
}

/// Data frames captured from decorated sends, for the codec re-timing.
pub fn captured_frames() -> Vec<Message> {
    CAPTURED.lock().expect("no panic while capturing").clone()
}

/// Writes the kept spans as tab-separated lines.
pub fn write_spans(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tspan\tid\tstart_ns\tend_ns")?;
    for span in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            span.thread,
            span.layer.name(),
            span.id,
            span.start,
            span.end
        )?;
    }
    out.flush()
}

fn first_seq(message: &Message) -> Option<u64> {
    match message {
        Message::Task { seq, .. }
        | Message::TaskResult { seq, .. }
        | Message::TaskError { seq, .. } => Some(*seq),
        Message::TaskBatch(records) | Message::ResultBatch(records) => {
            records.first().map(|record| record.seq)
        }
        Message::Heartbeat | Message::Goodbye | Message::Ack { .. } => None,
    }
}

/// A [`Transport`] decorator that spans `send` and `try_recv` and counts
/// frames, records, bytes and would-blocks. Used on both sides of every
/// link in the traced run.
pub struct Traced<T> {
    inner: T,
}

impl<T: Transport> Traced<T> {
    pub fn new(inner: T) -> Self {
        Self { inner }
    }

    fn timed_send(
        &self,
        message: Message,
        send: impl FnOnce(Message) -> Result<(), SendError>,
    ) -> Result<(), SendError> {
        let data = message.is_data();
        let records = message.record_count();
        let size = message.wire_size() as u64;
        let id = first_seq(&message).unwrap_or(u64::MAX);
        let copy =
            (data && CAPTURED_LEN.load(Relaxed) < MAX_CAPTURED_FRAMES).then(|| message.clone());
        let result = span(Layer::TransportSend, id, || send(message));
        match &result {
            Ok(()) => {
                if data {
                    LINKS.data_frames_sent.fetch_add(1, Relaxed);
                    LINKS.records_sent.fetch_add(records, Relaxed);
                } else {
                    LINKS.control_frames_sent.fetch_add(1, Relaxed);
                }
                LINKS.wire_bytes_sent.fetch_add(size, Relaxed);
                if let Some(copy) = copy {
                    let mut captured = CAPTURED.lock().expect("no panic while capturing");
                    if captured.len() < MAX_CAPTURED_FRAMES {
                        captured.push(copy);
                        CAPTURED_LEN.store(captured.len(), Relaxed);
                    }
                }
            }
            Err(SendError::WouldBlock) => {
                LINKS.would_block.fetch_add(1, Relaxed);
            }
            Err(_) => {}
        }
        result
    }
}

impl<T: Transport> Transport for Traced<T> {
    fn try_recv(&self) -> Result<Message, RecvError> {
        let start = now_ns();
        let result = span(Layer::TransportTryRecv, u64::MAX, || self.inner.try_recv());
        LINKS.recv_calls.fetch_add(1, Relaxed);
        match &result {
            Err(RecvError::Empty) => {
                LINKS.recv_empty.fetch_add(1, Relaxed);
            }
            Ok(message) => {
                if let Some(seq) = first_seq(message) {
                    FRAME_SEQ.with(|cell| cell.set((seq, 0)));
                    // Re-tag the span just recorded with the frame's first
                    // sequence number, now that it is known.
                    with_buf(|_, buf| {
                        if let Some(last) = buf.spans.last_mut() {
                            if last.layer == Layer::TransportTryRecv && last.start >= start {
                                last.id = seq;
                            }
                        }
                    });
                }
            }
            Err(_) => {}
        }
        result
    }

    fn recv(&self) -> Result<Message, RecvError> {
        self.inner.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Message, RecvError> {
        let result = self.inner.recv_timeout(timeout);
        if let Ok(message) = &result {
            if let Some(seq) = first_seq(message) {
                FRAME_SEQ.with(|cell| cell.set((seq, 0)));
            }
        }
        result
    }

    fn send(&self, message: Message) -> Result<(), SendError> {
        self.timed_send(message, |message| self.inner.send(message))
    }

    fn send_records_with_size(
        &self,
        message: Message,
        size: usize,
        records: u64,
    ) -> Result<(), SendError> {
        self.timed_send(message, |message| {
            self.inner.send_records_with_size(message, size, records)
        })
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

/// Re-times `Message::encode` and `Message::decode` on the captured frames;
/// returns (encode, decode) nanoseconds per record. `(0, 0)` when nothing
/// was captured.
pub fn retime_codec(frames: &[Message], budget: Duration) -> (f64, f64) {
    let records: u64 = frames.iter().map(Message::record_count).sum();
    if records == 0 {
        return (0.0, 0.0);
    }
    let encoded: Vec<Bytes> =
        frames.iter().map(|frame| frame.encode().expect("captured frames were sent")).collect();
    let mut passes = 0u64;
    let (mut encode_ns, mut decode_ns) = (0u128, 0u128);
    let deadline = Instant::now() + budget;
    while passes < 3 || Instant::now() < deadline {
        let start = Instant::now();
        for frame in frames {
            std::hint::black_box(frame.encode().expect("captured frames were sent"));
        }
        encode_ns += start.elapsed().as_nanos();
        let start = Instant::now();
        for bytes in &encoded {
            std::hint::black_box(Message::decode(bytes).expect("encoded frames decode"));
        }
        decode_ns += start.elapsed().as_nanos();
        passes += 1;
    }
    let per = (records * passes) as f64;
    (encode_ns as f64 / per, decode_ns as f64 / per)
}

/// Clears every buffer, counter and capture; the next recording starts
/// afresh.
pub fn reset() {
    drop(collect());
    KEPT_SPANS.store(0, Relaxed);
    SEND_SAMPLES.store(0, Relaxed);
    CAPTURED.lock().expect("no panic while capturing").clear();
    CAPTURED_LEN.store(0, Relaxed);
    for counter in [
        &LINKS.recv_calls,
        &LINKS.recv_empty,
        &LINKS.data_frames_sent,
        &LINKS.records_sent,
        &LINKS.control_frames_sent,
        &LINKS.wire_bytes_sent,
        &LINKS.would_block,
    ] {
        counter.store(0, Relaxed);
    }
}
