//! Length-prefixed [`Message`] frames over real TCP sockets.
//!
//! This is the first transport that takes the fleet out of the process: a
//! master in one OS process drives volunteer workers in other processes over
//! localhost (or LAN) TCP, through exactly the same reactor, lender and
//! failure-detection machinery the deterministic simulator exercises.
//!
//! # Readiness backend
//!
//! All connections in a process are multiplexed onto a fixed pool of
//! [`TcpConfig::poller_threads`] epoll poller threads (module `poller`,
//! syscall shim in `transport::sys`) instead of a read/write pump thread pair
//! per connection — a 64-volunteer master runs its transport on 2 threads,
//! not 128. Sockets are non-blocking; a per-connection state machine owns
//! partial-read reassembly (header → body, mid-frame truncation still
//! classified as a crash) and partial-write resumption, and every readiness
//! batch gives each ready connection a bounded slice of work so one
//! fire-hose peer cannot starve the rest (round-robin fairness via
//! level-triggered re-reporting).
//!
//! The outbound queue is **byte-bounded** at [`TcpConfig::write_buffer_max`]:
//! a send that would overflow the bound fails with [`SendError::WouldBlock`]
//! (nothing enqueued, link healthy) and the registered waker fires once the
//! queue drains below the bound — see the bounded-send row of the
//! [`Transport`] contract table. Targets without epoll fall back to a
//! reader/writer pump thread pair per connection, with the same
//! bounded-queue semantics; the platform alone picks the backend.
//!
//! # Accepting volunteers
//!
//! [`TcpAcceptor`] runs the master side of the handshake without ever
//! blocking on a client. It owns one epoll instance (separate from the
//! poller shards) watching the listener, every pending handshake and, under
//! [`TcpAcceptor::serve`], a wake pipe. Each accepted socket is made
//! non-blocking and waits as a pending handshake: an incremental parser
//! reads its hello as the bytes arrive, never past the hello's end, and
//! rejects a malformed one at its first bad byte. A hello still incomplete
//! after the 5 s handshake timeout is dropped, and at most 256 wait at
//! once, the oldest evicted beyond that. So silent or trickling clients
//! cost a bounded number of descriptors and delay no legitimate join. A
//! completed handshake leaves the acceptor's epoll set, gets its reply and
//! only then joins a poller shard, so on a resume the replayed frames are
//! the first bytes after the reply.
//!
//! The `tcp-accept` thread sleeps in `epoll_wait` until a socket is ready,
//! the oldest deadline passes, or [`TcpServerHandle::stop`] writes to the
//! wake pipe; [`TcpServerHandle::wait_for_volunteers`] waits on a condvar
//! that each join signals. The non-blocking
//! [`TcpAcceptor::accept_session`] runs the same engine one step per call.
//! Targets without epoll try every pending handshake each step, with a
//! bounded wait between steps.
//!
//! # Wire format
//!
//! The wire format reuses the existing fallible codec verbatim — every frame
//! is what [`Message::encode`] produces (`tag: u8`, `len: u32` big-endian,
//! payload), with tag `0` reserved as a transport-level close marker so a
//! clean [`close`](Transport::close) is distinguishable from a crash.
//! A connection starts with a tiny hello carrying a *mode* byte:
//!
//! ```text
//! volunteer -> master:  b"PNDO" version:u8 mode:u8
//!                       [token:u64be recvd:u64be   (mode = RESUME only)]
//!                       name_len:u16be name bytes
//! master    -> volunteer: b"PNDO" version:u8 status:u8 token:u64be recvd:u64be
//! ```
//!
//! Mode `0` (*plain*) is the sessionless connection every test and simple
//! client uses: the reply's token is zero and nothing is buffered for
//! redelivery. Mode `1` (*new session*) asks the master to issue a session
//! token and wrap the link in a [`session::SessionTransport`] so a transient
//! disconnect parks the volunteer instead of crashing it. Mode `2`
//! (*resume*) presents a previously-issued token plus the count of data
//! frames the volunteer has received; the master answers with status `1`
//! and its own received count, and both sides redeliver exactly the frames
//! the other never saw (see the [`session`] module). An unknown or expired
//! token downgrades the resume to a fresh session (status `0`, new token) —
//! the volunteer rejoins as a new device rather than being rejected.
//!
//! # Which layer detects which failure class
//!
//! Three detectors run at different depths, fastest-first:
//!
//! 1. **Socket events** (this module): reset, EOF without the close marker,
//!    or EOF mid-frame short-circuit straight to
//!    [`RecvError::PeerFailed`] — process crashes on a live network are
//!    caught in milliseconds.
//! 2. **Application heartbeats** ([`FailureDetector`]): every arriving
//!    frame refreshes `last_heard`; `failure_timeout` of silence marks the
//!    peer failed even when the socket looks healthy. This is the only
//!    layer that catches a *wedged* peer process whose kernel still ACKs.
//! 3. **TCP keepalive** ([`TcpConfig::keepalive`], probes paced from
//!    `heartbeat_interval`): kernel-level probing that reaps connections
//!    whose remote *host* vanished (power loss, cable pull) even if this
//!    process never tries to write — the probe failure surfaces as a socket
//!    error, feeding back into layer 1. Keepalive never produces false
//!    positives on an idle-but-healthy link: probes are answered by the
//!    peer's kernel without waking the application, so an idle connection
//!    outlives any number of heartbeat intervals as long as both layers
//!    above stay quiet.
//!
//! Crash detection therefore maps onto the same [`FailureDetector`] path as
//! the simulated channels, and crash re-lend and shard hopping work
//! unchanged over sockets.

#[cfg(target_os = "linux")]
pub(crate) mod poller;
pub mod session;

#[cfg(target_os = "linux")]
use super::sys;
use super::{Transport, TransportError, TransportErrorKind};
use crate::master::Pando;
use crate::protocol::Message;
use crate::transport::tcp::session::SessionTransport;
use bytes::{Bytes, BytesMut};
use pando_netsim::channel::{RecvError, SendError, Waker};
use pando_netsim::codec::{encode_frame, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use pando_netsim::heartbeat::FailureDetector;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(target_os = "linux")]
use std::os::unix::io::AsRawFd;
#[cfg(target_os = "linux")]
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread;
use std::time::{Duration, Instant};

/// Magic bytes opening both handshake directions.
const MAGIC: [u8; 4] = *b"PNDO";
/// Version byte of the TCP wire protocol; bumped on incompatible change.
/// v2 added the hello mode byte and the 22-byte session reply.
pub const TCP_PROTOCOL_VERSION: u8 = 2;
/// Frame tag reserved for the transport-level close marker (the protocol's
/// message tags start at 1).
const TAG_CLOSE: u8 = 0;
/// Longest volunteer name accepted in the hello.
const MAX_NAME_LEN: usize = 256;
/// Longest legal client hello: magic, version, mode, resume token and
/// count, name length, longest name.
const MAX_HELLO_LEN: usize = 6 + 16 + 2 + MAX_NAME_LEN;
/// How long a connection may take to deliver its hello (master side) or a
/// master its reply (client side) before the handshake is abandoned.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// Most handshakes the acceptor holds open at once. At the cap the oldest is
/// evicted and counted as rejected, so a flood of silent sockets costs a
/// bounded number of descriptors and never blocks a live join.
const MAX_PENDING_HANDSHAKES: usize = 256;
/// How long a failed `accept` (out of descriptors, say) pauses the listener.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);
/// Targets without epoll: the longest wait between two handshake steps.
#[cfg(not(target_os = "linux"))]
const IDLE_WAIT: Duration = Duration::from_millis(5);
/// Hello mode byte: sessionless connection (no token, no redelivery).
const HELLO_PLAIN: u8 = 0;
/// Hello mode byte: request a fresh resumable session.
const HELLO_NEW: u8 = 1;
/// Hello mode byte: resume a parked session (token + received count follow).
const HELLO_RESUME: u8 = 2;
/// Byte length of the v2 server reply: magic, version, status, token,
/// received count.
const REPLY_LEN: usize = 4 + 1 + 1 + 8 + 8;

/// Knobs of a TCP link. Liveness settings mirror
/// [`ChannelConfig`](pando_netsim::channel::ChannelConfig): heartbeats are
/// expected every `heartbeat_interval` and the peer is declared crashed
/// after `failure_timeout` of silence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpConfig {
    /// Interval between keep-alive heartbeats while a link is idle.
    pub heartbeat_interval: Duration,
    /// Silence after which the peer is suspected crashed; must exceed
    /// `heartbeat_interval`.
    pub failure_timeout: Duration,
    /// Disable Nagle's algorithm (`TCP_NODELAY`); latency beats batching for
    /// the small control frames of this protocol.
    pub nodelay: bool,
    /// Number of shared epoll poller threads multiplexing every TCP
    /// connection in the process. The pool is process-global and sized
    /// once, by the first connection created; later configs cannot resize
    /// it.
    pub poller_threads: usize,
    /// Byte bound on the per-connection outbound queue. A send that would
    /// push the queue past this bound fails with [`SendError::WouldBlock`]
    /// and the waker fires once the queue drains below the bound again; a
    /// single frame larger than the whole bound is admitted alone (never a
    /// permanent reject). This is what keeps a slow or stalled reader from
    /// growing master-side memory without bound.
    pub write_buffer_max: usize,
    /// Enable kernel `SO_KEEPALIVE` probing, paced from
    /// `heartbeat_interval` (rounded up to the kernel's 1s floor). See the
    /// module docs for how keepalive, heartbeats and socket events split
    /// the failure-detection work. Linux only; ignored elsewhere.
    pub keepalive: bool,
    /// How long a *session* volunteer (hello mode `NEW`/`RESUME`) may stay
    /// disconnected before the master reclassifies the transient disconnect
    /// as a crash and fires the re-lend path. Plain connections ignore this:
    /// for them a dropped socket is a crash immediately, as before.
    pub reconnect_grace: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            heartbeat_interval: Duration::from_secs(2),
            failure_timeout: Duration::from_secs(10),
            nodelay: true,
            poller_threads: 2,
            write_buffer_max: 1024 * 1024,
            keepalive: true,
            reconnect_grace: Duration::from_secs(30),
        }
    }
}

impl TcpConfig {
    /// Tightened liveness windows for tests and localhost demos, where a
    /// crash should be detected in well under a second.
    pub fn local_test() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(50),
            failure_timeout: Duration::from_millis(400),
            reconnect_grace: Duration::from_secs(2),
            ..Self::default()
        }
    }
}

/// Whether connections run on the pump-thread fallback: only on targets
/// without the epoll poller.
const fn use_pump_backend() -> bool {
    !cfg!(target_os = "linux")
}

/// Consumer-facing link state shared by the poller/pump threads and the
/// public API.
pub(crate) struct LinkState {
    /// Decoded messages not yet handed to the consumer, FIFO.
    inbox: VecDeque<Message>,
    /// Peer sent the close marker: drain the inbox, then report `Closed`.
    peer_closed: bool,
    /// The link died without a close marker (I/O error, EOF, bad frame,
    /// heartbeat timeout): report `PeerFailed` after draining.
    failed: Option<TransportError>,
    /// We closed our sending direction.
    locally_closed: bool,
    /// We abandoned the connection abruptly.
    crashed: bool,
    /// Last instant any frame arrived from the peer; feeds the detector.
    last_heard: Instant,
    /// Readiness callback, one slot.
    waker: Option<Waker>,
}

/// Inbound reassembly state, touched only by the thread currently reading
/// the socket (one poller thread, or the pump reader).
pub(crate) struct ReadState {
    /// Bytes received but not yet parsed into complete frames.
    buf: BytesMut,
    /// The read direction hit EOF; never read again.
    eof: bool,
}

/// Outbound queue and partial-write cursor, drained by the poller on
/// writable events (or by the pump writer thread).
pub(crate) struct WriteState {
    /// Fully-encoded frames awaiting the socket, FIFO. The close marker is
    /// queued as a regular frame so ordering falls out naturally.
    queue: VecDeque<Bytes>,
    /// Bytes of `queue[0]` already written (partial-write resumption;
    /// poller backend only — the pump writer blocks in `write_all`).
    offset: usize,
    /// Unwritten bytes across the whole queue; the admission bound.
    queued_bytes: usize,
    /// The close marker has been queued: no further frames are accepted,
    /// and once the queue drains the write half is shut down.
    closing: bool,
    /// The write half has been flushed and shut down after a clean close.
    shutdown_done: bool,
    /// `crash()` dropped the queue: stop writing, never shut down cleanly.
    aborted: bool,
    /// A send bounced with `WouldBlock`; fire the waker once the queue
    /// drains below the bound.
    blocked: bool,
    /// Interest mask currently registered with epoll (poller backend).
    /// Mutated only under this lock so interest updates cannot race.
    armed_interest: u32,
    /// Frames fully written to the socket.
    frames_written: u64,
    /// `write`/`writev` syscalls issued (vectored batching makes
    /// `frames_written / write_calls` exceed 1 under load).
    write_calls: u64,
    /// Payload bytes written to the socket.
    bytes_written: u64,
}

/// Everything one connection's threads share. Lock order within one link:
/// `read` → `write` → `state` → `registration`; never take an earlier lock
/// while holding a later one.
pub(crate) struct Shared {
    /// The socket itself; reads and writes go through `&TcpStream`.
    stream: TcpStream,
    state: Mutex<LinkState>,
    /// Signalled on every inbox/terminal-state change; backs blocking recv.
    recv_cv: Condvar,
    write: Mutex<WriteState>,
    /// Pump backend only: wakes the writer thread on enqueue.
    write_cv: Condvar,
    read: Mutex<ReadState>,
    /// EOF seen or link dead: drop read interest, never read again.
    read_closed: AtomicBool,
    /// Link failed or crashed: drop write interest, never write again.
    dead: AtomicBool,
    /// Poller-backend registration (epoll shard + token); `None` on the
    /// pump backend or after teardown.
    #[cfg(target_os = "linux")]
    registration: Mutex<Option<poller::Registration>>,
    /// Live [`TcpTransport`] handles over this link; the clean close on
    /// drop fires only when the last one goes.
    handles: AtomicUsize,
    detector: FailureDetector,
    config: TcpConfig,
}

impl Shared {
    /// Wakes blocking receivers and the registered reactor waker. Must be
    /// called after every state change that could make the link pollable.
    fn notify(&self, state: &LinkState) {
        self.recv_cv.notify_all();
        if let Some(waker) = &state.waker {
            waker();
        }
    }

    fn fail(&self, error: TransportError) {
        self.read_closed.store(true, Ordering::SeqCst);
        self.dead.store(true, Ordering::SeqCst);
        let mut state = self.state.lock();
        if state.failed.is_none() && !state.peer_closed {
            state.failed = Some(error);
        }
        self.notify(&state);
    }

    /// Drains every complete frame in `read.buf` into the inbox. Returns
    /// `false` when the link failed on a framing violation (the caller
    /// tears the socket down).
    fn drain_frames(&self, read: &mut ReadState) -> bool {
        loop {
            if read.buf.len() < FRAME_HEADER_LEN {
                return true;
            }
            let tag = read.buf[0];
            let len =
                u32::from_be_bytes([read.buf[1], read.buf[2], read.buf[3], read.buf[4]]) as usize;
            if len > MAX_FRAME_LEN {
                self.fail(TransportError::new(
                    TransportErrorKind::Protocol,
                    format!("incoming frame of {len} bytes exceeds the {MAX_FRAME_LEN} limit"),
                ));
                return false;
            }
            if read.buf.len() < FRAME_HEADER_LEN + len {
                return true;
            }
            let frame = read.buf.split_to(FRAME_HEADER_LEN + len);
            let mut state = self.state.lock();
            state.last_heard = Instant::now();
            if tag == TAG_CLOSE {
                state.peer_closed = true;
                self.notify(&state);
                // The peer will not send again; keep reading so the socket
                // drains to EOF.
                continue;
            }
            match Message::decode(&frame) {
                Ok(message) => {
                    state.inbox.push_back(message);
                    self.notify(&state);
                }
                Err(err) => {
                    drop(state);
                    self.fail(TransportError::new(
                        TransportErrorKind::Protocol,
                        format!("undecodable frame: {err}"),
                    ));
                    return false;
                }
            }
        }
    }

    /// Classifies EOF: without the close marker — or worse, mid-frame — it
    /// is a crash, not a clean shutdown.
    fn handle_eof(&self, read: &ReadState) {
        self.read_closed.store(true, Ordering::SeqCst);
        let mid_frame = !read.buf.is_empty();
        let mut state = self.state.lock();
        if !state.peer_closed && state.failed.is_none() {
            self.dead.store(true, Ordering::SeqCst);
            state.failed = Some(TransportError::new(
                TransportErrorKind::PeerFailed,
                if mid_frame {
                    "connection dropped mid-frame"
                } else {
                    "connection dropped without close marker"
                },
            ));
        }
        self.notify(&state);
    }

    /// Clears the would-block flag if the queue drained below the bound.
    /// Returns whether the caller must fire the waker (after releasing the
    /// write lock).
    fn maybe_unblock(&self, write: &mut WriteState) -> bool {
        if write.blocked && write.queued_bytes < self.config.write_buffer_max {
            write.blocked = false;
            true
        } else {
            false
        }
    }

    /// Fires receivers + waker after a `WouldBlock`ed sender got room again.
    fn notify_unblocked(&self) {
        let state = self.state.lock();
        self.notify(&state);
    }
}

/// One live TCP connection speaking the Pando frame protocol.
///
/// Created by [`TcpTransport::connect`] on the volunteer side or handed out
/// by a [`TcpAcceptor`] on the master side. Dropping the transport closes it
/// cleanly unless [`crash`](Transport::crash) was called first.
///
/// Clones share the underlying connection; a clone is a cheap handle for
/// observing [`stats`](TcpTransport::stats) after the original moved into a
/// worker or the reactor. The drop-close fires only when the last handle
/// goes away.
pub struct TcpTransport {
    shared: Arc<Shared>,
    /// Peer name from the handshake (volunteer side: our own name).
    peer: String,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("peer", &self.peer)
            .field("local", &self.shared.stream.local_addr().ok())
            .finish()
    }
}

/// A snapshot of one link's write-path counters, for the transport stats
/// line and the backpressure tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpLinkStats {
    /// Frames fully written to the socket.
    pub frames_written: u64,
    /// `write`/`writev` syscalls issued.
    pub write_calls: u64,
    /// Payload bytes written to the socket.
    pub bytes_written: u64,
    /// Unwritten bytes currently queued (bounded by
    /// [`TcpConfig::write_buffer_max`]).
    pub queued_bytes: usize,
}

impl TcpLinkStats {
    /// Average frames drained per `write`/`writev` syscall; above 1 means
    /// the vectored write path is batching under load.
    pub fn frames_per_write(&self) -> f64 {
        if self.write_calls == 0 {
            0.0
        } else {
            self.frames_written as f64 / self.write_calls as f64
        }
    }
}

impl TcpTransport {
    /// Connects to a master at `addr`, introduces this volunteer as `name`
    /// and returns the live transport.
    ///
    /// # Errors
    ///
    /// [`TransportErrorKind::Io`] if the connection cannot be established,
    /// [`TransportErrorKind::Protocol`] if the master answers with the wrong
    /// magic or an incompatible version.
    pub fn connect(
        addr: impl ToSocketAddrs,
        name: &str,
        config: TcpConfig,
    ) -> Result<Self, TransportError> {
        let outcome = dial(addr, name, &config, HelloMode::Plain)?;
        Ok(Self::from_stream(outcome.stream, name.to_string(), config))
    }

    /// Wires the shared state and hands the socket to the poller, or spawns
    /// the pump thread pair on targets without epoll.
    pub(crate) fn from_stream(stream: TcpStream, peer: String, config: TcpConfig) -> Self {
        #[cfg(target_os = "linux")]
        if config.keepalive {
            // Best effort: a kernel that rejects the option still leaves
            // the two application-level detection layers above it.
            let _ = sys::set_keepalive(stream.as_raw_fd(), config.heartbeat_interval);
        }
        let detector = FailureDetector::new(config.heartbeat_interval, config.failure_timeout);
        let shared = Arc::new(Shared {
            stream,
            state: Mutex::new(LinkState {
                inbox: VecDeque::new(),
                peer_closed: false,
                failed: None,
                locally_closed: false,
                crashed: false,
                last_heard: Instant::now(),
                waker: None,
            }),
            recv_cv: Condvar::new(),
            write: Mutex::new(WriteState {
                queue: VecDeque::new(),
                offset: 0,
                queued_bytes: 0,
                closing: false,
                shutdown_done: false,
                aborted: false,
                blocked: false,
                armed_interest: 0,
                frames_written: 0,
                write_calls: 0,
                bytes_written: 0,
            }),
            write_cv: Condvar::new(),
            read: Mutex::new(ReadState { buf: BytesMut::with_capacity(16 * 1024), eof: false }),
            read_closed: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            #[cfg(target_os = "linux")]
            registration: Mutex::new(None),
            handles: AtomicUsize::new(1),
            detector,
            config,
        });

        if use_pump_backend() {
            Self::spawn_pumps(&shared, &peer);
        } else {
            #[cfg(target_os = "linux")]
            poller::register(&shared);
        }
        Self { shared, peer }
    }

    /// Starts the fallback reader/writer pump threads (one pair per link).
    fn spawn_pumps(shared: &Arc<Shared>, peer: &str) {
        // The pumps block in `read`/`write_all`; an accepted socket comes
        // out of the non-blocking handshake.
        shared.stream.set_nonblocking(false).expect("set TCP socket blocking");
        let reader_shared = shared.clone();
        thread::Builder::new()
            .name(format!("tcp-read-{peer}"))
            .spawn(move || run_reader(reader_shared))
            .expect("spawn tcp reader thread");

        let writer_shared = shared.clone();
        thread::Builder::new()
            .name(format!("tcp-write-{peer}"))
            .spawn(move || run_writer(writer_shared))
            .expect("spawn tcp writer thread");
    }

    /// The peer's handshake name (on the master side) or this volunteer's
    /// own name (on the connecting side).
    pub fn peer_name(&self) -> &str {
        &self.peer
    }

    /// The socket address of the remote end.
    pub fn peer_addr(&self) -> Option<SocketAddr> {
        self.shared.stream.peer_addr().ok()
    }

    /// Snapshot of the link's write-path counters.
    pub fn stats(&self) -> TcpLinkStats {
        let write = self.shared.write.lock();
        TcpLinkStats {
            frames_written: write.frames_written,
            write_calls: write.write_calls,
            bytes_written: write.bytes_written,
            queued_bytes: write.queued_bytes,
        }
    }

    /// Whether `SO_KEEPALIVE` is enabled on the socket (`None` where the
    /// option cannot be read, e.g. non-Linux builds).
    pub fn keepalive_enabled(&self) -> Option<bool> {
        #[cfg(target_os = "linux")]
        {
            sys::keepalive_enabled(self.shared.stream.as_raw_fd()).ok()
        }
        #[cfg(not(target_os = "linux"))]
        {
            None
        }
    }

    /// Core non-blocking poll shared by `try_recv`/`recv_timeout`.
    fn poll_inbox(&self, state: &mut LinkState) -> Result<Message, RecvError> {
        if let Some(message) = state.inbox.pop_front() {
            return Ok(message);
        }
        if state.peer_closed {
            return Err(RecvError::Closed);
        }
        if state.crashed {
            return Err(RecvError::Closed);
        }
        if state.failed.is_some() {
            return Err(RecvError::PeerFailed);
        }
        if self.shared.detector.suspects_at(state.last_heard, Instant::now()) {
            state.failed = Some(TransportError::new(
                TransportErrorKind::PeerFailed,
                "peer silent past the failure timeout",
            ));
            return Err(RecvError::PeerFailed);
        }
        Err(RecvError::Empty)
    }

    /// Admits `frame` into the bounded outbound queue and nudges whichever
    /// backend drains it.
    fn enqueue_frame(&self, frame: Bytes) -> Result<(), SendError> {
        let shared = &self.shared;
        let mut write = shared.write.lock();
        if write.closing || write.aborted {
            return Err(SendError::Closed);
        }
        let size = frame.len();
        if write.queued_bytes > 0 && write.queued_bytes + size > shared.config.write_buffer_max {
            // Bound overflow: admit nothing, remember to wake the sender
            // once the drain dips below the bound. An oversized frame on an
            // empty queue is admitted alone instead of livelocking.
            write.blocked = true;
            return Err(SendError::WouldBlock);
        }
        write.queue.push_back(frame);
        write.queued_bytes += size;
        self.kick_writer(&mut write);
        Ok(())
    }

    /// Wakes the drain path after the queue changed: arms `EPOLLOUT` on the
    /// poller backend, signals the writer thread on the pump backend.
    fn kick_writer(&self, write: &mut WriteState) {
        #[cfg(target_os = "linux")]
        {
            // Write-on-enqueue fast path: the socket is almost always
            // writable, so drain inline on the sender's thread instead of
            // paying an epoll wakeup of latency per frame. Only a partial
            // write (kernel buffer full) leaves residue, and
            // `update_interest` then arms `EPOLLOUT` so the poller resumes
            // it. A link already deregistered (peer gone, queue was idle)
            // takes the same path, best effort — that only ever carries
            // the close marker.
            poller::drain_write_locked(&self.shared, write);
            poller::update_interest(&self.shared, write);
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = write;
            self.shared.write_cv.notify_one();
        }
    }

    fn send_frame(&self, message: &Message) -> Result<(), SendError> {
        {
            let state = self.shared.state.lock();
            if state.locally_closed || state.crashed {
                return Err(SendError::Closed);
            }
            if state.failed.is_some() {
                return Err(SendError::PeerFailed);
            }
            if state.peer_closed {
                return Err(SendError::Closed);
            }
        }
        let frame = match message.encode() {
            Ok(frame) => frame,
            Err(err) => {
                // An unencodable (oversized) frame poisons the link: the
                // peer could never receive it, so pretending it was sent
                // would silently drop records.
                self.shared.fail(TransportError::new(TransportErrorKind::Protocol, err.message()));
                return Err(SendError::PeerFailed);
            }
        };
        self.enqueue_frame(frame)
    }
}

impl Transport for TcpTransport {
    fn try_recv(&self) -> Result<Message, RecvError> {
        let mut state = self.shared.state.lock();
        self.poll_inbox(&mut state)
    }

    fn recv(&self) -> Result<Message, RecvError> {
        loop {
            match self.recv_timeout(self.shared.config.failure_timeout) {
                Err(RecvError::Timeout) => continue,
                other => return other,
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Message, RecvError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock();
        loop {
            match self.poll_inbox(&mut state) {
                Err(RecvError::Empty) => {}
                other => return other,
            }
            // Wake early enough to notice a heartbeat timeout even if the
            // caller asked for a longer wait.
            let suspect_at = state.last_heard + self.shared.config.failure_timeout;
            let wait_until = deadline.min(suspect_at);
            if Instant::now() >= wait_until {
                if Instant::now() >= deadline {
                    return Err(RecvError::Timeout);
                }
                continue; // suspicion matured; re-poll classifies it
            }
            self.shared.recv_cv.wait_until(&mut state, wait_until);
        }
    }

    fn send(&self, message: Message) -> Result<(), SendError> {
        self.send_frame(&message)
    }

    fn send_records_with_size(
        &self,
        message: Message,
        _size: usize,
        _records: u64,
    ) -> Result<(), SendError> {
        // Real sockets carry the actual bytes; the simulated bandwidth
        // accounting parameters are meaningless here.
        self.send_frame(&message)
    }

    fn set_waker(&self, waker: Waker) {
        let mut state = self.shared.state.lock();
        state.waker = Some(waker);
    }

    fn clear_waker(&self) {
        let mut state = self.shared.state.lock();
        state.waker = None;
    }

    fn next_ready_at(&self) -> Option<Instant> {
        let state = self.shared.state.lock();
        if state.peer_closed || state.crashed || state.failed.is_some() {
            return None;
        }
        if !state.inbox.is_empty() {
            return Some(Instant::now());
        }
        // The only future event a quiet socket schedules is crash suspicion
        // maturing; the reactor arms a timer for it so heartbeat-timeout
        // detection works without a dedicated thread.
        Some(state.last_heard + self.shared.config.failure_timeout)
    }

    fn close(&self) {
        {
            let mut state = self.shared.state.lock();
            if state.locally_closed || state.crashed {
                return;
            }
            state.locally_closed = true;
        }
        let mut write = self.shared.write.lock();
        if write.closing || write.aborted {
            return;
        }
        write.closing = true;
        let marker = encode_frame(TAG_CLOSE, b"").expect("empty close frame encodes");
        write.queued_bytes += marker.len();
        write.queue.push_back(marker);
        self.kick_writer(&mut write);
    }

    fn crash(&self) {
        {
            let mut state = self.shared.state.lock();
            if state.crashed {
                return;
            }
            state.crashed = true;
            self.shared.read_closed.store(true, Ordering::SeqCst);
            self.shared.dead.store(true, Ordering::SeqCst);
            self.shared.notify(&state);
        }
        {
            let mut write = self.shared.write.lock();
            write.aborted = true;
            write.queue.clear();
            write.queued_bytes = 0;
            write.offset = 0;
            self.shared.write_cv.notify_one();
        }
        #[cfg(target_os = "linux")]
        poller::deregister(&self.shared);
        // Abrupt: no close marker, both directions torn down. The peer sees
        // EOF (or a reset) without the marker and classifies it as a crash.
        let _ = self.shared.stream.shutdown(Shutdown::Both);
    }

    fn is_peer_alive(&self) -> bool {
        let state = self.shared.state.lock();
        state.failed.is_none()
            && !state.peer_closed
            && !self.shared.detector.suspects_at(state.last_heard, Instant::now())
    }

    fn heartbeat_interval(&self) -> Duration {
        self.shared.config.heartbeat_interval
    }
}

impl Clone for TcpTransport {
    fn clone(&self) -> Self {
        self.shared.handles.fetch_add(1, Ordering::SeqCst);
        Self { shared: self.shared.clone(), peer: self.peer.clone() }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        if self.shared.handles.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.close();
        }
    }
}

/// Fallback reader pump: socket bytes → frames → decoded messages → inbox +
/// waker. One blocking thread per connection.
fn run_reader(shared: Arc<Shared>) {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let mut read = shared.read.lock();
        match (&shared.stream).read(&mut chunk) {
            Ok(0) => {
                read.eof = true;
                shared.handle_eof(&read);
                return;
            }
            Ok(n) => {
                read.buf.extend_from_slice(&chunk[..n]);
                if !shared.drain_frames(&mut read) {
                    let _ = shared.stream.shutdown(Shutdown::Both);
                    return;
                }
            }
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => {
                shared.fail(err.into());
                return;
            }
        }
    }
}

/// Fallback writer pump: outbound queue → socket. Exits after flushing the
/// close marker or on the first I/O error (reported as a link failure).
fn run_writer(shared: Arc<Shared>) {
    loop {
        let frame = {
            let mut write = shared.write.lock();
            loop {
                if write.aborted {
                    return; // crash() cleared the queue
                }
                if let Some(frame) = write.queue.pop_front() {
                    break Some(frame);
                }
                if write.closing {
                    break None; // marker already written; finish up
                }
                shared.write_cv.wait(&mut write);
            }
        };
        match frame {
            Some(frame) => {
                if let Err(err) = (&shared.stream).write_all(&frame) {
                    shared.fail(err.into());
                    return;
                }
                let unblock = {
                    let mut write = shared.write.lock();
                    write.queued_bytes = write.queued_bytes.saturating_sub(frame.len());
                    write.frames_written += 1;
                    write.write_calls += 1;
                    write.bytes_written += frame.len() as u64;
                    shared.maybe_unblock(&mut write)
                };
                if unblock {
                    shared.notify_unblocked();
                }
            }
            None => {
                // Queue drained after close(): the marker is on the wire.
                if (&shared.stream).flush().is_ok() {
                    let _ = shared.stream.shutdown(Shutdown::Write);
                }
                shared.write.lock().shutdown_done = true;
                return;
            }
        }
    }
}

/// Counts this process's live transport threads (names starting `tcp-`:
/// pollers, the acceptor, and the pump threads of the non-epoll fallback).
/// `None` where `/proc` is unavailable. This is what the CI fleet job
/// asserts stays O(`poller_threads`) instead of O(connections).
pub fn transport_thread_census() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut count = 0;
    for task in tasks.flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.trim_end().starts_with("tcp-") {
            count += 1;
        }
    }
    Some(count)
}

/// What a connecting client asks for in its hello.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HelloMode {
    /// Sessionless connection: no token, no redelivery (the v1 behaviour).
    Plain,
    /// Issue a fresh session token.
    New,
    /// Resume a parked session: present the token and how many data frames
    /// this side has received on the session so far.
    Resume {
        /// The master-issued session token from the original hello.
        token: u64,
        /// Data frames this client has received on the session.
        recvd: u64,
    },
}

/// A completed client dial: the handshaken socket plus the master's reply.
pub(crate) struct DialOutcome {
    pub(crate) stream: TcpStream,
    /// The master resumed the presented session (status byte `1`).
    pub(crate) resumed: bool,
    /// The session token in force from here on (zero for plain mode).
    pub(crate) token: u64,
    /// Data frames the master has received on the session.
    pub(crate) peer_recvd: u64,
}

/// Client side of the v2 handshake: connects, writes the hello for `mode`
/// and parses the 22-byte reply. Shared by [`TcpTransport::connect`] (plain
/// mode) and the reconnecting session transport (new/resume modes).
pub(crate) fn dial(
    addr: impl ToSocketAddrs,
    name: &str,
    config: &TcpConfig,
    mode: HelloMode,
) -> Result<DialOutcome, TransportError> {
    let hello = encode_client_hello(mode, name)?;
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(config.nodelay)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    stream.set_write_timeout(Some(HANDSHAKE_TIMEOUT))?;

    let mut stream_ref = &stream;
    stream_ref.write_all(&hello)?;

    let mut reply = [0u8; REPLY_LEN];
    stream_ref.read_exact(&mut reply)?;
    if reply[..4] != MAGIC {
        return Err(TransportError::new(
            TransportErrorKind::Protocol,
            "master answered with wrong magic (not a pando master?)",
        ));
    }
    if reply[4] != TCP_PROTOCOL_VERSION {
        return Err(TransportError::new(
            TransportErrorKind::Protocol,
            format!(
                "protocol version mismatch: master speaks v{}, this build speaks v{}",
                reply[4], TCP_PROTOCOL_VERSION
            ),
        ));
    }
    let resumed = match reply[5] {
        0 => false,
        1 => true,
        other => {
            return Err(TransportError::new(
                TransportErrorKind::Protocol,
                format!("unknown handshake status byte {other}"),
            ))
        }
    };
    let token = u64::from_be_bytes(reply[6..14].try_into().expect("8-byte slice"));
    let peer_recvd = u64::from_be_bytes(reply[14..22].try_into().expect("8-byte slice"));

    stream.set_read_timeout(None)?;
    stream.set_write_timeout(None)?;
    Ok(DialOutcome { stream, resumed, token, peer_recvd })
}

/// The client hello for `mode`, as [`dial`] sends it.
fn encode_client_hello(mode: HelloMode, name: &str) -> Result<Vec<u8>, TransportError> {
    let name_bytes = name.as_bytes();
    if name_bytes.is_empty() || name_bytes.len() > MAX_NAME_LEN {
        return Err(protocol_error(format!("volunteer name must be 1..={MAX_NAME_LEN} bytes")));
    }
    let mut hello = Vec::with_capacity(MAX_HELLO_LEN);
    hello.extend_from_slice(&MAGIC);
    hello.push(TCP_PROTOCOL_VERSION);
    match mode {
        HelloMode::Plain => hello.push(HELLO_PLAIN),
        HelloMode::New => hello.push(HELLO_NEW),
        HelloMode::Resume { token, recvd } => {
            hello.push(HELLO_RESUME);
            hello.extend_from_slice(&token.to_be_bytes());
            hello.extend_from_slice(&recvd.to_be_bytes());
        }
    }
    hello.extend_from_slice(&(name_bytes.len() as u16).to_be_bytes());
    hello.extend_from_slice(name_bytes);
    Ok(hello)
}

/// The parsed client half of the v2 handshake.
#[derive(Debug, PartialEq, Eq)]
struct ClientHello {
    mode: HelloMode,
    name: String,
}

/// How far [`parse_client_hello`] got on the bytes received so far.
#[derive(Debug, PartialEq, Eq)]
enum HelloParse {
    /// The hello is at least this many bytes long: more than were given,
    /// never more than [`MAX_HELLO_LEN`]. Read up to here and parse again.
    NeedMore(usize),
    /// The whole hello has arrived.
    Complete(ClientHello),
}

fn protocol_error(message: impl Into<String>) -> TransportError {
    TransportError::new(TransportErrorKind::Protocol, message)
}

/// Parses the client hello from the bytes received so far, without
/// blocking: a byte that no legal hello can hold is rejected as soon as it
/// arrives, and a prefix that is still legal asks for more.
///
/// # Errors
///
/// [`TransportErrorKind::Protocol`] for a wrong magic, an unknown version or
/// mode, a name length outside `1..=MAX_NAME_LEN`, or a name that is not
/// UTF-8.
fn parse_client_hello(buf: &[u8]) -> Result<HelloParse, TransportError> {
    let magic_seen = buf.len().min(MAGIC.len());
    if buf[..magic_seen] != MAGIC[..magic_seen] {
        return Err(protocol_error("client sent wrong magic"));
    }
    if let Some(&version) = buf.get(4) {
        if version != TCP_PROTOCOL_VERSION {
            return Err(protocol_error(format!(
                "protocol version mismatch: client speaks v{version}, this build speaks \
                 v{TCP_PROTOCOL_VERSION}"
            )));
        }
    }
    let Some(&mode) = buf.get(5) else {
        return Ok(HelloParse::NeedMore(6));
    };
    // Offset of the name length: a resume carries its token and count first.
    let len_at = match mode {
        HELLO_PLAIN | HELLO_NEW => 6,
        HELLO_RESUME => 6 + 16,
        other => return Err(protocol_error(format!("unknown hello mode byte {other}"))),
    };
    let Some(len) = buf.get(len_at..len_at + 2) else {
        return Ok(HelloParse::NeedMore(len_at + 2));
    };
    let name_len = usize::from(u16::from_be_bytes([len[0], len[1]]));
    if name_len == 0 || name_len > MAX_NAME_LEN {
        return Err(protocol_error(format!(
            "volunteer name length {name_len} outside 1..={MAX_NAME_LEN}"
        )));
    }
    let name_at = len_at + 2;
    let Some(name) = buf.get(name_at..name_at + name_len) else {
        return Ok(HelloParse::NeedMore(name_at + name_len));
    };
    let name =
        std::str::from_utf8(name).map_err(|_| protocol_error("volunteer name is not UTF-8"))?;
    let mode = match mode {
        HELLO_PLAIN => HelloMode::Plain,
        HELLO_NEW => HelloMode::New,
        _ => HelloMode::Resume {
            token: u64::from_be_bytes(buf[6..14].try_into().expect("8-byte slice")),
            recvd: u64::from_be_bytes(buf[14..22].try_into().expect("8-byte slice")),
        },
    };
    Ok(HelloParse::Complete(ClientHello { mode, name: name.to_string() }))
}

/// The hello bytes of one pending handshake, in a buffer sized for the
/// longest legal hello so no client can make it grow.
struct HelloBuf {
    bytes: [u8; MAX_HELLO_LEN],
    len: usize,
}

impl HelloBuf {
    fn new() -> Self {
        Self { bytes: [0; MAX_HELLO_LEN], len: 0 }
    }

    /// Reads what `source` has ready of the hello, never past the hello's
    /// end, so the first frame after it stays in the socket for the
    /// transport. `Ok(None)`: the hello is incomplete and `source` has
    /// nothing more right now.
    fn fill(&mut self, mut source: impl Read) -> Result<Option<ClientHello>, TransportError> {
        loop {
            let need = match parse_client_hello(&self.bytes[..self.len])? {
                HelloParse::Complete(hello) => return Ok(Some(hello)),
                HelloParse::NeedMore(need) => need,
            };
            match source.read(&mut self.bytes[self.len..need]) {
                Ok(0) => {
                    return Err(TransportError::new(
                        TransportErrorKind::PeerFailed,
                        "connection closed during the handshake",
                    ))
                }
                Ok(n) => self.len += n,
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err.into()),
            }
        }
    }
}

/// Writes the 22-byte server reply. The socket is non-blocking, but a fresh
/// connection's send buffer always has room for it; a short write fails the
/// handshake.
fn write_server_reply(
    stream: &TcpStream,
    resumed: bool,
    token: u64,
    recvd: u64,
) -> Result<(), TransportError> {
    let mut reply = [0u8; REPLY_LEN];
    reply[..4].copy_from_slice(&MAGIC);
    reply[4] = TCP_PROTOCOL_VERSION;
    reply[5] = u8::from(resumed);
    reply[6..14].copy_from_slice(&token.to_be_bytes());
    reply[14..22].copy_from_slice(&recvd.to_be_bytes());
    let mut stream_ref = stream;
    stream_ref.write_all(&reply)?;
    Ok(())
}

/// One handshaken inbound connection, classified by its hello mode.
pub enum SessionEvent {
    /// A sessionless (mode `PLAIN`) volunteer: the raw link, exactly as v1
    /// handed it out. A dropped socket is a crash.
    Plain {
        /// The volunteer's self-declared name.
        name: String,
        /// The live link.
        transport: TcpTransport,
    },
    /// A new resumable session was issued (mode `NEW`, or a resume whose
    /// token had expired). Register the transport as a fresh volunteer; it
    /// survives transient disconnects within
    /// [`TcpConfig::reconnect_grace`].
    Joined {
        /// The volunteer's self-declared name.
        name: String,
        /// The session-wrapped link.
        transport: Arc<SessionTransport>,
    },
    /// A parked session was resumed (mode `RESUME` with a live token): the
    /// existing [`SessionTransport`] swallowed the new socket and replayed
    /// unacked frames. There is nothing to register — the volunteer never
    /// left the master's books.
    Resumed {
        /// The volunteer's self-declared name.
        name: String,
    },
}

/// An accepted connection whose hello has not fully arrived.
struct Handshaking {
    stream: TcpStream,
    hello: HelloBuf,
    /// Past this instant the handshake is abandoned as timed out.
    deadline: Instant,
}

/// The mutable half of the acceptor's handshake engine.
struct Handshakes {
    /// Pending handshakes by id. Ids rise in accept order and every
    /// deadline is accept time plus [`HANDSHAKE_TIMEOUT`], so the first
    /// entry is both the oldest (evicted at the cap) and the next to expire.
    pending: BTreeMap<u64, Handshaking>,
    next_id: u64,
    /// Finished handshakes and errors not yet handed out, oldest first.
    outcomes: VecDeque<Result<SessionEvent, TransportError>>,
    /// A failed `accept` (out of descriptors, say) pauses the listener
    /// until this instant instead of spinning on it.
    accept_paused_until: Option<Instant>,
    /// Parked and live resumable sessions by token. Weak: a session the
    /// master dropped (driver finished, crash re-lend fired) cannot be
    /// resumed — the returning client is downgraded to a fresh join.
    sessions: HashMap<u64, Weak<SessionTransport>>,
    /// Session-table size after the last prune of dead entries. The next
    /// prune waits until the table has doubled, so a join costs amortised
    /// O(1) instead of a scan of every session.
    sessions_pruned_len: usize,
    next_token: u64,
}

impl Handshakes {
    /// The next instant the engine has timed work: the oldest handshake's
    /// deadline or the end of an accept pause.
    fn next_deadline(&self) -> Option<Instant> {
        let oldest = self.pending.first_key_value().map(|(_, pending)| pending.deadline);
        oldest.into_iter().chain(self.accept_paused_until).min()
    }
}

/// Epoll token of the listening socket.
#[cfg(target_os = "linux")]
const LISTENER_TOKEN: u64 = 0;
/// Epoll token of the wake pipe that [`TcpServerHandle::stop`] writes to.
#[cfg(target_os = "linux")]
const WAKE_TOKEN: u64 = 1;
/// First pending-handshake id; ids double as epoll tokens, so they start
/// past the two fixed ones.
const FIRST_HANDSHAKE_ID: u64 = 2;

/// Listening socket that accepts volunteer connections and performs the
/// handshake.
///
/// The handshake never blocks: each accepted socket is non-blocking and
/// waits, as a pending handshake, for its hello to arrive, so a client that
/// connects and stays silent holds one slot until the 5 s handshake timeout
/// and delays no one. At most 256 are held; beyond that the oldest is
/// evicted.
pub struct TcpAcceptor {
    listener: TcpListener,
    config: TcpConfig,
    /// Readiness of the listener, of every pending handshake and, under
    /// [`TcpAcceptor::serve`], of the wake pipe.
    #[cfg(target_os = "linux")]
    epoll: sys::Epoll,
    handshakes: Mutex<Handshakes>,
    /// Handshakes that failed: malformed, closed, timed out or evicted.
    rejected: Arc<AtomicUsize>,
}

impl TcpAcceptor {
    /// Binds a listener on `addr` (use port 0 for an OS-assigned port).
    ///
    /// # Errors
    ///
    /// [`TransportErrorKind::Io`] if the address cannot be bound.
    pub fn bind(addr: impl ToSocketAddrs, config: TcpConfig) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        #[cfg(target_os = "linux")]
        let epoll = {
            let epoll = sys::Epoll::new()?;
            epoll.add(listener.as_raw_fd(), sys::EPOLLIN, LISTENER_TOKEN)?;
            epoll
        };
        Ok(Self {
            listener,
            config,
            #[cfg(target_os = "linux")]
            epoll,
            handshakes: Mutex::new(Handshakes {
                pending: BTreeMap::new(),
                next_id: FIRST_HANDSHAKE_ID,
                outcomes: VecDeque::new(),
                accept_paused_until: None,
                sessions: HashMap::new(),
                sessions_pruned_len: 0,
                next_token: 1,
            }),
            rejected: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// The bound address, including the resolved port.
    ///
    /// # Panics
    ///
    /// Panics if the socket has no local address (never on a bound socket).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has a local address")
    }

    /// Accepts one pending *plain-mode* connection, if any, and runs the
    /// handshake. Returns `Ok(None)` when no handshake has finished yet. A
    /// session-mode client (hello mode `NEW`/`RESUME`) is rejected through
    /// this API — use [`TcpAcceptor::accept_session`] (or
    /// [`TcpAcceptor::serve`], which routes all three modes) when resumable
    /// volunteers are expected.
    ///
    /// # Errors
    ///
    /// Handshake failures ([`TransportErrorKind::Protocol`]) and accept
    /// errors ([`TransportErrorKind::Io`]); both leave the acceptor usable.
    pub fn accept(&self) -> Result<Option<(String, TcpTransport)>, TransportError> {
        match self.accept_session()? {
            None => Ok(None),
            Some(SessionEvent::Plain { name, transport }) => Ok(Some((name, transport))),
            Some(SessionEvent::Joined { name, .. }) | Some(SessionEvent::Resumed { name }) => {
                Err(TransportError::new(
                    TransportErrorKind::Protocol,
                    format!("session-mode client {name} on the plain accept API"),
                ))
            }
        }
    }

    /// Runs one non-blocking step of the handshake engine — accept every
    /// waiting connection, advance the pending handshakes, expire those
    /// past their deadline — and returns the oldest outcome: a plain link,
    /// a freshly-issued session, a resume absorbed by an existing parked
    /// [`SessionTransport`], or a failed handshake. Returns `Ok(None)` when
    /// no handshake has finished yet; a hello that is still arriving is
    /// kept for the next call.
    ///
    /// # Errors
    ///
    /// Handshake failures ([`TransportErrorKind::Protocol`] for a malformed
    /// hello, [`TransportErrorKind::PeerFailed`] for one that closed, timed
    /// out or was evicted) and accept errors ([`TransportErrorKind::Io`]);
    /// all leave the acceptor usable.
    pub fn accept_session(&self) -> Result<Option<SessionEvent>, TransportError> {
        let mut handshakes = self.handshakes.lock();
        self.next_outcome(&mut handshakes, false)
    }

    /// Hands out the oldest outcome, running one engine step first if none
    /// is queued. With `block` the step waits (on Linux) until a socket is
    /// ready, the next deadline passes or the wake pipe fires.
    fn next_outcome(
        &self,
        hs: &mut Handshakes,
        block: bool,
    ) -> Result<Option<SessionEvent>, TransportError> {
        if hs.outcomes.is_empty() {
            self.step(hs, block);
        }
        hs.outcomes.pop_front().transpose()
    }

    /// One step of the handshake engine: accepts every waiting connection,
    /// advances the pending handshakes that have bytes, and expires those
    /// past their deadline. Outcomes are queued in `hs.outcomes`.
    fn step(&self, hs: &mut Handshakes, block: bool) {
        let now = Instant::now();
        if hs.accept_paused_until.is_some_and(|until| until <= now) {
            hs.accept_paused_until = None;
            #[cfg(target_os = "linux")]
            if let Err(err) =
                self.epoll.modify(self.listener.as_raw_fd(), sys::EPOLLIN, LISTENER_TOKEN)
            {
                hs.outcomes.push_back(Err(err.into()));
            }
        }
        #[cfg(target_os = "linux")]
        {
            let timeout = if block {
                hs.next_deadline().map(|at| at.saturating_duration_since(now))
            } else {
                Some(Duration::ZERO)
            };
            let mut events = [sys::EpollEvent { events: 0, data: 0 }; 64];
            match self.epoll.wait(&mut events, timeout) {
                Ok(ready) => {
                    for event in &events[..ready] {
                        let token = event.data;
                        match token {
                            LISTENER_TOKEN => self.accept_waiting(hs),
                            // `stop` was asked; the serve loop checks its flag.
                            WAKE_TOKEN => {}
                            id => self.advance(hs, id),
                        }
                    }
                }
                Err(err) => hs.outcomes.push_back(Err(err.into())),
            }
        }
        #[cfg(not(target_os = "linux"))]
        {
            // No readiness facility: try the listener and every pending
            // handshake (at most `MAX_PENDING_HANDSHAKES`); the serve loop
            // bounds the wait between steps.
            let _ = block;
            if hs.accept_paused_until.is_none() {
                self.accept_waiting(hs);
            }
            let ids: Vec<u64> = hs.pending.keys().copied().collect();
            for id in ids {
                self.advance(hs, id);
            }
        }
        self.expire(hs, Instant::now());
    }

    /// Accepts connections until the listener has none waiting.
    fn accept_waiting(&self, hs: &mut Handshakes) {
        loop {
            match self.listener.accept() {
                Ok((stream, _addr)) => self.admit(hs, stream),
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => {
                    hs.accept_paused_until = Some(Instant::now() + ACCEPT_ERROR_BACKOFF);
                    #[cfg(target_os = "linux")]
                    if let Err(err) =
                        self.epoll.modify(self.listener.as_raw_fd(), 0, LISTENER_TOKEN)
                    {
                        hs.outcomes.push_back(Err(err.into()));
                    }
                    hs.outcomes.push_back(Err(err.into()));
                    return;
                }
            }
        }
    }

    /// Makes a freshly accepted socket a pending handshake, evicting the
    /// oldest one at the cap, and tries its hello at once: it often arrives
    /// with the connection.
    fn admit(&self, hs: &mut Handshakes, stream: TcpStream) {
        if let Err(err) =
            stream.set_nonblocking(true).and_then(|()| stream.set_nodelay(self.config.nodelay))
        {
            self.reject(hs, err.into());
            return;
        }
        if hs.pending.len() >= MAX_PENDING_HANDSHAKES {
            // Dropping the socket closes it, which also leaves the epoll set.
            hs.pending.pop_first();
            self.reject(
                hs,
                TransportError::new(
                    TransportErrorKind::PeerFailed,
                    format!("handshake evicted: {MAX_PENDING_HANDSHAKES} newer ones pending"),
                ),
            );
        }
        let id = hs.next_id;
        hs.next_id += 1;
        #[cfg(target_os = "linux")]
        if let Err(err) = self.epoll.add(stream.as_raw_fd(), sys::EPOLLIN | sys::EPOLLRDHUP, id) {
            self.reject(hs, err.into());
            return;
        }
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        hs.pending.insert(id, Handshaking { stream, hello: HelloBuf::new(), deadline });
        self.advance(hs, id);
    }

    /// Reads what has arrived of handshake `id`'s hello and, once it is
    /// complete, answers it.
    fn advance(&self, hs: &mut Handshakes, id: u64) {
        // A stale event for a handshake this step already finished or
        // evicted: ids are never reused, so there is nothing to do.
        let Some(pending) = hs.pending.get_mut(&id) else {
            return;
        };
        let outcome = match pending.hello.fill(&pending.stream) {
            Ok(None) => return,
            Ok(Some(hello)) => {
                let pending = hs.pending.remove(&id).expect("the entry was just read");
                self.finish(hs, pending.stream, hello)
            }
            Err(err) => {
                hs.pending.remove(&id);
                Err(err)
            }
        };
        match outcome {
            Ok(event) => hs.outcomes.push_back(Ok(event)),
            Err(err) => self.reject(hs, err),
        }
    }

    /// Rejects every pending handshake past its deadline.
    fn expire(&self, hs: &mut Handshakes, now: Instant) {
        while let Some(oldest) = hs.pending.first_entry() {
            if oldest.get().deadline > now {
                return;
            }
            oldest.remove();
            self.reject(
                hs,
                TransportError::new(
                    TransportErrorKind::PeerFailed,
                    format!("no complete hello within {HANDSHAKE_TIMEOUT:?}"),
                ),
            );
        }
    }

    fn reject(&self, hs: &mut Handshakes, err: TransportError) {
        // A statistic: publishes no other data.
        self.rejected.fetch_add(1, Ordering::Relaxed);
        hs.outcomes.push_back(Err(err));
    }

    /// Master side of the v2 handshake once the hello is in: takes the
    /// socket out of the acceptor's epoll set, answers the hello, and
    /// builds the matching transport. On a resume the reply is written
    /// *before* the socket joins the poller, so the replayed frames are the
    /// first bytes the client sees after the reply.
    fn finish(
        &self,
        hs: &mut Handshakes,
        stream: TcpStream,
        hello: ClientHello,
    ) -> Result<SessionEvent, TransportError> {
        #[cfg(target_os = "linux")]
        self.epoll.delete(stream.as_raw_fd())?;
        match hello.mode {
            HelloMode::Plain => {
                write_server_reply(&stream, false, 0, 0)?;
                let transport =
                    TcpTransport::from_stream(stream, hello.name.clone(), self.config.clone());
                Ok(SessionEvent::Plain { name: hello.name, transport })
            }
            HelloMode::New => self.start_session(hs, stream, hello.name),
            HelloMode::Resume { token, recvd } => {
                let existing = hs.sessions.get(&token).and_then(Weak::upgrade);
                match existing.filter(|s| s.resumable() && s.volunteer_name() == hello.name) {
                    Some(session) => {
                        write_server_reply(&stream, true, token, session.recvd())?;
                        let transport = TcpTransport::from_stream(
                            stream,
                            hello.name.clone(),
                            self.config.clone(),
                        );
                        session.reattach(transport, recvd);
                        Ok(SessionEvent::Resumed { name: hello.name })
                    }
                    // Unknown, expired or mismatched token: the volunteer
                    // rejoins as a new device instead of being turned away
                    // (its stale results will be dropped as late duplicates).
                    None => self.start_session(hs, stream, hello.name),
                }
            }
        }
    }

    /// Issues a fresh token, answers the hello and registers the new
    /// session in the table.
    fn start_session(
        &self,
        hs: &mut Handshakes,
        stream: TcpStream,
        name: String,
    ) -> Result<SessionEvent, TransportError> {
        let token = hs.next_token;
        hs.next_token += 1;
        write_server_reply(&stream, false, token, 0)?;
        let transport = TcpTransport::from_stream(stream, name.clone(), self.config.clone());
        let session = SessionTransport::new(token, name.clone(), transport, self.config.clone());
        if hs.sessions.len() >= 2 * hs.sessions_pruned_len {
            hs.sessions.retain(|_, weak| weak.strong_count() > 0);
            hs.sessions_pruned_len = hs.sessions.len();
        }
        hs.sessions.insert(token, Arc::downgrade(&session));
        Ok(SessionEvent::Joined { name, transport: session })
    }

    /// Spawns an accept loop that registers every handshaken volunteer with
    /// `pando` under its self-declared name — plain links as-is, session
    /// links behind their [`SessionTransport`], resumes absorbed silently.
    /// Failed handshakes are counted ([`TcpServerHandle::rejected`]) and
    /// skipped — one bad client must not take the fleet down.
    ///
    /// The loop sleeps in `epoll_wait` until a socket is ready, the oldest
    /// pending handshake's deadline passes, or [`TcpServerHandle::stop`]
    /// writes to its wake pipe; targets without epoll step the same engine
    /// with a bounded wait in between.
    ///
    /// # Panics
    ///
    /// Panics if the accept thread or (on Linux) its wake pipe cannot be
    /// created.
    pub fn serve(self, pando: &Pando) -> TcpServerHandle {
        let state = Arc::new(ServeState {
            progress: Mutex::new(ServeProgress { accepted: 0, stopping: false }),
            changed: Condvar::new(),
            resumed: AtomicUsize::new(0),
        });
        #[cfg(target_os = "linux")]
        let (wake, wake_rx) = {
            let (wake, wake_rx) = UnixStream::pair().expect("create the acceptor's wake pipe");
            wake.set_nonblocking(true).expect("make the wake pipe non-blocking");
            self.epoll
                .add(wake_rx.as_raw_fd(), sys::EPOLLIN, WAKE_TOKEN)
                .expect("register the wake pipe with epoll");
            (wake, wake_rx)
        };
        let rejected = self.rejected.clone();
        let loop_state = state.clone();
        let pando = pando.clone();
        let handle = thread::Builder::new()
            .name("tcp-accept".into())
            .spawn(move || {
                // The read end stays open, and readable once woken, for as
                // long as the loop runs.
                #[cfg(target_os = "linux")]
                let _wake_rx = wake_rx;
                self.serve_loop(&pando, &loop_state);
            })
            .expect("spawn tcp accept thread");
        TcpServerHandle {
            state,
            rejected,
            #[cfg(target_os = "linux")]
            wake,
            handle,
        }
    }

    fn serve_loop(&self, pando: &Pando, state: &ServeState) {
        let mut handshakes = self.handshakes.lock();
        while !state.progress.lock().stopping {
            match self.next_outcome(&mut handshakes, true) {
                Ok(Some(SessionEvent::Plain { name, transport })) => {
                    pando.add_volunteer_transport(name, Arc::new(transport));
                    state.joined();
                }
                Ok(Some(SessionEvent::Joined { name, transport })) => {
                    pando.add_volunteer_transport(name, transport);
                    state.joined();
                }
                Ok(Some(SessionEvent::Resumed { .. })) => {
                    state.resumed.fetch_add(1, Ordering::SeqCst);
                }
                Ok(None) => {
                    #[cfg(not(target_os = "linux"))]
                    state.idle_wait(handshakes.next_deadline());
                }
                // A failed handshake (already counted) or a transient
                // accept error; keep listening.
                Err(_) => {}
            }
        }
    }
}

/// Shared between a serve loop and its [`TcpServerHandle`].
struct ServeState {
    progress: Mutex<ServeProgress>,
    /// Signalled on every join and on `stop`.
    changed: Condvar,
    resumed: AtomicUsize,
}

struct ServeProgress {
    /// Volunteers registered with the master.
    accepted: usize,
    /// `stop` was asked.
    stopping: bool,
}

impl ServeState {
    fn joined(&self) {
        self.progress.lock().accepted += 1;
        self.changed.notify_all();
    }

    /// Targets without epoll: waits for `stop`, at most until the next
    /// handshake deadline and never longer than [`IDLE_WAIT`].
    #[cfg(not(target_os = "linux"))]
    fn idle_wait(&self, next_deadline: Option<Instant>) {
        let bound = Instant::now() + IDLE_WAIT;
        let until = next_deadline.map_or(bound, |at| at.min(bound));
        let mut progress = self.progress.lock();
        if !progress.stopping {
            self.changed.wait_until(&mut progress, until);
        }
    }
}

/// Handle to a running [`TcpAcceptor::serve`] loop.
pub struct TcpServerHandle {
    state: Arc<ServeState>,
    rejected: Arc<AtomicUsize>,
    /// Write end of the wake pipe the loop's `epoll_wait` watches.
    #[cfg(target_os = "linux")]
    wake: UnixStream,
    handle: thread::JoinHandle<()>,
}

impl TcpServerHandle {
    /// Asks the accept loop to stop; it wakes at once and exits after the
    /// outcome it is handling.
    pub fn stop(&self) {
        self.state.progress.lock().stopping = true;
        self.state.changed.notify_all();
        // A full pipe already holds a wake-up, so a failed write loses none.
        #[cfg(target_os = "linux")]
        let _ = (&self.wake).write(&[1]);
    }

    /// How many volunteers have handshaken so far. Live — callers can gate
    /// the start of a run on a minimum fleet size. Resumes of parked
    /// sessions are *not* counted here (the volunteer never left); see
    /// [`TcpServerHandle::resumed`].
    pub fn accepted(&self) -> usize {
        self.state.progress.lock().accepted
    }

    /// How many parked sessions have been resumed by returning volunteers.
    pub fn resumed(&self) -> usize {
        self.state.resumed.load(Ordering::SeqCst)
    }

    /// How many handshakes failed: a malformed hello, a connection that
    /// closed or errored mid-handshake, one with no complete hello within
    /// the handshake timeout, or one evicted because too many newer ones
    /// were pending.
    pub fn rejected(&self) -> usize {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Blocks until at least `count` volunteers have handshaken or `timeout`
    /// elapses; returns whether the quorum was reached.
    pub fn wait_for_volunteers(&self, count: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut progress = self.state.progress.lock();
        while progress.accepted < count {
            if self.state.changed.wait_until(&mut progress, deadline).timed_out() {
                return progress.accepted >= count;
            }
        }
        true
    }

    /// Stops the loop and returns how many volunteers were accepted.
    pub fn join(self) -> usize {
        self.stop();
        let _ = self.handle.join();
        self.state.progress.lock().accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A non-blocking socket stand-in: hands out `data` only as far as the
    /// bytes "arrived" so far, and `WouldBlock` past them.
    struct Trickle<'a> {
        data: &'a [u8],
        read: usize,
        arrived: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.arrived.min(self.data.len()) - self.read);
            if n == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            buf[..n].copy_from_slice(&self.data[self.read..self.read + n]);
            self.read += n;
            Ok(n)
        }
    }

    /// Feeds `data` to a [`HelloBuf`] in chunks of the given sizes,
    /// checking after every chunk that the buffer never overfills. Returns
    /// the first result that is not "need more", and how many bytes were
    /// read.
    fn feed(data: &[u8], chunks: &[usize]) -> (Result<Option<ClientHello>, TransportError>, usize) {
        let mut source = Trickle { data, read: 0, arrived: 0 };
        let mut hello = HelloBuf::new();
        let mut outcome = Ok(None);
        for &chunk in chunks.iter().chain(std::iter::once(&data.len())) {
            source.arrived += chunk;
            outcome = hello.fill(&mut source);
            assert!(hello.len <= MAX_HELLO_LEN, "hello buffer overfilled to {}", hello.len);
            assert_eq!(hello.len, source.read, "every byte read is held");
            if !matches!(outcome, Ok(None)) {
                break;
            }
        }
        (outcome, source.read)
    }

    /// A name of 1..=`MAX_NAME_LEN` bytes mixing 1- to 4-byte characters.
    fn name_from(picks: &[u8]) -> String {
        const CHARS: [char; 6] = ['a', 'Z', '7', 'é', '€', '𝄞'];
        let mut name = String::new();
        for &pick in picks {
            let c = CHARS[usize::from(pick) % CHARS.len()];
            if name.len() + c.len_utf8() > MAX_NAME_LEN {
                break;
            }
            name.push(c);
        }
        name
    }

    fn any_byte() -> impl Strategy<Value = u8> {
        (0u16..256).prop_map(|b| b as u8)
    }

    fn mode_from(code: u8, token: u64, recvd: u64) -> HelloMode {
        match code % 3 {
            0 => HelloMode::Plain,
            1 => HelloMode::New,
            _ => HelloMode::Resume { token, recvd },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A valid hello in any mode, split at arbitrary points, parses to
        /// the same hello as the whole buffer and is read to its last byte
        /// and no further; every proper prefix asks for more, within the
        /// longest legal hello.
        #[test]
        fn a_hello_split_anywhere_parses_like_the_whole_buffer(
            code in 0u8..3,
            token in 0u64..u64::MAX,
            recvd in 0u64..u64::MAX,
            picks in proptest::collection::vec(0u8..6, 1..257),
            chunks in proptest::collection::vec(0usize..40, 0..40),
            trailing in proptest::collection::vec(any_byte(), 0..32),
        ) {
            let mode = mode_from(code, token, recvd);
            let name = name_from(&picks);
            let hello = encode_client_hello(mode, &name).unwrap();
            let whole = parse_client_hello(&hello).unwrap();
            prop_assert_eq!(&whole, &HelloParse::Complete(ClientHello { mode, name }));
            for cut in 0..hello.len() {
                match parse_client_hello(&hello[..cut]).unwrap() {
                    HelloParse::NeedMore(need) => {
                        prop_assert!(cut < need && need <= hello.len(), "{cut} bytes need {need}");
                    }
                    HelloParse::Complete(_) => panic!("a {cut}-byte prefix parsed as complete"),
                }
            }
            // The first frame may follow the hello in the same segment.
            let mut wire = hello.clone();
            wire.extend_from_slice(&trailing);
            let (outcome, read) = feed(&wire, &chunks);
            let HelloParse::Complete(expected) = whole else { unreachable!() };
            prop_assert_eq!(outcome.unwrap(), Some(expected));
            prop_assert_eq!(read, hello.len());
        }

        /// Arbitrary bytes, some behind a valid magic and version, never
        /// panic the parser or overfill the buffer: they ask for more or
        /// fail with a typed protocol error.
        #[test]
        fn arbitrary_bytes_need_more_or_fail_as_protocol_errors(
            prefix in 0u8..3,
            body in proptest::collection::vec(any_byte(), 0..400),
            chunks in proptest::collection::vec(0usize..64, 0..16),
        ) {
            let mut wire = match prefix {
                0 => Vec::new(),
                1 => MAGIC.to_vec(),
                _ => [&MAGIC[..], &[TCP_PROTOCOL_VERSION]].concat(),
            };
            wire.extend_from_slice(&body);
            for cut in 0..=wire.len() {
                match parse_client_hello(&wire[..cut]) {
                    Ok(HelloParse::NeedMore(need)) => {
                        prop_assert!(cut < need && need <= MAX_HELLO_LEN, "{cut} bytes need {need}");
                    }
                    Ok(HelloParse::Complete(_)) => {}
                    Err(err) => prop_assert_eq!(err.kind(), TransportErrorKind::Protocol),
                }
            }
            match feed(&wire, &chunks).0 {
                Ok(_) => {}
                Err(err) => prop_assert_eq!(err.kind(), TransportErrorKind::Protocol),
            }
        }
    }

    #[test]
    fn malformed_hellos_fail_at_the_first_bad_byte() {
        let error = |bytes: &[u8]| parse_client_hello(bytes).unwrap_err().to_string();
        assert!(error(b"G").contains("magic"));
        assert!(error(b"PNDO\x09").contains("version"));
        assert!(error(b"PNDO\x02\x07").contains("mode"));
        assert!(error(b"PNDO\x02\x00\x00\x00").contains("name length"));
        assert!(error(b"PNDO\x02\x00\x01\x01").contains("name length"));
        assert!(error(b"PNDO\x02\x01\x00\x02\xc3\x28").contains("UTF-8"));
        assert_eq!(parse_client_hello(b"PNDO\x02\x02").unwrap(), HelloParse::NeedMore(24));
        assert_eq!(MAX_HELLO_LEN, 280);
    }

    #[test]
    fn a_closed_connection_mid_hello_is_a_peer_failure() {
        let mut hello = HelloBuf::new();
        let err = hello.fill(&b"PNDO\x02"[..]).unwrap_err();
        assert_eq!(err.kind(), TransportErrorKind::PeerFailed);
    }
}
