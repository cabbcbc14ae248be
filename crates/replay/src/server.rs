//! The paced localhost serving harness.
//!
//! One accept thread hands connections round-robin to a fixed pool of
//! worker shards, so the thread count is bounded by `workers + 2` no
//! matter how many clients are connected. Each shard owns its
//! connections outright and runs an epoll readiness reactor: a
//! connection is touched only when its socket turns readable or
//! writable, or when its pacing deadline fires from a hierarchical
//! [timing wheel](crate::wheel) armed through a nanosecond `timerfd`.
//! Request lines and stray inbound bytes go through the shared
//! [`proto`] readers. Payload is staged from the shared immutable
//! [arena](crate::payload) into vectored writes; connections live in a
//! generational [slab](crate::slab), so stale events and stale timers
//! resolve to nothing instead of to a recycled socket. Cost per
//! iteration: O(ready + expired).
//!
//! **Pacing.** Each live feed is a broadcast: a feed encoded at `rate`
//! trace-bytes/second has a global position `rate × elapsed`, and a
//! subscriber is entitled to the bytes the broadcast produced since it
//! joined, capped by its transfer's wire byte budget. Time compression
//! divides both the budget and the wall duration, so the *wire rate* is
//! the trace rate unchanged. Pacing error is bounded by the wheel
//! resolution (default 2^17 ns ≈ 131 µs).
//!
//! **Admission.** Every parsed request goes through the simulator's
//! [`MediaServer`] — the same [`AdmissionPolicy`] semantics the DES uses
//! — and a rejection is answered with `BUSY`, logged to the tap with
//! [`STATUS_REJECTED`], and charged as denied viewer-seconds.
//!
//! **Slow clients.** A subscriber whose backlog (entitlement minus bytes
//! actually written) exceeds the configured send-buffer bound is either
//! dropped (logged truncated) or allowed to lag, per
//! [`SlowClientPolicy`]. A write-blocked reactor connection under the
//! drop policy arms a wheel entry at the instant its client's aggregate
//! backlog would trip the bound, so stuck peers are dropped on time
//! without any periodic scan.
//!
//! **Tap.** Completions are logged WMS-style — at connection close, in
//! trace coordinates taken from the request line — into an embedded
//! [`StreamAnalyzer`], which is finalized into the run's closed-loop
//! [`StreamReport`] on drain.

use crate::clock::{trace_to_nanos, Nanos, WallClock};
use crate::metrics::{Counter, Gauge, LogHistogram, Registry, Snapshot};
use crate::payload::{self, MAX_SLICES};
use crate::proto::{self, ReqRead};
use crate::slab::{Key, Slab};
use crate::wheel::{TimerId, TimingWheel};
use crate::{STATUS_REJECTED, STATUS_TRUNCATED};
use lsw_sim::server::{AdmissionPolicy, MediaServer, ServerStats};
use lsw_stream::{StreamAnalyzer, StreamConfig, StreamReport};
use lsw_trace::schedule::ScheduledTransfer;
use mio::unix::SourceFd;
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;
use std::io::{self, IoSlice, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use timerfd::{TimerFd, TimerState};

/// Slot count of the hashed per-client backlog table. Collisions make
/// two clients share a byte budget, which only trips the slow-client
/// policy *sooner* — the memory bound stays conservative.
const CLIENT_BACKLOG_SLOTS: usize = 1024;

/// Reactor token for the cross-thread shutdown/intake waker.
const WAKER_TOKEN: Token = Token(usize::MAX);
/// Reactor token for the timing-wheel timerfd.
const TIMER_TOKEN: Token = Token(usize::MAX - 1);

/// Minimum bytes granted per pacing step: deadlines are spaced so each
/// wheel fire moves at least this much (or `rate × resolution` at high
/// rates, whichever is larger), keeping timer traffic off fast feeds.
const PACING_BURST: u64 = payload::BLOCK as u64;

/// Maps a client id onto its backlog accounting slot.
fn client_slot(client: lsw_trace::ids::ClientId) -> usize {
    client.0 as usize % CLIENT_BACKLOG_SLOTS
}

/// What to do with a subscriber that cannot keep up with its feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowClientPolicy {
    /// Close the connection and log the transfer truncated — the live
    /// answer (the broadcast cannot wait).
    Drop,
    /// Let the backlog grow and the client lag the broadcast — the
    /// stored-media answer. Memory stays bounded either way: payload is
    /// staged from the shared arena at write time, never queued.
    Backpressure,
}

/// Serving harness configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub listen: String,
    /// Admission policy (the DES semantics, on real sockets).
    pub admission: AdmissionPolicy,
    /// Time-compression factor shared with the driver.
    pub compression: f64,
    /// Per-client backlog bound in wire bytes before the slow-client
    /// policy applies. Accounted in bytes and aggregated across all of a
    /// client's connections, so a few large objects cannot blow the
    /// budget through separate sockets.
    pub send_buffer: u64,
    /// Slow-client policy.
    pub slow_policy: SlowClientPolicy,
    /// Worker shards.
    pub workers: usize,
    /// Timing-wheel resolution, nanoseconds
    /// (rounded up to a power of two; pacing error is bounded by it).
    pub wheel_resolution: Nanos,
    /// Maximum wait for in-flight transfers during drain, nanoseconds;
    /// survivors are then truncated.
    pub drain: Nanos,
    /// Tap (characterization) configuration.
    pub stream: StreamConfig,
    /// Longest transfer duration the tap will see (trace seconds),
    /// usually `Schedule::max_duration`. Completions reach the tap in
    /// stop order, so this presets its look-ahead reorder window; 0 lets
    /// the tap infer the window from what it has seen.
    pub lookahead: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            admission: AdmissionPolicy::AcceptAll,
            compression: 100.0,
            send_buffer: 256 << 10,
            slow_policy: SlowClientPolicy::Drop,
            workers: 2,
            wheel_resolution: 1 << 17,
            drain: 10_000_000_000,
            stream: StreamConfig::default(),
            lookahead: 0,
        }
    }
}

/// Everything a drained server hands back.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The tap's characterization of the traffic actually served.
    pub tap: StreamReport,
    /// Admission accounting (accepted/rejected/denied viewer-seconds).
    pub admission: ServerStats,
    /// Final metrics capture.
    pub metrics: Snapshot,
}

struct ServerMetrics {
    accepted_conns: Arc<Counter>,
    active: Arc<Gauge>,
    completed: Arc<Counter>,
    rejected: Arc<Counter>,
    slow_dropped: Arc<Counter>,
    truncated: Arc<Counter>,
    bad_requests: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    backlog: Arc<LogHistogram>,
    transfer_wall_ms: Arc<LogHistogram>,
    /// |fire time − deadline| per wheel expiry, nanoseconds.
    pacing_error_ns: Arc<LogHistogram>,
}

impl ServerMetrics {
    fn register(r: &Registry) -> Self {
        Self {
            accepted_conns: r.counter("srv.conns"),
            active: r.gauge("srv.active"),
            completed: r.counter("srv.completed"),
            rejected: r.counter("srv.rejected"),
            slow_dropped: r.counter("srv.slow_dropped"),
            truncated: r.counter("srv.truncated"),
            bad_requests: r.counter("srv.bad_requests"),
            bytes_sent: r.counter("srv.bytes_sent"),
            backlog: r.histogram("srv.backlog_bytes"),
            transfer_wall_ms: r.histogram("srv.transfer_wall_ms"),
            pacing_error_ns: r.histogram("srv.pacing_error_ns"),
        }
    }
}

struct Shared {
    compression: f64,
    send_buffer: u64,
    slow_policy: SlowClientPolicy,
    wheel_resolution: Nanos,
    /// Encoded trace-byte rate per object id (dense, indexed by id).
    rates: Vec<u64>,
    admission: Mutex<MediaServer>,
    tap: Mutex<StreamAnalyzer>,
    /// Aggregate backlog per client in bytes, hashed into a fixed slot
    /// table (see [`client_slot`]). Updated by delta from each
    /// connection's step so the sum stays exact per connection.
    client_backlog: Vec<AtomicU64>,
    clock: Arc<WallClock>,
    metrics: ServerMetrics,
    /// Stop accepting; workers finish in-flight transfers.
    shutdown: AtomicBool,
    /// Truncate whatever is still in flight and exit.
    force: AtomicBool,
}

impl Shared {
    fn rate_for(&self, t: &ScheduledTransfer) -> u64 {
        // Feeds absent from the rate table (standalone `lsw serve`
        // against an unknown trace) fall back to the transfer's own byte
        // rate, which still covers its budget within its duration.
        match self.rates.get(usize::from(t.object.0)) {
            Some(&r) if r > 0 => r,
            _ => t.byte_rate().max(1),
        }
    }

    /// Logs one finished (or refused) transfer into the tap.
    fn log_tap(&self, t: &ScheduledTransfer, status: u16) {
        let mut e = t.to_entry();
        e.status = status;
        // lsw::allow(L008): tap ingest is a short bounded critical section (no I/O under the lock)
        self.tap.lock().ingest_entry(&e);
    }

    /// Folds a connection's fresh backlog reading into its client's
    /// aggregate slot (by delta against what this connection last
    /// contributed) and returns the client's total backlog in bytes.
    fn account_backlog(&self, t: &ScheduledTransfer, accounted: &mut u64, backlog: u64) -> u64 {
        let slot = &self.client_backlog[client_slot(t.client)];
        if backlog >= *accounted {
            slot.fetch_add(backlog - *accounted, Ordering::Relaxed);
        } else {
            slot.fetch_sub(*accounted - backlog, Ordering::Relaxed);
        }
        *accounted = backlog;
        slot.load(Ordering::Relaxed)
    }

    /// Returns a finished connection's outstanding contribution to its
    /// client's backlog slot. Exact: each connection's adds and subs net
    /// to `accounted`, so slot totals never underflow across clients.
    fn release_backlog(&self, t: &ScheduledTransfer, accounted: u64) {
        self.client_backlog[client_slot(t.client)].fetch_sub(accounted, Ordering::Relaxed);
    }
}

enum ConnState {
    Request { buf: Vec<u8> },
    Streaming(Box<Streaming>),
}

struct Streaming {
    t: ScheduledTransfer,
    rate: u64,
    join: Nanos,
    hold_until: Nanos,
    budget: u64,
    sent: u64,
    /// Backlog bytes this connection currently contributes to its
    /// client's aggregate slot (see [`Shared::account_backlog`]).
    accounted: u64,
    /// The connection's pending wheel entry, if any: at most one per
    /// connection (re-arming cancels the old one).
    timer: Option<TimerId>,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Last write hit `WouldBlock`; waiting on EPOLLOUT.
    blocked: bool,
    /// EPOLLOUT currently registered for this socket.
    registered_write: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            state: ConnState::Request { buf: Vec::new() },
            blocked: false,
            registered_write: false,
        }
    }
}

/// The running serving harness.
pub struct ReplayServer {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    accept_handle: std::thread::JoinHandle<()>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
    /// One per worker shard.
    wakers: Vec<Arc<Waker>>,
    registry: Arc<Registry>,
    drain: Nanos,
}

impl ReplayServer {
    /// Binds, spawns the accept thread and worker shards, and returns.
    ///
    /// `rates` is the per-object encoded-rate table (usually
    /// `Schedule::object_rates`); `clock` is shared with the driver so
    /// both sides agree on replay time.
    pub fn start(
        cfg: ServerConfig,
        rates: &[(lsw_trace::ids::ObjectId, u64)],
        clock: Arc<WallClock>,
        registry: Arc<Registry>,
    ) -> io::Result<Self> {
        #[allow(clippy::disallowed_methods)]
        // lsw::allow(L002): the serving harness binds a real socket by design
        let listener = TcpListener::bind(&cfg.listen)?;
        // A replay connect storm (thousands of subscribers joining at
        // one trace instant) overflows std's default backlog of 128 and
        // turns into seconds-long SYN-retransmit stalls; widen to the
        // kernel cap. Best-effort: a refusing kernel leaves 128 in place.
        let _ = mio::widen_listen_backlog(&listener, 4096);
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let mut rate_table = Vec::new();
        for &(obj, rate) in rates {
            let idx = usize::from(obj.0);
            if rate_table.len() <= idx {
                rate_table.resize(idx + 1, 0u64);
            }
            rate_table[idx] = rate;
        }

        let shared = Arc::new(Shared {
            compression: cfg.compression.max(1.0),
            send_buffer: cfg.send_buffer,
            slow_policy: cfg.slow_policy,
            wheel_resolution: cfg.wheel_resolution.max(1),
            rates: rate_table,
            admission: Mutex::new(MediaServer::new(lsw_sim::server::ServerConfig {
                admission: cfg.admission,
                ..lsw_sim::server::ServerConfig::default()
            })),
            tap: Mutex::new({
                let mut tap = StreamAnalyzer::new(cfg.stream.clone());
                tap.preset_lookahead(cfg.lookahead);
                tap
            }),
            client_backlog: (0..CLIENT_BACKLOG_SLOTS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            clock,
            metrics: ServerMetrics::register(&registry),
            shutdown: AtomicBool::new(false),
            force: AtomicBool::new(false),
        });

        let workers = cfg.workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut wakers = Vec::with_capacity(workers);
        let mut worker_handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            senders.push(tx);
            let shared = Arc::clone(&shared);
            // lsw::allow(L002): the reactor acquires its epoll endpoint by design
            let poll = Poll::new()?;
            // lsw::allow(L002): the shutdown/intake eventfd waker is a reactor endpoint by design
            let waker = Arc::new(Waker::new(poll.registry(), WAKER_TOKEN)?);
            // lsw::allow(L002): the deadline timerfd is a reactor endpoint by design
            let mut timer = TimerFd::new()?;
            let timer_fd = timer.as_raw_fd();
            poll.registry()
                .register(&mut SourceFd(&timer_fd), TIMER_TOKEN, Interest::READABLE)?;
            wakers.push(waker);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("lsw-reactor-{w}"))
                    .spawn(move || {
                        reactor_loop(&shared, &rx, poll, &mut timer);
                    })?,
            );
        }

        let accept_shared = Arc::clone(&shared);
        let accept_wakers = wakers.clone();
        let accept_handle = std::thread::Builder::new()
            .name("lsw-accept".to_owned())
            .spawn(move || {
                accept_loop(&listener, &accept_shared, &senders, &accept_wakers);
                // Dropping the senders here disconnects every worker's
                // channel, which is their cue that no more work is coming.
            })?;

        Ok(Self {
            shared,
            addr,
            accept_handle,
            worker_handles,
            wakers,
            registry,
            drain: cfg.drain,
        })
    }

    /// The actually-bound address (resolves an ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The metrics registry this server reports into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    fn wake_workers(&self) {
        for w in &self.wakers {
            let _ = w.wake();
        }
    }

    /// Stops accepting, waits up to the drain budget for in-flight
    /// transfers, truncates survivors, joins every thread, and finalizes
    /// the tap.
    pub fn finish(self) -> ServeOutcome {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.wake_workers();
        let deadline = self.shared.clock.now().saturating_add(self.drain);
        while self.shared.metrics.active.get() > 0 && self.shared.clock.now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        self.shared.force.store(true, Ordering::SeqCst);
        self.wake_workers();
        join_or_propagate(self.accept_handle);
        for h in self.worker_handles {
            join_or_propagate(h);
        }
        let admission = self.shared.admission.lock().stats().clone();
        let analyzer = std::mem::replace(
            &mut *self.shared.tap.lock(),
            StreamAnalyzer::new(StreamConfig::default()),
        );
        ServeOutcome {
            tap: analyzer.finalize(),
            admission,
            metrics: self.registry.snapshot(),
        }
    }
}

fn join_or_propagate(h: std::thread::JoinHandle<()>) {
    if let Err(payload) = h.join() {
        std::panic::resume_unwind(payload);
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Shared,
    senders: &[mpsc::Sender<TcpStream>],
    wakers: &[Arc<Waker>],
) {
    let mut next = 0usize;
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue; // peer already gone
                }
                shared.metrics.accepted_conns.inc();
                shared.metrics.active.inc();
                let w = next % senders.len();
                if senders[w].send(stream).is_err() {
                    shared.metrics.active.dec();
                    return; // worker gone; shutting down
                }
                // Kick the shard's reactor out of epoll_wait to adopt
                // the connection.
                if let Some(waker) = wakers.get(w) {
                    let _ = waker.wake();
                }
                next += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(1)),
        }
    }
}

/// One reactor shard: adopts connections from `rx`, then serves on
/// readiness events and timing-wheel deadlines only. Exits once the
/// intake channel is gone and every connection is finished (or on
/// force-drain).
fn reactor_loop(
    shared: &Shared,
    rx: &mpsc::Receiver<TcpStream>,
    mut poll: Poll,
    timer: &mut TimerFd,
) {
    let mut events = Events::with_capacity(1024);
    let mut wheel: TimingWheel<Key> = TimingWheel::with_resolution(shared.wheel_resolution);
    let mut conns: Slab<Conn> = Slab::new();
    let mut fired: Vec<(Nanos, Key)> = Vec::new();
    let mut keys: Vec<Key> = Vec::new();
    let mut slices = [IoSlice::new(&[]); MAX_SLICES];
    let mut disconnected = false;
    // Deadline currently programmed into the timerfd, so an unchanged
    // wheel head does not cost a timerfd_settime(2) every iteration.
    let mut armed: Option<Nanos> = None;
    loop {
        // Adopt queued connections and register them for readiness.
        loop {
            match rx.try_recv() {
                Ok(stream) => {
                    let key = conns.insert(Conn::new(stream));
                    let Some(conn) = conns.get_mut(key) else {
                        continue;
                    };
                    if poll
                        .registry()
                        .register(&mut conn.stream, Token(key.to_usize()), Interest::READABLE)
                        .is_err()
                    {
                        conns.remove(key);
                        shared.metrics.active.dec();
                        shared.metrics.bad_requests.inc();
                    }
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }

        if shared.force.load(Ordering::Relaxed) {
            keys.clear();
            keys.extend(conns.iter_keys());
            let now = shared.clock.now();
            for &key in &keys {
                if let Some(conn) = conns.remove(key) {
                    match &conn.state {
                        ConnState::Streaming(s) => {
                            finish_streaming(shared, s, now, STATUS_TRUNCATED);
                            shared.metrics.truncated.inc();
                        }
                        ConnState::Request { .. } => shared.metrics.bad_requests.inc(),
                    }
                    shared.metrics.active.dec();
                }
            }
        }
        let draining = disconnected || shared.shutdown.load(Ordering::Relaxed);
        if draining && conns.is_empty() {
            return;
        }

        // Fire due pacing deadlines.
        let now = shared.clock.now();
        wheel.advance(now, &mut fired);
        for (deadline, key) in fired.drain(..) {
            shared
                .metrics
                .pacing_error_ns
                .record(now.abs_diff(deadline));
            step_conn(
                shared,
                &mut conns,
                &mut wheel,
                &poll,
                key,
                now,
                false,
                &mut slices,
            );
        }

        // Sleep until the next readiness event or wheel deadline. The
        // timerfd carries nanosecond precision that epoll_wait's
        // millisecond timeout cannot. When a deadline is already due
        // (the shard is running behind), harvest pending readiness
        // without sleeping and loop straight back to fire it.
        let next = wheel.next_deadline();
        let timeout = if next.is_some_and(|d| d <= shared.clock.now()) {
            Some(Duration::ZERO)
        } else {
            if next != armed {
                let _ = match next {
                    Some(d) => {
                        let wait = d.saturating_sub(shared.clock.now()).max(1);
                        timer.set_state(TimerState::Oneshot(Duration::from_nanos(wait)))
                    }
                    None => timer.set_state(TimerState::Disarmed),
                };
                armed = next;
            }
            None
        };
        // lsw::allow(L008): the reactor's single scheduling point; bounded by the armed timerfd and woken by the shutdown/intake waker
        if poll.poll(&mut events, timeout).is_err() {
            // epoll on our own fds only fails if the process is out of
            // resources; treat it as a drain signal rather than spin.
            shared.force.store(true, Ordering::Relaxed);
            continue;
        }
        let now = shared.clock.now();
        for event in events.iter() {
            match event.token() {
                WAKER_TOKEN => {} // intake/shutdown nudge; handled above
                TIMER_TOKEN => {
                    timer.read();
                }
                tok => {
                    let key = Key::from_usize(tok.0);
                    let readable = event.is_readable() || event.is_error();
                    step_conn(
                        shared,
                        &mut conns,
                        &mut wheel,
                        &poll,
                        key,
                        now,
                        readable,
                        &mut slices,
                    );
                }
            }
        }
    }
}

/// Advances one connection on a readiness event or wheel fire, then
/// reconciles its slab slot and EPOLLOUT registration. Stale keys (a
/// timer outliving its connection) are ignored.
#[allow(clippy::too_many_arguments)]
fn step_conn(
    shared: &Shared,
    conns: &mut Slab<Conn>,
    wheel: &mut TimingWheel<Key>,
    poll: &Poll,
    key: Key,
    now: Nanos,
    readable: bool,
    slices: &mut [IoSlice<'static>; MAX_SLICES],
) {
    let Some(conn) = conns.get_mut(key) else {
        return;
    };
    let done = advance_reactor(shared, conn, key, now, readable, wheel, slices);
    if done {
        shared.metrics.active.dec();
        // Dropping the stream closes the fd, which also removes it
        // from the epoll set; the wheel's residue (if any) fires into
        // a stale generation and is dropped.
        conns.remove(key);
        return;
    }
    let want_write = conn.blocked;
    if want_write != conn.registered_write {
        let interest = if want_write {
            // Edge-triggered while write-blocked: stream_step writes to
            // WouldBlock on every wake, so one event per writability
            // transition suffices — and at overload it batches a whole
            // drain-hysteresis worth of bytes per syscall, where the
            // level-triggered storm wrote slivers. (EPOLL_CTL_MOD
            // re-checks readiness, so a drain racing this rearm still
            // delivers an immediate event.)
            (Interest::READABLE | Interest::WRITABLE).edge()
        } else {
            Interest::READABLE
        };
        if poll
            .registry()
            .reregister(&mut conn.stream, Token(key.to_usize()), interest)
            .is_ok()
        {
            conn.registered_write = want_write;
        }
    }
}

/// Advances one connection on readiness or deadline: reads its request
/// line, then paces it with [`stream_step`]. Returns true when the
/// connection is finished.
fn advance_reactor(
    shared: &Shared,
    conn: &mut Conn,
    key: Key,
    now: Nanos,
    readable: bool,
    wheel: &mut TimingWheel<Key>,
    slices: &mut [IoSlice<'static>; MAX_SLICES],
) -> bool {
    match &mut conn.state {
        ConnState::Request { buf } => match proto::read_request_line(&mut conn.stream, buf) {
            ReqRead::Pending => false,
            ReqRead::Dead => {
                // Closed, failed, or overflowed before requesting.
                shared.metrics.bad_requests.inc();
                true
            }
            ReqRead::Line(line) => {
                // Seed the first pacing deadline.
                begin_streaming(shared, conn, &line, now)
                    || stream_step(shared, conn, key, now, false, wheel, slices)
            }
        },
        ConnState::Streaming(_) => stream_step(shared, conn, key, now, readable, wheel, slices),
    }
}

/// One pacing step of a streaming reactor connection: drain unexpected
/// inbound bytes (and detect peer close), write the current
/// entitlement from the arena, account backlog, and arm whatever wakes
/// this connection next. Returns true when the connection is finished.
fn stream_step(
    shared: &Shared,
    conn: &mut Conn,
    key: Key,
    now: Nanos,
    readable: bool,
    wheel: &mut TimingWheel<Key>,
    slices: &mut [IoSlice<'static>; MAX_SLICES],
) -> bool {
    let ConnState::Streaming(s) = &mut conn.state else {
        return false;
    };
    // Re-arming below replaces the pending entry, so a connection holds
    // at most one live wheel entry at a time.
    if let Some(id) = s.timer.take() {
        wheel.cancel(id);
    }
    // Drain strays so level-triggered epoll stays quiet, and catch the
    // peer vanishing early.
    if readable && proto::peer_gone(&mut conn.stream) {
        finish_streaming(shared, s, now, STATUS_TRUNCATED);
        shared.metrics.truncated.inc();
        return true;
    }
    // Broadcast entitlement since join, capped by the budget.
    let pos = proto::paced_position(s.rate, now.saturating_sub(s.join));
    let entitled = pos.min(s.budget);
    let mut blocked = false;
    while s.sent < entitled {
        let (n, _) = payload::stage(entitled - s.sent, slices);
        match conn.stream.write_vectored(&slices[..n]) {
            Ok(0) => {
                blocked = true;
                break;
            }
            Ok(w) => {
                s.sent += w as u64;
                shared.metrics.bytes_sent.add(w as u64);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                blocked = true;
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Peer vanished mid-stream.
                finish_streaming(shared, s, now, STATUS_TRUNCATED);
                shared.metrics.truncated.inc();
                return true;
            }
        }
    }
    conn.blocked = blocked;
    let backlog = entitled - s.sent;
    shared.metrics.backlog.record(backlog);
    // The budget is enforced on the client's *aggregate* backlog in
    // bytes: several connections to large objects draw from one
    // budget, not one each.
    let client_total = shared.account_backlog(&s.t, &mut s.accounted, backlog);
    if client_total > shared.send_buffer && shared.slow_policy == SlowClientPolicy::Drop {
        finish_streaming(shared, s, now, STATUS_TRUNCATED);
        shared.metrics.slow_dropped.inc();
        return true;
    }
    if s.sent == s.budget {
        if now >= s.hold_until {
            // Transfer complete: log in trace coordinates with the
            // original status, then close.
            finish_streaming(shared, s, now, s.t.status);
            shared.metrics.completed.inc();
            return true;
        }
        s.timer = Some(wheel.schedule(s.hold_until, key));
        return false;
    }
    if blocked {
        // EPOLLOUT resumes the write. Under the drop policy, also arm
        // the instant the client's aggregate backlog would trip the
        // bound, so a peer that never reads is dropped on schedule.
        if shared.slow_policy == SlowClientPolicy::Drop {
            let headroom = shared.send_buffer.saturating_sub(client_total);
            let trip = now.saturating_add(proto::pacing_deadline(s.rate, headroom + 1));
            s.timer = Some(wheel.schedule(trip, key));
        }
        return false;
    }
    // Caught up: wake when the broadcast has produced the next chunk.
    let chunk = PACING_BURST.min(s.budget - s.sent);
    let deadline = s
        .join
        .saturating_add(proto::pacing_deadline(s.rate, s.sent + chunk));
    s.timer = Some(wheel.schedule(deadline, key));
    false
}

/// Parses the request, runs admission, answers the status line.
/// Returns true when the connection is finished.
fn begin_streaming(shared: &Shared, conn: &mut Conn, line: &str, now: Nanos) -> bool {
    let Some(t) = proto::parse_request(line) else {
        shared.metrics.bad_requests.inc();
        return true;
    };
    // lsw::allow(L008): admission check is an O(1) counter update under the lock
    let admitted = shared.admission.lock().request(t.display_duration());
    if !admitted {
        let _ = conn.stream.write_all(payload::BUSY_LINE);
        shared.log_tap(&t, STATUS_REJECTED);
        shared.metrics.rejected.inc();
        return true;
    }
    let budget = proto::wire_budget(t.bytes, shared.compression);
    let mut line_buf = [0u8; 32];
    if conn
        .stream
        .write_all(payload::ok_line(budget, &mut line_buf))
        .is_err()
    {
        // Admission slot granted but the peer is already gone.
        // lsw::allow(L008): slot release is an O(1) counter update under the lock
        shared.admission.lock().release();
        shared.log_tap(&t, STATUS_TRUNCATED);
        shared.metrics.truncated.inc();
        return true;
    }
    let rate = shared.rate_for(&t);
    let hold_until = now.saturating_add(trace_to_nanos(t.duration, shared.compression));
    conn.state = ConnState::Streaming(Box::new(Streaming {
        rate,
        join: now,
        hold_until,
        budget,
        sent: 0,
        accounted: 0,
        timer: None,
        t,
    }));
    false
}

/// Releases the admission slot and logs the tap entry for a transfer
/// that is ending (complete, truncated, or force-drained).
fn finish_streaming(shared: &Shared, s: &Streaming, now: Nanos, status: u16) {
    shared.release_backlog(&s.t, s.accounted);
    // lsw::allow(L008): slot release is an O(1) counter update under the lock
    shared.admission.lock().release();
    shared.log_tap(&s.t, status);
    shared
        .metrics
        .transfer_wall_ms
        .record(now.saturating_sub(s.join) / 1_000_000);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared(send_buffer: u64) -> Shared {
        Shared {
            compression: 1.0,
            send_buffer,
            slow_policy: SlowClientPolicy::Drop,
            wheel_resolution: 1 << 17,
            rates: vec![0, 500],
            admission: Mutex::new(MediaServer::new(lsw_sim::server::ServerConfig::default())),
            tap: Mutex::new(StreamAnalyzer::new(StreamConfig::default())),
            clock: Arc::new(WallClock::start()),
            metrics: ServerMetrics::register(&Registry::new()),
            shutdown: AtomicBool::new(false),
            force: AtomicBool::new(false),
            client_backlog: (0..CLIENT_BACKLOG_SLOTS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    fn test_transfer(client: u32) -> ScheduledTransfer {
        ScheduledTransfer {
            start: 0,
            duration: 9,
            client: lsw_trace::ids::ClientId(client),
            ip: lsw_trace::ids::Ipv4Addr(1),
            as_id: lsw_trace::ids::AsId(1),
            country: lsw_trace::ids::CountryCode(*b"US"),
            object: lsw_trace::ids::ObjectId(1),
            camera: 0,
            bytes: 1000,
            avg_bandwidth: 1,
            status: 200,
        }
    }

    #[test]
    fn rate_fallback_covers_unknown_objects() {
        let shared = test_shared(0);
        let mut t = test_transfer(1);
        assert_eq!(shared.rate_for(&t), 500);
        t.object = lsw_trace::ids::ObjectId(0); // zero-rate table slot
        assert_eq!(shared.rate_for(&t), 100); // 1000 / (9 + 1)
        t.object = lsw_trace::ids::ObjectId(9); // beyond the table
        assert_eq!(shared.rate_for(&t), 100);
    }

    #[test]
    fn backlog_budget_aggregates_across_a_clients_connections() {
        let shared = test_shared(1000);
        let t = test_transfer(7);
        // Two concurrent connections from the same client: each backlog is
        // under the 1000-byte budget, but the aggregate is not.
        let (mut acc_a, mut acc_b) = (0u64, 0u64);
        let total_a = shared.account_backlog(&t, &mut acc_a, 600);
        assert_eq!(total_a, 600);
        let total_b = shared.account_backlog(&t, &mut acc_b, 600);
        assert!(total_b > shared.send_buffer, "aggregate exceeds budget");
        // Shrinking one connection's backlog is reflected in the total…
        let total_a = shared.account_backlog(&t, &mut acc_a, 100);
        assert_eq!(total_a, 700);
        // …and releasing both drains the slot back to zero.
        shared.release_backlog(&t, acc_a);
        shared.release_backlog(&t, acc_b);
        assert_eq!(
            shared.client_backlog[client_slot(t.client)].load(Ordering::Relaxed),
            0
        );
    }
}
