//! The serving front end: a blocking TCP accept loop feeding per-shard
//! bounded queues into a [`ServeEngine`], with atomic policy hot-swap.
//!
//! ## Data path
//!
//! ```text
//! conn 0 ─ reader ─┐                 ┌─ queue[0] ─┐
//! conn 1 ─ reader ─┼─▶ router lock ──┼─ queue[1] ─┼─▶ engine loop ─▶ decision
//! conn N ─ reader ─┘   (seq, WAL)    └─ queue[s] ─┘   (batched)       frames
//! ```
//!
//! Reader threads decode [`Frame::Arrival`]s and hand them to the
//! **router**: one mutex that assigns the global arrival sequence
//! number, clamps the stream clock to its running maximum (multiple
//! connections interleave arbitrary workload clocks), appends the
//! arrival to the write-ahead journal, and pushes it onto the queue of
//! the shard that owns the sequence number ([`route_for`]). Because
//! assignment and push happen under one lock, each queue sees strictly
//! increasing sequence numbers and the engine loop can merge the queues
//! back into the exact global order by always taking the smallest head.
//!
//! A full queue exerts **backpressure** (the router blocks, which
//! blocks that reader's TCP stream) or, with [`NetConfig::shed`],
//! **sheds**: the arrival is refused *before* a sequence number is
//! assigned, a not-admitted decision frame goes straight back, and the
//! engine/journal/digest never see the arrival — so accounting stays
//! exact: `completions + engine rejections + net sheds = client
//! arrivals`.
//!
//! The engine loop is **event-driven**: it never sleeps on a timer.
//! Every producer of engine work — the router after a push, a
//! scheduled control swap, a reader that has finished — rings one
//! doorbell ([`queue`](crate::queue)). The loop snapshots the bell
//! before it drains the queues and, finding nothing to ingest, parks
//! until the bell has rung since that snapshot (a few-millisecond
//! fallback timeout is only a safety net). A ring while the loop is
//! busy costs one atomic add; only a parked loop is woken through the
//! futex.
//!
//! System calls are **batched** on both sides of the socket. Readers
//! decode through a 64 KiB [`BufReader`], so a burst of pipelined
//! frames costs one `read` rather than three per frame. The engine loop
//! encodes every decision of an ingested batch for one connection into
//! that connection's reused output buffer and sends it with **one
//! write per connection per batch**, under the registry lock — the
//! same lock every other writer (sheds, `ControlOk`, errors, BYE) takes,
//! so frames never interleave mid-frame and each connection receives
//! its decisions in sequence order.
//!
//! ## Hot swap
//!
//! A swap is requested by a [`Frame::Control`] `swap <spec>` command or
//! scheduled up front (CLI `--swap-policy`/`--swap-at`). Each request
//! pins a barrier sequence number; the engine loop never ingests across
//! a barrier. At the barrier it builds the new table with
//! [`resolve_swap`] — compiling `spec` directly, or for
//! `optimize:<family>` re-running the optimizer against the engine's
//! live observed per-class arrival rates — then journals the
//! [`SwapRecord`] (write-ahead: before any arrival is served under the
//! new generation) and installs it. Replaying the journal reproduces the
//! swap at the same sequence number and the decision digest bit for bit.
//! Offline `eirs serve` runs resolve their swaps through the same
//! [`resolve_swap`] and check specs with [`validate_swap_spec`].

use crate::protocol::{encode_frame_into, read_frame, read_magic, write_magic, Frame};
use crate::queue::{BoundedQueue, Doorbell};
use eirs_obs::{publish_histogram, LatencyHistogram, LazyCounter};
use eirs_opt::optim::Budget;
use eirs_opt::reoptimize::{reoptimize, ObservedLoad};
use eirs_opt::space::parse_family;
use eirs_serve::metrics::ShardMetrics;
use eirs_serve::{route_for, CompiledTable, JournalWriter, ServeEngine, SwapRecord};
use eirs_sim::Arrival;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static NET_CONNECTIONS: LazyCounter = LazyCounter::new("net.connections");
static NET_FRAMES_IN: LazyCounter = LazyCounter::new("net.frames_in");
static NET_FRAMES_OUT: LazyCounter = LazyCounter::new("net.frames_out");
static NET_BYTES_OUT: LazyCounter = LazyCounter::new("net.bytes_out");
static NET_ARRIVALS: LazyCounter = LazyCounter::new("net.arrivals");
static NET_SHEDS: LazyCounter = LazyCounter::new("net.sheds");
static NET_PROTOCOL_ERRORS: LazyCounter = LazyCounter::new("net.protocol_errors");
static NET_TIME_CLAMPED: LazyCounter = LazyCounter::new("net.time_clamped");
static SWAP_COUNT: LazyCounter = LazyCounter::new("swap.count");
static SWAP_FAILED: LazyCounter = LazyCounter::new("swap.failed");

/// Compiles a parseable policy spec into a serving table (supplied by
/// the CLI so the net layer stays agnostic of spec grammars and grid
/// sizing).
pub type CompileFn = dyn Fn(&str) -> Result<CompiledTable, String> + Send + Sync;

/// Front-end shape: queue capacity, engine batching, overload behavior,
/// and re-optimization parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Per-shard ingest queue capacity (backpressure threshold).
    pub queue_cap: usize,
    /// Max arrivals per engine ingestion round.
    pub batch: usize,
    /// `true`: a full shard queue sheds the arrival (not-admitted
    /// decision, never enters the stream). `false`: the router blocks,
    /// back-pressuring the client connection.
    pub shed: bool,
    /// Model parameters for `optimize:<family>` swaps.
    pub reopt: ReoptSettings,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            queue_cap: 1024,
            batch: 256,
            shed: false,
            reopt: ReoptSettings::default(),
        }
    }
}

/// Service-rate model and search budget for `optimize:<family>` swaps
/// (arrival rates come from the live engine; service rates cannot be
/// observed from arrivals alone, so the operator supplies them).
#[derive(Debug, Clone, Copy)]
pub struct ReoptSettings {
    /// Inelastic service rate `µ_I`.
    pub mu_inelastic: f64,
    /// Elastic service rate `µ_E`.
    pub mu_elastic: f64,
    /// Optimizer evaluation budget.
    pub max_evals: usize,
    /// Optimizer seed.
    pub seed: u64,
}

impl Default for ReoptSettings {
    fn default() -> Self {
        Self {
            mu_inelastic: 1.0,
            mu_elastic: 1.0,
            max_evals: 60,
            seed: 1,
        }
    }
}

/// A swap scheduled before the server starts (CLI `--swap-policy` +
/// `--swap-at`).
#[derive(Debug, Clone)]
pub struct SwapTrigger {
    /// Global arrival sequence number to swap at. Arrivals `< at_seq`
    /// are decided by the old generation. If the stream ends earlier,
    /// the swap takes effect at end of stream (and is journaled at the
    /// actual barrier).
    pub at_seq: u64,
    /// Policy spec to install, or `optimize:<family>` to re-optimize
    /// from observed traffic at the barrier.
    pub spec: String,
}

/// What a serving session did, end to end.
#[derive(Debug)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: usize,
    /// Arrival frames received from clients.
    pub client_arrivals: u64,
    /// Arrivals that entered the stream (assigned a sequence number).
    pub ingested: u64,
    /// Arrivals shed at the router (full queue under
    /// [`NetConfig::shed`]); never entered the stream.
    pub net_sheds: u64,
    /// Arrivals the engine's degraded-mode admission control rejected.
    pub engine_rejections: u64,
    /// Jobs completed after the final drain.
    pub completions: u64,
    /// The engine's decision digest.
    pub digest: u64,
    /// Final policy generation.
    pub generation: u32,
    /// The generation schedule (ordered swap records).
    pub swaps: Vec<SwapRecord>,
    /// Wall-clock pause of each swap barrier (compile + install).
    pub swap_pause_seconds: Vec<f64>,
    /// Swaps that failed (bad spec at the barrier, infeasible observed
    /// load, ...); the old policy kept serving.
    pub swap_errors: Vec<String>,
    /// Protocol errors that tore down connections.
    pub protocol_errors: u64,
    /// Journal append failures (journaling stops at the first one).
    pub journal_errors: Vec<String>,
    /// Merged engine metrics after the final drain.
    pub totals: ShardMetrics,
}

impl ServeReport {
    /// The exact-accounting identity the front end guarantees:
    /// `completions + engine rejections + net sheds = client arrivals`.
    pub fn accounting_balanced(&self) -> bool {
        self.completions + self.engine_rejections + self.net_sheds == self.client_arrivals
    }
}

/// One arrival in flight between the router and the engine loop.
struct Routed {
    seq: u64,
    arrival: Arrival,
    conn: usize,
    req_id: u64,
}

/// A requested swap pinned to its barrier sequence number.
struct PendingSwap {
    at_seq: u64,
    spec: String,
    /// Pre-compiled at request time for plain specs; `optimize:` swaps
    /// compile at the barrier (they need the metrics observed *then*).
    table: Option<CompiledTable>,
}

/// Router state: everything that must change atomically per arrival.
struct Router {
    next_seq: u64,
    time_max: f64,
    client_arrivals: u64,
    net_sheds: u64,
    protocol_errors: u64,
    journal: Option<JournalWriter<Box<dyn Write + Send>>>,
    journal_errors: Vec<String>,
    swap_errors: Vec<String>,
    pending: Vec<PendingSwap>,
}

/// Read buffer of each connection's reader thread.
const READ_BUF_BYTES: usize = 64 * 1024;

/// How long the idle engine loop parks before it looks again without a
/// ring. Every event it waits for rings the doorbell, so this bounds
/// the cost of a lost wake-up; it is not a polling interval.
const PARK_FALLBACK: Duration = Duration::from_millis(5);

/// One accepted connection's write half and accounting.
struct Conn {
    stream: TcpStream,
    /// Encoded frames not yet written; always empty between registry
    /// lock holds.
    out: Vec<u8>,
    outstanding: u64,
    reader_done: bool,
    closed: bool,
}

impl Conn {
    /// Appends `frame` to the pending output (sent by
    /// [`send_queued`](Conn::send_queued)).
    fn queue(&mut self, frame: &Frame) {
        encode_frame_into(frame, &mut self.out);
        NET_FRAMES_OUT.inc();
    }

    /// Writes the pending output with one `write_all`; a failed write
    /// closes the connection.
    fn send_queued(&mut self) {
        if !self.closed && !self.out.is_empty() {
            NET_BYTES_OUT.add(self.out.len() as u64);
            if self.stream.write_all(&self.out).is_err() {
                self.closed = true;
                let _ = self.stream.shutdown(Shutdown::Both);
            }
        }
        self.out.clear();
    }
}

struct Shared<'a> {
    router: Mutex<Router>,
    queues: Vec<BoundedQueue<Routed>>,
    registry: Mutex<Vec<Conn>>,
    /// Rung whenever the engine loop has something new to do.
    bell: Doorbell,
    conns_seen: AtomicUsize,
    stop: AtomicBool,
    shed: bool,
    k: u32,
    route_shards: usize,
    compile: &'a CompileFn,
}

/// Writes `frame` to connection `conn` (serialized by the registry
/// lock); a failed write closes the connection.
fn conn_write(shared: &Shared<'_>, conn: usize, frame: &Frame) {
    let mut reg = shared.registry.lock().expect("registry poisoned");
    let c = &mut reg[conn];
    if c.closed {
        return;
    }
    c.queue(frame);
    c.send_queued();
}

/// The not-admitted decision for an arrival refused before it entered
/// the stream (full queue under `shed`, or the server is stopping):
/// no sequence number, no shard, no journal line.
fn shed_frame(req_id: u64) -> Frame {
    Frame::Decision {
        req_id,
        seq: u64::MAX,
        shard: u32::MAX,
        i: 0,
        j: 0,
        generation: 0, // shed before the stream: generation is moot
        alloc_inelastic: 0.0,
        alloc_elastic: 0.0,
        admitted: false,
    }
}

/// Routes one decoded arrival: assign seq, clamp time, journal, queue,
/// then ring the engine loop's doorbell. Returns the shed decision
/// frame to send, if the arrival was shed.
fn route_arrival(
    shared: &Shared<'_>,
    conn: usize,
    req_id: u64,
    mut arrival: Arrival,
) -> Option<Frame> {
    let mut r = shared.router.lock().expect("router poisoned");
    r.client_arrivals += 1;
    NET_ARRIVALS.inc();
    // Shutdown is decided under this same lock (see the engine loop),
    // so a set stop flag here means the queues are already closed: shed
    // instead of journaling an arrival the engine will never ingest.
    if shared.stop.load(Ordering::SeqCst) {
        r.net_sheds += 1;
        NET_SHEDS.inc();
        return Some(shed_frame(req_id));
    }
    if arrival.time < r.time_max {
        arrival.time = r.time_max;
        NET_TIME_CLAMPED.inc();
    } else {
        r.time_max = arrival.time;
    }
    let seq = r.next_seq;
    let shard = route_for(seq, shared.route_shards);
    if shared.shed && shared.queues[shard].is_full() {
        r.net_sheds += 1;
        NET_SHEDS.inc();
        return Some(shed_frame(req_id));
    }
    // Write-ahead: the journal line lands (and flushes) before the
    // arrival can reach the engine.
    if let Some(journal) = r.journal.as_mut() {
        if let Err(e) = journal.append_batch(seq, &[arrival]) {
            r.journal_errors
                .push(format!("journal append at seq {seq}: {e}"));
            r.journal = None;
        }
    }
    {
        let mut reg = shared.registry.lock().expect("registry poisoned");
        reg[conn].outstanding += 1;
    }
    // Push while holding the router lock: queues see strictly
    // increasing seqs with no gaps. A full queue blocks here — that is
    // the backpressure path.
    if shared.queues[shard]
        .push(Routed {
            seq,
            arrival,
            conn,
            req_id,
        })
        .is_err()
    {
        // Only possible when the server is already shutting down.
        let mut reg = shared.registry.lock().expect("registry poisoned");
        reg[conn].outstanding -= 1;
        return None;
    }
    r.next_seq += 1;
    drop(r);
    shared.bell.ring();
    None
}

/// Handles a control command. Returns `false` when the command was
/// invalid and the connection must be torn down.
fn handle_control(shared: &Shared<'_>, conn: usize, cmd: &str) -> bool {
    let reject = |why: String| {
        NET_PROTOCOL_ERRORS.inc();
        shared
            .router
            .lock()
            .expect("router poisoned")
            .protocol_errors += 1;
        conn_write(shared, conn, &Frame::Error(why));
        false
    };
    let Some(spec) = cmd.strip_prefix("swap ") else {
        return reject(format!("unknown control command '{cmd}'"));
    };
    let spec = spec.trim().to_string();
    let table = match validate_swap_spec(&spec, shared.k, shared.compile) {
        Ok(table) => table,
        Err(e) => return reject(format!("cannot swap to '{spec}': {e}")),
    };
    let at_seq = {
        let mut r = shared.router.lock().expect("router poisoned");
        let at_seq = r.next_seq;
        r.pending.push(PendingSwap {
            at_seq,
            spec: spec.clone(),
            table,
        });
        at_seq
    };
    shared.bell.ring();
    conn_write(
        shared,
        conn,
        &Frame::ControlOk(format!(
            "swap to '{spec}' scheduled at arrival seq {at_seq}"
        )),
    );
    true
}

/// One connection's read loop: handshake, then frames until BYE, EOF,
/// or a protocol error (terminal — the stream is never resynchronized).
fn run_reader(shared: &Shared<'_>, conn: usize, mut stream: TcpStream) {
    NET_CONNECTIONS.inc();
    // Echo the handshake before any other traffic can reach this
    // connection (nothing is routed for it yet, so the write half is
    // exclusively ours here). The magic is read unbuffered, so the read
    // buffer is only allocated once the client is answered.
    let ok = read_magic(&mut stream).is_ok() && write_magic(&mut stream).is_ok();
    let mut reader = BufReader::with_capacity(READ_BUF_BYTES, stream);
    if ok {
        loop {
            match read_frame(&mut reader) {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    NET_FRAMES_IN.inc();
                    match frame {
                        Frame::Arrival {
                            req_id,
                            class,
                            time,
                            size,
                        } => {
                            let shed =
                                route_arrival(shared, conn, req_id, Arrival { time, class, size });
                            if let Some(frame) = shed {
                                conn_write(shared, conn, &frame);
                            }
                        }
                        Frame::Control(cmd) => {
                            if !handle_control(shared, conn, &cmd) {
                                break;
                            }
                        }
                        Frame::Bye => break,
                        other => {
                            NET_PROTOCOL_ERRORS.inc();
                            shared
                                .router
                                .lock()
                                .expect("router poisoned")
                                .protocol_errors += 1;
                            conn_write(
                                shared,
                                conn,
                                &Frame::Error(format!(
                                    "unexpected client frame {other:?}; closing"
                                )),
                            );
                            break;
                        }
                    }
                }
                Err(e) => {
                    NET_PROTOCOL_ERRORS.inc();
                    shared
                        .router
                        .lock()
                        .expect("router poisoned")
                        .protocol_errors += 1;
                    conn_write(shared, conn, &Frame::Error(e.to_string()));
                    break;
                }
            }
        }
    } else {
        NET_PROTOCOL_ERRORS.inc();
        shared
            .router
            .lock()
            .expect("router poisoned")
            .protocol_errors += 1;
    }
    shared.registry.lock().expect("registry poisoned")[conn].reader_done = true;
    shared.bell.ring();
}

/// Sends BYE to (and closes) every connection whose reader finished and
/// whose decisions are all flushed.
fn close_finished(shared: &Shared<'_>) {
    let mut reg = shared.registry.lock().expect("registry poisoned");
    for c in reg.iter_mut() {
        if !c.closed && c.reader_done && c.outstanding == 0 {
            c.queue(&Frame::Bye);
            c.send_queued();
            let _ = c.stream.shutdown(Shutdown::Both);
            c.closed = true;
        }
    }
}

/// Checks a swap spec before its barrier, so a bad spec fails the
/// request rather than the barrier: an `optimize:<family>` spec must
/// name a family valid at `k` servers, and any other spec must compile.
/// Returns the compiled table for a plain spec (`None` for `optimize:`,
/// which can only be built at the barrier by [`resolve_swap`]).
pub fn validate_swap_spec(
    spec: &str,
    k: u32,
    compile: &CompileFn,
) -> Result<Option<CompiledTable>, String> {
    match spec.strip_prefix("optimize:") {
        Some(family) => parse_family(family, k).map(|_| None),
        None => compile(spec).map(Some),
    }
}

/// Builds the table for a swap to `spec` at its barrier, returning it
/// with the concrete spec to journal. A plain spec compiles as is; an
/// `optimize:<family>` spec re-runs the optimizer against the per-class
/// arrival rates `engine` has observed so far (its summed stream clock)
/// under the `reopt` service rates and budget, and journals the spec
/// the search chose.
pub fn resolve_swap(
    spec: &str,
    engine: &ServeEngine,
    reopt: &ReoptSettings,
    compile: &CompileFn,
) -> Result<(CompiledTable, String), String> {
    let Some(family) = spec.strip_prefix("optimize:") else {
        return Ok((compile(spec)?, spec.to_string()));
    };
    let totals = engine.metrics_total();
    let stream_time: f64 = engine.metrics_per_shard().iter().map(|m| m.sim_time).sum();
    let load = ObservedLoad::from_counts(
        totals.arrivals_inelastic,
        totals.arrivals_elastic,
        stream_time,
    )?;
    let budget = Budget {
        max_evals: reopt.max_evals,
        seed: reopt.seed,
    };
    let outcome = reoptimize(
        family,
        engine.config().k,
        &load,
        reopt.mu_inelastic,
        reopt.mu_elastic,
        &budget,
    )?;
    Ok((compile(&outcome.spec)?, outcome.spec))
}

/// Installs one pending swap at the current barrier: build the table,
/// journal the record **write-ahead**, install. On failure the old
/// policy keeps serving and the error is reported.
fn perform_swap(
    shared: &Shared<'_>,
    engine: &mut ServeEngine,
    swap: PendingSwap,
    reopt: &ReoptSettings,
    report_pauses: &mut Vec<f64>,
) {
    let started = Instant::now();
    let resolved = match swap.table {
        Some(table) => Ok((table, swap.spec.clone())),
        None => resolve_swap(&swap.spec, engine, reopt, shared.compile),
    };
    match resolved {
        Ok((table, spec)) => {
            let record = SwapRecord {
                seq: engine.ingested(),
                generation: engine.generation() + 1,
                hash: table.identity_hash(),
                spec,
            };
            {
                let mut r = shared.router.lock().expect("router poisoned");
                if let Some(journal) = r.journal.as_mut() {
                    if let Err(e) = journal.append_swap(&record) {
                        r.journal_errors
                            .push(format!("journal swap at seq {}: {e}", record.seq));
                        r.journal = None;
                    }
                }
            }
            let installed = engine.install_table(table, &record.spec);
            debug_assert_eq!(installed, record, "journaled swap differs from installed");
            SWAP_COUNT.inc();
            let pause = started.elapsed().as_secs_f64();
            report_pauses.push(pause);
            let mut h = LatencyHistogram::new();
            h.record_seconds(pause);
            publish_histogram("swap.pause", &h);
        }
        Err(e) => {
            SWAP_FAILED.inc();
            shared
                .router
                .lock()
                .expect("router poisoned")
                .swap_errors
                .push(format!("swap to '{}' failed (policy kept): {e}", swap.spec));
        }
    }
}

/// Serves connections on `listener` until at least one client has
/// connected and all clients have disconnected, then drains the engine
/// and reports. See the [module docs](self) for the data path.
///
/// `journal`, when given, receives the write-ahead log (header already
/// written by the caller via [`JournalWriter::create_with_spec`]).
/// `swaps` are CLI-scheduled hot-swaps; control frames can add more at
/// runtime. `compile` turns a policy spec into a serving table.
pub fn serve(
    listener: TcpListener,
    mut engine: ServeEngine,
    journal: Option<JournalWriter<Box<dyn Write + Send>>>,
    swaps: Vec<SwapTrigger>,
    config: NetConfig,
    compile: &CompileFn,
) -> Result<ServeReport, String> {
    assert_eq!(engine.ingested(), 0, "serve() needs a fresh engine");
    let route_shards = engine.config().route_shards;
    let shared = Shared {
        router: Mutex::new(Router {
            next_seq: 0,
            time_max: f64::NEG_INFINITY,
            client_arrivals: 0,
            net_sheds: 0,
            protocol_errors: 0,
            journal,
            journal_errors: Vec::new(),
            swap_errors: Vec::new(),
            pending: swaps
                .into_iter()
                .map(|s| PendingSwap {
                    at_seq: s.at_seq,
                    spec: s.spec,
                    table: None,
                })
                .collect(),
        }),
        queues: (0..route_shards)
            .map(|_| BoundedQueue::new(config.queue_cap))
            .collect(),
        registry: Mutex::new(Vec::new()),
        bell: Doorbell::new(),
        conns_seen: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        shed: config.shed,
        k: engine.config().k,
        route_shards,
        compile,
    };
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listener: {e}"))?;

    let mut swap_pauses = Vec::new();
    std::thread::scope(|scope| {
        let shared = &shared;
        // Accept loop: registers the write half, hands the read half to
        // a reader thread.
        scope.spawn(move || loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let reader = match stream.try_clone() {
                        Ok(r) => r,
                        Err(_) => continue,
                    };
                    let conn = {
                        let mut reg = shared.registry.lock().expect("registry poisoned");
                        reg.push(Conn {
                            stream,
                            out: Vec::new(),
                            outstanding: 0,
                            reader_done: false,
                            closed: false,
                        });
                        reg.len() - 1
                    };
                    shared.conns_seen.fetch_add(1, Ordering::SeqCst);
                    scope.spawn(move || run_reader(shared, conn, reader));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break,
            }
        });

        // Engine loop: merge the shard queues back into global seq
        // order and ingest in batches, honoring swap barriers; park on
        // the doorbell when there is nothing to do.
        let mut holdover: BTreeMap<u64, Routed> = BTreeMap::new();
        let mut scratch: Vec<Routed> = Vec::new();
        let mut batch: Vec<Routed> = Vec::new();
        let mut arrivals: Vec<Arrival> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        let mut next_expected: u64 = 0;
        loop {
            // Before looking for work: any ring from here on means work
            // this look may have missed.
            let seen = shared.bell.snapshot();
            for q in &shared.queues {
                q.drain_into(&mut scratch, usize::MAX);
            }
            for item in scratch.drain(..) {
                holdover.insert(item.seq, item);
            }

            // Install every swap whose barrier is exactly here.
            loop {
                let due = {
                    let mut r = shared.router.lock().expect("router poisoned");
                    let idx = r.pending.iter().position(|p| p.at_seq <= next_expected);
                    idx.map(|i| r.pending.remove(i))
                };
                match due {
                    Some(swap) => {
                        perform_swap(shared, &mut engine, swap, &config.reopt, &mut swap_pauses)
                    }
                    None => break,
                }
            }
            // Never ingest across the earliest remaining barrier.
            let barrier = {
                let r = shared.router.lock().expect("router poisoned");
                r.pending.iter().map(|p| p.at_seq).min().unwrap_or(u64::MAX)
            };

            while (batch.len() as u64) < config.batch as u64
                && next_expected + batch.len() as u64 != barrier
            {
                match holdover.remove(&(next_expected + batch.len() as u64)) {
                    Some(item) => batch.push(item),
                    None => break,
                }
            }
            if !batch.is_empty() {
                arrivals.clear();
                arrivals.extend(batch.iter().map(|b| b.arrival));
                let acks = engine.ingest_batch_admissions(&arrivals);
                next_expected += batch.len() as u64;
                // Encode each connection's decisions into its buffer,
                // then write every touched connection once.
                let mut reg = shared.registry.lock().expect("registry poisoned");
                for (routed, ack) in batch.drain(..).zip(&acks) {
                    let c = &mut reg[routed.conn];
                    c.outstanding -= 1;
                    if c.closed {
                        continue;
                    }
                    if c.out.is_empty() {
                        touched.push(routed.conn);
                    }
                    c.queue(&Frame::Decision {
                        req_id: routed.req_id,
                        seq: routed.seq,
                        shard: ack.shard as u32,
                        i: ack.i as u32,
                        j: ack.j as u32,
                        generation: ack.generation,
                        alloc_inelastic: ack.allocation.inelastic,
                        alloc_elastic: ack.allocation.elastic,
                        admitted: ack.admitted,
                    });
                }
                for conn in touched.drain(..) {
                    reg[conn].send_queued();
                }
                continue;
            }

            close_finished(shared);
            let all_closed = {
                let reg = shared.registry.lock().expect("registry poisoned");
                !reg.is_empty() && reg.iter().all(|c| c.closed)
            };
            if all_closed && holdover.is_empty() {
                // Decide shutdown under the router lock: route_arrival
                // holds that lock across its whole admit→journal→queue
                // sequence, so nothing can land in a queue between this
                // emptiness check and the close. A connection racing
                // the stop from here on is shed, not journaled (see
                // route_arrival), so the journal stays an exact record
                // of what the engine ingested.
                let decided = {
                    let _r = shared.router.lock().expect("router poisoned");
                    let empty = shared.queues.iter().all(|q| q.is_empty());
                    if empty {
                        shared.stop.store(true, Ordering::SeqCst);
                        for q in &shared.queues {
                            q.close();
                        }
                    }
                    empty
                };
                if !decided {
                    continue; // late arrivals landed; keep serving them
                }
                // End-of-stream barrier: remaining swaps (scheduled past
                // the last arrival) take effect here, in order.
                loop {
                    let due = {
                        let mut r = shared.router.lock().expect("router poisoned");
                        if r.pending.is_empty() {
                            None
                        } else {
                            Some(r.pending.remove(0))
                        }
                    };
                    match due {
                        Some(swap) => {
                            perform_swap(shared, &mut engine, swap, &config.reopt, &mut swap_pauses)
                        }
                        None => break,
                    }
                }
                break;
            }
            shared.bell.wait(seen, PARK_FALLBACK);
        }
        shared.stop.store(true, Ordering::SeqCst);
    });

    engine.drain();
    let totals = engine.metrics_total();
    let r = shared.router.into_inner().expect("router poisoned");
    if let Some(journal) = r.journal {
        journal
            .into_inner()
            .map_err(|e| format!("journal close: {e}"))?;
    }
    Ok(ServeReport {
        connections: shared.conns_seen.load(Ordering::SeqCst),
        client_arrivals: r.client_arrivals,
        ingested: engine.ingested(),
        net_sheds: r.net_sheds,
        engine_rejections: totals.rejections,
        completions: totals.completions,
        digest: engine.decision_digest(),
        generation: engine.generation(),
        swaps: engine.swap_log().to_vec(),
        swap_pause_seconds: swap_pauses,
        swap_errors: r.swap_errors,
        protocol_errors: r.protocol_errors,
        journal_errors: r.journal_errors,
        totals,
    })
}
