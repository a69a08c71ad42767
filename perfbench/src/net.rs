//! Phase `net`: open-loop latency and capacity over one loopback
//! connection to `eirs_net::serve`.
//!
//! Every session (one per fixed rate per round, and each capacity probe)
//! gets a fresh server: k = 4, 8 route shards, `shed: true`, the
//! write-ahead journal on to a file in the work directory, and a
//! plain-spec hot-swap every `SWAP_EVERY` arrivals. Most of a request's
//! cost here is framing,
//! syscalls, the router lock and the journal flush per arrival; the
//! engine decision is a few percent of it.

use crate::gen::{self, GenResult, Schedule};
use crate::util::{median, quantile_sorted, Report};
use crate::{compile, trace, Plan, BOOT_SPEC, K, SHARDS};
use eirs_net::protocol::{encode_frame, read_frame, Frame};
use eirs_net::{NetConfig, ServeReport};
use eirs_serve::{EngineConfig, Journal, JournalWriter, ServeEngine};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The fixed offered rates, req/s.
pub const RATES: [(&str, f64); 3] = [("lo", 10_000.0), ("mid", 25_000.0), ("hi", 60_000.0)];
/// The p99 latency limit, µs. Stalls of the shared virtual machine
/// this was tuned on reach a millisecond routinely, so a 1 ms limit
/// would sit inside the host's noise; at 2 ms the limit is crossed
/// where queueing makes the p99 climb steeply.
pub const LIMIT_US: f64 = 2_000.0;
/// Highest share of failed requests a sustained rate may have.
pub const MAX_FAIL_RATIO: f64 = 0.001;
/// A hot-swap control frame follows every this many arrivals.
pub const SWAP_EVERY: usize = 1_000;
/// Capacity ladder: rung `n` offers `LADDER_BASE · LADDER_STEP^n` req/s.
pub const LADDER_BASE: f64 = 10_000.0;
/// Ladder step (4%).
pub const LADDER_STEP: f64 = 1.04;
/// Requests per latency window. The reported p50 and p99 are medians
/// over windows of each window's p50 and p99 (the p99 of 1000 requests
/// has 10 beyond it), so a stall of the host moves the windows it hits,
/// not the figure.
const WINDOW: usize = 1_000;
/// Session length at each fixed rate, s: five windows or more.
const SESSION_S: [f64; 3] = [0.6, 0.2, 0.1];

/// One server session driven by the generator.
pub struct Session {
    /// What was sent.
    pub sched: Schedule,
    /// What the generator saw.
    pub gen: GenResult,
    /// What the server reported.
    pub report: ServeReport,
    /// Server start to the first handshake accepted, s.
    pub setup_s: f64,
    /// Process CPU during the session minus the generator's, s.
    pub server_cpu_s: f64,
    /// Span id of the session (0 untraced).
    pub span: u64,
}

/// Starts a server, drives `sched` through it and stops it.
pub fn session(work: &Path, name: &'static str, tag: u64, sched: Schedule) -> Session {
    // The previous session's journal goes before the clock starts:
    // truncating it would charge its size to this session's set-up.
    let path = work.join("net.wal");
    let _ = std::fs::remove_file(&path);
    let span = trace::span(name, tag);
    let start = Instant::now();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let table = compile(BOOT_SPEC).expect("boot spec compiles");
    let engine = ServeEngine::new(table, EngineConfig::new(K).route_shards(SHARDS));
    let file = std::fs::File::create(&path).expect("create the journal");
    let w: Box<dyn Write + Send> = Box::new(std::io::BufWriter::new(file));
    let journal = JournalWriter::create_with_spec(w, &engine, Some(BOOT_SPEC)).expect("journal");
    let config = NetConfig {
        shed: true,
        ..NetConfig::default()
    };
    // The client connects as the server starts (the listening socket
    // queues it), so set-up does not include the accept loop's 2 ms
    // poll interval.
    let stream = std::net::TcpStream::connect(addr).expect("connect to the server");
    std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            eirs_net::serve(
                listener,
                engine,
                Some(journal),
                Vec::new(),
                config,
                &compile,
            )
        });
        let stream = gen::handshake(stream).expect("handshake with the server");
        let setup_s = start.elapsed().as_secs_f64();
        let cpu0 = crate::util::process_cpu_s();
        let gen = gen::run(stream, &sched);
        let report = server
            .join()
            .expect("server thread panicked")
            .expect("server session");
        let server_cpu_s = crate::util::process_cpu_s() - cpu0 - gen.cpu_s;
        Session {
            sched,
            gen,
            report,
            setup_s,
            server_cpu_s,
            span: span.id(),
        }
    })
}

impl Session {
    /// Failed requests ÷ requests sent.
    pub fn fail_ratio(&self) -> f64 {
        self.gen.failures() as f64 / self.sched.offsets_ns.len().max(1) as f64
    }

    /// Each window's latency p50 and p99, µs.
    pub fn windows(&self) -> Vec<(f64, f64)> {
        per_window(&self.gen.latencies_us(&self.sched))
    }

    /// Median over windows of the window latency p99, µs.
    pub fn window_p99(&self) -> f64 {
        median(&self.windows().iter().map(|w| w.1).collect::<Vec<_>>())
    }

    /// Median over windows of the window send-lag p99, µs.
    pub fn window_lag_p99(&self) -> f64 {
        let lag: Vec<f64> = self.gen.lag_ns.iter().map(|&x| x as f64 / 1e3).collect();
        median(&per_window(&lag).iter().map(|w| w.1).collect::<Vec<_>>())
    }

    /// The session's correctness checks: name and failure, if any.
    pub fn verify(&self, work: &Path) -> Vec<(&'static str, Option<String>)> {
        let r = &self.report;
        let g = &self.gen;
        let fail = |ok: bool, why: &dyn Fn() -> String| (!ok).then(why);
        let missing = g.decisions.iter().filter(|d| d.is_none()).count();
        let replayed = {
            let _s = trace::span("net.journal_replay_check", 0);
            Journal::load(&work.join("net.wal"))
                .map_err(|e| e.to_string())
                .and_then(|j| {
                    let cfg = EngineConfig::new(K).route_shards(SHARDS);
                    eirs_serve::replay_journal(cfg, &j, &compile).map_err(|e| e.to_string())
                })
                .map(|mut e| {
                    e.drain();
                    e.decision_digest()
                })
        };
        vec![
            (
                "net.accounting_balanced",
                fail(r.accounting_balanced(), &|| {
                    format!(
                        "completions {} + rejections {} + sheds {} != arrivals {}",
                        r.completions, r.engine_rejections, r.net_sheds, r.client_arrivals
                    )
                }),
            ),
            (
                "net.one_decision_per_request",
                fail(
                    missing == 0 && g.duplicates == 0 && g.errors.is_empty(),
                    &|| {
                        format!(
                            "{missing} missing, {} duplicate decisions, errors {:?}",
                            g.duplicates, g.errors
                        )
                    },
                ),
            ),
            (
                "net.journal_replays_to_digest",
                fail(replayed.as_ref() == Ok(&r.digest), &|| {
                    format!("replay gave {replayed:?}, server digest {:#x}", r.digest)
                }),
            ),
            (
                "net.swap_generations_match_schedule",
                fail(self.swaps_match(), &|| {
                    format!(
                        "sent {:?}, server swapped {:?}, errors {:?}",
                        g.swaps_sent, r.swaps, r.swap_errors
                    )
                }),
            ),
        ]
    }

    /// Every `swap` the generator sent was installed, in order, at the
    /// sequence barrier its position implies (arrivals sent before it
    /// minus those shed), and every admitted decision carries the
    /// generation in force at its sequence number.
    fn swaps_match(&self) -> bool {
        let (g, r) = (&self.gen, &self.report);
        if r.swaps.len() != g.swaps_sent.len()
            || !r.swap_errors.is_empty()
            || g.control_oks != g.swaps_sent.len() as u64
        {
            return false;
        }
        let mut shed_before = vec![0u64; g.decisions.len() + 1];
        for (i, d) in g.decisions.iter().enumerate() {
            let shed = d.is_some_and(|d| d.seq == u64::MAX);
            shed_before[i + 1] = shed_before[i] + u64::from(shed);
        }
        let schedule_ok =
            g.swaps_sent
                .iter()
                .zip(&r.swaps)
                .enumerate()
                .all(|(n, (&(sent, spec), rec))| {
                    rec.seq == sent as u64 - shed_before[sent]
                        && rec.generation == n as u32 + 1
                        && rec.spec == spec
                });
        let generations_ok = g.decisions.iter().flatten().all(|d| {
            d.seq == u64::MAX
                || d.generation == r.swaps.iter().filter(|s| s.seq <= d.seq).count() as u32
        });
        schedule_ok && generations_ok
    }
}

/// The p50 and p99 of consecutive blocks of `WINDOW` values (a shorter
/// tail block is dropped unless it is the only one).
fn per_window(values: &[f64]) -> Vec<(f64, f64)> {
    let blocks = (values.len() / WINDOW).max(1);
    (0..blocks)
        .map(|b| {
            let end = if blocks == 1 {
                values.len()
            } else {
                (b + 1) * WINDOW
            };
            let mut part = values[b * WINDOW..end].to_vec();
            part.sort_by(f64::total_cmp);
            (quantile_sorted(&part, 0.5), quantile_sorted(&part, 0.99))
        })
        .collect()
}

/// Rate of ladder rung `n`, req/s.
pub fn rung_rate(n: u32) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(n as i32)
}

/// Whether a probe sustained its rate: over its windows, the median
/// latency p99 and the median send-lag p99 within the limit (a
/// generator that falls behind its schedule marks the rate over
/// capacity), and few enough failures.
fn sustained(s: &Session) -> bool {
    s.window_p99() <= LIMIT_US && s.window_lag_p99() <= LIMIT_US && s.fail_ratio() <= MAX_FAIL_RATIO
}

/// Collects session checks, one entry per check name.
#[derive(Default)]
struct Checks(Vec<(&'static str, Option<String>)>);

impl Checks {
    fn add(&mut self, label: &str, results: Vec<(&'static str, Option<String>)>) {
        for (name, failure) in results {
            let failure = failure.map(|f| format!("{label}: {f}"));
            match self.0.iter_mut().find(|(n, _)| *n == name) {
                Some((_, slot)) => {
                    if slot.is_none() {
                        *slot = failure;
                    }
                }
                None => self.0.push((name, failure)),
            }
        }
    }
}

/// The capacity search on the ladder: a staircase. Each probe moves up
/// when it sustains its rate and down when it does not, starting four
/// rungs above `hi` with steps of four rungs; every failure that follows
/// a pass halves the step, down to one rung. Once a reversal happens at one-rung steps the
/// probes circle the highest rung that meets the limit, and the estimate
/// is the median rung probed from then on, which one unlucky probe
/// cannot move far.
#[derive(Debug)]
struct Staircase {
    rung: u32,
    step: u32,
    last: Option<bool>,
    settled: bool,
    visits: Vec<u32>,
    /// Probes to make once settled.
    probes: usize,
}

impl Staircase {
    fn new(probes: usize) -> Self {
        let hi_rung = (RATES[2].1 / LADDER_BASE).ln() / LADDER_STEP.ln();
        Self {
            rung: hi_rung.floor() as u32 + 4,
            step: 4,
            last: None,
            settled: false,
            visits: Vec::new(),
            probes,
        }
    }

    fn done(&self) -> bool {
        self.visits.len() >= self.probes
    }

    fn record(&mut self, ok: bool) {
        let reversal = self.last.is_some_and(|last| last != ok);
        if reversal && self.step == 1 {
            self.settled = true;
        }
        // Halve only when a failure follows a pass, so a stall of the
        // host that fails the first probes does not slow the climb.
        if reversal && !ok {
            self.step = (self.step / 2).max(1);
        }
        if self.settled {
            self.visits.push(self.rung);
        }
        self.last = Some(ok);
        self.rung = if ok {
            self.rung + self.step
        } else {
            self.rung.saturating_sub(self.step)
        };
    }

    /// The settled rung (lower median of the settled probes).
    fn estimate(&self) -> u32 {
        let mut v = self.visits.clone();
        v.sort_unstable();
        v.get(v.len().saturating_sub(1) / 2)
            .copied()
            .unwrap_or(self.rung)
    }
}

/// Per fixed rate: each window's p50 and p99, requests, failures and
/// send lags.
#[derive(Debug, Default, Clone)]
struct RateStats {
    p50: Vec<f64>,
    p99: Vec<f64>,
    requests: u64,
    failed: u64,
    lag_us: Vec<f64>,
}

/// The phase, run a round at a time.
pub struct Net {
    work: std::path::PathBuf,
    seed: u64,
    rho: f64,
    smoke: bool,
    probe_s: f64,
    rounds: usize,
    rates: Vec<RateStats>,
    ladder: Staircase,
    checks: Checks,
    setups: Vec<f64>,
    hi_sessions: Vec<Session>,
}

impl Net {
    /// A phase that has run no round yet.
    pub fn new(plan: &Plan) -> Self {
        Self {
            work: plan.work.clone(),
            seed: plan.seed,
            rho: plan.rho,
            smoke: plan.smoke,
            probe_s: plan.net_probe_s,
            rounds: 0,
            rates: vec![RateStats::default(); RATES.len()],
            ladder: Staircase::new(plan.settled_probes),
            checks: Checks::default(),
            setups: Vec::new(),
            hi_sessions: Vec::new(),
        }
    }

    /// Whether the capacity search has settled.
    pub fn done(&self) -> bool {
        self.ladder.done()
    }

    /// A session at each fixed rate, then three ladder probes.
    pub fn round(&mut self) {
        let traced = trace::enabled();
        for (idx, &(label, rate)) in RATES.iter().enumerate() {
            let seed = self
                .seed
                .wrapping_add((self.rounds * RATES.len() + idx) as u64);
            let dur = if self.smoke { 0.05 } else { SESSION_S[idx] };
            let sched = gen::schedule(seed, rate, dur, self.rho, SHARDS, K, SWAP_EVERY);
            let s = session(&self.work, "net.session", idx as u64, sched);
            self.setups.push(s.setup_s);
            self.checks.add(
                &format!("{label} round {}", self.rounds),
                s.verify(&self.work),
            );
            let st = &mut self.rates[idx];
            for (p50, p99) in s.windows() {
                st.p50.push(p50);
                st.p99.push(p99);
            }
            st.requests += s.sched.offsets_ns.len() as u64;
            st.failed += s.gen.failures();
            st.lag_us
                .extend(s.gen.lag_ns.iter().map(|&x| x as f64 / 1e3));
            if traced {
                for (i, d) in s.gen.decisions.iter().enumerate() {
                    if let Some(d) = d {
                        let due = s.gen.t0_ns + s.sched.offsets_ns[i];
                        let done = s.gen.t0_ns + d.at_ns;
                        trace::record_interval("net.request", i as u64, s.span, due, done);
                    }
                }
            }
            if idx == RATES.len() - 1 && traced {
                self.hi_sessions.push(s);
            }
        }
        for n in 0..3 {
            let rung = self.ladder.rung;
            let rate = rung_rate(rung);
            let seed = self
                .seed
                .wrapping_add(1_000_000 + (3 * self.rounds + n) as u64);
            let sched = gen::schedule(seed, rate, self.probe_s, self.rho, SHARDS, K, SWAP_EVERY);
            let s = session(&self.work, "net.probe", u64::from(rung), sched);
            self.setups.push(s.setup_s);
            self.checks
                .add(&format!("probe rung {rung}"), s.verify(&self.work));
            let ok = sustained(&s);
            println!(
                "net probe rung {rung} ({rate:.0} req/s): window-median p99 {:.1} us, \
                 window-median lag p99 {:.1} us, fail_ratio {} -> {}",
                s.window_p99(),
                s.window_lag_p99(),
                s.fail_ratio(),
                if ok { "sustained" } else { "over capacity" }
            );
            self.ladder.record(ok);
        }
        self.rounds += 1;
    }

    /// Reports the phase's metrics and checks; returns its set-up time.
    pub fn finish(mut self, plan: &Plan, out: &mut Report) -> f64 {
        for (idx, &(label, rate)) in RATES.iter().enumerate() {
            let st = &mut self.rates[idx];
            let (p50, p99) = (median(&st.p50), median(&st.p99));
            st.lag_us.sort_by(f64::total_cmp);
            let lag_p99 = quantile_sorted(&st.lag_us, 0.99);
            println!(
                "net {label}: {rate} req/s, {} requests in {} windows, p50 {p50:.1} us, p99 \
                 {p99:.1} us (medians over windows), fail_ratio {} ratio, send lag p99 \
                 {lag_p99:.1} us; window p99s {:?}",
                st.requests,
                st.p99.len(),
                st.failed as f64 / st.requests.max(1) as f64,
                st.p99.iter().map(|x| x.round()).collect::<Vec<_>>()
            );
            out.attempted += st.requests;
            out.failed += st.failed;
            out.check(
                &format!("net.{label}.latency_finite"),
                p99.is_finite(),
                || format!("{label} rate {rate} req/s lost requests: p99 is over any limit"),
            );
            out.e2e(&format!("lat_p50_us.{label}"), p50, "us");
            // The p99 is printed but is not an end-to-end metric: on a
            // shared virtual machine whole runs fall into spells where
            // most windows catch a stall of the host, so its spread over
            // runs is wider than any bound the benchmark may set.
            println!("metric lat_p99_us.{label} = {p99} us (not an end-to-end metric)");
            if trace::enabled() {
                out.layer(&format!("gen.send_lag_p99_us.{label}"), lag_p99, "us");
            }
        }
        let rung = self.ladder.estimate();
        let sustained_rps = rung_rate(rung);
        println!(
            "net sustained_rps {sustained_rps:.0} 1/s (rung {rung}; settled probes at rungs {:?})",
            self.ladder.visits
        );
        out.e2e("sustained_rps", sustained_rps, "1/s");
        for (name, failure) in self.checks.0 {
            out.check(name, failure.is_none(), || failure.unwrap_or_default());
        }
        if trace::enabled() {
            layer_metrics(plan, &self.hi_sessions, out);
        }
        median(&self.setups)
    }
}

/// Per-layer figures of the net path, from the traced `hi` sessions and
/// from timed calls into `eirs_net::protocol`.
fn layer_metrics(plan: &Plan, hi: &[Session], out: &mut Report) {
    let snap = eirs_obs::snapshot();
    let arrivals = snap.counter("net.arrivals").max(1) as f64;
    let frames = (snap.counter("net.frames_in") + snap.counter("net.frames_out")) as f64;
    out.layer("net.frames_per_req", frames / arrivals, "count");
    let cpu: f64 = hi.iter().map(|s| s.server_cpu_s).sum();
    let reqs: usize = hi.iter().map(|s| s.sched.offsets_ns.len()).sum();
    out.layer("net.server.cpu_us_per_req", cpu * 1e6 / reqs as f64, "us");
    let pauses: Vec<f64> = hi
        .iter()
        .flat_map(|s| s.report.swap_pause_seconds.iter().map(|p| p * 1e6))
        .collect();
    out.layer(
        "swap.pause_us",
        if pauses.is_empty() {
            0.0
        } else {
            median(&pauses)
        },
        "us",
    );

    // The protocol layer on the run's own frame mix: per request one
    // arrival and one decision, plus a swap per SWAP_EVERY arrivals.
    let sched = &hi[0].sched;
    let mut frames: Vec<Frame> = Vec::new();
    for (i, a) in sched.arrivals.iter().enumerate().take(20_000) {
        frames.push(Frame::Arrival {
            req_id: i as u64,
            class: a.class,
            time: a.time,
            size: a.size,
        });
        frames.push(Frame::Decision {
            req_id: i as u64,
            seq: i as u64,
            shard: (i % SHARDS) as u32,
            i: 2,
            j: 1,
            generation: 1,
            alloc_inelastic: 2.0,
            alloc_elastic: 2.0,
            admitted: true,
        });
        if (i + 1) % SWAP_EVERY == 0 {
            frames.push(Frame::Control(format!("swap {}", gen::SWAP_SPECS[0])));
        }
    }
    let requests = frames
        .iter()
        .filter(|f| matches!(f, Frame::Arrival { .. }))
        .count() as f64;
    let reps = if plan.smoke { 1 } else { 5 };
    let mut encode = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        bytes.clear();
        for f in &frames {
            bytes.extend_from_slice(&std::hint::black_box(encode_frame(f)));
        }
        encode.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
    }
    let mut decode = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        let mut cursor: &[u8] = &bytes;
        let mut n = 0;
        while let Ok(Some(f)) = read_frame(&mut cursor) {
            std::hint::black_box(f);
            n += 1;
        }
        assert_eq!(n, frames.len(), "every encoded frame decodes");
        decode.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
    }
    out.layer("net.protocol.encode_ns", median(&encode), "ns");
    out.layer("net.protocol.decode_ns", median(&decode), "ns");
    out.layer(
        "net.protocol.bytes_per_req",
        bytes.len() as f64 / requests,
        "B",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_staircase_settles_on_the_highest_passing_rung() {
        let mut st = Staircase::new(8);
        while !st.done() {
            let ok = st.rung <= 57;
            st.record(ok);
        }
        assert_eq!(st.estimate(), 57, "probed {:?}", st.visits);
    }
}
