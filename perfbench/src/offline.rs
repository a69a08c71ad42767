//! Phase `offline`: the serve event core and the journal read path, in
//! process, with no socket.
//!
//! The input is `PARTS` seeded recorded streams (k = 4, 8 route shards,
//! load ρ per shard, three hot-swaps each), a million arrivals in all.
//! (a) Each stream goes through `ServeEngine::ingest_batch` in
//! 1024-arrival batches with `nproc` workers, then `drain`. (b) Recovery:
//! each stream's journal, written during set-up, goes through
//! `Journal::load`, `replay_journal` and `drain`. Every stream is one
//! timed sample, a few tens of milliseconds long, so a stall of the host
//! spoils a few samples and the median over all of a run's samples
//! stands.

use crate::gen::{model_stream, SWAP_SPECS};
use crate::util::{median, timed, Report};
use crate::{compile, trace, Plan, BOOT_SPEC, GRID, K, SHARDS};
use eirs_serve::{EngineConfig, Journal, JournalWriter, ServeEngine, ShardMetrics, SwapRecord};
use eirs_sim::{Arrival, ArrivalSource};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Arrivals per ingestion batch.
pub const BATCH: usize = 1024;
/// Hot-swaps per stream.
const SWAPS: usize = 3;
/// Recorded streams per run.
const PARTS: usize = 16;

/// Decision digests of the default-seed check stream
/// (`DIGEST_ARRIVALS` arrivals of seed 1), by per-shard load. A change
/// that alters any decision changes them.
pub const DEFAULT_DIGESTS: [(f64, u64); 2] =
    [(0.7, 0x6549_b911_61bf_7978), (0.97, 0x3680_9c7e_a957_188d)];
/// Length of the default-seed check stream.
pub const DIGEST_ARRIVALS: usize = 200_000;

/// The recorded stream: `n` arrivals of the model's Poisson stream.
pub fn stream(seed: u64, rho: f64, n: usize) -> Vec<Arrival> {
    let mut s = model_stream(seed, rho, SHARDS, K);
    (0..n)
        .map(|_| s.next_arrival().expect("Poisson streams never end"))
        .collect()
}

/// The swap schedule: a swap before every `n / (SWAPS + 1)`-th arrival,
/// rounded to a batch boundary, alternating the two plain specs.
fn swap_points(n: usize) -> Vec<(usize, &'static str)> {
    let every = (n / (SWAPS + 1)).div_ceil(BATCH).max(1) * BATCH;
    (1..=SWAPS)
        .map(|s| (s * every, SWAP_SPECS[s % 2]))
        .filter(|&(at, _)| at < n)
        .collect()
}

/// A fresh engine with `workers` shard workers (the program's set-up:
/// table compile and engine construction).
pub fn engine(workers: usize) -> ServeEngine {
    let table = compile(BOOT_SPEC).expect("boot spec compiles");
    ServeEngine::new(
        table,
        EngineConfig::new(K)
            .route_shards(SHARDS)
            .workers(workers)
            .batch(BATCH),
    )
}

/// Serves `arrivals` in batches with the stream's swaps, optionally
/// journaling write-ahead. Returns the engine before `drain`.
fn serve(
    mut engine: ServeEngine,
    arrivals: &[Arrival],
    mut journal: Option<&mut JournalWriter<std::io::BufWriter<std::fs::File>>>,
) -> ServeEngine {
    let swaps = swap_points(arrivals.len());
    let mut next_swap = swaps.iter().peekable();
    let mut start = 0;
    while start < arrivals.len() {
        if let Some(&&(at, spec)) = next_swap.peek() {
            if at == start {
                let table = compile(spec).expect("swap spec compiles");
                if let Some(j) = journal.as_deref_mut() {
                    let rec = SwapRecord {
                        seq: engine.ingested(),
                        generation: engine.generation() + 1,
                        hash: table.identity_hash(),
                        spec: spec.to_string(),
                    };
                    j.append_swap(&rec).expect("journal the swap");
                }
                engine.install_table(table, spec);
                next_swap.next();
            }
        }
        let end = (start + BATCH).min(arrivals.len());
        let batch = &arrivals[start..end];
        if let Some(j) = journal.as_deref_mut() {
            j.append_batch(engine.ingested(), batch)
                .expect("journal the batch");
        }
        let _s = trace::span("serve.engine.ingest_batch", start as u64);
        engine.ingest_batch(batch);
        start = end;
    }
    engine
}

/// Serves and drains; returns (ingest seconds, drain seconds, engine).
fn serve_timed(engine: ServeEngine, arrivals: &[Arrival]) -> (f64, f64, ServeEngine) {
    let (ingest_s, mut engine) = timed(|| serve(engine, arrivals, None));
    let (drain_s, ()) = timed(|| {
        let _s = trace::span("serve.engine.drain", 0);
        engine.drain()
    });
    (ingest_s, drain_s, engine)
}

/// Journal load + replay + drain; returns (load s, replay s, digest).
fn recover(path: &Path, workers: usize) -> (f64, f64, u64, usize) {
    let (load_s, journal) = timed(|| {
        let _s = trace::span("serve.journal.load", 0);
        Journal::load(path).expect("journal loads")
    });
    let (replay_s, digest) = timed(|| {
        let _s = trace::span("serve.replay_journal", 0);
        let cfg = EngineConfig::new(K)
            .route_shards(SHARDS)
            .workers(workers)
            .batch(BATCH);
        let mut e = eirs_serve::replay_journal(cfg, &journal, &compile).expect("journal replays");
        e.drain();
        e.decision_digest()
    });
    (load_s, replay_s, digest, journal.entries.len())
}

/// One recorded stream, its journal and its live decision digest.
struct Part {
    arrivals: Vec<Arrival>,
    path: std::path::PathBuf,
    live: u64,
    /// The live run's counters over all shards.
    metrics: ShardMetrics,
}

/// The phase, run a round at a time.
pub struct Offline {
    nproc: usize,
    parts: Vec<Part>,
    setups: Vec<f64>,
    a_rates: Vec<f64>,
    drains: Vec<f64>,
    b_rates: Vec<f64>,
    /// Load and replay time per journal entry, s.
    loads: Vec<f64>,
    replays: Vec<f64>,
    /// Streams whose `nproc`-worker or recovered digest differed from
    /// the live one.
    worker_mismatch: Vec<usize>,
    recover_mismatch: Vec<usize>,
}

impl Offline {
    /// Set-up: records the streams and writes their journals with live
    /// journaled runs, whose digests the phase must reproduce.
    pub fn new(plan: &Plan) -> Self {
        let parts = (0..PARTS)
            .map(|p| {
                let seed = plan.seed.wrapping_mul(PARTS as u64).wrapping_add(p as u64);
                let arrivals = stream(seed, plan.rho, plan.offline_arrivals / PARTS);
                let path = plan.work.join(format!("offline-{p}.wal"));
                let e = engine(1);
                let file = std::fs::File::create(&path).expect("create the journal");
                let mut w = JournalWriter::create_with_spec(
                    std::io::BufWriter::new(file),
                    &e,
                    Some(BOOT_SPEC),
                )
                .expect("journal header");
                let mut e = serve(e, &arrivals, Some(&mut w));
                w.into_inner()
                    .expect("flush the journal")
                    .flush()
                    .expect("flush");
                e.drain();
                Part {
                    arrivals,
                    path,
                    live: e.decision_digest(),
                    metrics: e.metrics_total(),
                }
            })
            .collect();
        Self {
            nproc: plan.nproc,
            parts,
            setups: Vec::new(),
            a_rates: Vec::new(),
            drains: Vec::new(),
            b_rates: Vec::new(),
            loads: Vec::new(),
            replays: Vec::new(),
            worker_mismatch: Vec::new(),
            recover_mismatch: Vec::new(),
        }
    }

    /// Every stream through (a) and then through (b), each from scratch.
    pub fn round(&mut self) {
        let round = self.a_rates.len() / PARTS;
        for (p, part) in self.parts.iter().enumerate() {
            let (setup_s, e) = timed(|| engine(self.nproc));
            self.setups.push(setup_s);
            let (ingest_s, drain_s, e) = {
                let _s = trace::span("offline.phase_a", round as u64);
                serve_timed(e, &part.arrivals)
            };
            if e.decision_digest() != part.live {
                self.worker_mismatch.push(p);
            }
            self.drains.push(drain_s);
            self.a_rates
                .push(part.arrivals.len() as f64 / (ingest_s + drain_s));
        }
        for (p, part) in self.parts.iter().enumerate() {
            let (load_s, replay_s, digest, n) = {
                let _s = trace::span("offline.phase_b", round as u64);
                recover(&part.path, self.nproc)
            };
            if digest != part.live || n != part.arrivals.len() {
                self.recover_mismatch.push(p);
            }
            self.loads.push(load_s / n as f64);
            self.replays.push(replay_s / n as f64);
            self.b_rates.push(n as f64 / (load_s + replay_s));
        }
    }

    /// Reports the phase's metrics and checks; returns its set-up time.
    pub fn finish(self, plan: &Plan, out: &mut Report) -> f64 {
        let n: usize = self.parts.iter().map(|p| p.arrivals.len()).sum();
        let a = median(&self.a_rates);
        out.e2e("decisions_per_s", a, "1/s");
        out.e2e("recover_arrivals_per_s", median(&self.b_rates), "1/s");
        let rounds = self.a_rates.len() / PARTS;
        out.attempted += (2 * n * rounds) as u64;
        println!(
            "offline: {PARTS} streams of {} arrivals x {rounds} rounds, (a) {a:.0} decisions/s, \
             (b) {:.0} entries/s (medians over streams)",
            n / PARTS,
            median(&self.b_rates),
        );
        out.check(
            "offline.worker_digest_equals_single_worker",
            self.worker_mismatch.is_empty(),
            || {
                format!(
                    "{}-worker digests differ from the single-worker ones on streams {:?}",
                    self.nproc, self.worker_mismatch
                )
            },
        );
        out.check(
            "offline.recovered_digest_equals_live",
            self.recover_mismatch.is_empty(),
            || {
                format!(
                    "recovery differs from the live run on streams {:?}",
                    self.recover_mismatch
                )
            },
        );
        check_default_digest(plan, out);
        let mut m = ShardMetrics::new(K);
        for part in &self.parts {
            m.merge(&part.metrics);
        }
        println!(
            "offline: {} of {} decisions in the table's clamp region ({:.3e}), \
             peak queues {} inelastic / {} elastic against a grid of {GRID}",
            m.overflow_lookups,
            m.decisions,
            m.overflow_lookups as f64 / m.decisions as f64,
            m.peak_inelastic,
            m.peak_elastic,
        );

        if trace::enabled() {
            layer_metrics(plan, &self.parts[0].arrivals, out);
            // One worker over every stream: the per-decision cost of the
            // event core, and the speed-up `nproc` workers give.
            let (mut ingest, mut total) = (0.0, 0.0);
            let mut latency = eirs_obs::LatencyHistogram::new();
            for part in &self.parts {
                let (ingest_s, drain_s, e) = serve_timed(engine(1), &part.arrivals);
                ingest += ingest_s;
                total += ingest_s + drain_s;
                latency.merge(&e.decision_latency());
            }
            out.layer(
                "serve.engine.ns_per_decision",
                ingest * 1e9 / n as f64,
                "ns",
            );
            out.layer(
                "serve.engine.worker_scaling",
                a / (n as f64 / total),
                "ratio",
            );
            out.layer("serve.engine.drain_ms", median(&self.drains) * 1e3, "ms");
            out.layer(
                "serve.replay.ns_per_arrival",
                median(&self.replays) * 1e9,
                "ns",
            );
            out.layer(
                "serve.journal.load_ns_per_entry",
                median(&self.loads) * 1e9,
                "ns",
            );
            let bytes: u64 = self
                .parts
                .iter()
                .map(|p| std::fs::metadata(&p.path).map_or(0, |m| m.len()))
                .sum();
            out.layer(
                "serve.journal.bytes_per_entry",
                bytes as f64 / n as f64,
                "B",
            );
            out.layer(
                "serve.decision_latency_p99_ns",
                latency.quantile(0.99).unwrap_or(0) as f64,
                "ns",
            );
        }
        median(&self.setups)
    }
}

/// The default-seed stream must reproduce the recorded digest.
fn check_default_digest(plan: &Plan, out: &mut Report) {
    let arrivals = stream(1, plan.rho, DIGEST_ARRIVALS);
    let mut e = serve(engine(1), &arrivals, None);
    e.drain();
    let got = e.decision_digest();
    let recorded = DEFAULT_DIGESTS
        .iter()
        .find(|&&(rho, _)| rho == plan.rho)
        .map(|&(_, d)| d);
    out.check(
        "offline.default_seed_digest_matches_record",
        recorded == Some(got),
        || format!("digest {got:#018x}, recorded {recorded:x?}"),
    );
}

/// Per-layer figures from timed calls into `eirs_serve`.
fn layer_metrics(plan: &Plan, arrivals: &[Arrival], out: &mut Report) {
    let reps = if plan.smoke { 1 } else { 5 };
    // Table: compile the swap specs; look up a grid of states.
    let compile_us: Vec<f64> = (0..reps * 2)
        .map(|r| timed(|| compile(SWAP_SPECS[r % 2]).expect("compiles")).0 * 1e6)
        .collect();
    out.layer("serve.table.compile_us", median(&compile_us), "us");
    let table = compile(BOOT_SPEC).expect("compiles");
    let lookups: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0.0;
            for round in 0..40 {
                for i in 0..50 {
                    for j in 0..50 {
                        acc += table
                            .lookup(std::hint::black_box(i + round % 3), j)
                            .inelastic;
                    }
                }
            }
            std::hint::black_box(acc);
            t.elapsed().as_nanos() as f64 / (40.0 * 2500.0)
        })
        .collect();
    out.layer("serve.table.lookup_ns", median(&lookups), "ns");

    // Engine admissions at the batch sizes the server forms at low and
    // high rates.
    let head = &arrivals[..arrivals.len().min(32_768)];
    for (label, b) in [("b1", 1usize), ("b256", 256)] {
        let mut e = engine(1);
        let t = Instant::now();
        let mut calls = 0;
        for chunk in head.chunks(b) {
            std::hint::black_box(e.ingest_batch_admissions(chunk));
            calls += 1;
        }
        let us = t.elapsed().as_secs_f64() * 1e6 / calls as f64;
        out.layer(&format!("serve.engine.admit_us.{label}"), us, "us");
    }

    // Journal append: one-entry batches into a buffered file, flushed
    // each time, as the network router does.
    let path = plan.work.join("append.wal");
    let e = engine(1);
    let file = std::fs::File::create(&path).expect("create the journal");
    let mut w = JournalWriter::create(std::io::BufWriter::new(file), &e).expect("header");
    let n = head.len();
    let t = Instant::now();
    for (seq, a) in head.iter().enumerate() {
        w.append_batch(seq as u64, std::slice::from_ref(a))
            .expect("append");
    }
    out.layer(
        "serve.journal.append_ns",
        t.elapsed().as_nanos() as f64 / n as f64,
        "ns",
    );
    drop(w);
    let _ = std::fs::remove_file(&path);
}
