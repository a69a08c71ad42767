//! Snapshot/restore of live engine state.
//!
//! Operationally a decision server must survive restarts without
//! forgetting in-flight work: a snapshot freezes every shard's clock,
//! queues (with per-job remaining work), digest, and counters into a
//! line-oriented text format (the same discipline as the arrival-trace
//! files: floats print in Rust's shortest round-trippable form, so a
//! restored engine is **bit-identical** to the original — continuing
//! both from the same point produces the same decision digest, which the
//! `serve_layer` tests assert).
//!
//! The optional decision log ([`EngineConfig::record_decisions`]) is an
//! audit/debug surface, not state — it is not snapshotted.
//!
//! [`EngineConfig::record_decisions`]: crate::engine::EngineConfig::record_decisions

use crate::engine::{ChurnConfig, ClusterShard, EngineConfig, ServeEngine};
use crate::metrics::ShardMetrics;
use crate::table::CompiledTable;
use eirs_sim::job::{Job, JobClass};
use eirs_sim::policy::AllocationPolicy;
use std::io::{BufRead, Write};

/// One frozen job: class, remaining work, inherent size, arrival epoch,
/// and id (ids keep restored queues byte-equal to the originals).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSnapshot {
    /// Job id within its shard.
    pub id: u64,
    /// Job class.
    pub class: JobClass,
    /// Remaining work.
    pub remaining: f64,
    /// Inherent size (sets the completion tolerance).
    pub size: f64,
    /// Arrival epoch (for response-time accounting on completion).
    pub arrival: f64,
}

/// One frozen shard: clock, digest, counters, fault-replay position,
/// and both queues in order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Shard clock.
    pub time: f64,
    /// Running decision digest.
    pub digest: u64,
    /// Next job id.
    pub next_id: u64,
    /// Servers available at snapshot time (`k` when healthy).
    pub avail: u32,
    /// Applied-event count into the shard's fault schedule.
    pub fault_cursor: usize,
    /// Operational counters.
    pub metrics: ShardMetrics,
    /// Queued jobs: the inelastic queue front-to-back, then the elastic
    /// queue front-to-back (the class tag separates them on restore).
    pub jobs: Vec<JobSnapshot>,
}

/// A full engine snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Servers per shard.
    pub k: u32,
    /// Routing partition width.
    pub route_shards: usize,
    /// Global arrival sequence counter.
    pub seq: u64,
    /// Name of the compiled table that was serving (policy identity:
    /// family plus parameters). Restore refuses a table with a different
    /// name — continuing a snapshot under another policy would silently
    /// break the bit-identical-continuation contract.
    pub policy: String,
    /// Capacity-churn identity the engine was running under (fault
    /// model, seed, horizon). Restore refuses a mismatch for the same
    /// reason it refuses a different policy.
    pub churn: Option<ChurnConfig>,
    /// Policy generation serving at snapshot time (0 = boot policy;
    /// incremented by every [`ServeEngine::install_table`] hot-swap).
    pub generation: u32,
    /// [`CompiledTable::identity_hash`] of the serving table — a
    /// grid-size-independent behavioral fingerprint. Restore refuses a
    /// table with a different hash (0 in pre-hot-swap snapshots, which
    /// skips the check and falls back to the name comparison alone).
    pub policy_hash: u64,
    /// Per-shard state, in shard order.
    pub shards: Vec<ShardSnapshot>,
}

/// Failures when parsing a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// Underlying I/O failure, with the [`std::io::ErrorKind`] preserved
    /// so callers can distinguish a missing file from a truncated or
    /// unreadable one without string-matching.
    Io {
        /// The kind of the underlying I/O failure ([`std::io::ErrorKind::UnexpectedEof`]
        /// for structurally truncated snapshots).
        kind: std::io::ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// A malformed line: `(1-based line number, message)`.
    Line(usize, String),
    /// Structurally valid but inconsistent with the restoring engine.
    Mismatch(String),
}

impl SnapshotError {
    fn io(kind: std::io::ErrorKind, message: impl Into<String>) -> Self {
        SnapshotError::Io {
            kind,
            message: message.into(),
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::io(e.kind(), e.to_string())
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { kind, message } => {
                write!(f, "snapshot I/O error ({kind}): {message}")
            }
            SnapshotError::Line(n, msg) => write!(f, "snapshot line {n}: {msg}"),
            SnapshotError::Mismatch(msg) => write!(f, "snapshot mismatch: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl EngineSnapshot {
    /// Serializes as text: a header, one `shard` line per shard with its
    /// scalars, a `hist` line, then one `job` line per queued job.
    pub fn to_writer(&self, w: &mut dyn Write) -> std::io::Result<()> {
        writeln!(w, "# eirs-serve-snapshot v1")?;
        writeln!(
            w,
            "k {} route_shards {} seq {}",
            self.k, self.route_shards, self.seq
        )?;
        writeln!(w, "policy {}", self.policy)?;
        writeln!(
            w,
            "generation {} policy_hash {}",
            self.generation, self.policy_hash
        )?;
        if let Some(churn) = &self.churn {
            writeln!(w, "churn {}", churn.identity())?;
        }
        for (idx, s) in self.shards.iter().enumerate() {
            let m = &s.metrics;
            writeln!(
                w,
                "shard {idx} time {} digest {} next_id {} avail {} fault_cursor {} arrivals {} \
                 arr_i {} arr_e {} \
                 completions {} decisions {} overflow {} degraded {} rejections {} preemptions {} \
                 peak_i {} peak_j {} total_response {} sim_time {}",
                s.time,
                s.digest,
                s.next_id,
                s.avail,
                s.fault_cursor,
                m.arrivals,
                m.arrivals_inelastic,
                m.arrivals_elastic,
                m.completions,
                m.decisions,
                m.overflow_lookups,
                m.degraded_decisions,
                m.rejections,
                m.preemptions,
                m.peak_inelastic,
                m.peak_elastic,
                m.total_response,
                m.sim_time,
            )?;
            let hist: Vec<String> = m.busy_histogram.iter().map(u64::to_string).collect();
            writeln!(w, "hist {}", hist.join(" "))?;
            // Response-time telemetry state, written only once populated
            // so pre-telemetry snapshots and fresh shards stay byte-for-
            // byte in the v1 shape (absent lines restore as fresh).
            if !m.response_hist.is_empty() {
                writeln!(w, "rhist {}", m.response_hist.encode())?;
            }
            for job in &s.jobs {
                let c = match job.class {
                    JobClass::Inelastic => 'I',
                    JobClass::Elastic => 'E',
                };
                writeln!(
                    w,
                    "job {} {c} {} {} {}",
                    job.id, job.remaining, job.size, job.arrival
                )?;
            }
        }
        writeln!(w, "end")
    }

    /// Parses the text format of [`EngineSnapshot::to_writer`].
    pub fn from_reader(r: &mut dyn BufRead) -> Result<Self, SnapshotError> {
        let mut header: Option<(u32, usize, u64)> = None;
        let mut policy: Option<String> = None;
        let mut churn: Option<ChurnConfig> = None;
        let mut generation = 0u32;
        let mut policy_hash = 0u64;
        let mut shards: Vec<ShardSnapshot> = Vec::new();
        let mut saw_end = false;
        for (idx, line) in r.lines().enumerate() {
            let line = line?;
            let n = idx + 1;
            let body = line.trim();
            if body.is_empty() || body.starts_with('#') {
                continue;
            }
            if saw_end {
                return Err(SnapshotError::Line(n, "content after end marker".into()));
            }
            let fields: Vec<&str> = body.split_whitespace().collect();
            let parse = |slot: usize, name: &str| -> Result<&str, SnapshotError> {
                fields
                    .get(slot)
                    .copied()
                    .ok_or_else(|| SnapshotError::Line(n, format!("missing {name} field")))
            };
            match fields[0] {
                "k" => {
                    // `k <k> route_shards <r> seq <s>`
                    let k = num(parse(1, "k")?, n, "k")?;
                    if parse(2, "route_shards")? != "route_shards" {
                        return Err(SnapshotError::Line(n, "expected route_shards".into()));
                    }
                    let route = num(parse(3, "route_shards")?, n, "route_shards")?;
                    if parse(4, "seq")? != "seq" {
                        return Err(SnapshotError::Line(n, "expected seq".into()));
                    }
                    let seq = num(parse(5, "seq")?, n, "seq")?;
                    header = Some((k as u32, route as usize, seq));
                }
                "policy" => {
                    // The rest of the line verbatim (names contain spaces).
                    let name = body["policy".len()..].trim();
                    if name.is_empty() {
                        return Err(SnapshotError::Line(n, "empty policy name".into()));
                    }
                    policy = Some(name.to_string());
                }
                "generation" => {
                    // `generation <g> policy_hash <h>` (absent in
                    // pre-hot-swap snapshots; defaults 0/0).
                    generation = num(parse(1, "generation")?, n, "generation")? as u32;
                    if parse(2, "policy_hash")? != "policy_hash" {
                        return Err(SnapshotError::Line(n, "expected policy_hash".into()));
                    }
                    policy_hash = num(parse(3, "policy_hash")?, n, "policy_hash")?;
                }
                "churn" => {
                    // The rest of the line verbatim (the identity string
                    // has internal spaces).
                    let raw = body["churn".len()..].trim();
                    churn = Some(
                        ChurnConfig::parse_identity(raw).map_err(|e| SnapshotError::Line(n, e))?,
                    );
                }
                "shard" => {
                    // Keyed `name value` pairs after the shard index.
                    let mut time = 0.0f64;
                    let mut digest = 0u64;
                    let mut next_id = 0u64;
                    // Pre-churn snapshots carry no `avail`; the sentinel
                    // is replaced by the header `k` (healthy) after the
                    // parse loop.
                    let mut avail = u32::MAX;
                    let mut fault_cursor = 0usize;
                    let mut m = ShardMetrics::new(1);
                    m.busy_histogram.clear();
                    for pair in fields[2..].chunks(2) {
                        let &[key, value] = pair else {
                            return Err(SnapshotError::Line(n, "dangling shard field".into()));
                        };
                        match key {
                            "time" => time = numf(value, n, key)?,
                            "digest" => digest = num(value, n, key)?,
                            "next_id" => next_id = num(value, n, key)?,
                            "avail" => avail = num(value, n, key)? as u32,
                            "fault_cursor" => fault_cursor = num(value, n, key)? as usize,
                            "arrivals" => m.arrivals = num(value, n, key)?,
                            "arr_i" => m.arrivals_inelastic = num(value, n, key)?,
                            "arr_e" => m.arrivals_elastic = num(value, n, key)?,
                            "completions" => m.completions = num(value, n, key)?,
                            "decisions" => m.decisions = num(value, n, key)?,
                            "overflow" => m.overflow_lookups = num(value, n, key)?,
                            "degraded" => m.degraded_decisions = num(value, n, key)?,
                            "rejections" => m.rejections = num(value, n, key)?,
                            "preemptions" => m.preemptions = num(value, n, key)?,
                            "peak_i" => m.peak_inelastic = num(value, n, key)? as usize,
                            "peak_j" => m.peak_elastic = num(value, n, key)? as usize,
                            "total_response" => m.total_response = numf(value, n, key)?,
                            "sim_time" => m.sim_time = numf(value, n, key)?,
                            other => {
                                return Err(SnapshotError::Line(
                                    n,
                                    format!("unknown shard field '{other}'"),
                                ))
                            }
                        }
                    }
                    shards.push(ShardSnapshot {
                        time,
                        digest,
                        next_id,
                        avail,
                        fault_cursor,
                        metrics: m,
                        jobs: Vec::new(),
                    });
                }
                "hist" => {
                    let shard = shards
                        .last_mut()
                        .ok_or_else(|| SnapshotError::Line(n, "hist before any shard".into()))?;
                    shard.metrics.busy_histogram = fields[1..]
                        .iter()
                        .map(|v| num(v, n, "hist"))
                        .collect::<Result<_, _>>()?;
                }
                "rhist" => {
                    let shard = shards
                        .last_mut()
                        .ok_or_else(|| SnapshotError::Line(n, "rhist before any shard".into()))?;
                    shard.metrics.response_hist =
                        eirs_obs::LatencyHistogram::decode(body["rhist".len()..].trim())
                            .map_err(|e| SnapshotError::Line(n, e))?;
                }
                // Older snapshots also carried a per-shard P² sketch; the
                // histogram above supersedes it.
                "rtail" => {}
                "job" => {
                    let shard = shards
                        .last_mut()
                        .ok_or_else(|| SnapshotError::Line(n, "job before any shard".into()))?;
                    let id = num(parse(1, "id")?, n, "id")?;
                    let class = match parse(2, "class")? {
                        "I" => JobClass::Inelastic,
                        "E" => JobClass::Elastic,
                        other => {
                            return Err(SnapshotError::Line(n, format!("unknown class '{other}'")))
                        }
                    };
                    let remaining = numf(parse(3, "remaining")?, n, "remaining")?;
                    let size = numf(parse(4, "size")?, n, "size")?;
                    let arrival = numf(parse(5, "arrival")?, n, "arrival")?;
                    shard.jobs.push(JobSnapshot {
                        id,
                        class,
                        remaining,
                        size,
                        arrival,
                    });
                }
                "end" => saw_end = true,
                other => {
                    return Err(SnapshotError::Line(n, format!("unknown record '{other}'")));
                }
            }
        }
        if !saw_end {
            return Err(SnapshotError::io(
                std::io::ErrorKind::UnexpectedEof,
                "truncated snapshot (no end marker)",
            ));
        }
        let (k, route_shards, seq) = header.ok_or_else(|| {
            SnapshotError::io(std::io::ErrorKind::InvalidData, "snapshot has no header")
        })?;
        let policy = policy.ok_or_else(|| {
            SnapshotError::io(std::io::ErrorKind::InvalidData, "snapshot has no policy")
        })?;
        if shards.len() != route_shards {
            return Err(SnapshotError::Mismatch(format!(
                "header promises {route_shards} shards, found {}",
                shards.len()
            )));
        }
        for s in &mut shards {
            if s.avail == u32::MAX {
                s.avail = k;
            }
        }
        Ok(Self {
            k,
            route_shards,
            seq,
            policy,
            churn,
            generation,
            policy_hash,
            shards,
        })
    }

    /// Writes the snapshot to `path`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.to_writer(&mut file)
    }

    /// Loads a snapshot written by [`EngineSnapshot::save`].
    pub fn load(path: &std::path::Path) -> Result<Self, SnapshotError> {
        let file = std::fs::File::open(path)?;
        Self::from_reader(&mut std::io::BufReader::new(file))
    }
}

fn num(raw: &str, line: usize, name: &str) -> Result<u64, SnapshotError> {
    raw.parse()
        .map_err(|_| SnapshotError::Line(line, format!("unparsable {name} '{raw}'")))
}

fn numf(raw: &str, line: usize, name: &str) -> Result<f64, SnapshotError> {
    raw.parse()
        .map_err(|_| SnapshotError::Line(line, format!("unparsable {name} '{raw}'")))
}

impl ServeEngine {
    /// Freezes the engine's full state (see the [module docs](self)).
    pub fn snapshot(&self) -> EngineSnapshot {
        let shards = self
            .shards
            .iter()
            .map(|s| {
                let jobs = s
                    .core
                    .jobs()
                    .map(|job| JobSnapshot {
                        id: job.id,
                        class: job.class,
                        remaining: job.remaining,
                        size: job.size,
                        arrival: job.arrival,
                    })
                    .collect();
                ShardSnapshot {
                    time: s.core.now(),
                    digest: s.digest,
                    next_id: s.core.next_id(),
                    avail: s.core.avail(),
                    fault_cursor: s.core.fault_cursor(),
                    metrics: s.metrics.clone(),
                    jobs,
                }
            })
            .collect();
        EngineSnapshot {
            k: self.config.k,
            route_shards: self.config.route_shards,
            seq: self.seq,
            policy: self.table.name(),
            churn: self.config.churn,
            generation: self.generation,
            policy_hash: self.table.identity_hash(),
            shards,
        }
    }

    /// Rebuilds an engine from a snapshot. The table and config must
    /// match the snapshot's `k` and `route_shards`; worker count, batch
    /// size, and decision recording are free to differ (they are
    /// processing knobs, not state).
    pub fn from_snapshot(
        table: CompiledTable,
        config: EngineConfig,
        snap: &EngineSnapshot,
    ) -> Result<Self, SnapshotError> {
        if table.k() != snap.k || config.k != snap.k {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot is for k={}, table k={}, config k={}",
                snap.k,
                table.k(),
                config.k
            )));
        }
        if table.name() != snap.policy {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot was serving '{}', restoring table is '{}' — continuing under a \
                 different policy would break the bit-identical continuation",
                snap.policy,
                table.name()
            )));
        }
        if snap.policy_hash != 0 && table.identity_hash() != snap.policy_hash {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot pins policy identity hash {:#018x}, restoring table hashes to \
                 {:#018x} — same name, different decision behavior",
                snap.policy_hash,
                table.identity_hash()
            )));
        }
        if config.route_shards != snap.route_shards {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {} route shards, config {}",
                snap.route_shards, config.route_shards
            )));
        }
        let identity = |c: &Option<ChurnConfig>| match c {
            Some(c) => c.identity(),
            None => "none".to_string(),
        };
        if config.churn != snap.churn {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot was taken under churn '{}', restoring config has '{}' — the fault \
                 schedule is part of the serving identity",
                identity(&snap.churn),
                identity(&config.churn)
            )));
        }
        let mut engine = ServeEngine::new(table, config);
        engine.seq = snap.seq;
        engine.generation = snap.generation;
        for (shard, frozen) in engine.shards.iter_mut().zip(&snap.shards) {
            restore_shard(shard, frozen, snap.k)?;
        }
        Ok(engine)
    }
}

fn restore_shard(
    shard: &mut ClusterShard,
    frozen: &ShardSnapshot,
    k: u32,
) -> Result<(), SnapshotError> {
    if frozen.metrics.busy_histogram.len() != k as usize + 1 {
        return Err(SnapshotError::Mismatch(format!(
            "histogram has {} buckets, expected {}",
            frozen.metrics.busy_histogram.len(),
            k + 1
        )));
    }
    let jobs = frozen.jobs.iter().map(|js| {
        let mut job = Job::new(js.id, js.class, js.size, js.arrival);
        job.remaining = js.remaining;
        job
    });
    shard
        .core
        .restore(
            frozen.time,
            frozen.next_id,
            frozen.avail,
            frozen.fault_cursor,
            jobs,
        )
        .map_err(SnapshotError::Mismatch)?;
    shard.digest = frozen.digest;
    shard.metrics = frozen.metrics.clone();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirs_queueing::Exponential;
    use eirs_sim::arrivals::ArrivalTrace;
    use eirs_sim::policy::FairShare;

    fn running_engine() -> (ServeEngine, ArrivalTrace) {
        let trace = ArrivalTrace::record_poisson(
            0.8,
            0.5,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            5,
            120.0,
        );
        let table = CompiledTable::compile(Box::new(FairShare), 2, 16, 16);
        let config = EngineConfig::new(2).route_shards(3).batch(8);
        let mut engine = ServeEngine::new(table, config);
        // Ingest the first half of the trace so queues are mid-flight.
        let half = trace.len() / 2;
        engine.ingest_batch(&trace.arrivals()[..half]);
        (engine, trace)
    }

    #[test]
    fn snapshot_round_trips_through_the_text_format() {
        let (engine, _) = running_engine();
        let snap = engine.snapshot();
        let mut buf = Vec::new();
        snap.to_writer(&mut buf).unwrap();
        let parsed = EngineSnapshot::from_reader(&mut std::io::Cursor::new(buf)).unwrap();
        assert_eq!(parsed, snap, "text round trip must be lossless");
    }

    #[test]
    fn restored_engine_continues_bit_identically() {
        let (mut original, trace) = running_engine();
        let snap = original.snapshot();
        let table = CompiledTable::compile(Box::new(FairShare), 2, 16, 16);
        let config = *original.config();
        let mut restored = ServeEngine::from_snapshot(table, config, &snap).unwrap();
        assert_eq!(restored.decision_digest(), original.decision_digest());
        // Continue both engines on the second half; they must agree on
        // everything observable.
        let half = trace.len() / 2;
        let rest = &trace.arrivals()[half..];
        original.ingest_batch(rest);
        original.drain();
        restored.ingest_batch(rest);
        restored.drain();
        assert_eq!(restored.decision_digest(), original.decision_digest());
        assert_eq!(restored.metrics_total(), original.metrics_total());
        assert_eq!(restored.ingested(), original.ingested());
    }

    #[test]
    fn restore_rejects_mismatched_shape() {
        let (engine, _) = running_engine();
        let snap = engine.snapshot();
        let wrong_k = CompiledTable::compile(Box::new(FairShare), 3, 8, 8);
        assert!(matches!(
            ServeEngine::from_snapshot(wrong_k, EngineConfig::new(3).route_shards(3), &snap),
            Err(SnapshotError::Mismatch(_))
        ));
        let table = CompiledTable::compile(Box::new(FairShare), 2, 8, 8);
        assert!(matches!(
            ServeEngine::from_snapshot(table, EngineConfig::new(2).route_shards(5), &snap),
            Err(SnapshotError::Mismatch(_))
        ));
    }

    #[test]
    fn restore_rejects_a_different_policy() {
        use eirs_sim::policy::InelasticFirst;
        let (engine, _) = running_engine();
        let snap = engine.snapshot();
        assert_eq!(snap.policy, "Compiled[Fair-Share]");
        // Same k and shape, different policy: silently continuing would
        // diverge from the snapshotting engine, so restore must refuse.
        let other = CompiledTable::compile(Box::new(InelasticFirst), 2, 16, 16);
        let err = ServeEngine::from_snapshot(other, *engine.config(), &snap)
            .err()
            .expect("different policy must be rejected");
        assert!(
            matches!(&err, SnapshotError::Mismatch(m) if m.contains("Fair-Share")),
            "{err:?}"
        );
    }

    #[test]
    fn fault_state_round_trips_and_guards_the_churn_identity() {
        use eirs_sim::availability::FaultSpec;
        let churn = crate::engine::ChurnConfig {
            spec: FaultSpec::parse("crash:mtbf=40,mttr=8").unwrap(),
            seed: 7,
            horizon: 300.0,
        };
        let trace = ArrivalTrace::record_poisson(
            0.8,
            0.5,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            5,
            120.0,
        );
        let table = CompiledTable::compile(Box::new(FairShare), 2, 16, 16);
        let config = EngineConfig::new(2).route_shards(3).churn(churn);
        let mut engine = ServeEngine::new(table, config);
        engine.ingest_batch(trace.arrivals());
        let snap = engine.snapshot();
        assert_eq!(snap.churn, Some(churn));
        assert!(
            snap.shards.iter().any(|s| s.fault_cursor > 0),
            "a 120-epoch run under mtbf=40 churn should have applied fault events"
        );
        // Text round trip preserves the fault-replay position exactly.
        let mut buf = Vec::new();
        snap.to_writer(&mut buf).unwrap();
        let parsed = EngineSnapshot::from_reader(&mut std::io::Cursor::new(buf)).unwrap();
        assert_eq!(parsed, snap);
        // Restoring without the churn config (or, symmetrically, with a
        // different one) must refuse: the fault schedule is identity.
        let table = CompiledTable::compile(Box::new(FairShare), 2, 16, 16);
        let err = ServeEngine::from_snapshot(table, EngineConfig::new(2).route_shards(3), &snap)
            .err()
            .expect("churn mismatch must be rejected");
        assert!(
            matches!(&err, SnapshotError::Mismatch(m) if m.contains("churn")),
            "{err:?}"
        );
        // With the matching churn the restore continues bit-identically.
        let table = CompiledTable::compile(Box::new(FairShare), 2, 16, 16);
        let mut restored = ServeEngine::from_snapshot(table, config, &snap).unwrap();
        engine.drain();
        restored.drain();
        assert_eq!(restored.decision_digest(), engine.decision_digest());
        assert_eq!(restored.metrics_total(), engine.metrics_total());
    }

    #[test]
    fn response_telemetry_state_round_trips_and_is_optional() {
        let (mut engine, _) = running_engine();
        engine.drain();
        let snap = engine.snapshot();
        let populated = snap
            .shards
            .iter()
            .any(|s| !s.metrics.response_hist.is_empty());
        assert!(populated, "drained engine must have recorded responses");
        let mut buf = Vec::new();
        snap.to_writer(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\nrhist ") && !text.contains("\nrtail "));
        let parsed = EngineSnapshot::from_reader(&mut std::io::Cursor::new(text.clone())).unwrap();
        assert_eq!(parsed, snap);
        // A pre-telemetry snapshot (no rhist lines) still parses; the
        // histograms restore fresh.
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with("rhist"))
            .map(|l| format!("{l}\n"))
            .collect();
        let old = EngineSnapshot::from_reader(&mut std::io::Cursor::new(stripped)).unwrap();
        assert!(old
            .shards
            .iter()
            .all(|s| s.metrics.response_hist.is_empty()));
        // But a corrupted telemetry line is an error, not a silent skip.
        let bad = text.replacen("rhist ", "rhist x", 1);
        assert!(matches!(
            EngineSnapshot::from_reader(&mut std::io::Cursor::new(bad)),
            Err(SnapshotError::Line(..))
        ));
    }

    #[test]
    fn generation_and_policy_hash_round_trip_and_guard_restore() {
        use eirs_sim::policy::{AllocationPolicy, ClassAllocation};
        let (mut engine, _) = running_engine();
        // Hot-swap: the snapshot must pin the new generation and the
        // swapped table's identity hash.
        engine.install_table(CompiledTable::compile(Box::new(FairShare), 2, 8, 8), "fs");
        let snap = engine.snapshot();
        assert_eq!(snap.generation, 1);
        assert_eq!(snap.policy_hash, engine.table().identity_hash());
        let mut buf = Vec::new();
        snap.to_writer(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\ngeneration 1 policy_hash "));
        let parsed = EngineSnapshot::from_reader(&mut std::io::Cursor::new(text.clone())).unwrap();
        assert_eq!(parsed, snap);
        let table = CompiledTable::compile(Box::new(FairShare), 2, 16, 16);
        let restored = ServeEngine::from_snapshot(table, *engine.config(), &snap).unwrap();
        assert_eq!(restored.generation(), 1);
        // A policy with the same *name* but different decision behavior
        // is refused by the hash even though the name check passes.
        struct Impostor;
        impl AllocationPolicy for Impostor {
            fn allocate(&self, _: usize, _: usize, _: u32) -> ClassAllocation {
                ClassAllocation::IDLE
            }
            fn name(&self) -> String {
                "Fair-Share".into()
            }
        }
        let fake = CompiledTable::compile(Box::new(Impostor), 2, 16, 16);
        let err = ServeEngine::from_snapshot(fake, *engine.config(), &snap)
            .err()
            .expect("impostor policy must be rejected");
        assert!(
            matches!(&err, SnapshotError::Mismatch(m) if m.contains("identity hash")),
            "{err:?}"
        );
        // Pre-hot-swap snapshots (no generation line) parse with the
        // defaults and restore without the hash check.
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with("generation"))
            .map(|l| format!("{l}\n"))
            .collect();
        let old = EngineSnapshot::from_reader(&mut std::io::Cursor::new(stripped)).unwrap();
        assert_eq!((old.generation, old.policy_hash), (0, 0));
        let table = CompiledTable::compile(Box::new(FairShare), 2, 16, 16);
        assert!(ServeEngine::from_snapshot(table, *engine.config(), &old).is_ok());
    }

    #[test]
    fn truncated_files_surface_as_unexpected_eof() {
        let (engine, _) = running_engine();
        let mut buf = Vec::new();
        engine.snapshot().to_writer(&mut buf).unwrap();
        // Chop the file anywhere before the end marker: structurally
        // truncated, reported as UnexpectedEof (satellite: the error kind
        // survives, callers need not string-match).
        for cut in [buf.len() / 3, buf.len() / 2, buf.len() - 5] {
            let err = EngineSnapshot::from_reader(&mut std::io::Cursor::new(&buf[..cut]))
                .expect_err("truncated snapshot must fail");
            match err {
                SnapshotError::Io { kind, .. } => {
                    assert_eq!(kind, std::io::ErrorKind::UnexpectedEof)
                }
                // A cut mid-line can also leave a half token behind.
                SnapshotError::Line(..) => {}
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_fields_report_the_offending_line() {
        let (engine, _) = running_engine();
        let mut buf = Vec::new();
        engine.snapshot().to_writer(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Garble one numeric field in the first shard line.
        let corrupted = text.replacen("digest ", "digest x", 1);
        let err = EngineSnapshot::from_reader(&mut std::io::Cursor::new(corrupted))
            .expect_err("corrupted snapshot must fail");
        assert!(
            matches!(&err, SnapshotError::Line(_, m) if m.contains("digest")),
            "{err:?}"
        );
        // A bogus churn identity is rejected with its line, not ignored.
        let with_churn = text.replacen("policy", "churn spec=bogus seed=1 horizon=1\npolicy", 1);
        let err = EngineSnapshot::from_reader(&mut std::io::Cursor::new(with_churn))
            .expect_err("bogus churn identity must fail");
        assert!(matches!(err, SnapshotError::Line(..)), "{err:?}");
    }

    #[test]
    fn parser_rejects_malformed_snapshots() {
        for bad in [
            "",                                        // no header, no end
            "k 2 route_shards 1 seq 0\n",              // truncated (no end)
            "k 2 route_shards 2 seq 0\nend\n",         // shard count mismatch
            "hist 1 2\nend\n",                         // hist before shard
            "job 0 I 1 1 0\nend\n",                    // job before shard
            "k 2 route_shards 0 seq 0\nwhat 3\nend\n", // unknown record
        ] {
            assert!(
                EngineSnapshot::from_reader(&mut std::io::Cursor::new(bad)).is_err(),
                "snapshot {bad:?} should fail"
            );
        }
    }
}
