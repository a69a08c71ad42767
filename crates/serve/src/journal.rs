//! Write-ahead decision journaling: crash recovery and standalone
//! replay, both bit-identical.
//!
//! A snapshot freezes engine state at one instant; the journal covers the
//! gap between the last snapshot and a crash. The discipline is
//! write-ahead: every arrival batch is appended to the journal **and
//! flushed** before the engine ingests it, and every policy hot-swap
//! before any arrival is served under it, so after an abrupt kill the
//! journal always holds at least everything the engine has seen.
//!
//! One loop writes journals and one reads them:
//!
//! * [`run_journaled`] is the offline run loop behind every offline
//!   `eirs serve` mode and [`ServeEngine::run`]. Its [`RunControls`]
//!   boundaries — a hot-swap, a snapshot, a kill — each split a batch at
//!   an exact arrival count. Every run drains at the end unless it was
//!   killed.
//! * [`recover`]/[`recover_with`] (restore a snapshot, replay the
//!   journal's suffix from its sequence number) and [`replay_journal`]
//!   (recompile the boot policy, replay everything) share one private
//!   replay routine that re-installs each journaled swap at its seq.
//!   Neither drains: a recovered engine keeps serving, and a replayed
//!   one is drained by the caller to compare against a finished run.
//!
//! Because the engine is deterministic and batching does not affect
//! semantics, a recovered engine continues **bit-identically**, and a
//! replayed-then-drained one reproduces the live run's shard-ordered
//! decision digest. The `fault_tolerance` tests and the CI chaos and
//! hot-swap gates assert exactly that, including under capacity churn.
//!
//! The format follows the trace/snapshot discipline: line-oriented text,
//! `#` comments, floats in Rust's shortest round-trippable form. A header
//! records the serving identity (policy, shape, churn, and for
//! standalone replay the boot spec and its table hash); each `a` entry is
//! one arrival with its global sequence number, and each `g` record one
//! hot-swap (`g <seq> <generation> <hash> <spec>`):
//!
//! ```text
//! # eirs-serve-journal v1
//! k 2 route_shards 4
//! policy Compiled[Fair-Share]
//! churn spec=crash:mtbf=50,mttr=5 seed=7 horizon=200
//! a 0 0.3517 I 1.25
//! a 1 0.9102 E 0.75
//! g 2 1 4919650944929708735 threshold:16
//! a 2 1.0433 I 0.5
//! ```
//!
//! There is no end marker: a journal is valid at every prefix of whole
//! lines, because a crash can happen at any time (a torn final line is
//! reported with its line number, and [`Journal::load_prefix`] recovers
//! the longest whole-line prefix).

use crate::engine::{ChurnConfig, EngineConfig, ServeEngine, SwapRecord};
use crate::snapshot::{EngineSnapshot, SnapshotError};
use crate::table::CompiledTable;
use eirs_sim::arrivals::{Arrival, ArrivalSource};
use eirs_sim::job::JobClass;
use eirs_sim::policy::AllocationPolicy;
use std::io::{BufRead, Write};

/// One journaled arrival: the global routing sequence number it was
/// ingested as, plus the arrival itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalEntry {
    /// Global arrival sequence number (the engine's `seq` at ingest).
    pub seq: u64,
    /// The arrival.
    pub arrival: Arrival,
}

/// Failures when parsing or validating a journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// Underlying I/O failure with its [`std::io::ErrorKind`] preserved.
    Io {
        /// The kind of the underlying failure.
        kind: std::io::ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// A malformed line: `(1-based line number, message)`.
    Line(usize, String),
    /// Structurally valid but inconsistent with the recovering engine
    /// (wrong policy, shape, churn identity, or a sequence gap).
    Mismatch(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { kind, message } => {
                write!(f, "journal I/O error ({kind}): {message}")
            }
            JournalError::Line(n, msg) => write!(f, "journal line {n}: {msg}"),
            JournalError::Mismatch(msg) => write!(f, "journal mismatch: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

impl From<SnapshotError> for JournalError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io { kind, message } => JournalError::Io { kind, message },
            SnapshotError::Line(n, m) => JournalError::Line(n, format!("snapshot: {m}")),
            SnapshotError::Mismatch(m) => JournalError::Mismatch(m),
        }
    }
}

/// Appends journal lines ahead of ingestion (see the [module
/// docs](self) for the write-ahead contract).
#[derive(Debug)]
pub struct JournalWriter<W: Write> {
    w: W,
}

impl<W: Write> JournalWriter<W> {
    /// Starts a journal for `engine`, writing the identity header.
    pub fn create(w: W, engine: &ServeEngine) -> std::io::Result<Self> {
        Self::create_with_spec(w, engine, None)
    }

    /// [`JournalWriter::create`], additionally recording the parseable
    /// policy spec (the CLI `--policy` grammar) and the serving table's
    /// [identity hash](CompiledTable::identity_hash) in the header.
    /// Replay from the journal alone ([`replay_journal`]) needs the
    /// spec to recompile the boot policy; plain crash recovery does
    /// not, so `create` omits both lines and stays byte-compatible
    /// with pre-hot-swap journals.
    pub fn create_with_spec(
        mut w: W,
        engine: &ServeEngine,
        spec: Option<&str>,
    ) -> std::io::Result<Self> {
        writeln!(w, "# eirs-serve-journal v1")?;
        let c = engine.config();
        writeln!(w, "k {} route_shards {}", c.k, c.route_shards)?;
        writeln!(w, "policy {}", engine.table().name())?;
        if let Some(spec) = spec {
            writeln!(w, "policy_spec {spec}")?;
            writeln!(w, "policy_hash {}", engine.table().identity_hash())?;
        }
        if let Some(churn) = &c.churn {
            writeln!(w, "churn {}", churn.identity())?;
        }
        w.flush()?;
        Ok(Self { w })
    }

    /// Appends one batch starting at global sequence `start_seq` and
    /// flushes. Must be called **before** the batch is ingested — the
    /// flush is what makes the journal a write-ahead log.
    pub fn append_batch(&mut self, start_seq: u64, batch: &[Arrival]) -> std::io::Result<()> {
        for (offset, a) in batch.iter().enumerate() {
            let c = match a.class {
                JobClass::Inelastic => 'I',
                JobClass::Elastic => 'E',
            };
            writeln!(
                self.w,
                "a {} {} {c} {}",
                start_seq + offset as u64,
                a.time,
                a.size
            )?;
        }
        self.w.flush()
    }

    /// Journals one policy hot-swap and flushes. Like arrival batches
    /// this is write-ahead: append the record **before** serving any
    /// arrival under the new generation, so a crash can never leave
    /// served-but-unjournaled generations behind.
    pub fn append_swap(&mut self, rec: &SwapRecord) -> std::io::Result<()> {
        writeln!(
            self.w,
            "g {} {} {} {}",
            rec.seq, rec.generation, rec.hash, rec.spec
        )?;
        self.w.flush()
    }

    /// Unwraps the underlying writer (flushing first).
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// A parsed journal: the identity header plus every entry in order.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// Servers per shard the journaled engine was configured for.
    pub k: u32,
    /// Routing partition width.
    pub route_shards: usize,
    /// Compiled-table name the engine was serving when the journal
    /// started (generation 0; hot-swaps change the serving policy
    /// without rewriting the header — see [`Journal::swaps`]).
    pub policy: String,
    /// Parseable spec the boot policy was compiled from, when the
    /// journal was written with [`JournalWriter::create_with_spec`].
    /// Required by [`replay_journal`].
    pub policy_spec: Option<String>,
    /// Identity hash of the boot table, when recorded.
    pub policy_hash: Option<u64>,
    /// Churn identity, if the engine ran under capacity faults.
    pub churn: Option<ChurnConfig>,
    /// The generation schedule: every journaled hot-swap, in order
    /// (contiguous generations from 1, non-decreasing swap seqs).
    pub swaps: Vec<SwapRecord>,
    /// Journaled arrivals, in ingestion order with contiguous sequence
    /// numbers.
    pub entries: Vec<JournalEntry>,
}

impl Journal {
    /// Parses the text format of [`JournalWriter`]. Strict: a torn final
    /// line (the normal crash artifact) is an error here — use
    /// [`Journal::load_prefix`] to recover through it.
    pub fn from_reader(r: &mut dyn BufRead) -> Result<Self, JournalError> {
        let mut parsed = Self::parse_lines(r)?;
        if let Some((n, msg)) = parsed.torn.take() {
            return Err(JournalError::Line(n, msg));
        }
        parsed.finish()
    }

    /// Parses a journal, silently dropping a torn **final** line — the
    /// artifact of a crash mid-write. Malformed lines anywhere else are
    /// still errors.
    pub fn load_prefix(r: &mut dyn BufRead) -> Result<Self, JournalError> {
        Self::parse_lines(r)?.finish()
    }

    /// Loads a journal file written by [`JournalWriter`], strictly.
    pub fn load(path: &std::path::Path) -> Result<Self, JournalError> {
        let file = std::fs::File::open(path)?;
        Self::from_reader(&mut std::io::BufReader::new(file))
    }

    fn parse_lines(r: &mut dyn BufRead) -> Result<ParsedJournal, JournalError> {
        let mut header: Option<(u32, usize)> = None;
        let mut policy: Option<String> = None;
        let mut policy_spec: Option<String> = None;
        let mut policy_hash: Option<u64> = None;
        let mut churn: Option<ChurnConfig> = None;
        let mut swaps: Vec<SwapRecord> = Vec::new();
        let mut entries: Vec<JournalEntry> = Vec::new();
        let mut torn: Option<(usize, String)> = None;
        for (idx, line) in r.lines().enumerate() {
            let line = line?;
            let n = idx + 1;
            if let Some(t) = torn.take() {
                // The malformed line was not the last one — a real error,
                // not a crash artifact.
                return Err(JournalError::Line(t.0, t.1));
            }
            let body = line.trim();
            if body.is_empty() || body.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = body.split_whitespace().collect();
            let result = match fields[0] {
                "k" => parse_header(&fields).map(|h| header = Some(h)),
                "policy" => {
                    let name = body["policy".len()..].trim();
                    if name.is_empty() {
                        Err("empty policy name".to_string())
                    } else {
                        policy = Some(name.to_string());
                        Ok(())
                    }
                }
                "policy_spec" => {
                    let spec = body["policy_spec".len()..].trim();
                    if spec.is_empty() {
                        Err("empty policy spec".to_string())
                    } else {
                        policy_spec = Some(spec.to_string());
                        Ok(())
                    }
                }
                "policy_hash" => match fields.get(1).and_then(|v| v.parse().ok()) {
                    Some(h) => {
                        policy_hash = Some(h);
                        Ok(())
                    }
                    None => Err("unparsable policy_hash".to_string()),
                },
                "churn" => ChurnConfig::parse_identity(body["churn".len()..].trim())
                    .map(|c| churn = Some(c)),
                "g" => parse_swap(&fields).map(|s| swaps.push(s)),
                "a" => parse_entry(&fields).map(|e| entries.push(e)),
                other => Err(format!("unknown record '{other}'")),
            };
            if let Err(msg) = result {
                torn = Some((n, msg));
            }
        }
        Ok(ParsedJournal {
            header,
            policy,
            policy_spec,
            policy_hash,
            churn,
            swaps,
            entries,
            torn,
        })
    }
}

/// Intermediate parse state shared by the strict and prefix loaders.
struct ParsedJournal {
    header: Option<(u32, usize)>,
    policy: Option<String>,
    policy_spec: Option<String>,
    policy_hash: Option<u64>,
    churn: Option<ChurnConfig>,
    swaps: Vec<SwapRecord>,
    entries: Vec<JournalEntry>,
    torn: Option<(usize, String)>,
}

impl ParsedJournal {
    fn finish(self) -> Result<Journal, JournalError> {
        let (k, route_shards) = self.header.ok_or_else(|| JournalError::Io {
            kind: std::io::ErrorKind::InvalidData,
            message: "journal has no header".into(),
        })?;
        let policy = self.policy.ok_or_else(|| JournalError::Io {
            kind: std::io::ErrorKind::InvalidData,
            message: "journal has no policy".into(),
        })?;
        for pair in self.entries.windows(2) {
            if pair[1].seq != pair[0].seq + 1 {
                return Err(JournalError::Mismatch(format!(
                    "sequence gap: entry {} follows entry {}",
                    pair[1].seq, pair[0].seq
                )));
            }
        }
        // The generation schedule must be a valid swap history:
        // generations count 1, 2, … and swap points never move backward.
        for (n, s) in self.swaps.iter().enumerate() {
            if s.generation != n as u32 + 1 {
                return Err(JournalError::Mismatch(format!(
                    "swap record {} carries generation {}, expected {}",
                    n + 1,
                    s.generation,
                    n + 1
                )));
            }
        }
        for pair in self.swaps.windows(2) {
            if pair[1].seq < pair[0].seq {
                return Err(JournalError::Mismatch(format!(
                    "swap at seq {} follows swap at seq {}",
                    pair[1].seq, pair[0].seq
                )));
            }
        }
        Ok(Journal {
            k,
            route_shards,
            policy,
            policy_spec: self.policy_spec,
            policy_hash: self.policy_hash,
            churn: self.churn,
            swaps: self.swaps,
            entries: self.entries,
        })
    }
}

fn parse_swap(fields: &[&str]) -> Result<SwapRecord, String> {
    // `g <seq> <generation> <hash> <spec>`
    if fields.len() < 5 {
        return Err("malformed swap (expected 'g <seq> <generation> <hash> <spec>')".into());
    }
    let seq = fields[1]
        .parse()
        .map_err(|_| format!("unparsable swap seq '{}'", fields[1]))?;
    let generation = fields[2]
        .parse()
        .map_err(|_| format!("unparsable swap generation '{}'", fields[2]))?;
    let hash = fields[3]
        .parse()
        .map_err(|_| format!("unparsable swap hash '{}'", fields[3]))?;
    Ok(SwapRecord {
        seq,
        generation,
        hash,
        spec: fields[4..].join(" "),
    })
}

fn parse_header(fields: &[&str]) -> Result<(u32, usize), String> {
    // `k <k> route_shards <r>`
    if fields.len() != 4 || fields[2] != "route_shards" {
        return Err("malformed header (expected 'k <k> route_shards <r>')".into());
    }
    let k = fields[1]
        .parse()
        .map_err(|_| format!("unparsable k '{}'", fields[1]))?;
    let route = fields[3]
        .parse()
        .map_err(|_| format!("unparsable route_shards '{}'", fields[3]))?;
    Ok((k, route))
}

fn parse_entry(fields: &[&str]) -> Result<JournalEntry, String> {
    // `a <seq> <time> <I|E> <size>`
    if fields.len() != 5 {
        return Err("malformed entry (expected 'a <seq> <time> <I|E> <size>')".into());
    }
    let seq = fields[1]
        .parse()
        .map_err(|_| format!("unparsable seq '{}'", fields[1]))?;
    let time: f64 = fields[2]
        .parse()
        .map_err(|_| format!("unparsable time '{}'", fields[2]))?;
    let class = match fields[3] {
        "I" => JobClass::Inelastic,
        "E" => JobClass::Elastic,
        other => return Err(format!("unknown class '{other}'")),
    };
    let size: f64 = fields[4]
        .parse()
        .map_err(|_| format!("unparsable size '{}'", fields[4]))?;
    if !time.is_finite() || !size.is_finite() || size <= 0.0 {
        return Err("non-finite time or non-positive size".into());
    }
    Ok(JournalEntry {
        seq,
        arrival: Arrival { time, class, size },
    })
}

/// Builds a swap's table at its barrier from the engine as it stands
/// there, returning it with the concrete spec to journal for it.
pub type SwapResolver<'a> = dyn Fn(&ServeEngine) -> Result<(CompiledTable, String), String> + 'a;

/// A policy hot-swap scheduled as a [`RunControls`] boundary.
#[derive(Clone, Copy)]
pub struct SwapBoundary<'a> {
    /// Install the new table when this many arrivals have been ingested
    /// (at once if the engine is already past it), or at end of stream
    /// if the stream ends first.
    pub at: u64,
    /// Called at the barrier (an `optimize:` swap reads the metrics
    /// observed so far).
    pub resolve: &'a SwapResolver<'a>,
}

impl std::fmt::Debug for SwapBoundary<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwapBoundary")
            .field("at", &self.at)
            .finish_non_exhaustive()
    }
}

/// The boundaries of a controlled run — the ingredients of the
/// crash-recovery tests and of the `eirs serve` `--snapshot-at`,
/// `--kill-after` and `--swap-policy`/`--swap-at` flags. Each is an
/// arrival count; [`run_journaled`] splits a batch exactly there. When
/// several fall on the same count they act in field order: the swap
/// first (so a snapshot there records the new generation), then the
/// snapshot, then the kill.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunControls<'a> {
    /// Hot-swap the serving policy when this many arrivals have been
    /// ingested.
    pub swap: Option<SwapBoundary<'a>>,
    /// Take an [`EngineSnapshot`] exactly when this many arrivals have
    /// been ingested.
    pub snapshot_at: Option<u64>,
    /// Abort (as a crash would: no drain, no final flush beyond the
    /// write-ahead ones) once this many arrivals have been ingested.
    pub kill_after: Option<u64>,
}

/// What a controlled run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Arrivals ingested by this run.
    pub ingested: u64,
    /// Whether the run was aborted by [`RunControls::kill_after`].
    pub killed: bool,
    /// The snapshot taken at [`RunControls::snapshot_at`], if reached.
    pub snapshot: Option<EngineSnapshot>,
}

/// The offline run loop: pulls arrivals from `source` up to time `until`
/// in `config.batch`-sized rounds, write-ahead journals every batch and
/// swap to `journal` when one is given, and honors [`RunControls`]. A
/// kill returns immediately **without draining** (simulating a crash);
/// any other run drains, after installing a swap whose barrier the
/// stream never reached. Batch splitting never changes semantics —
/// per-shard arrival order is preserved under any batching, so the
/// decision stream is unaffected. [`ServeEngine::run`] is this loop
/// with no journal and no controls. (The first arrival past the horizon
/// is consumed from the source and dropped.)
///
/// A failing swap resolver stops the run with an
/// [`std::io::ErrorKind::Other`] error carrying its message.
pub fn run_journaled<W: Write>(
    engine: &mut ServeEngine,
    source: &mut dyn ArrivalSource,
    until: f64,
    mut journal: Option<&mut JournalWriter<W>>,
    controls: RunControls<'_>,
) -> std::io::Result<RunOutcome> {
    let before = engine.ingested();
    let mut outcome = RunOutcome {
        ingested: 0,
        killed: false,
        snapshot: None,
    };
    let mut swap = controls.swap;
    let batch_len = engine.config().batch as u64;
    let mut buf: Vec<Arrival> = Vec::with_capacity(batch_len as usize);
    let mut ended = false;
    loop {
        let at = engine.ingested();
        if let Some(s) = swap.filter(|s| s.at <= at || ended) {
            let (table, spec) = (s.resolve)(engine).map_err(std::io::Error::other)?;
            // Write-ahead: the record lands before any arrival is served
            // under the new generation.
            let record = SwapRecord {
                seq: at,
                generation: engine.generation() + 1,
                hash: table.identity_hash(),
                spec,
            };
            if let Some(j) = journal.as_deref_mut() {
                j.append_swap(&record)?;
            }
            let installed = engine.install_table(table, &record.spec);
            debug_assert_eq!(installed, record, "journaled swap differs from installed");
            swap = None;
        }
        if controls.snapshot_at == Some(at) && outcome.snapshot.is_none() {
            outcome.snapshot = Some(engine.snapshot());
        }
        if controls.kill_after == Some(at) && at > before {
            outcome.killed = true;
            break;
        }
        if ended {
            break;
        }
        // Fill one batch, cut short at the nearest boundary ahead.
        let limit = [
            controls.snapshot_at,
            controls.kill_after,
            swap.map(|s| s.at),
        ]
        .into_iter()
        .flatten()
        .filter(|&b| b > at)
        .fold(batch_len, |limit, b| limit.min(b - at));
        buf.clear();
        while (buf.len() as u64) < limit {
            match source.next_arrival() {
                Some(a) if a.time <= until => buf.push(a),
                _ => {
                    ended = true;
                    break;
                }
            }
        }
        if !buf.is_empty() {
            if let Some(j) = journal.as_deref_mut() {
                j.append_batch(at, &buf)?;
            }
            engine.ingest_batch(&buf);
        }
    }
    outcome.ingested = engine.ingested() - before;
    if !outcome.killed {
        engine.drain();
    }
    Ok(outcome)
}

/// Rebuilds an engine after a crash: restores `snap`, then replays the
/// journal suffix from the snapshot's sequence number. The journal's
/// identity header must agree with the table, config, and snapshot, and
/// its entries must cover `snap.seq` onward without a gap. The returned
/// engine has ingested every journaled arrival but is **not drained**:
/// the caller resumes feeding it from arrival number
/// [`ServeEngine::ingested`] of the original workload.
pub fn recover(
    table: CompiledTable,
    config: EngineConfig,
    snap: &EngineSnapshot,
    journal: &Journal,
) -> Result<ServeEngine, JournalError> {
    recover_with(table, config, snap, journal, &|rec| {
        Err(format!(
            "journal hot-swaps to '{}' after the snapshot; plain recover cannot compile it — \
             use recover_with and supply a table compiler",
            rec.spec
        ))
    })
}

/// [`recover`] for journals whose suffix crosses hot-swap points:
/// `compile` turns each post-snapshot [`SwapRecord`] back into a
/// [`CompiledTable`] (normally by parsing `rec.spec` through the CLI
/// policy grammar and compiling at any grid size — decisions are
/// grid-size-invariant). Each compiled table's identity hash must match
/// the journaled hash, and swaps are re-installed at their exact
/// sequence points, so the recovered engine's generation schedule is
/// bit-identical to the crashed run's.
pub fn recover_with(
    table: CompiledTable,
    config: EngineConfig,
    snap: &EngineSnapshot,
    journal: &Journal,
    compile: &dyn Fn(&SwapRecord) -> Result<CompiledTable, String>,
) -> Result<ServeEngine, JournalError> {
    if journal.k != snap.k || journal.route_shards != snap.route_shards {
        return Err(JournalError::Mismatch(format!(
            "journal is for k={} route_shards={}, snapshot k={} route_shards={}",
            journal.k, journal.route_shards, snap.k, snap.route_shards
        )));
    }
    // The generation schedule must agree with the snapshot: exactly
    // `snap.generation` swaps happened at or before the snapshot point.
    // A mismatch means the journal belongs to a different run (or a
    // different policy history) and replaying it would silently produce
    // a cross-policy decision stream. Once this holds, the swaps still
    // to replay are exactly those above the snapshot's generation.
    let pre_swaps = journal.swaps.iter().filter(|s| s.seq <= snap.seq).count() as u32;
    if pre_swaps != snap.generation {
        return Err(JournalError::Mismatch(format!(
            "journal records {pre_swaps} swaps at or before seq {}, snapshot is generation {} — \
             the generation schedules disagree",
            snap.seq, snap.generation
        )));
    }
    if snap.generation == 0 {
        // No swap yet: the boot policy name must agree, as always.
        if journal.policy != snap.policy {
            return Err(JournalError::Mismatch(format!(
                "journal was serving '{}', snapshot '{}'",
                journal.policy, snap.policy
            )));
        }
    }
    // When both sides pin an identity hash, the policy serving at the
    // snapshot point must hash the same.
    let effective_hash = journal
        .swaps
        .iter()
        .rfind(|s| s.seq <= snap.seq)
        .map(|s| Some(s.hash))
        .unwrap_or(journal.policy_hash);
    if let Some(h) = effective_hash {
        if snap.policy_hash != 0 && h != snap.policy_hash {
            return Err(JournalError::Mismatch(format!(
                "journal pins policy hash {h:#018x} at seq {}, snapshot pins {:#018x}",
                snap.seq, snap.policy_hash
            )));
        }
    }
    if journal.churn != snap.churn {
        return Err(JournalError::Mismatch(
            "journal and snapshot disagree on the churn identity".into(),
        ));
    }
    let mut engine = ServeEngine::from_snapshot(table, config, snap)?;
    replay_suffix(&mut engine, journal, compile)?;
    Ok(engine)
}

/// Rebuilds the **entire** run from the journal alone: compiles the
/// boot policy from the journal's recorded `policy_spec`, ingests every
/// entry from seq 0, and re-installs each journaled hot-swap at its
/// exact sequence point. The returned engine is **not** drained (call
/// [`ServeEngine::drain`] to match a live run, which always drains
/// unless it was killed). Because the engine is deterministic and
/// decisions are grid-size-invariant, the replayed decision digest is
/// bit-identical to the live run's — the hot-swap CI gates' currency.
///
/// `config` supplies processing knobs (workers, batch) and must agree
/// with the journal's `k`/`route_shards`/churn identity; `compile`
/// turns a policy spec — the header's boot spec and every swap's — into
/// a table.
pub fn replay_journal(
    config: EngineConfig,
    journal: &Journal,
    compile: &dyn Fn(&str) -> Result<CompiledTable, String>,
) -> Result<ServeEngine, JournalError> {
    if journal.k != config.k || journal.route_shards != config.route_shards {
        return Err(JournalError::Mismatch(format!(
            "journal is for k={} route_shards={}, config k={} route_shards={}",
            journal.k, journal.route_shards, config.k, config.route_shards
        )));
    }
    if journal.churn != config.churn {
        return Err(JournalError::Mismatch(
            "journal and config disagree on the churn identity".into(),
        ));
    }
    let spec = journal.policy_spec.as_deref().ok_or_else(|| {
        JournalError::Mismatch(
            "journal records no policy_spec — it was not written for standalone replay \
             (re-serve with --policy to journal the spec)"
                .into(),
        )
    })?;
    let table = compile(spec).map_err(JournalError::Mismatch)?;
    if let Some(h) = journal.policy_hash {
        if table.identity_hash() != h {
            return Err(JournalError::Mismatch(format!(
                "boot spec '{spec}' recompiles to identity hash {:#018x}, journal recorded \
                 {h:#018x}",
                table.identity_hash()
            )));
        }
    } else if table.name() != journal.policy {
        return Err(JournalError::Mismatch(format!(
            "boot spec '{spec}' compiles to '{}', journal was serving '{}'",
            table.name(),
            journal.policy
        )));
    }
    let mut engine = ServeEngine::new(table, config);
    replay_suffix(&mut engine, journal, &|rec| compile(&rec.spec))?;
    Ok(engine)
}

/// The one journal-replay loop, shared by recovery and standalone
/// replay: ingests the journal's entries from the engine's sequence
/// number on, re-installing every swap newer than the engine's
/// generation at its exact seq (swaps past the last entry install at
/// the end). Each recompiled table must match its journaled identity
/// hash and generation.
fn replay_suffix(
    engine: &mut ServeEngine,
    journal: &Journal,
    compile: &dyn Fn(&SwapRecord) -> Result<CompiledTable, String>,
) -> Result<(), JournalError> {
    let at = engine.ingested();
    let mut rest = &journal.entries[journal.entries.partition_point(|e| e.seq < at)..];
    if let Some(first) = rest.first().filter(|e| e.seq != at) {
        return Err(JournalError::Mismatch(format!(
            "journal resumes at seq {}, the engine is at seq {at} — the gap is unrecoverable",
            first.seq
        )));
    }
    let mut buf: Vec<Arrival> = Vec::with_capacity(engine.config().batch);
    let mut ingest = |engine: &mut ServeEngine, entries: &[JournalEntry]| {
        for chunk in entries.chunks(engine.config().batch) {
            buf.clear();
            buf.extend(chunk.iter().map(|e| e.arrival));
            engine.ingest_batch(&buf);
        }
    };
    let generation = engine.generation();
    for rec in journal.swaps.iter().filter(|s| s.generation > generation) {
        let (head, tail) = rest.split_at(rest.partition_point(|e| e.seq < rec.seq));
        ingest(engine, head);
        rest = tail;
        let table = compile(rec).map_err(JournalError::Mismatch)?;
        let installed = engine.install_table(table, &rec.spec);
        if installed.hash != rec.hash || installed.generation != rec.generation {
            return Err(JournalError::Mismatch(format!(
                "recompiled swap '{}' hashes to {:#018x} generation {}, journal recorded \
                 {:#018x} generation {}",
                rec.spec, installed.hash, installed.generation, rec.hash, rec.generation
            )));
        }
    }
    ingest(engine, rest);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirs_queueing::Exponential;
    use eirs_sim::arrivals::ArrivalTrace;
    use eirs_sim::availability::FaultSpec;
    use eirs_sim::policy::FairShare;

    fn trace() -> ArrivalTrace {
        ArrivalTrace::record_poisson(
            0.9,
            0.6,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(1.0)),
            9,
            150.0,
        )
    }

    fn table() -> CompiledTable {
        CompiledTable::compile(Box::new(FairShare), 2, 16, 16)
    }

    fn churned_config() -> EngineConfig {
        EngineConfig::new(2)
            .route_shards(3)
            .batch(8)
            .churn(ChurnConfig {
                spec: FaultSpec::parse("crash:mtbf=35,mttr=7").unwrap(),
                seed: 11,
                horizon: 200.0,
            })
    }

    #[test]
    fn journal_text_round_trips() {
        let engine = ServeEngine::new(table(), churned_config());
        let mut w = JournalWriter::create(Vec::new(), &engine).unwrap();
        let t = trace();
        w.append_batch(0, &t.arrivals()[..6]).unwrap();
        w.append_batch(6, &t.arrivals()[6..10]).unwrap();
        let bytes = w.into_inner().unwrap();
        let j = Journal::from_reader(&mut std::io::Cursor::new(bytes)).unwrap();
        assert_eq!((j.k, j.route_shards), (2, 3));
        assert_eq!(j.policy, "Compiled[Fair-Share]");
        assert_eq!(j.churn, engine.config().churn);
        assert_eq!(j.entries.len(), 10);
        for (n, e) in j.entries.iter().enumerate() {
            assert_eq!(e.seq, n as u64);
            assert_eq!(e.arrival, t.arrivals()[n], "entry {n} must round-trip");
        }
    }

    #[test]
    fn torn_final_lines_are_recoverable_but_strict_load_refuses() {
        let engine = ServeEngine::new(table(), churned_config());
        let mut w = JournalWriter::create(Vec::new(), &engine).unwrap();
        w.append_batch(0, &trace().arrivals()[..4]).unwrap();
        let full = String::from_utf8(w.into_inner().unwrap()).unwrap();
        // Simulate a crash mid-write: the fourth entry's class and size
        // never reached the disk.
        let kept: String = full
            .lines()
            .take(full.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        let torn = format!("{kept}a 3 0.51");
        assert!(Journal::from_reader(&mut std::io::Cursor::new(&torn)).is_err());
        let j = Journal::load_prefix(&mut std::io::Cursor::new(&torn)).unwrap();
        assert_eq!(j.entries.len(), 3, "the torn fourth entry is dropped");
        // A malformed line that is NOT last stays an error either way.
        let garbled = format!("{torn}\na 3 0.5 I 1.0\n");
        assert!(Journal::load_prefix(&mut std::io::Cursor::new(&garbled)).is_err());
    }

    #[test]
    fn sequence_gaps_are_rejected() {
        let engine = ServeEngine::new(table(), EngineConfig::new(2).route_shards(3));
        let mut w = JournalWriter::create(Vec::new(), &engine).unwrap();
        let t = trace();
        w.append_batch(0, &t.arrivals()[..2]).unwrap();
        w.append_batch(5, &t.arrivals()[2..4]).unwrap(); // gap: 1 → 5
        let bytes = w.into_inner().unwrap();
        let err = Journal::from_reader(&mut std::io::Cursor::new(bytes)).unwrap_err();
        assert!(matches!(err, JournalError::Mismatch(_)), "{err:?}");
    }

    #[test]
    fn kill_and_recover_replays_bit_identically_under_churn() {
        let t = trace();
        let config = churned_config();
        // Reference: the run that never crashes.
        let mut reference = ServeEngine::new(table(), config);
        let mut src = t.stream();
        let mut sink = JournalWriter::create(Vec::new(), &reference).unwrap();
        run_journaled(
            &mut reference,
            &mut src,
            f64::INFINITY,
            Some(&mut sink),
            RunControls::default(),
        )
        .unwrap();
        // Crashed run: snapshot at 40, killed at 90 of ~135 arrivals.
        let mut crashed = ServeEngine::new(table(), config);
        let mut src = t.stream();
        let mut journal = JournalWriter::create(Vec::new(), &crashed).unwrap();
        let outcome = run_journaled(
            &mut crashed,
            &mut src,
            f64::INFINITY,
            Some(&mut journal),
            RunControls {
                snapshot_at: Some(40),
                kill_after: Some(90),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(outcome.killed);
        assert_eq!(outcome.ingested, 90);
        let snap = outcome.snapshot.expect("snapshot boundary was reached");
        assert_eq!(snap.seq, 40);
        // Recover from snapshot + journal, resume the workload where the
        // journal ends, drain, and compare against the unfaulted run.
        let journal =
            Journal::from_reader(&mut std::io::Cursor::new(journal.into_inner().unwrap())).unwrap();
        let mut recovered = recover(table(), config, &snap, &journal).unwrap();
        assert_eq!(recovered.ingested(), 90);
        let rest: Vec<Arrival> = t.arrivals()[90..].to_vec();
        recovered.ingest_batch(&rest);
        recovered.drain();
        assert_eq!(recovered.decision_digest(), reference.decision_digest());
        assert_eq!(recovered.metrics_total(), reference.metrics_total());
    }

    #[test]
    fn hot_swap_replay_from_journal_is_bit_identical_to_live() {
        use eirs_sim::policy::InelasticFirst;
        let t = trace();
        let config = EngineConfig::new(2).route_shards(3).batch(8);
        let compile = |spec: &str| -> Result<CompiledTable, String> {
            match spec {
                "fs" => Ok(CompiledTable::compile(Box::new(FairShare), 2, 16, 16)),
                "if" => Ok(CompiledTable::compile(Box::new(InelasticFirst), 2, 12, 12)),
                other => Err(format!("unknown spec '{other}'")),
            }
        };
        // Live run: boot on fair-share, hot-swap to inelastic-first at
        // arrival 50, journaling both the arrivals and the swap.
        let mut live = ServeEngine::new(compile("fs").unwrap(), config);
        let mut w = JournalWriter::create_with_spec(Vec::new(), &live, Some("fs")).unwrap();
        let arrivals = t.arrivals();
        for (n, chunk) in [&arrivals[..50], &arrivals[50..]].into_iter().enumerate() {
            if n == 1 {
                let rec = live.install_table(compile("if").unwrap(), "if");
                assert_eq!((rec.seq, rec.generation), (50, 1));
                w.append_swap(&rec).unwrap();
            }
            w.append_batch(live.ingested(), chunk).unwrap();
            live.ingest_batch(chunk);
        }
        live.drain();
        assert_eq!(live.generation(), 1);
        // Replay from the journal alone — different batch size AND a
        // different grid for the swapped table (decisions are
        // grid-size-invariant, so the digest must not care).
        let journal =
            Journal::from_reader(&mut std::io::Cursor::new(w.into_inner().unwrap())).unwrap();
        assert_eq!(journal.policy_spec.as_deref(), Some("fs"));
        assert_eq!(journal.swaps.len(), 1);
        let mut replayed = replay_journal(config.batch(32), &journal, &compile).unwrap();
        replayed.drain();
        assert_eq!(replayed.decision_digest(), live.decision_digest());
        assert_eq!(replayed.metrics_total(), live.metrics_total());
        assert_eq!(replayed.generation(), 1);
        // A compiler that resolves the swap spec to a different policy
        // is caught by the journaled identity hash.
        let lying = |spec: &str| -> Result<CompiledTable, String> {
            match spec {
                "fs" => compile("fs"),
                _ => compile("fs"), // claims "if", compiles fair-share
            }
        };
        let err = replay_journal(config, &journal, &lying)
            .err()
            .expect("lying compiler");
        assert!(
            matches!(&err, JournalError::Mismatch(m) if m.contains("hashes to")),
            "{err:?}"
        );
    }

    #[test]
    fn recover_refuses_a_mismatched_generation_schedule() {
        let t = trace();
        let config = EngineConfig::new(2).route_shards(3).batch(8);
        let compile = |spec: &str| -> Result<CompiledTable, String> {
            match spec {
                "fs" => Ok(CompiledTable::compile(Box::new(FairShare), 2, 16, 16)),
                other => Err(format!("unknown spec '{other}'")),
            }
        };
        let mut engine = ServeEngine::new(compile("fs").unwrap(), config);
        let mut w = JournalWriter::create_with_spec(Vec::new(), &engine, Some("fs")).unwrap();
        let arrivals = t.arrivals();
        w.append_batch(0, &arrivals[..40]).unwrap();
        engine.ingest_batch(&arrivals[..40]);
        let snap = engine.snapshot();
        assert_eq!(snap.generation, 0);
        w.append_batch(40, &arrivals[40..60]).unwrap();
        engine.ingest_batch(&arrivals[40..60]);
        let journal =
            Journal::from_reader(&mut std::io::Cursor::new(w.into_inner().unwrap())).unwrap();
        // Doctor the journal so it claims a swap happened before the
        // snapshot: recover must refuse the schedule, not replay across
        // a policy the snapshot never served.
        let mut doctored = journal.clone();
        doctored.swaps.push(SwapRecord {
            seq: 20,
            generation: 1,
            hash: 123,
            spec: "fs".into(),
        });
        let err = recover(compile("fs").unwrap(), config, &snap, &doctored)
            .err()
            .expect("doctored");
        assert!(
            matches!(&err, JournalError::Mismatch(m) if m.contains("generation schedules")),
            "{err:?}"
        );
        // The undoctored journal recovers fine, and a post-snapshot
        // swap is replayed through recover_with at its exact seq.
        let recovered = recover(compile("fs").unwrap(), config, &snap, &journal).unwrap();
        assert_eq!(recovered.ingested(), 60);
    }

    #[test]
    fn recover_with_replays_post_snapshot_swaps_bit_identically() {
        use eirs_sim::policy::InelasticFirst;
        let t = trace();
        let config = EngineConfig::new(2).route_shards(3).batch(8);
        let compile = |spec: &str| -> Result<CompiledTable, String> {
            match spec {
                "fs" => Ok(CompiledTable::compile(Box::new(FairShare), 2, 16, 16)),
                "if" => Ok(CompiledTable::compile(Box::new(InelasticFirst), 2, 16, 16)),
                other => Err(format!("unknown spec '{other}'")),
            }
        };
        let arrivals = trace_arrivals(&t);
        // Live: snapshot at 30, swap at 55, crash at 80.
        let mut live = ServeEngine::new(compile("fs").unwrap(), config);
        let mut w = JournalWriter::create_with_spec(Vec::new(), &live, Some("fs")).unwrap();
        w.append_batch(0, &arrivals[..30]).unwrap();
        live.ingest_batch(&arrivals[..30]);
        let snap = live.snapshot();
        w.append_batch(30, &arrivals[30..55]).unwrap();
        live.ingest_batch(&arrivals[30..55]);
        let rec = live.install_table(compile("if").unwrap(), "if");
        w.append_swap(&rec).unwrap();
        w.append_batch(55, &arrivals[55..80]).unwrap();
        live.ingest_batch(&arrivals[55..80]);
        // Reference continues to the end without crashing.
        live.ingest_batch(&arrivals[80..]);
        live.drain();
        let journal =
            Journal::from_reader(&mut std::io::Cursor::new(w.into_inner().unwrap())).unwrap();
        // Plain recover refuses the post-snapshot swap...
        let err = recover(compile("fs").unwrap(), config, &snap, &journal)
            .err()
            .expect("swap refused");
        assert!(
            matches!(&err, JournalError::Mismatch(m) if m.contains("recover_with")),
            "{err:?}"
        );
        // ...recover_with replays it and continues bit-identically.
        let mut recovered = recover_with(compile("fs").unwrap(), config, &snap, &journal, &|r| {
            compile(&r.spec)
        })
        .unwrap();
        assert_eq!(recovered.ingested(), 80);
        assert_eq!(recovered.generation(), 1);
        recovered.ingest_batch(&arrivals[80..]);
        recovered.drain();
        assert_eq!(recovered.decision_digest(), live.decision_digest());
        assert_eq!(recovered.metrics_total(), live.metrics_total());
    }

    fn trace_arrivals(t: &ArrivalTrace) -> Vec<Arrival> {
        t.arrivals().to_vec()
    }

    #[test]
    fn recover_rejects_identity_mismatches() {
        let t = trace();
        let config = churned_config();
        let mut engine = ServeEngine::new(table(), config);
        let mut src = t.stream();
        let mut w = JournalWriter::create(Vec::new(), &engine).unwrap();
        let outcome = run_journaled(
            &mut engine,
            &mut src,
            f64::INFINITY,
            Some(&mut w),
            RunControls {
                snapshot_at: Some(20),
                kill_after: Some(30),
                ..Default::default()
            },
        )
        .unwrap();
        let snap = outcome.snapshot.unwrap();
        let journal =
            Journal::from_reader(&mut std::io::Cursor::new(w.into_inner().unwrap())).unwrap();
        // A journal whose churn identity disagrees with the snapshot.
        let mut other = journal.clone();
        other.churn = None;
        assert!(matches!(
            recover(table(), config, &snap, &other),
            Err(JournalError::Mismatch(_))
        ));
        // A journal that starts after the snapshot's seq: unrecoverable gap.
        let mut gapped = journal.clone();
        gapped.entries.retain(|e| e.seq >= 25);
        assert!(matches!(
            recover(table(), config, &snap, &gapped),
            Err(JournalError::Mismatch(_))
        ));
    }
}
