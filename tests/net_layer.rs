//! Cross-layer tests of the networked serving front end (crates/net):
//!
//! 1. **Protocol robustness** (fuzz): random byte streams, truncations at
//!    every prefix, oversized length fields, and corrupted checksums all
//!    surface as clean `ProtocolError`s — never a panic, never a silently
//!    desynchronized or truncated stream;
//! 2. **Hot-swap determinism** (property test): installing a policy at
//!    *any* arrival-sequence barrier, under *any* batch splitting, leaves
//!    a write-ahead journal whose replay reproduces the live decision
//!    digest bit for bit, and the library's swap boundary
//!    (`run_journaled` with `RunControls::swap`) writes the same journal
//!    and digest as an independent hand-rolled reference;
//! 3. **CLI offline hot-swap**: the offline swap run journals and
//!    ingests the trailing partial batch and drains like every other
//!    offline run; its journal is pinned byte for byte, an `optimize:`
//!    swap journals the concrete spec it chose, and replay with
//!    `--drain true` reproduces the live digest;
//! 4. **CLI loopback smoke**: `eirs serve --listen` driven by
//!    `eirs client` over 127.0.0.1 with a mid-stream swap keeps exact
//!    accounting and replays to the same digest.

use eirs_net::protocol::{
    encode_frame, frame_type, read_frame, write_magic, Frame, ProtocolError, MAGIC, MAX_PAYLOAD,
};
use eirs_repro::core::policy::parse_policy;
use eirs_repro::serve::{
    replay_journal, run_journaled, CompiledTable, EngineConfig, Journal, JournalWriter,
    RunControls, ServeEngine, SwapBoundary, SwapRecord,
};
use eirs_repro::sim::{Arrival, ArrivalTrace, JobClass};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Cursor;
use std::process::Command;

const K: u32 = 3;
const GRID: usize = 16;

fn compile(spec: &str) -> Result<CompiledTable, String> {
    Ok(CompiledTable::compile(parse_policy(spec)?, K, GRID, GRID))
}

fn config() -> EngineConfig {
    EngineConfig::new(K).route_shards(4).batch(32)
}

fn workload(n: usize) -> Vec<Arrival> {
    (0..n)
        .map(|i| Arrival {
            time: i as f64 * 0.07,
            class: if i % 3 == 0 {
                JobClass::Elastic
            } else {
                JobClass::Inelastic
            },
            size: 0.3 + 0.1 * ((i % 5) as f64),
        })
        .collect()
}

/// A stream of valid frames of every type, as raw bytes (no magic).
fn valid_stream() -> Vec<u8> {
    let frames = [
        Frame::Arrival {
            req_id: 7,
            class: JobClass::Inelastic,
            time: 1.25,
            size: 0.5,
        },
        Frame::Control("swap threshold:2".into()),
        Frame::Decision {
            req_id: 7,
            seq: 0,
            shard: 1,
            i: 2,
            j: 0,
            generation: 1,
            alloc_inelastic: 2.0,
            alloc_elastic: 1.0,
            admitted: true,
        },
        Frame::ControlOk("ok".into()),
        Frame::Error("nope".into()),
        Frame::Bye,
    ];
    let mut bytes = Vec::new();
    for f in &frames {
        bytes.extend_from_slice(&encode_frame(f));
    }
    bytes
}

#[test]
fn random_byte_streams_error_and_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x5eed_f00d);
    for _ in 0..500 {
        let len = (rng.random::<u64>() % 200) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.random::<u64>() as u8).collect();
        let mut cursor = Cursor::new(bytes);
        // Drain the stream: every outcome must be a clean frame, a clean
        // EOF, or a typed error — reaching this point without a panic is
        // the property under test.
        while let Ok(Some(_)) = read_frame(&mut cursor) {}
    }
}

#[test]
fn truncation_at_every_prefix_is_a_clean_eof_or_truncated_error() {
    let bytes = valid_stream();
    // Frame boundaries: offsets where a prefix ends exactly between frames.
    let mut boundaries = vec![0usize];
    {
        let mut cursor = Cursor::new(bytes.clone());
        loop {
            match read_frame(&mut cursor) {
                Ok(Some(_)) => boundaries.push(cursor.position() as usize),
                Ok(None) => break,
                Err(e) => panic!("valid stream failed to decode: {e}"),
            }
        }
    }
    for cut in 0..bytes.len() {
        let mut cursor = Cursor::new(bytes[..cut].to_vec());
        let outcome = loop {
            match read_frame(&mut cursor) {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        if boundaries.contains(&cut) {
            assert!(
                matches!(outcome, Ok(None)),
                "cut at frame boundary {cut} should be clean EOF, got {outcome:?}"
            );
        } else {
            assert!(
                matches!(outcome, Err(ProtocolError::Truncated)),
                "cut mid-frame at {cut} should be Truncated, got {outcome:?}"
            );
        }
    }
}

#[test]
fn oversized_length_fields_are_rejected_before_allocation() {
    for len in [MAX_PAYLOAD as u16 + 1, u16::MAX] {
        let mut bytes = vec![frame_type::CONTROL, 0];
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        let got = read_frame(&mut Cursor::new(bytes));
        assert!(
            matches!(got, Err(ProtocolError::BadLength { .. })),
            "len {len} should be BadLength, got {got:?}"
        );
    }
}

#[test]
fn corrupted_streams_never_yield_a_wrong_frame() {
    // Flip random bytes in a valid multi-frame stream: decoding must
    // either produce a prefix of the original frames and then error, or
    // (for flips in a trailing frame's unread tail) stop cleanly. It must
    // never produce a frame that differs from the original sequence.
    let bytes = valid_stream();
    let originals: Vec<Frame> = {
        let mut cursor = Cursor::new(bytes.clone());
        let mut v = Vec::new();
        while let Some(f) = read_frame(&mut cursor).expect("valid stream") {
            v.push(f);
        }
        v
    };
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..400 {
        let mut corrupt = bytes.clone();
        let flips = 1 + rng.random::<u64>() % 3;
        for _ in 0..flips {
            let at = (rng.random::<u64>() as usize) % corrupt.len();
            corrupt[at] ^= 1 << (rng.random::<u64>() % 8);
        }
        let mut cursor = Cursor::new(corrupt);
        let mut decoded = Vec::new();
        while let Ok(Some(f)) = read_frame(&mut cursor) {
            decoded.push(f);
        }
        assert!(
            decoded.len() <= originals.len()
                && decoded
                    .iter()
                    .zip(&originals)
                    .all(|(d, o)| format!("{d:?}") == format!("{o:?}")),
            "corruption produced a non-prefix decode: {decoded:?}"
        );
    }
}

#[test]
fn magic_mismatch_is_a_bad_magic_error() {
    let mut bytes = MAGIC;
    bytes[3] ^= 0x20;
    let got = eirs_net::protocol::read_magic(&mut Cursor::new(bytes.to_vec()));
    assert!(matches!(got, Err(ProtocolError::BadMagic(_))), "{got:?}");
    let mut ok = Vec::new();
    write_magic(&mut ok).unwrap();
    assert_eq!(ok, MAGIC);
}

/// Live run: journal every batch write-ahead, swap at `barrier`, splitting
/// the stream into the given batch sizes. Returns (digest, journal bytes).
fn journaled_swap_run(
    arrivals: &[Arrival],
    barrier: usize,
    splits: &[usize],
    swap_spec: &str,
) -> (u64, u32, Vec<u8>) {
    let mut engine = ServeEngine::new(compile("fairshare").unwrap(), config());
    let mut wal =
        JournalWriter::create_with_spec(Vec::<u8>::new(), &engine, Some("fairshare")).unwrap();
    let mut split_iter = splits.iter().copied().cycle();
    let mut next = 0usize;
    let mut swapped = false;
    while next < arrivals.len() || !swapped {
        if !swapped && next >= barrier.min(arrivals.len()) {
            let table = compile(swap_spec).unwrap();
            let record = SwapRecord {
                seq: engine.ingested(),
                generation: engine.generation() + 1,
                hash: table.identity_hash(),
                spec: swap_spec.to_string(),
            };
            wal.append_swap(&record).unwrap();
            let installed = engine.install_table(table, swap_spec);
            assert_eq!(installed, record);
            swapped = true;
            continue;
        }
        let want = split_iter.next().unwrap().max(1);
        let cap = if swapped {
            arrivals.len()
        } else {
            barrier.min(arrivals.len())
        };
        let end = (next + want).min(cap);
        let batch = &arrivals[next..end];
        wal.append_batch(engine.ingested(), batch).unwrap();
        engine.ingest_batch(batch);
        next = end;
    }
    engine.drain();
    (
        engine.decision_digest(),
        engine.generation(),
        wal.into_inner().unwrap(),
    )
}

/// The same run through the library: `run_journaled` at engine batch
/// size `batch`, swapping at the `barrier` boundary.
fn library_swap_run(
    arrivals: &[Arrival],
    barrier: usize,
    batch: usize,
    swap_spec: &str,
) -> (u64, u32, Vec<u8>) {
    let mut engine = ServeEngine::new(compile("fairshare").unwrap(), config().batch(batch));
    let mut wal =
        JournalWriter::create_with_spec(Vec::<u8>::new(), &engine, Some("fairshare")).unwrap();
    let resolve = |_: &ServeEngine| Ok((compile(swap_spec)?, swap_spec.to_string()));
    let controls = RunControls {
        swap: Some(SwapBoundary {
            at: barrier as u64,
            resolve: &resolve,
        }),
        ..Default::default()
    };
    let trace = ArrivalTrace::new(arrivals.to_vec());
    let outcome = run_journaled(
        &mut engine,
        &mut trace.stream(),
        f64::INFINITY,
        Some(&mut wal),
        controls,
    )
    .unwrap();
    assert_eq!(outcome.ingested, arrivals.len() as u64);
    (
        engine.decision_digest(),
        engine.generation(),
        wal.into_inner().unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hot-swap at any arrival index (including past the end of the
    /// stream), under any batch splitting: the journal replays to the
    /// live digest bit for bit, and the library's swap boundary at any
    /// batch size writes the reference's journal byte for byte.
    #[test]
    fn hot_swap_at_any_index_replays_bit_identically(
        barrier in 0usize..=70,
        splits in prop::collection::vec(1usize..13, 1..4),
        n in 40usize..70,
    ) {
        let arrivals = workload(n);
        let (digest, generation, journal_bytes) =
            journaled_swap_run(&arrivals, barrier, &splits, "threshold:2");
        let journal = Journal::from_reader(&mut &journal_bytes[..]).expect("parse journal");
        let mut replayed = replay_journal(config(), &journal, &|s| compile(s)).expect("replay");
        replayed.drain();
        prop_assert_eq!(replayed.decision_digest(), digest, "replay drift");
        prop_assert_eq!(replayed.generation(), generation);
        let (lib_digest, lib_generation, lib_bytes) =
            library_swap_run(&arrivals, barrier, splits[0], "threshold:2");
        prop_assert_eq!(lib_digest, digest, "library swap boundary drifted");
        prop_assert_eq!(lib_generation, generation);
        prop_assert!(lib_bytes == journal_bytes, "library journal differs from the reference");
    }

    /// The same swap barrier yields the same digest regardless of how the
    /// stream is batched — the barrier is workload semantics, batching is
    /// an implementation detail.
    #[test]
    fn swap_digest_is_invariant_to_batch_splitting(
        barrier in 0usize..=50,
        splits_a in prop::collection::vec(1usize..17, 1..4),
        splits_b in prop::collection::vec(1usize..17, 1..4),
    ) {
        let arrivals = workload(50);
        let (da, _, _) = journaled_swap_run(&arrivals, barrier, &splits_a, "threshold:2");
        let (db, _, _) = journaled_swap_run(&arrivals, barrier, &splits_b, "threshold:2");
        prop_assert_eq!(da, db, "batch splitting changed the decision stream");
    }
}

/// Runs the `eirs` binary; returns (exit code, stdout, stderr).
fn run_eirs(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_eirs"))
        .args(args)
        .output()
        .expect("eirs binary runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn json_field<'a>(doc: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let at = doc
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {doc}"));
    let rest = &doc[at + pat.len()..];
    rest.split(&[',', '\n'][..])
        .next()
        .unwrap()
        .trim_matches('"')
}

/// Regression: the CLI's offline hot-swap run must journal and ingest the
/// trailing partial batch, and drain, before shutdown. A trace whose
/// length is not a multiple of the batch (201 arrivals, batch 64) plus a
/// swap barrier off any batch boundary replays (drained) to the exact
/// live digest.
#[test]
fn cli_offline_swap_flushes_the_final_partial_batch() {
    let dir = std::env::temp_dir().join("eirs_net_layer_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("offline_swap.wal");
    let wal_s = wal.to_str().unwrap();
    let trace = "trace:crates/serve/testdata/smoke.trace";
    let (code, out, err) = run_eirs(&[
        "serve",
        "--policy",
        "curve:2+0.5i",
        "--k",
        "3",
        "--workload",
        trace,
        "--batch",
        "64",
        "--journal",
        wal_s,
        "--swap-policy",
        "threshold:3",
        "--swap-at",
        "117",
        "--json",
        "true",
    ]);
    assert_eq!(code, 0, "serve failed: {err}");
    let live_digest = json_field(&out, "decision_digest").to_string();
    assert_eq!(
        json_field(&out, "completions"),
        "201",
        "live run must drain"
    );
    // All 201 trace arrivals must be journaled — including the final
    // partial batch (201 = 3*64 + 9).
    let journal = Journal::load(&wal).expect("journal parses");
    assert_eq!(journal.entries.len(), 201, "partial batch dropped");
    let (code, out, err) = run_eirs(&[
        "serve",
        "--k",
        "3",
        "--replay-journal",
        wal_s,
        "--drain",
        "true",
        "--json",
        "true",
    ]);
    assert_eq!(code, 0, "replay failed: {err}");
    assert_eq!(
        json_field(&out, "decision_digest"),
        live_digest,
        "replay drift"
    );
    assert_eq!(json_field(&out, "generation"), "1");
    std::fs::remove_file(&wal).ok();
}

/// Runs `serve --policy curve:2+0.5i` over the bundled trace with a
/// journaled swap to `swap_spec` at arrival 120, plus `extra` flags.
/// Returns (live JSON, journal bytes, drained replay JSON).
fn cli_offline_swap(name: &str, swap_spec: &str, extra: &[&str]) -> (String, Vec<u8>, String) {
    let dir = std::env::temp_dir().join("eirs_net_layer_cli");
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join(format!("{name}.wal"));
    let wal_s = wal.to_str().unwrap();
    let mut args = vec![
        "serve",
        "--policy",
        "curve:2+0.5i",
        "--workload",
        "trace:crates/serve/testdata/smoke.trace",
        "--journal",
        wal_s,
        "--swap-policy",
        swap_spec,
        "--swap-at",
        "120",
        "--json",
        "true",
    ];
    args.extend_from_slice(extra);
    let (code, live, err) = run_eirs(&args);
    assert_eq!(code, 0, "serve failed: {err}");
    let bytes = std::fs::read(&wal).expect("journal written");
    let (code, replay, err) = run_eirs(&[
        "serve",
        "--replay-journal",
        wal_s,
        "--drain",
        "true",
        "--json",
        "true",
    ]);
    assert_eq!(code, 0, "replay failed: {err}");
    std::fs::remove_file(&wal).ok();
    (live, bytes, replay)
}

/// Pins the offline `ef` hot-swap on the bundled trace: the live run
/// drains (201 of 201 completions) to the digest its own drained replay
/// gives, and the journal is byte-identical to the recorded one at any
/// worker count and batch size.
#[test]
fn cli_offline_ef_swap_drains_and_pins_its_journal() {
    const JOURNAL_SHA256: &str = "7d806dd7fa0b3ca182c3ce2a27d1269170324eed6070ba6f2fcfd03f07754391";
    for (name, extra) in [
        ("ef_swap_1", &[][..]),
        ("ef_swap_4", &["--shards", "4", "--batch", "7"][..]),
    ] {
        let (live, bytes, replay) = cli_offline_swap(name, "ef", extra);
        assert_eq!(json_field(&live, "completions"), "201", "{name}: no drain");
        assert_eq!(json_field(&live, "decision_digest"), "0x5734c373f7fd23d1");
        assert_eq!(json_field(&live, "generation"), "1");
        assert_eq!(
            sha256_hex(&bytes),
            JOURNAL_SHA256,
            "{name}: journal bytes moved"
        );
        assert_eq!(
            json_field(&replay, "decision_digest"),
            json_field(&live, "decision_digest"),
            "{name}: replay drift"
        );
    }
}

/// The offline `optimize:` swap re-optimizes against the traffic seen by
/// the barrier and journals the concrete spec it chose, so the journal
/// alone replays to the live digest.
#[test]
fn cli_offline_optimize_swap_journals_the_chosen_spec() {
    let (live, bytes, replay) = cli_offline_swap("optimize_swap", "optimize:threshold", &[]);
    let text = String::from_utf8(bytes).unwrap();
    let swaps: Vec<&str> = text.lines().filter(|l| l.starts_with("g ")).collect();
    assert_eq!(swaps, ["g 120 1 4919650944929708735 threshold:16"]);
    assert!(
        !text.contains("optimize:"),
        "journaled spec must be concrete"
    );
    assert_eq!(json_field(&live, "generation"), "1");
    assert_eq!(
        json_field(&replay, "decision_digest"),
        json_field(&live, "decision_digest"),
        "replay drift"
    );
}

/// The offline `optimize:` swap searches within `--budget` evaluations,
/// as the networked one does: two different budgets stop the search at
/// different points.
#[test]
fn cli_offline_optimize_swap_honours_the_budget() {
    let swap_line = |budget: &str| {
        let (_, bytes, _) = cli_offline_swap(
            &format!("budget_{budget}"),
            "optimize:waterfill",
            &["--budget", budget],
        );
        let text = String::from_utf8(bytes).unwrap();
        text.lines()
            .find(|l| l.starts_with("g "))
            .expect("swap journaled")
            .to_string()
    };
    assert_ne!(swap_line("2"), swap_line("3"), "--budget was ignored");
}

/// SHA-256 (FIPS 180-4) of `data`, as lowercase hex.
fn sha256_hex(data: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
    for block in msg.chunks(64) {
        let mut w = [0u32; 64];
        for (t, word) in block.chunks(4).enumerate() {
            w[t] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for t in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (x, y) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *x = x.wrapping_add(y);
        }
    }
    h.iter().map(|x| format!("{x:08x}")).collect()
}

/// CLI loopback smoke: serve --listen driven by client over 127.0.0.1,
/// hot-swap mid-stream, exact accounting, digest reproducible from the
/// journal (the same gate CI runs against the release binary).
#[test]
fn cli_loopback_serve_and_client_round_trip_with_hot_swap() {
    let dir = std::env::temp_dir().join("eirs_net_layer_loopback");
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("net.wal");
    let addr_file = dir.join("addr.txt");
    std::fs::remove_file(&addr_file).ok();
    let server = {
        let wal = wal.clone();
        let addr_file = addr_file.clone();
        std::thread::spawn(move || {
            Command::new(env!("CARGO_BIN_EXE_eirs"))
                .args([
                    "serve",
                    "--policy",
                    "curve:2+0.5i",
                    "--k",
                    "3",
                    "--listen",
                    "127.0.0.1:0",
                    "--addr-file",
                    addr_file.to_str().unwrap(),
                    "--journal",
                    wal.to_str().unwrap(),
                    "--swap-policy",
                    "threshold:3",
                    "--swap-at",
                    "120",
                    "--json",
                    "true",
                ])
                .output()
                .expect("serve runs")
        })
    };
    // Wait for the addr file (the server binds an OS-assigned port).
    let addr = {
        let mut tries = 0;
        loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(s) if !s.is_empty() => break s,
                _ => {
                    tries += 1;
                    assert!(tries < 200, "server never wrote the addr file");
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
            }
        }
    };
    let (code, client_out, err) = run_eirs(&[
        "client",
        "--connect",
        &addr,
        "--clients",
        "2",
        "--k",
        "3",
        "--workload",
        "trace:crates/serve/testdata/smoke.trace",
        "--json",
        "true",
    ]);
    assert_eq!(code, 0, "client failed: {err}");
    let server_out = server.join().expect("server thread");
    assert!(server_out.status.success(), "serve exited nonzero");
    let serve_doc = String::from_utf8_lossy(&server_out.stdout).into_owned();

    assert_eq!(json_field(&serve_doc, "client_arrivals"), "201");
    assert_eq!(json_field(&serve_doc, "accounting_balanced"), "true");
    assert_eq!(json_field(&serve_doc, "generation"), "1");
    assert_eq!(json_field(&client_out, "decisions"), "201");
    assert_eq!(json_field(&client_out, "max_generation"), "1");

    // The journal alone reproduces the live networked digest.
    let live_digest = json_field(&serve_doc, "decision_digest").to_string();
    let (code, replay_out, err) = run_eirs(&[
        "serve",
        "--k",
        "3",
        "--replay-journal",
        wal.to_str().unwrap(),
        "--drain",
        "true",
        "--json",
        "true",
    ]);
    assert_eq!(code, 0, "replay failed: {err}");
    assert_eq!(
        json_field(&replay_out, "decision_digest"),
        live_digest,
        "networked replay drift"
    );
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(&addr_file).ok();
}
