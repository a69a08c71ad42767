//! The bundled `testdata/smoke.trace` consumed by the CI determinism
//! gate (`eirs serve --workload trace:crates/serve/testdata/smoke.trace`
//! with 1 and 4 shard workers must produce the same decision digest).
//!
//! The checked-in file is a frozen artifact; the ignored test below
//! regenerates it (`cargo test -p eirs-serve regenerate -- --ignored`)
//! and the live tests pin that the committed bytes still parse and
//! replay to the recorded decision digests, with and without churn.
//!
//! `testdata/legacy_rtail.snap` is a frozen snapshot of the same replay
//! after 60 arrivals, written by
//! `eirs serve --policy curve:2+0.5i --workload trace:<smoke.trace>
//! --journal <wal> --snapshot <snap> --snapshot-at 60 --kill-after 140`
//! when snapshots still carried a per-shard P² sketch (`rtail` lines).
//! It must keep restoring and continue to the pinned digest.

use eirs_queueing::Exponential;
use eirs_serve::{ChurnConfig, CompiledTable, EngineConfig, EngineSnapshot, ServeEngine};
use eirs_sim::arrivals::ArrivalTrace;
use eirs_sim::availability::FaultSpec;
use eirs_sim::policy::SwitchingCurvePolicy;
use std::path::Path;

/// Digest of the smoke trace under `curve:2+0.5i` on `k = 4` with four
/// route shards: what `eirs serve --workload trace:<smoke.trace>` prints.
const SMOKE_DIGEST: u64 = 0x693b_b79e_aa59_53a1;

/// The same replay under the CI chaos gate's churn
/// (`--churn crash:mtbf=30,mttr=6 --fault-seed 11 --fault-horizon 500`).
const CHAOS_DIGEST: u64 = 0xecd8_cc44_a07f_f548;

/// The same replay under harsher churn, chosen so capacity losses hit
/// partially-served inelastic jobs and preempt-restart them.
const CHURN_DIGEST: u64 = 0x6e1b_a39a_f1ef_e80f;
const CHURN_PREEMPTIONS: u64 = 7;
const CHURN_TOTAL_RESPONSE_BITS: u64 = 0x406f_8071_413c_4b80;

fn smoke_trace() -> ArrivalTrace {
    ArrivalTrace::record_poisson(
        0.9,
        0.6,
        Box::new(Exponential::new(1.0)),
        Box::new(Exponential::new(0.8)),
        2024,
        160.0,
    )
}

fn testdata_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/smoke.trace")
}

#[test]
#[ignore = "regenerates the committed testdata/smoke.trace"]
fn regenerate_smoke_trace() {
    let path = testdata_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    smoke_trace().save(&path).unwrap();
}

fn smoke_table() -> CompiledTable {
    CompiledTable::compile(
        Box::new(SwitchingCurvePolicy {
            intercept: 2,
            slope: 0.5,
        }),
        4,
        32,
        32,
    )
}

/// Replays the bundled trace through a `k = 4`, four-route-shard engine.
fn serve_smoke(workers: usize, churn: Option<(&str, u64, f64)>) -> ServeEngine {
    let trace = ArrivalTrace::load(&testdata_path()).expect("bundled trace parses");
    let table = smoke_table();
    let mut config = EngineConfig::new(4).route_shards(4).workers(workers);
    if let Some((spec, seed, horizon)) = churn {
        config = config.churn(ChurnConfig {
            spec: FaultSpec::parse(spec).unwrap(),
            seed,
            horizon,
        });
    }
    let mut engine = ServeEngine::new(table, config);
    let mut source = trace.stream();
    engine.run(&mut source, f64::INFINITY);
    engine
}

#[test]
fn bundled_smoke_trace_replays_identically_across_worker_counts() {
    let trace = ArrivalTrace::load(&testdata_path()).expect("bundled trace parses");
    assert!(trace.len() > 100, "smoke trace too small: {}", trace.len());
    assert_eq!(
        trace,
        smoke_trace(),
        "committed trace drifted from its recipe"
    );
    let serial = serve_smoke(1, None).decision_digest();
    assert_eq!(serial, serve_smoke(4, None).decision_digest());
    assert_eq!(serial, SMOKE_DIGEST, "digest {serial:#018x}");
}

#[test]
fn chaos_gate_replay_matches_its_recorded_digest() {
    let churn = Some(("crash:mtbf=30,mttr=6", 11, 500.0));
    let engine = serve_smoke(1, churn);
    let digest = engine.decision_digest();
    assert_eq!(digest, serve_smoke(4, churn).decision_digest());
    assert_eq!(digest, CHAOS_DIGEST, "digest {digest:#018x}");
    let totals = engine.metrics_total();
    assert!(totals.degraded_decisions > 0, "the schedule must bite");
    // This schedule never catches a partially-served inelastic job; the
    // churn case below covers preempt-restart.
    assert_eq!(totals.preemptions, 0);
}

#[test]
fn churn_with_preemptions_matches_its_recorded_digest() {
    let churn = Some(("crash:mtbf=8,mttr=6", 3, 500.0));
    let engine = serve_smoke(1, churn);
    let digest = engine.decision_digest();
    assert_eq!(digest, serve_smoke(4, churn).decision_digest());
    let totals = engine.metrics_total();
    assert!(totals.preemptions > 0, "capacity loss must preempt");
    assert_eq!(totals.completions, totals.arrivals);
    assert_eq!(
        (digest, totals.preemptions, totals.total_response.to_bits()),
        (CHURN_DIGEST, CHURN_PREEMPTIONS, CHURN_TOTAL_RESPONSE_BITS),
        "digest {digest:#018x}, preemptions {}, total_response bits {:#018x}",
        totals.preemptions,
        totals.total_response.to_bits()
    );
}

#[test]
fn legacy_snapshot_with_p2_sketches_restores_and_continues() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("testdata/legacy_rtail.snap");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.contains("\nrtail "),
        "fixture must carry legacy sketch lines"
    );
    let snap = EngineSnapshot::load(&path).expect("legacy snapshot parses");
    let config = EngineConfig::new(4).route_shards(4);
    let mut engine = ServeEngine::from_snapshot(smoke_table(), config, &snap).unwrap();
    let trace = ArrivalTrace::load(&testdata_path()).unwrap();
    engine.ingest_batch(&trace.arrivals()[snap.seq as usize..]);
    engine.drain();
    assert_eq!(engine.decision_digest(), SMOKE_DIGEST);
    // The rewritten snapshot drops the sketches.
    let mut buf = Vec::new();
    engine.snapshot().to_writer(&mut buf).unwrap();
    assert!(!String::from_utf8(buf).unwrap().contains("rtail"));
}
