//! The eirs benchmark: one command measures the serving and evaluation
//! paths end to end, checks every output, and (with `--trace 1`) breaks
//! the time down by layer. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <moderate|heavy> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Every run has three phases, each in its own module: `net` (open-loop
//! latency and capacity through `eirs_net` on loopback), `offline` (the
//! serve event core and journal recovery in process) and `evaluate` (the
//! QBD analysis and the simulators). The workload sets the load per
//! cluster shard. The last stdout line is the result object.

mod evaluate;
mod gen;
mod net;
mod offline;
mod trace;
mod util;

use eirs_serve::CompiledTable;
use std::path::PathBuf;
use util::{json_str, Report};

/// Servers per cluster shard.
pub const K: u32 = 4;
/// Route shards of the serving engine.
pub const SHARDS: usize = 8;
/// Serving-table grid (states `0..=GRID` per class are tabulated).
pub const GRID: usize = 64;
/// The boot policy of every serving engine.
pub const BOOT_SPEC: &str = "curve:2+0.5i";

/// The workloads and their load per cluster shard: `moderate` is the
/// paper's operating point, where every decision falls inside the
/// serving table's grid; under `heavy` about one decision in twenty
/// falls outside it and is delegated to the source policy.
pub const WORKLOADS: [(&str, f64); 2] = [("moderate", 0.7), ("heavy", 0.97)];

/// Compiles a policy spec into a serving table (the CLI's grid sizing).
pub fn compile(spec: &str) -> Result<CompiledTable, String> {
    let policy = eirs_core::policy::parse_policy(spec)?;
    Ok(CompiledTable::compile(policy, K, GRID, GRID))
}

/// What a run does, derived from its arguments.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload name.
    pub workload: String,
    /// Load per cluster shard.
    pub rho: f64,
    /// Workload seed.
    pub seed: u64,
    /// Measuring budget, s.
    pub seconds: f64,
    /// Smoke mode: tiny sizes, every check.
    pub smoke: bool,
    /// Worker threads (`available_parallelism`).
    pub nproc: usize,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
    /// Duration of each capacity probe, s.
    pub net_probe_s: f64,
    /// Arrivals over all offline streams.
    pub offline_arrivals: usize,
    /// Measured departures per DES run.
    pub des_departures: u64,
    /// Capacity probes to make once the staircase has settled.
    pub settled_probes: usize,
}

impl Plan {
    fn new(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Result<Self, String> {
        let &(_, rho) = WORKLOADS
            .iter()
            .find(|w| w.0 == workload)
            .ok_or_else(|| format!("unknown workload '{workload}'"))?;
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let work = PathBuf::from(".bench_build")
            .join("perfbench-work")
            .join(format!("{workload}-{}", std::process::id()));
        Ok(Self {
            workload: workload.into(),
            rho,
            seed,
            seconds,
            smoke,
            nproc,
            work,
            net_probe_s: if smoke { 0.05 } else { 0.3 },
            offline_arrivals: if smoke { 20_000 } else { 1_000_000 },
            des_departures: if smoke { 5_000 } else { 100_000 },
            settled_probes: if smoke { 1 } else { 10 },
        })
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    target_cpu: String,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        target_cpu: "unknown".into(),
        rev: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--target-cpu" => a.target_cpu = value,
            "--rev" => a.rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Rounds every run makes at least, whatever its time budget.
const MIN_ROUNDS: usize = 5;

/// Runs the phases in rounds until the time budget is spent and the
/// capacity search has settled (but never past half again the budget).
/// Each round runs one repetition of every measurement, so a slow spell
/// of the host lands in a few rounds of every metric, and each metric's
/// median over rounds shrugs it off.
pub fn run_phases(plan: &Plan) -> Report {
    let mut out = Report::default();
    let mut net = net::Net::new(plan);
    let mut offline = offline::Offline::new(plan);
    let mut evaluate = evaluate::Evaluate::new(plan);
    let start = std::time::Instant::now();
    let min_rounds = if plan.smoke { 1 } else { MIN_ROUNDS };
    let mut rounds = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let wanted = rounds < min_rounds || !net.done() || elapsed < plan.seconds;
        if !wanted || (rounds >= min_rounds && elapsed >= 1.5 * plan.seconds) {
            break;
        }
        net.round();
        offline.round();
        evaluate.round();
        rounds += 1;
    }
    println!("rounds: {rounds} in {:.1} s", start.elapsed().as_secs_f64());
    // Program set-up before the first timed operation of each phase,
    // each the median of several set-ups.
    let setup = [
        net.finish(plan, &mut out),
        offline.finish(plan, &mut out),
        evaluate.finish(plan, &mut out),
    ];
    println!(
        "setup_s: net {:.6} s + offline {:.6} s + evaluate {:.6} s",
        setup[0], setup[1], setup[2]
    );
    out.e2e("setup_s", setup.iter().sum(), "s");
    out
}

/// One run: untraced, or (`traced`) the same run untraced and then
/// traced, whose difference is the cost of tracing.
pub fn run(plan: &Plan, traced: bool) -> Report {
    let plain = run_phases(plan);
    if !traced {
        return plain;
    }
    eirs_obs::set_enabled(true);
    trace::set_enabled(true);
    let mut r = run_phases(plan);
    trace::set_enabled(false);
    eirs_obs::set_enabled(false);
    tracing_overhead(&plain, &mut r);
    r
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let plan = match Plan::new(&args.workload, args.seed, args.seconds, args.smoke) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&plan.work) {
        eprintln!("perfbench: cannot create {}: {e}", plan.work.display());
        std::process::exit(2);
    }
    let degenerate = plan.nproc < 2;
    println!(
        "preamble {{\"nproc\":{},\"target_cpu\":{},\"profile\":\"release\",\"rev\":{},\
         \"workload\":{},\"rho\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\
         \"generator_threads\":2,\"generator_connections\":1,\"network\":\"loopback\",\
         \"scaling_degenerate\":{degenerate}}}",
        plan.nproc,
        json_str(&args.target_cpu),
        json_str(&args.rev),
        json_str(&plan.workload),
        plan.rho,
        plan.seed,
        plan.seconds,
        args.trace,
        plan.smoke
    );
    if degenerate {
        println!("note: nproc = 1, so worker_scaling and parallel_eff are degenerate");
    }

    let mut report = run(&plan, args.trace);

    let spans = trace::take();
    if !spans.is_empty() {
        for (name, (count, total, own)) in trace::self_times(&spans) {
            println!(
                "span {name}: count {count}, total {:.3} ms, self {:.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let dir = PathBuf::from(".bench_build").join("perfbench-traces");
        let path = dir.join(format!("{}-seed{}.json", plan.workload, plan.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| trace::write_chrome(&path, &spans)) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => report.check("trace.written", false, || e.to_string()),
        }
    }
    let _ = std::fs::remove_dir_all(&plan.work);

    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for m in metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let failed: Vec<&str> = report
        .checks
        .iter()
        .filter(|(_, f)| f.is_some())
        .map(|(n, _)| n.as_str())
        .collect();
    println!(
        "checks: {} run, {} failed {:?}",
        report.checks.len(),
        failed.len(),
        failed
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        body.join(",")
    );
}

/// The cost of tracing per phase: its headline end-to-end figure traced
/// against untraced, as a percentage slowdown.
fn tracing_overhead(plain: &Report, traced: &mut Report) {
    let value = |r: &Report, name: &str| {
        r.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    for (phase, name, lower_is_better) in [
        ("net", "lat_p50_us.mid", true),
        ("offline", "decisions_per_s", false),
        ("evaluate", "fig4_cells_per_s", false),
    ] {
        let (off, on) = (value(plain, name), value(traced, name));
        let slowdown = if lower_is_better { on / off } else { off / on };
        traced.layer(
            &format!("obs.overhead_pct.{phase}"),
            (slowdown - 1.0) * 100.0,
            "%",
        );
    }
    for (name, failure) in &plain.checks {
        traced
            .checks
            .push((format!("untraced.{name}"), failure.clone()));
    }
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names of one section of `BENCHMARK.json`, with units.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\"")).expect("field present");
            let rest = &entry[at + key.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = rest[open..].find('"').expect("value closes");
            rest[open..open + close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn printed(metrics: &[util::Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    const CHECKS: [&str; 13] = [
        "net.accounting_balanced",
        "net.one_decision_per_request",
        "net.journal_replays_to_digest",
        "net.swap_generations_match_schedule",
        "offline.worker_digest_equals_single_worker",
        "offline.recovered_digest_equals_live",
        "offline.default_seed_digest_matches_record",
        "evaluate.fig4_parallel_equals_serial",
        "evaluate.general_parallel_equals_serial",
        "evaluate.recorded_et.rho0.7.mui1.mue1",
        "evaluate.des_identical_across_thread_counts",
        "evaluate.multiclass_des_repeats",
        "net.hi.latency_finite",
    ];

    /// The smoke run passes every correctness check and prints exactly
    /// the metrics `BENCHMARK.json` declares, by name and unit; traced,
    /// it prints exactly the declared per-layer metrics.
    #[test]
    fn smoke_runs_every_check_and_prints_every_declared_metric() {
        let mut plan = Plan::new("moderate", 7, 1.0, true).expect("plan");
        plan.work =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.bench_build/perfbench-test-work");
        std::fs::create_dir_all(&plan.work).expect("work dir");
        let report = run(&plan, true);
        let failed: Vec<_> = report.checks.iter().filter(|c| c.1.is_some()).collect();
        assert!(report.correct(), "failed checks: {failed:?}");
        for name in CHECKS {
            assert!(
                report.checks.iter().any(|(n, _)| n == name),
                "check {name} did not run"
            );
        }
        let valid = |n: &str| {
            !n.is_empty()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for m in report.end_to_end.iter().chain(&report.per_layer) {
            assert!(valid(&m.name), "metric name {}", m.name);
            assert!(m.value.is_finite(), "metric {} = {}", m.name, m.value);
        }
        assert_eq!(printed(&report.end_to_end), declared("end_to_end"));
        assert_eq!(printed(&report.per_layer), declared("per_layer"));
        let _ = std::fs::remove_dir_all(&plan.work);
    }
}
