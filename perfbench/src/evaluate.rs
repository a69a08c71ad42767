//! Phase `evaluate`: the research path behind `eirs policy`, `compare`
//! and the figures — the QBD analysis and the two simulators.
//!
//! (a1) The warm Figure-4 grid (IF/EF strict-priority chains, k = 4,
//! ρ ∈ {0.5, 0.7, 0.9}, 588 cells), each repetition from fresh caches.
//! (a2) A general-policy grid of truncated-phase QBDs at k = 16 and two
//! phase caps: at cap 16 the R-solve working set (a few 17 × 17 blocks,
//! 2.3 KiB each) fits in a 48 KiB L1d; at cap 48 (49 × 49 blocks,
//! 19 KiB each) it spills to L2.
//! (b) Fixed-count DES replications through `eirs_sim::replicate`, plus
//! a multi-class DES slice.

use crate::util::{median, timed, Report};
use crate::{trace, Plan};
use eirs_core::analysis::{analyze_policy_warm, AnalysisCache, AnalyzeOptions};
use eirs_core::experiments::{figure4_heatmap_warm_with_threads, figure4_mu_grid, HeatMapCell};
use eirs_core::policy::parse_policy;
use eirs_core::{sweep, SystemParams};
use eirs_multiclass::{simulate_multiclass, ClassSpec, MultiSimConfig, MultiSystem, WaterFilling};
use eirs_numerics::{LuDecomposition, Matrix};
use eirs_sim::policy::{ElasticFirst, InelasticFirst};
use eirs_sim::replicate::run_replications_with_threads;
use eirs_sim::{des::run_markovian, SimReport};
use std::time::Instant;

/// Figure-4 loads.
pub const FIG4_RHOS: [f64; 3] = [0.5, 0.7, 0.9];
/// Figure-4 cluster size.
pub const FIG4_K: u32 = 4;
/// General grid: cluster size, policies, µ_I chain and phase caps.
pub const GENERAL_K: u32 = 16;
const GENERAL_POLICIES: [&str; 3] = ["waterfill:1", "threshold:4", "curve:4+0.5i"];
const GENERAL_MU_I: [f64; 4] = [0.5, 1.0, 1.5, 2.0];
/// Phase caps: L1-resident and L2-spilling R solves.
pub const CAPS: [(&str, usize); 2] = [("c16", 16), ("c48", 48)];
/// Warm-up departures of every DES run.
const DES_WARMUP: u64 = 2_000;

/// Recorded E[T] under IF and EF on a few Figure-4 cells:
/// `(ρ, µ_I, µ_E, E[T] IF, E[T] EF)`.
pub const RECORDED_CELLS: [(f64, f64, f64, f64, f64); 3] = [
    (0.5, 0.25, 3.5, 2.561465633448461, 2.2651816528396074),
    (0.7, 1.0, 1.0, 1.1039508852748547, 1.2404763732543211),
    (0.9, 3.5, 0.25, 5.165278505767355, 29.953003857099507),
];

fn fig4(threads: usize) -> Vec<HeatMapCell> {
    let _s = trace::span("core.figure4_heatmap_warm", threads as u64);
    FIG4_RHOS
        .iter()
        .flat_map(|&rho| figure4_heatmap_warm_with_threads(FIG4_K, rho, threads).expect("grid"))
        .collect()
}

/// One row of the general grid: a policy, a load and a phase cap,
/// warm-chained along µ_I.
#[derive(Debug, Clone, Copy)]
struct Row {
    policy: &'static str,
    rho: f64,
    cap: usize,
}

fn general_rows(rho: f64, cap: usize) -> Vec<Row> {
    GENERAL_POLICIES
        .iter()
        .map(|&policy| Row { policy, rho, cap })
        .collect()
}

/// Solves a row; returns each cell's E[T] and solve time.
fn solve_row(row: &Row, parent: u64) -> Vec<(f64, f64)> {
    let policy = parse_policy(row.policy).expect("grid policy parses");
    let opts = AnalyzeOptions {
        phase_cap: row.cap,
        force_general: true,
        ..AnalyzeOptions::default()
    };
    let mut cache = AnalysisCache::default();
    GENERAL_MU_I
        .iter()
        .map(|&mu_i| {
            let _s = trace::span_under("core.analysis.general_cell", row.cap as u64, parent);
            let params = SystemParams::with_equal_lambdas(GENERAL_K, mu_i, 1.0, row.rho)
                .expect("stable grid point");
            let (dt, a) =
                timed(|| analyze_policy_warm(policy.as_ref(), &params, &opts, &mut cache));
            (a.expect("general chain solves").mean_response, dt)
        })
        .collect()
}

fn general(rows: &[Row], threads: usize) -> Vec<Vec<(f64, f64)>> {
    let s = trace::span("core.sweep.general", threads as u64);
    let parent = s.id();
    sweep::sweep_with_threads(rows, threads, |row| solve_row(row, parent))
}

fn des_reps(seed: u64, rho: f64, reps: usize, departures: u64, threads: usize) -> Vec<SimReport> {
    let _s = trace::span("sim.replicate", threads as u64);
    let lambda = rho * FIG4_K as f64;
    run_replications_with_threads(seed, reps, threads, |s| {
        run_markovian(
            &InelasticFirst,
            FIG4_K,
            lambda / 2.0,
            lambda / 2.0,
            1.0,
            1.0,
            s,
            DES_WARMUP,
            departures,
        )
    })
}

fn multiclass_system(rho: f64) -> MultiSystem {
    // Three classes with caps 1, 4 and 8 on k = 8; equal load shares.
    let k = 8.0;
    let share = rho * k / 3.0;
    MultiSystem::new(
        8,
        vec![
            ClassSpec::exponential("rigid", share * 1.0, 1.0, 1),
            ClassSpec::exponential("mid", share * 0.5, 0.5, 4),
            ClassSpec::exponential("elastic", share * 0.25, 0.25, 8),
        ],
    )
}

fn multiclass(seed: u64, rho: f64, departures: u64) -> f64 {
    let _s = trace::span("multiclass.simulate", 0);
    let cfg = MultiSimConfig {
        seed,
        warmup_departures: DES_WARMUP,
        departures,
    };
    simulate_multiclass(&multiclass_system(rho), &WaterFilling, cfg).mean_response
}

/// Events a DES run processes: an arrival and a departure per job.
fn des_events(departures: u64) -> f64 {
    2.0 * (DES_WARMUP + departures) as f64
}

fn same_bits(a: &[SimReport], b: &[SimReport]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.mean_response.to_bits() == y.mean_response.to_bits()
                && x.end_time.to_bits() == y.end_time.to_bits()
                && x.completed == y.completed
        })
}

/// The phase, run a round at a time.
pub struct Evaluate {
    nproc: usize,
    seed: u64,
    rho: f64,
    departures: u64,
    /// Set-up time of each round, s.
    setups: Vec<f64>,
    rows: Vec<Row>,
    /// The first (a1) grid and (a2) sweep, for the checks.
    cells: Vec<HeatMapCell>,
    general_par: Vec<Vec<(f64, f64)>>,
    a1: Vec<f64>,
    a2: Vec<f64>,
    b: Vec<f64>,
}

impl Evaluate {
    /// A phase that has run no round yet.
    pub fn new(plan: &Plan) -> Self {
        let rows: Vec<Row> = CAPS
            .iter()
            .flat_map(|&(_, c)| general_rows(plan.rho, c))
            .collect();
        Self {
            nproc: plan.nproc,
            seed: plan.seed,
            rho: plan.rho,
            departures: plan.des_departures,
            setups: Vec::new(),
            rows,
            cells: Vec::new(),
            general_par: Vec::new(),
            a1: Vec::new(),
            a2: Vec::new(),
            b: Vec::new(),
        }
    }

    /// The phase's set-up, timed on a fresh thread so that it starts
    /// with an empty solver workspace pool: parse the grid policies,
    /// build a parameter set, and make the first (cold) solve, which
    /// sizes the thread's workspace.
    fn setup(&self) -> f64 {
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    timed(|| {
                        for r in &self.rows {
                            std::hint::black_box(parse_policy(r.policy).expect("parses"));
                        }
                        let p = SystemParams::with_equal_lambdas(FIG4_K, 1.0, 1.0, 0.5)
                            .expect("stable");
                        std::hint::black_box(
                            eirs_core::analyze_inelastic_first(&p).expect("solves"),
                        );
                    })
                    .0
                })
                .join()
                .expect("set-up thread panicked")
        })
    }

    fn des_events_per_rep(&self) -> f64 {
        (2 * self.nproc + 1) as f64 * des_events(self.departures)
    }

    /// A set-up, repetitions of (a1) for about a tenth of a second, then
    /// one of (a2) and one of (b).
    pub fn round(&mut self) {
        let nproc = self.nproc;
        let setup_s = self.setup();
        self.setups.push(setup_s);
        let start = Instant::now();
        while self.a1.is_empty() || start.elapsed().as_secs_f64() < 0.1 {
            let (dt, cells) = timed(|| fig4(nproc));
            self.a1.push(cells.len() as f64 / dt);
            if self.cells.is_empty() {
                self.cells = cells;
            }
        }
        let (dt, g) = timed(|| general(&self.rows, nproc));
        self.a2
            .push((self.rows.len() * GENERAL_MU_I.len()) as f64 / dt);
        if self.general_par.is_empty() {
            self.general_par = g;
        }
        let seed = self.seed.wrapping_add(self.b.len() as u64);
        let (dt, ()) = timed(|| {
            std::hint::black_box(des_reps(seed, self.rho, 2 * nproc, self.departures, nproc));
            std::hint::black_box(multiclass(seed, self.rho, self.departures));
        });
        self.b.push(self.des_events_per_rep() / dt);
    }

    /// Reports the phase's metrics and checks; returns its set-up time.
    pub fn finish(self, plan: &Plan, out: &mut Report) -> f64 {
        let nproc = self.nproc;
        out.e2e("fig4_cells_per_s", median(&self.a1), "1/s");
        out.e2e("general_cells_per_s", median(&self.a2), "1/s");
        out.e2e("des_events_per_s", median(&self.b), "1/s");
        let n_general = self.rows.len() * GENERAL_MU_I.len();
        out.attempted += (self.cells.len() * self.a1.len()
            + n_general * self.a2.len()
            + (2 * nproc + 1) * self.b.len()) as u64;
        println!(
            "evaluate: fig4 {} cells x {} reps, general {n_general} cells x {} reps, DES {}+1 runs \
             of {} departures x {} reps",
            self.cells.len(),
            self.a1.len(),
            self.a2.len(),
            2 * nproc,
            self.departures,
            self.b.len()
        );

        let serial_row = figure4_heatmap_warm_with_threads(FIG4_K, 0.7, 1).expect("grid");
        let par_row = &self.cells[196..392];
        out.check(
            "evaluate.fig4_parallel_equals_serial",
            serial_row.len() == par_row.len()
                && serial_row.iter().zip(par_row).all(|(s, p)| {
                    s.comparison.mrt_if.to_bits() == p.comparison.mrt_if.to_bits()
                        && s.comparison.mrt_ef.to_bits() == p.comparison.mrt_ef.to_bits()
                }),
            || "Figure-4 ρ = 0.7 grid differs between 1 and nproc threads".into(),
        );
        let serial_general = general(&self.rows[..GENERAL_POLICIES.len()], 1);
        out.check(
            "evaluate.general_parallel_equals_serial",
            serial_general.iter().zip(&self.general_par).all(|(s, p)| {
                s.len() == p.len() && s.iter().zip(p).all(|(a, b)| a.0.to_bits() == b.0.to_bits())
            }),
            || "general grid rows differ between 1 and nproc threads".into(),
        );
        check_recorded_cells(&self.cells, out);
        let small = self.departures.min(20_000);
        let one = des_reps(self.seed, self.rho, 2, small, 1);
        let many = des_reps(self.seed, self.rho, 2, small, nproc.max(2));
        out.check(
            "evaluate.des_identical_across_thread_counts",
            same_bits(&one, &many),
            || "DES replications differ between 1 and nproc threads".into(),
        );
        let mc1 = multiclass(self.seed, self.rho, small);
        let mc2 = multiclass(self.seed, self.rho, small);
        out.check(
            "evaluate.multiclass_des_repeats",
            mc1.to_bits() == mc2.to_bits() && mc1.is_finite(),
            || format!("multi-class DES gave {mc1} then {mc2}"),
        );

        if trace::enabled() {
            layer_metrics(plan, &self.rows, out);
        }
        median(&self.setups)
    }
}

fn check_recorded_cells(cells: &[HeatMapCell], out: &mut Report) {
    let grid = figure4_mu_grid();
    for &(rho, mu_i, mu_e, t_if, t_ef) in &RECORDED_CELLS {
        let r = FIG4_RHOS
            .iter()
            .position(|&x| x == rho)
            .expect("recorded ρ in grid");
        let ie = grid.iter().position(|&x| x == mu_e).expect("µ_E in grid");
        let ii = grid.iter().position(|&x| x == mu_i).expect("µ_I in grid");
        let c = &cells[r * 196 + ie * grid.len() + ii].comparison;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
        out.check(
            &format!("evaluate.recorded_et.rho{rho}.mui{mu_i}.mue{mu_e}"),
            close(c.mrt_if, t_if) && close(c.mrt_ef, t_ef),
            || {
                format!(
                    "E[T] IF {:?} EF {:?}, recorded {t_if:?} {t_ef:?}",
                    c.mrt_if, c.mrt_ef
                )
            },
        );
    }
}

fn counter(snap: &eirs_obs::Snapshot, name: &str) -> f64 {
    snap.counter(name) as f64
}

/// Per-layer figures from timed calls into `eirs_core`, `eirs_markov`
/// (through its counters), `eirs_numerics` and the simulators.
fn layer_metrics(plan: &Plan, rows: &[Row], out: &mut Report) {
    let nproc = plan.nproc;
    // Strict-priority cells, timed one by one along warm rows, in a
    // parallel sweep over rows so the same timings give the sweep's
    // parallel efficiency.
    let grid = figure4_mu_grid();
    let before = eirs_obs::snapshot();
    let wall = Instant::now();
    let timings: Vec<Vec<f64>> = sweep::sweep_with_threads(&grid, nproc, |&mu_e| {
        let mut cache = AnalysisCache::default();
        let opts = AnalyzeOptions::default();
        grid.iter()
            .map(|&mu_i| {
                let p = SystemParams::with_equal_lambdas(FIG4_K, mu_i, mu_e, 0.7).expect("stable");
                let (dt, _) = timed(|| {
                    analyze_policy_warm(&InelasticFirst, &p, &opts, &mut cache).expect("IF");
                    analyze_policy_warm(&ElasticFirst, &p, &opts, &mut cache).expect("EF");
                });
                dt
            })
            .collect()
    });
    let wall = wall.elapsed().as_secs_f64();
    let after = eirs_obs::snapshot();
    let all: Vec<f64> = timings.into_iter().flatten().collect();
    let busy: f64 = all.iter().sum();
    out.layer("core.analysis.strict_cell_us", median(&all) * 1e6, "us");
    out.layer(
        "core.sweep.parallel_eff",
        busy / (wall * nproc as f64),
        "ratio",
    );
    let d = |name: &str| counter(&after, name) - counter(&before, name);
    let chained = d("core.solve.warm_chained");
    out.layer(
        "core.solve.warm_chained_ratio",
        chained / (chained + d("core.solve.chain_starts")).max(1.0),
        "ratio",
    );
    out.layer(
        "markov.warm.accept_ratio",
        (d("markov.warm.rank1_accepted") + d("markov.warm.refine_accepted"))
            / d("markov.warm.attempts").max(1.0),
        "ratio",
    );
    out.layer(
        "markov.warm.fallback_cold",
        d("markov.warm.fallback_cold"),
        "count",
    );
    out.layer(
        "markov.solve.cold_iterations_per_solve",
        d("markov.solve.cold_iterations") / d("markov.solve.cold").max(1.0),
        "count",
    );

    // General cells per cap, serial.
    for &(label, cap) in &CAPS {
        let mine: Vec<Row> = rows.iter().filter(|r| r.cap == cap).copied().collect();
        let times: Vec<f64> = general(&mine[..1], 1)
            .into_iter()
            .flatten()
            .map(|(_, dt)| dt * 1e3)
            .collect();
        out.layer(
            &format!("core.analysis.general_cell_ms.{label}"),
            median(&times),
            "ms",
        );
    }

    // Kernels at the two chain dimensions the general grid produces.
    for &(_, cap) in &CAPS {
        let d = cap + 1;
        let a = test_matrix(d, 1.0);
        let b = test_matrix(d, 2.0);
        let mut c = Matrix::zeros(d, d);
        let reps = if plan.smoke {
            3
        } else {
            (2_000_000 / (d * d * d)).clamp(5, 2_000)
        };
        let factor: Vec<f64> = (0..reps)
            .map(|_| timed(|| std::hint::black_box(LuDecomposition::new(&a).expect("regular"))).0)
            .collect();
        let mul: Vec<f64> = (0..reps)
            .map(|_| {
                timed(|| {
                    a.mul_into(&b, &mut c);
                    std::hint::black_box(&c);
                })
                .0
            })
            .collect();
        let (f, m) = (median(&factor), median(&mul));
        out.layer(&format!("numerics.lu.factor_us.d{d}"), f * 1e6, "us");
        out.layer(&format!("numerics.matrix.mul_us.d{d}"), m * 1e6, "us");
        out.layer(
            &format!("numerics.matrix.gflops.d{d}"),
            2.0 * (d * d * d) as f64 / m / 1e9,
            "GFLOP/s",
        );
    }

    // Simulators: serial per-event cost and replication fan-out.
    let deps = plan.des_departures;
    let reps = 2 * nproc;
    let (serial_s, _) = timed(|| des_reps(plan.seed, plan.rho, reps, deps, 1));
    let (par_s, _) = timed(|| des_reps(plan.seed, plan.rho, reps, deps, nproc));
    out.layer(
        "sim.des.ns_per_event",
        serial_s * 1e9 / (reps as f64 * des_events(deps)),
        "ns",
    );
    out.layer(
        "sim.replicate.parallel_eff",
        serial_s / (par_s * nproc as f64),
        "ratio",
    );
    let (mc_s, _) = timed(|| multiclass(plan.seed, plan.rho, deps));
    out.layer(
        "multiclass.des.ns_per_event",
        mc_s * 1e9 / des_events(deps),
        "ns",
    );
}

/// A well-conditioned dense `d × d` matrix (diagonally dominant).
fn test_matrix(d: usize, salt: f64) -> Matrix {
    let mut m = Matrix::zeros(d, d);
    for i in 0..d {
        for j in 0..d {
            m[(i, j)] = ((i * 31 + j * 17) % 13) as f64 / 13.0 * salt;
        }
        m[(i, i)] += d as f64 * 2.0;
    }
    m
}
