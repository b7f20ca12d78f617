//! The streaming arms race, benched end to end: dynamic attackers
//! (budget-spreading vs. burst-at-retrain) against online defenses
//! (canary-guarded retraining, sliding-window provenance screening)
//! across retraining cadences, over the drifting window stream that
//! `pipa_core::stream` runs behind the `CostBackend` seam.
//!
//! Cells:
//!
//! * `stream/scenario_spread_none` — one undefended spread-attack stream
//!   end to end (the raw scenario wall time; its deterministic
//!   `cost_evals` count divided by this median is the steady-state
//!   what-if QPS the artifact reports);
//! * `stream/scenario_spread_canary` — the same stream behind the canary
//!   guard (what the defense costs in wall time);
//!
//! plus the full attacker × defense × cadence grid run once outside
//! criterion for the committed summary: toxicity-over-time curves,
//! defense recall, and the no-defense vs. best-defense steady-state
//! comparison — cross-checked bit-identical between `--jobs 1` and
//! `--jobs 4` before anything is written (the guarantee
//! `crates/core/tests/determinism.rs` owns).
//!
//! A custom `main` (the `[[bench]]` is `harness = false`) writes
//! `results/BENCH_stream.json`. `STREAM_BENCH_SMOKE=1` shrinks every
//! dimension and skips the artifact write (CI smoke).

use pipa_core::defense::DefensePolicy;
use pipa_core::experiment::{build_db, CellConfig, InjectorKind};
use pipa_core::stream::{
    run_stream, run_stream_grid, AttackerStrategy, Cadence, StreamCell, StreamGridSpec,
    StreamOutcome, StreamSpec,
};
use pipa_core::CellSeed;
use pipa_ia::{AdvisorKind, SpeedPreset, TrajectoryMode};
use pipa_workload::{Benchmark, DriftSchedule};
use serde::Serialize;
use std::hint::black_box;

#[derive(Serialize)]
struct Medians {
    scenario_spread_none: Option<f64>,
    scenario_spread_canary: Option<f64>,
}

/// One grid cell's toxicity-over-time curve plus its defense ledger.
#[derive(Serialize)]
struct Curve {
    attacker: String,
    defense: String,
    cadence: String,
    run: u64,
    seed: u64,
    /// Per-window AD vs. the clean twin, in arrival order.
    ad_per_window: Vec<f64>,
    /// Per-window toxicity flags (Definition 2.4 vs. the twin).
    toxic_per_window: Vec<bool>,
    steady_ad: f64,
    steady_toxicity: f64,
    total_injected: usize,
    total_screened: usize,
    retrains: usize,
    rollbacks: usize,
    defense_recall: f64,
}

/// Mean steady-state damage for one defense column, aggregated over the
/// attacked cells (every attacker except `none`, every cadence, every
/// run — all at the same per-window budget).
#[derive(Serialize)]
struct DefenseColumn {
    defense: String,
    cells: usize,
    steady_ad: f64,
    steady_toxicity: f64,
    mean_recall: f64,
}

#[derive(Serialize)]
struct BenchArtifact {
    id: String,
    description: String,
    provenance: pipa_bench::cli::Provenance,
    advisor: String,
    windows_per_stream: usize,
    budget_per_window: usize,
    runs: usize,
    grid_cells: usize,
    drift: String,
    attackers: Vec<String>,
    defenses: Vec<String>,
    cadences: Vec<String>,
    median_scenario_ns: Medians,
    /// Scenario-level what-if evaluations per second in the benched
    /// undefended stream (deterministic eval count / median wall time).
    whatif_qps: f64,
    /// What the canary guard costs end to end (defended / undefended
    /// median wall time).
    canary_overhead: Option<f64>,
    /// Attacked cells with no defense: mean steady-state AD / toxicity.
    no_defense_steady_ad: f64,
    no_defense_steady_toxicity: f64,
    /// The best defense column (lowest mean steady toxicity, AD as the
    /// tie-break) over the same attacked cells at the same budget.
    best_defense: String,
    best_defense_steady_ad: f64,
    best_defense_steady_toxicity: f64,
    /// `no_defense_steady_toxicity - best_defense_steady_toxicity`: the
    /// acceptance criterion (must be > 0 — an online defense measurably
    /// cuts steady-state toxicity at equal attacker budget).
    defense_toxicity_cut: f64,
    defense_ad_cut: f64,
    defense_columns: Vec<DefenseColumn>,
    /// The grid serialized bit-identically at --jobs 1 and --jobs 4
    /// (asserted before the artifact is written).
    deterministic_across_jobs: bool,
    curves: Vec<Curve>,
}

fn cell_config() -> CellConfig {
    let mut cfg = CellConfig::quick(Benchmark::TpcH);
    cfg.preset = SpeedPreset::Test;
    cfg.probe_epochs = 2;
    cfg
}

fn curve(cell: &StreamCell, out: &StreamOutcome) -> Curve {
    Curve {
        attacker: out.attacker.clone(),
        defense: out.defense.clone(),
        cadence: out.cadence.clone(),
        run: cell.run,
        seed: out.seed,
        ad_per_window: out.windows.iter().map(|w| w.ad).collect(),
        toxic_per_window: out.windows.iter().map(|w| w.toxic).collect(),
        steady_ad: out.steady_ad,
        steady_toxicity: out.steady_toxicity,
        total_injected: out.total_injected,
        total_screened: out.total_screened,
        retrains: out.retrains,
        rollbacks: out.rollbacks,
        defense_recall: out.defense_recall,
    }
}

fn main() {
    let bench = pipa_bench::cli::BenchArgs::for_bench("stream");
    let smoke = bench.smoke;
    let mut c = bench.criterion(10);

    let cfg = cell_config();
    let advisor = AdvisorKind::DbaBandit(TrajectoryMode::Best);
    let (windows, budget, runs) = if smoke { (2, 2, 1) } else { (6, 6, 2) };
    let grid = StreamGridSpec {
        advisor: advisor.into(),
        attackers: if smoke {
            vec![
                AttackerStrategy::None,
                AttackerStrategy::Spread(InjectorKind::Pipa),
            ]
        } else {
            vec![
                AttackerStrategy::None,
                AttackerStrategy::Spread(InjectorKind::Pipa),
                AttackerStrategy::Burst(InjectorKind::Pipa),
            ]
        },
        defenses: if smoke {
            vec![DefensePolicy::None, DefensePolicy::Canary { tolerance: 0.05 }]
        } else {
            vec![
                DefensePolicy::None,
                DefensePolicy::Canary { tolerance: 0.05 },
                DefensePolicy::Provenance {
                    max_novel_fraction: 0.2,
                    history: 3,
                },
            ]
        },
        cadences: if smoke {
            vec![Cadence::Every(1)]
        } else {
            vec![Cadence::Every(1), Cadence::Every(2)]
        },
        windows,
        drift: DriftSchedule::Resample,
        budget,
        runs,
        root_seed: 41,
    };

    // --- criterion: one undefended and one canary-guarded scenario ----
    let scenario = |defense| StreamSpec {
        windows,
        drift: DriftSchedule::Resample,
        cadence: Cadence::Every(1),
        attacker: AttackerStrategy::Spread(InjectorKind::Pipa),
        budget,
        defense,
    };
    eprintln!("[setup] building the simulator database...");
    let db = build_db(&cfg);
    let seed = CellSeed::derive(grid.root_seed, 0);
    let reference = run_stream(&db, &cfg, advisor, &scenario(DefensePolicy::None), seed)
        .expect("reference scenario runs");
    let scenario_evals = reference.cost_evals;
    for (id, defense) in [
        ("scenario_spread_none", DefensePolicy::None),
        ("scenario_spread_canary", DefensePolicy::Canary { tolerance: 0.05 }),
    ] {
        let spec = scenario(defense);
        c.bench_function(&format!("stream/{id}"), |b| {
            b.iter(|| {
                let out = run_stream(&db, &cfg, advisor, &spec, seed).expect("scenario runs");
                black_box(out.final_cost)
            })
        });
    }

    // --- the grid, cross-checked across job counts ---------------------
    eprintln!(
        "[run] arms-race grid: {} cells ({} windows each) at --jobs 1...",
        grid.len(),
        windows
    );
    let serial = {
        let db = build_db(&cfg);
        run_stream_grid(&db, &cfg, &grid, 1).expect("grid runs")
    };
    eprintln!("[run] the same grid at --jobs 4 (determinism cross-check)...");
    let parallel = {
        let db = build_db(&cfg);
        run_stream_grid(&db, &cfg, &grid, 4).expect("grid runs")
    };
    let ser = |rs: &[(StreamCell, StreamOutcome)]| {
        let outcomes: Vec<&StreamOutcome> = rs.iter().map(|(_, o)| o).collect();
        serde_json::to_string_pretty(&outcomes).expect("serializable")
    };
    let deterministic = ser(&serial) == ser(&parallel);
    assert!(
        deterministic,
        "stream grid drifted between --jobs 1 and --jobs 4"
    );

    // --- summary: no defense vs. each defense on the attacked cells ----
    let attacked: Vec<&(StreamCell, StreamOutcome)> = serial
        .iter()
        .filter(|(_, o)| o.attacker != "none")
        .collect();
    assert!(!attacked.is_empty(), "the grid must contain attacked cells");
    let column = |label: &str| -> DefenseColumn {
        let cells: Vec<&StreamOutcome> = attacked
            .iter()
            .filter(|(_, o)| o.defense == label)
            .map(|(_, o)| o)
            .collect();
        let n = cells.len().max(1) as f64;
        DefenseColumn {
            defense: label.to_string(),
            cells: cells.len(),
            steady_ad: cells.iter().map(|o| o.steady_ad).sum::<f64>() / n,
            steady_toxicity: cells.iter().map(|o| o.steady_toxicity).sum::<f64>() / n,
            mean_recall: cells.iter().map(|o| o.defense_recall).sum::<f64>() / n,
        }
    };
    let columns: Vec<DefenseColumn> = grid
        .defenses
        .iter()
        .map(|d| column(d.label()))
        .collect();
    let none = columns
        .iter()
        .find(|c| c.defense == "none")
        .expect("the undefended column anchors the comparison");
    let best = columns
        .iter()
        .filter(|c| c.defense != "none")
        .min_by(|a, b| {
            (a.steady_toxicity, a.steady_ad)
                .partial_cmp(&(b.steady_toxicity, b.steady_ad))
                .expect("finite summaries")
        })
        .expect("at least one defense column");
    let toxicity_cut = none.steady_toxicity - best.steady_toxicity;
    let ad_cut = none.steady_ad - best.steady_ad;

    let lines = bench.lines();
    let med = |id: &str| pipa_bench::cli::median_of(&lines, id);
    let median_none = med("stream/scenario_spread_none");
    let median_canary = med("stream/scenario_spread_canary");
    let whatif_qps = match median_none {
        Some(ns) if ns > 0.0 => scenario_evals as f64 / (ns / 1e9),
        _ => 0.0,
    };

    println!("\narms-race grid: {} cells, {} attacked", serial.len(), attacked.len());
    for c in &columns {
        println!(
            "  defense {:>10}: steady AD {:+.4}, steady toxicity {:.2}, recall {:.2} ({} cells)",
            c.defense, c.steady_ad, c.steady_toxicity, c.mean_recall, c.cells
        );
    }
    println!(
        "best defense: {} (toxicity cut {:+.3}, AD cut {:+.4})",
        best.defense, toxicity_cut, ad_cut
    );
    println!("scenario what-if throughput: {whatif_qps:.0} evals/s");
    println!("deterministic across jobs: {deterministic}");

    if !smoke {
        assert!(
            toxicity_cut > 0.0,
            "acceptance: an online defense must cut steady-state toxicity \
             vs. no-defense at equal budget (got {toxicity_cut})"
        );
    }

    let artifact = BenchArtifact {
        id: "BENCH_stream".to_string(),
        description: "streaming arms race: dynamic attackers (spread / burst-at-retrain) \
                      vs. online defenses (canary guard, provenance screen) across \
                      retraining cadences on a drifting window stream; toxicity-over-time \
                      curves, defense recall, steady-state what-if QPS, bit-identical \
                      across --jobs"
            .to_string(),
        provenance: pipa_bench::cli::provenance(cfg.preset),
        advisor: reference.advisor.clone(),
        windows_per_stream: windows,
        budget_per_window: budget,
        runs: runs as usize,
        grid_cells: serial.len(),
        drift: DriftSchedule::Resample.label().to_string(),
        attackers: grid.attackers.iter().map(|a| a.label()).collect(),
        defenses: grid.defenses.iter().map(|d| d.label().to_string()).collect(),
        cadences: grid.cadences.iter().map(|c| c.label()).collect(),
        median_scenario_ns: Medians {
            scenario_spread_none: median_none,
            scenario_spread_canary: median_canary,
        },
        whatif_qps,
        canary_overhead: pipa_bench::cli::ratio(median_canary, median_none),
        no_defense_steady_ad: none.steady_ad,
        no_defense_steady_toxicity: none.steady_toxicity,
        best_defense: best.defense.clone(),
        best_defense_steady_ad: best.steady_ad,
        best_defense_steady_toxicity: best.steady_toxicity,
        defense_toxicity_cut: toxicity_cut,
        defense_ad_cut: ad_cut,
        defense_columns: columns,
        deterministic_across_jobs: deterministic,
        curves: serial.iter().map(|(c, o)| curve(c, o)).collect(),
    };
    bench.write_artifact(&artifact);
}
