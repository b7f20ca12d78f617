//! The two new target classes opened by the registry seam, benched end
//! to end against the DQN baseline:
//!
//! * the **in-context advisor** (`AdvisorSpec::new("incontext")`, the
//!   fifth registered kind) — nearest-exemplar retrieval over IABART
//!   workload encodings, retrain = corpus append — run through the full
//!   probe → inject → retrain stress pipeline *and* a small streaming
//!   arms-race grid on the simulator backend;
//! * the **learned-index backend** ([`pipa_cost::LearnedIndexBackend`])
//!   — per-table learned CDF cost models that refit on observed
//!   workloads via `CostBackend::observe_training`, so the index
//!   *structure* itself is the poisoning target — driven by a built-in
//!   advisor through the same stress pipeline and an attacked stream
//!   scenario pair (undefended vs. canary-guarded).
//!
//! Criterion cells:
//!
//! * `targets/stress_incontext_sim` — one in-context stress cell on the
//!   simulator (what the new advisor class costs end to end);
//! * `targets/stress_dbabandit_learned` — one stress cell against a
//!   freshly bulk-loaded learned-index backend, including every refit
//!   the pipeline's `observe_training` calls trigger.
//!
//! Everything the committed summary reports is cross-checked for
//! determinism first: the stress and stream grids bit-identical between
//! `--jobs 1` and `--jobs 4`, and the learned-index cells (which need a
//! fresh backend per cell — `run_grid` shares one backend, and a shared
//! learned backend would leak refits across cells) bit-identical between
//! a serial and a 4-worker `par_map` that each construct their own
//! backends.
//!
//! A custom `main` (the `[[bench]]` is `harness = false`) writes
//! `results/BENCH_targets.json`. `TARGETS_BENCH_SMOKE=1` shrinks every
//! dimension and skips the artifact write (CI smoke).

use pipa_core::defense::DefensePolicy;
use pipa_core::experiment::{
    build_db, normal_workload, run_cell, run_grid, CellConfig, GridSpec, InjectorKind,
};
use pipa_core::harness::StressOutcome;
use pipa_core::runner::par_map;
use pipa_core::stream::{
    run_stream, run_stream_grid, AttackerStrategy, Cadence, StreamGridSpec, StreamOutcome,
    StreamSpec,
};
use pipa_core::CellSeed;
use pipa_cost::{CostBackend, LearnedIndexBackend, LearnedIndexConfig};
use pipa_ia::{registered_ids, AdvisorSpec, SpeedPreset};
use pipa_workload::{Benchmark, DriftSchedule};
use serde::Serialize;
use std::hint::black_box;

#[derive(Serialize)]
struct Medians {
    stress_incontext_sim: Option<f64>,
    stress_dbabandit_learned: Option<f64>,
}

/// Stress-pipeline summary for one target class (advisor × backend),
/// aggregated over its runs.
#[derive(Serialize)]
struct ClassSummary {
    /// Stable class id (`dqn-sim`, `incontext-sim`, `dbabandit-learned`).
    class: String,
    /// Advisor display name (from the registry label).
    advisor: String,
    /// Cost backend the class runs against.
    backend: String,
    injector: String,
    cells: usize,
    mean_ad: f64,
    /// Fraction of cells meeting Definition 2.4.
    toxicity: f64,
    mean_baseline_cost: f64,
    mean_poisoned_cost: f64,
}

/// One streaming scenario summary for a new target class.
#[derive(Serialize)]
struct StreamRow {
    class: String,
    advisor: String,
    backend: String,
    attacker: String,
    defense: String,
    windows: usize,
    steady_ad: f64,
    steady_toxicity: f64,
    retrains: usize,
    rollbacks: usize,
}

#[derive(Serialize)]
struct BenchArtifact {
    id: String,
    description: String,
    provenance: pipa_bench::cli::Provenance,
    /// Every kind id the global target registry knows at bench time.
    registered_kinds: Vec<String>,
    runs: usize,
    injector: String,
    median_stress_ns: Medians,
    /// Stress-pipeline AD per class, DQN baseline first.
    classes: Vec<ClassSummary>,
    /// The headline numbers the schema floors pin: baseline and both
    /// new target classes, all finite.
    dqn_baseline_ad: f64,
    incontext_ad: f64,
    learned_index_ad: f64,
    /// Streaming arms-race rows for both new classes.
    stream: Vec<StreamRow>,
    /// Stress grid, in-context stream grid, and per-cell learned-index
    /// runs all serialized bit-identically at 1 and 4 workers (asserted
    /// before the artifact is written).
    deterministic_across_jobs: bool,
    stress_cells: Vec<StressOutcome>,
}

fn cell_config() -> CellConfig {
    let mut cfg = CellConfig::quick(Benchmark::TpcH);
    cfg.preset = SpeedPreset::Test;
    cfg.probe_epochs = 2;
    cfg
}

/// A learned-index backend bulk-loaded for one cell. Each cell owns its
/// backend: `observe_training` mutates model state, so sharing one
/// across cells (as `run_grid` does with the simulator) would leak
/// refits between cells and break per-cell determinism.
fn learned_backend(cfg: &CellConfig, seed: CellSeed) -> LearnedIndexBackend {
    let sim = build_db(cfg);
    LearnedIndexBackend::new(
        sim.catalog(),
        LearnedIndexConfig {
            seed: seed.get(),
            ..LearnedIndexConfig::fast()
        },
    )
}

/// The learned-index stress cells, one fresh backend per run, mapped at
/// the given worker count.
fn learned_stress(
    cfg: &CellConfig,
    advisor: &AdvisorSpec,
    runs: u64,
    root_seed: u64,
    jobs: usize,
) -> Vec<StressOutcome> {
    let advisor = advisor.clone();
    par_map(jobs, (0..runs).collect(), |_, run| {
        let seed = CellSeed::derive(root_seed, run);
        let backend = learned_backend(cfg, seed);
        let normal = normal_workload(cfg, seed.get());
        run_cell(
            &backend,
            &normal,
            advisor.clone(),
            InjectorKind::Pipa,
            cfg,
            seed,
        )
        .expect("learned-index stress cell runs")
    })
}

fn summarize(class: &str, backend: &str, cells: &[&StressOutcome]) -> ClassSummary {
    assert!(!cells.is_empty(), "class {class} must have cells");
    let n = cells.len() as f64;
    ClassSummary {
        class: class.to_string(),
        advisor: cells[0].advisor.clone(),
        backend: backend.to_string(),
        injector: cells[0].injector.clone(),
        cells: cells.len(),
        mean_ad: cells.iter().map(|o| o.ad).sum::<f64>() / n,
        toxicity: cells.iter().filter(|o| o.toxic).count() as f64 / n,
        mean_baseline_cost: cells.iter().map(|o| o.baseline_cost).sum::<f64>() / n,
        mean_poisoned_cost: cells.iter().map(|o| o.poisoned_cost).sum::<f64>() / n,
    }
}

fn stream_row(class: &str, backend: &str, out: &StreamOutcome) -> StreamRow {
    StreamRow {
        class: class.to_string(),
        advisor: out.advisor.clone(),
        backend: backend.to_string(),
        attacker: out.attacker.clone(),
        defense: out.defense.clone(),
        windows: out.windows.len(),
        steady_ad: out.steady_ad,
        steady_toxicity: out.steady_toxicity,
        retrains: out.retrains,
        rollbacks: out.rollbacks,
    }
}

fn main() {
    let bench = pipa_bench::cli::BenchArgs::for_bench("targets");
    let smoke = bench.smoke;
    let mut c = bench.criterion(10);

    let cfg = cell_config();
    let dqn = AdvisorSpec::new("dqn");
    let incontext = AdvisorSpec::new("incontext");
    let dbabandit = AdvisorSpec::new("dbabandit");
    let (runs, windows, budget) = if smoke { (1u64, 2, 2) } else { (3u64, 4, 4) };
    let root_seed = 23;

    // --- criterion: one stress cell per new target class ---------------
    eprintln!("[setup] building the simulator database...");
    let db = build_db(&cfg);
    let seed = CellSeed::derive(root_seed, 0);
    let normal = normal_workload(&cfg, seed.get());
    c.bench_function("targets/stress_incontext_sim", |b| {
        b.iter(|| {
            let out = run_cell(&db, &normal, incontext.clone(), InjectorKind::Pipa, &cfg, seed)
                .expect("in-context stress cell runs");
            black_box(out.ad)
        })
    });
    c.bench_function("targets/stress_dbabandit_learned", |b| {
        b.iter(|| {
            let backend = learned_backend(&cfg, seed);
            let out = run_cell(
                &backend,
                &normal,
                dbabandit.clone(),
                InjectorKind::Pipa,
                &cfg,
                seed,
            )
            .expect("learned-index stress cell runs");
            black_box(out.ad)
        })
    });

    // --- stress grids, cross-checked across worker counts --------------
    let grid = GridSpec {
        advisors: vec![dqn.clone(), incontext.clone()],
        injectors: vec![InjectorKind::Pipa],
        runs,
        root_seed,
    };
    eprintln!(
        "[run] sim stress grid (dqn + incontext, {} cells) at --jobs 1...",
        grid.len()
    );
    let sim_serial = run_grid(&db, &cfg, &grid, 1).expect("sim stress grid runs");
    eprintln!("[run] the same grid at --jobs 4 (determinism cross-check)...");
    let sim_parallel = run_grid(&db, &cfg, &grid, 4).expect("sim stress grid runs");
    eprintln!("[run] learned-index stress cells ({runs} fresh backends) serial + 4 workers...");
    let learned_serial = learned_stress(&cfg, &dbabandit, runs, root_seed, 1);
    let learned_parallel = learned_stress(&cfg, &dbabandit, runs, root_seed, 4);

    let ser_stress = |outs: &[StressOutcome]| {
        serde_json::to_string_pretty(&outs.iter().collect::<Vec<_>>()).expect("serializable")
    };
    let sim_outs = |rs: &[(pipa_core::experiment::GridCell, StressOutcome)]| {
        rs.iter().map(|(_, o)| o.clone()).collect::<Vec<_>>()
    };
    let mut deterministic = ser_stress(&sim_outs(&sim_serial)) == ser_stress(&sim_outs(&sim_parallel));
    deterministic &= ser_stress(&learned_serial) == ser_stress(&learned_parallel);
    assert!(
        deterministic,
        "stress cells drifted between 1 and 4 workers"
    );

    // --- streaming arms race for both new classes ----------------------
    let stream_grid = StreamGridSpec {
        advisor: incontext.clone(),
        attackers: vec![
            AttackerStrategy::None,
            AttackerStrategy::Spread(InjectorKind::Pipa),
        ],
        defenses: vec![DefensePolicy::None, DefensePolicy::Canary { tolerance: 0.05 }],
        cadences: vec![Cadence::Every(1)],
        windows,
        drift: DriftSchedule::Resample,
        budget,
        runs: 1,
        root_seed,
    };
    eprintln!(
        "[run] in-context stream grid ({} cells, {} windows) at --jobs 1 and 4...",
        stream_grid.len(),
        windows
    );
    let stream_serial = run_stream_grid(&db, &cfg, &stream_grid, 1).expect("stream grid runs");
    let stream_parallel = run_stream_grid(&db, &cfg, &stream_grid, 4).expect("stream grid runs");
    let ser_stream = |rs: &[StreamOutcome]| {
        serde_json::to_string_pretty(&rs.iter().collect::<Vec<_>>()).expect("serializable")
    };
    let grid_outs = stream_serial.iter().map(|(_, o)| o.clone()).collect::<Vec<_>>();
    deterministic &= ser_stream(&grid_outs)
        == ser_stream(&stream_parallel.iter().map(|(_, o)| o.clone()).collect::<Vec<_>>());
    assert!(
        deterministic,
        "in-context stream grid drifted between --jobs 1 and --jobs 4"
    );

    // The learned-index stream scenario pair: a single scenario has no
    // jobs knob, so the determinism check is reconstruction — two
    // independently bulk-loaded backends must produce byte-identical
    // streams.
    eprintln!("[run] learned-index stream scenarios (spread/none + spread/canary)...");
    let learned_scenario = |defense| StreamSpec {
        windows,
        drift: DriftSchedule::Resample,
        cadence: Cadence::Every(1),
        attacker: AttackerStrategy::Spread(InjectorKind::Pipa),
        budget,
        defense,
    };
    let learned_stream_run = |defense| -> StreamOutcome {
        let backend = learned_backend(&cfg, seed);
        run_stream(
            &backend,
            &cfg,
            dbabandit.clone(),
            &learned_scenario(defense),
            seed,
        )
        .expect("learned-index stream runs")
    };
    let learned_none = learned_stream_run(DefensePolicy::None);
    let learned_none_again = learned_stream_run(DefensePolicy::None);
    deterministic &=
        ser_stream(std::slice::from_ref(&learned_none)) == ser_stream(&[learned_none_again]);
    assert!(
        deterministic,
        "learned-index stream drifted between two fresh backend constructions"
    );
    let learned_canary = learned_stream_run(DefensePolicy::Canary { tolerance: 0.05 });

    // --- summaries ------------------------------------------------------
    let serial_outs = sim_outs(&sim_serial);
    let class_cells = |spec: &AdvisorSpec| -> Vec<&StressOutcome> {
        sim_serial
            .iter()
            .filter(|(cell, _)| &cell.advisor == spec)
            .map(|(_, o)| o)
            .collect()
    };
    let classes = vec![
        summarize("dqn-sim", "sim", &class_cells(&dqn)),
        summarize("incontext-sim", "sim", &class_cells(&incontext)),
        summarize(
            "dbabandit-learned",
            "learned-index",
            &learned_serial.iter().collect::<Vec<_>>(),
        ),
    ];
    for c in &classes {
        assert!(
            c.mean_ad.is_finite() && c.mean_baseline_cost.is_finite(),
            "class {} produced a non-finite summary",
            c.class
        );
        println!(
            "  class {:>18} ({} on {}): AD {:+.4}, toxicity {:.2} ({} cells)",
            c.class, c.advisor, c.backend, c.mean_ad, c.toxicity, c.cells
        );
    }
    let mut stream_rows: Vec<StreamRow> = stream_serial
        .iter()
        .map(|(_, o)| stream_row("incontext-sim", "sim", o))
        .collect();
    stream_rows.push(stream_row("dbabandit-learned", "learned-index", &learned_none));
    stream_rows.push(stream_row(
        "dbabandit-learned",
        "learned-index",
        &learned_canary,
    ));
    for r in &stream_rows {
        assert!(
            r.steady_ad.is_finite(),
            "stream row {}/{}/{} produced a non-finite steady AD",
            r.class,
            r.attacker,
            r.defense
        );
    }
    println!(
        "learned-index stream: steady AD {:+.4} undefended, {:+.4} canary-guarded",
        learned_none.steady_ad, learned_canary.steady_ad
    );
    println!("deterministic across jobs: {deterministic}");

    let lines = bench.lines();
    let med = |id: &str| pipa_bench::cli::median_of(&lines, id);
    let artifact = BenchArtifact {
        id: "BENCH_targets".to_string(),
        description: "the registry-opened target classes end to end: the in-context \
                      advisor (fifth registered kind) and the learned-index cost \
                      backend (observe_training refits as the poisoning surface) \
                      through the stress pipeline and the streaming arms race, \
                      vs. the DQN baseline; bit-identical across worker counts"
            .to_string(),
        provenance: pipa_bench::cli::provenance(cfg.preset),
        registered_kinds: registered_ids(),
        runs: runs as usize,
        injector: "pipa".to_string(),
        median_stress_ns: Medians {
            stress_incontext_sim: med("targets/stress_incontext_sim"),
            stress_dbabandit_learned: med("targets/stress_dbabandit_learned"),
        },
        dqn_baseline_ad: classes[0].mean_ad,
        incontext_ad: classes[1].mean_ad,
        learned_index_ad: classes[2].mean_ad,
        classes,
        stream: stream_rows,
        deterministic_across_jobs: deterministic,
        stress_cells: serial_outs
            .into_iter()
            .chain(learned_serial)
            .collect(),
    };
    bench.write_artifact(&artifact);
}
