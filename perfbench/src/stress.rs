//! The three stress workloads: one grid of train → probe → inject →
//! retrain → measure cells, run one cell at a time.

use crate::decorators::{traced_injector, traced_spec, TracedCost};
use crate::layers::{self, Metrics};
use crate::spans::{self, Tree};
use crate::Run;
use pipa_core::experiment::{
    build_db, normal_workload, run_cell, CellConfig, GenBackend, GridSpec, InjectorKind,
};
use pipa_core::harness::{StressOutcome, StressTest};
use pipa_core::runner::par_map_traced;
use pipa_cost::{CostResult, SimBackend};
use pipa_ia::{AdvisorKind, BuildCtx, SpeedPreset, TrajectoryMode};
use pipa_obs::{CellCtx, MemorySink, TraceOutputs};
use pipa_workload::Benchmark;
use std::time::Instant;

/// One stress workload: a grid plus how its cells measure costs.
pub struct StressDef {
    pub benchmark: Benchmark,
    pub advisors: Vec<AdvisorKind>,
    pub injectors: Vec<InjectorKind>,
    /// Repetitions per (advisor, injector) pair, each on its own normal
    /// workload.
    pub runs: u64,
    /// Train an IABART generator on this many corpus queries during
    /// set-up (corpus and model seeded with [`IABART_SEED`]); `None`
    /// uses the ST generator.
    pub iabart_corpus: Option<usize>,
    /// Measure final costs by executing over materialized data (the
    /// CLI's `--actual`, 200k-row cap).
    pub actual: bool,
}

/// The IABART generator is the attacker's tool, trained the same way on
/// every run: the workload seed varies the victims' workloads and cells,
/// and set-up repeats the same training work.
const IABART_SEED: u64 = 0;

/// The workload named `name`, if it is a stress workload.
pub fn def(name: &str) -> Option<StressDef> {
    let best = TrajectoryMode::Best;
    Some(match name {
        "stress-nn" => StressDef {
            benchmark: Benchmark::TpcDs,
            advisors: vec![AdvisorKind::Dqn(best), AdvisorKind::DrlIndex(best)],
            injectors: vec![InjectorKind::Pipa],
            runs: 1,
            iabart_corpus: None,
            actual: false,
        },
        "stress-whatif" => StressDef {
            benchmark: Benchmark::TpcDs,
            advisors: vec![
                AdvisorKind::DbaBandit(best),
                AdvisorKind::DbaBandit(TrajectoryMode::MeanLast(10)),
            ],
            injectors: vec![InjectorKind::Pipa, InjectorKind::Tp],
            runs: 8,
            iabart_corpus: None,
            actual: false,
        },
        "stress-paper" => StressDef {
            benchmark: Benchmark::TpcH,
            advisors: vec![AdvisorKind::DbaBandit(best), AdvisorKind::Swirl],
            injectors: vec![InjectorKind::Pipa],
            runs: 2,
            iabart_corpus: Some(20),
            actual: true,
        },
        _ => return None,
    })
}

struct Prepared {
    cfg: CellConfig,
    cost: SimBackend,
    /// Time spent building the generator backend (IABART training).
    gen_s: f64,
}

/// Set-up: train the generator, then build (and materialize) the backend.
fn prepare(def: &StressDef, seed: u64) -> CostResult<Prepared> {
    let mut cfg = CellConfig::quick(def.benchmark);
    cfg.preset = SpeedPreset::Test;
    if def.actual {
        cfg.materialize = Some((seed ^ 0xda7a, 200_000));
    }
    let t = Instant::now();
    cfg.backend = match def.iabart_corpus {
        Some(n) => {
            let sim = SimBackend::new(def.benchmark.database(cfg.scale, None));
            GenBackend::train_iabart(&sim, n, IABART_SEED)?
        }
        None => GenBackend::St,
    };
    let gen_s = t.elapsed().as_secs_f64();
    let cost = build_db(&cfg);
    Ok(Prepared { cfg, cost, gen_s })
}

/// Checks every outcome must pass; returns a description of the first
/// failure.
fn check_outcome(o: &StressOutcome) -> Result<(), String> {
    let positive = |c: f64| c.is_finite() && c > 0.0;
    if !o.ad.is_finite() || !positive(o.baseline_cost) || !positive(o.poisoned_cost) {
        return Err(format!(
            "{} x {}: ad {} baseline {} poisoned {}",
            o.advisor, o.injector, o.ad, o.baseline_cost, o.poisoned_cost
        ));
    }
    Ok(())
}

/// Bit-exact rendering: `{:?}` prints every f64 with the digits that
/// round-trip, so equal strings mean equal bits.
fn fingerprint(outcomes: &[StressOutcome]) -> String {
    format!("{outcomes:?}")
}

fn reset(cost: &SimBackend) {
    cost.database().clear_whatif_cache();
    cost.database().clear_whatif_matrix();
}

pub fn run(def: &StressDef, seed: u64, seconds: f64, trace: bool) -> Run {
    let mut run = Run::default();
    let mut prepared = None;
    let mut gen_s = Vec::new();
    while crate::more_setups(&run.setup_s) {
        let t = Instant::now();
        match prepare(def, seed) {
            Ok(p) => {
                gen_s.push(p.gen_s);
                prepared = Some(p);
            }
            Err(e) => {
                run.errors.push(format!("set-up failed: {e}"));
                return run;
            }
        }
        run.setup_s.push(t.elapsed().as_secs_f64());
    }
    let p = prepared.expect("at least one set-up");
    let spec = GridSpec::new(def.advisors.clone(), def.injectors.clone(), def.runs, seed);

    // Untraced passes: the grid `run_grid(.., jobs = 1)` evaluates, one
    // `run_cell` per cell so each cell's latency is visible.
    let mut reference: Option<String> = None;
    let mut cells_s = 0.0;
    let started = Instant::now();
    while run.pass_s.is_empty() || started.elapsed().as_secs_f64() < seconds {
        reset(&p.cost);
        let t = Instant::now();
        let mut outcomes = Vec::new();
        let mut cell_ms = Vec::new();
        for cell in spec.cells() {
            let t_cell = Instant::now();
            let normal = normal_workload(&p.cfg, cell.seed.get());
            let result = run_cell(
                &p.cost,
                &normal,
                cell.advisor,
                cell.injector,
                &p.cfg,
                cell.seed,
            );
            cell_ms.push(t_cell.elapsed().as_secs_f64() * 1e3);
            cells_s += t_cell.elapsed().as_secs_f64();
            run.attempted += 1;
            match result
                .map_err(|e| e.to_string())
                .and_then(|o| check_outcome(&o).map(|()| o))
            {
                Ok(o) => outcomes.push(o),
                Err(e) => {
                    run.failed += 1;
                    run.errors.push(e);
                }
            }
        }
        run.pass_s.push(t.elapsed().as_secs_f64());
        // A session is one (advisor, injector) pair of the grid; cells
        // come pair by pair, `runs` at a time.
        run.session_ms.push(
            cell_ms
                .chunks(def.runs as usize)
                .map(layers::median)
                .collect(),
        );
        let fp = fingerprint(&outcomes);
        match &reference {
            None => reference = Some(fp),
            Some(r) if *r != fp => run.errors.push("passes disagree on outcomes".into()),
            Some(_) => {}
        }
    }

    match crate::peak_rss_mb() {
        Ok(mb) => run.peak_rss_mb = mb,
        Err(e) => run.errors.push(e),
    }
    if trace {
        let reference = reference.expect("at least one pass");
        let mut m = traced_pass(&p, &spec, &reference, &mut run);
        m.insert(
            "serve.worker_util",
            (cells_s / run.pass_s.iter().sum::<f64>(), "ratio"),
        );
        let build = m["qgen.train_s"].0;
        m.insert("qgen.train_s", (layers::median(&gen_s) + build, "s"));
        run.layers = Some(m);
    }
    run
}

/// The loop of `run_grid_traced(.., jobs = 1)` with a span tree per
/// cell and the cost backend, advisor, injector and generator wrapped in
/// decorators.
fn traced_cells(
    cost: &SimBackend,
    cfg: &CellConfig,
    spec: &GridSpec,
    out: &TraceOutputs,
) -> Vec<(CostResult<StressOutcome>, Tree)> {
    let cost = TracedCost(cost);
    let cells = par_map_traced(
        1,
        spec.cells(),
        out,
        |_, cell| {
            CellCtx::new(cell.seed.get())
                .field("advisor", cell.advisor.label())
                .field("injector", cell.injector.label())
                .field("run", cell.run)
        },
        |i, cell| {
            spans::root(i as u64, "cell", || {
                let normal = spans::span("workload.gen", || normal_workload(cfg, cell.seed.get()));
                let mut advisor = traced_spec(&cell.advisor)
                    .build_with(BuildCtx::new(cfg.preset, cell.seed.get()))?;
                let mut injector = traced_injector(cell.injector, cfg, cell.seed);
                StressTest::new(&cost, &normal)
                    .injection_size(cfg.injection_size)
                    .actual_cost(cfg.materialize.is_some())
                    .seed(cell.seed)
                    .run(advisor.as_mut(), injector.as_mut())
            })
        },
    );
    out.flush();
    cells
}

/// The traced run: [`traced_cells`] with an in-memory `pipa-obs` sink
/// attached, checked against the untraced outcomes.
fn traced_pass(p: &Prepared, spec: &GridSpec, reference: &str, run: &mut Run) -> Metrics {
    reset(&p.cost);
    let sink = MemorySink::new();
    let out = TraceOutputs::with_sinks(Some(Box::new(sink.clone())), None);
    let t = Instant::now();
    let cells = traced_cells(&p.cost, &p.cfg, spec, &out);
    let traced_wall = t.elapsed().as_secs_f64();

    let mut outcomes = Vec::new();
    let mut trees = Vec::new();
    for (result, tree) in cells {
        match result {
            Ok(o) => outcomes.push(o),
            Err(e) => run.errors.push(format!("traced cell failed: {e}")),
        }
        trees.push(tree);
    }
    if fingerprint(&outcomes) != reference {
        run.errors
            .push("traced outcomes differ from the untraced run".into());
    }

    let mut m = layers::span_metrics(&trees);
    layers::sim_metrics(&[p.cost.database()], &mut m);
    let cells_ms: Vec<f64> = trees
        .iter()
        .map(|t| t.root().duration() as f64 * 1e-6)
        .collect();
    let median = layers::median;
    // The request kinds a fleet serves, as they occur inside a cell: the
    // cell itself is a stress request, `recommend` calls are recommend
    // requests, `workload_cost` calls are what-if requests.
    m.insert("serve.stress_ms.p50", (median(&cells_ms), "ms"));
    m.insert(
        "serve.recommend_ms.p50",
        (median(&layers::durations_ms(&trees, "ia.recommend")), "ms"),
    );
    m.insert(
        "serve.whatif_ms.p50",
        (median(&layers::durations_ms(&trees, "cost.workload")), "ms"),
    );

    m.insert(
        "trace.overhead",
        (traced_wall / median(&run.pass_s) - 1.0, "ratio"),
    );
    m.insert("obs.trace_lines", (sink.lines().len() as f64, "count"));
    run.trees = trees;
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipa_core::experiment::run_grid;

    #[test]
    fn decorated_grid_is_bit_identical_to_run_grid() {
        crate::decorators::register_traced_targets();
        let mut cfg = CellConfig::quick(Benchmark::TpcH);
        cfg.preset = SpeedPreset::Test;
        cfg.probe_epochs = 2;
        cfg.injection_size = 6;
        let spec = GridSpec::new(
            vec![AdvisorKind::DbaBandit(TrajectoryMode::Best)],
            vec![InjectorKind::Pipa, InjectorKind::Tp],
            1,
            3,
        );
        let plain: Vec<StressOutcome> = run_grid(&build_db(&cfg), &cfg, &spec, 1)
            .unwrap()
            .into_iter()
            .map(|(_, o)| o)
            .collect();
        let traced = traced_cells(&build_db(&cfg), &cfg, &spec, &TraceOutputs::disabled());
        let (outcomes, trees): (Vec<_>, Vec<_>) = traced.into_iter().unzip();
        let outcomes: Vec<StressOutcome> = outcomes.into_iter().map(Result::unwrap).collect();
        assert_eq!(fingerprint(&outcomes), fingerprint(&plain));
        let m = layers::span_metrics(&trees);
        assert_eq!(
            m["core.probe.recommend_calls"].0, 2.0,
            "PIPA probes twice, TP never"
        );
        assert!(m["qgen.generate_calls"].0 > 0.0);
        assert_eq!(m["core.injection_fill"].0, 1.0);
    }
}
