//! Per-layer metrics derived from the traced run's span trees.

use crate::spans::Tree;
use std::collections::BTreeMap;

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Nearest-rank percentile (`p` in 0..=1) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

const S: f64 = 1e-9;

/// Durations (ms) of the spans named `name`, across all trees.
pub fn durations_ms(trees: &[Tree], name: &str) -> Vec<f64> {
    trees
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 * 1e-6)
        .collect()
}

/// The metrics every workload reports from its spans. Shares are taken
/// of the summed root-span time (cells or sessions), which is the traced
/// wall time when cells run one at a time.
pub fn span_metrics(trees: &[Tree]) -> Metrics {
    #[derive(Default)]
    struct Acc {
        root: u64,
        unattributed: u64,
        spans: u64,
        cost_calls: u64,
        cost_busy: u64,
        session_calls: u64,
        workload_calls: u64,
        executed_calls: u64,
        observe_training: u64,
        measure: u64,
        ia_train: u64,
        ia_retrain: u64,
        ia_recommend: u64,
        recommend_calls: u64,
        probe_calls: u64,
        ia_self: u64,
        inject: u64,
        inject_self: u64,
        generate: u64,
        generate_self: u64,
        gen_build: u64,
        workload_gen: u64,
    }
    let mut a = Acc::default();
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for tree in trees {
        let selfs = tree.self_times();
        a.root += tree.root().duration();
        a.unattributed += selfs[0];
        a.spans += tree.spans.len() as u64;
        for (k, v) in &tree.counts {
            *counts.entry(k).or_default() += v;
        }
        for (i, s) in tree.spans.iter().enumerate().skip(1) {
            let d = s.duration();
            let parent = s.parent.map(|p| tree.spans[p].name);
            match s.name.split_once('.') {
                Some(("cost", method)) => {
                    a.cost_calls += 1;
                    a.cost_busy += d;
                    if s.parent == Some(0) {
                        a.measure += d;
                    }
                    match method {
                        "session_begin"
                        | "session_preview_add"
                        | "session_add"
                        | "session_total" => a.session_calls += 1,
                        "workload" | "batch_workload" | "delta_workload" => a.workload_calls += 1,
                        "executed_query" | "executed_workload" => a.executed_calls += 1,
                        "observe_training" => a.observe_training += d,
                        _ => {}
                    }
                }
                Some(("ia", method)) => {
                    a.ia_self += selfs[i];
                    match method {
                        "train" => a.ia_train += d,
                        "retrain" => a.ia_retrain += d,
                        "recommend" => {
                            a.ia_recommend += d;
                            a.recommend_calls += 1;
                            if parent == Some("core.inject") {
                                a.probe_calls += 1;
                            }
                        }
                        _ => {}
                    }
                }
                _ => match s.name {
                    "core.inject" => {
                        a.inject += d;
                        a.inject_self += selfs[i];
                    }
                    "qgen.generate" => {
                        a.generate += d;
                        a.generate_self += selfs[i];
                    }
                    "qgen.build" => a.gen_build += d,
                    "workload.gen" => a.workload_gen += d,
                    other => panic!("span {other} belongs to no layer"),
                },
            }
        }
    }
    let root = a.root as f64;
    let c = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let mut m = Metrics::new();
    m.insert("cost.calls", (a.cost_calls as f64, "count"));
    m.insert("cost.busy_s", (a.cost_busy as f64 * S, "s"));
    m.insert("cost.share", (ratio(a.cost_busy as f64, root), "ratio"));
    m.insert(
        "cost.call_us",
        (ratio(a.cost_busy as f64 * 1e-3, a.cost_calls as f64), "us"),
    );
    m.insert("cost.session_calls", (a.session_calls as f64, "count"));
    m.insert("cost.workload_calls", (a.workload_calls as f64, "count"));
    m.insert("cost.executed_calls", (a.executed_calls as f64, "count"));
    m.insert(
        "cost.observe_training_s",
        (a.observe_training as f64 * S, "s"),
    );
    m.insert("ia.train_s", (a.ia_train as f64 * S, "s"));
    m.insert("ia.retrain_s", (a.ia_retrain as f64 * S, "s"));
    m.insert("ia.recommend_s", (a.ia_recommend as f64 * S, "s"));
    m.insert("ia.recommend_calls", (a.recommend_calls as f64, "count"));
    m.insert("ia.self_s", (a.ia_self as f64 * S, "s"));
    m.insert("ia.self_share", (ratio(a.ia_self as f64, root), "ratio"));
    m.insert("core.inject_s", (a.inject as f64 * S, "s"));
    m.insert("core.inject.self_s", (a.inject_self as f64 * S, "s"));
    m.insert(
        "core.probe.recommend_calls",
        (a.probe_calls as f64, "count"),
    );
    m.insert("core.measure_s", (a.measure as f64 * S, "s"));
    m.insert(
        "core.injection_fill",
        (
            ratio(c("core.inject.achieved"), c("core.inject.requested")),
            "ratio",
        ),
    );
    m.insert("qgen.generate_calls", (c("qgen.generate.calls"), "count"));
    m.insert("qgen.generate_s", (a.generate as f64 * S, "s"));
    m.insert("qgen.self_s", (a.generate_self as f64 * S, "s"));
    m.insert(
        "qgen.accept_ratio",
        (
            ratio(c("qgen.generate.accepted"), c("qgen.generate.calls")),
            "ratio",
        ),
    );
    // Generator construction inside the cells; set-up training is added
    // by the workloads that train one.
    m.insert("qgen.train_s", (a.gen_build as f64 * S, "s"));
    m.insert("workload.gen_s", (a.workload_gen as f64 * S, "s"));
    m.insert("trace.unattributed_s", (a.unattributed as f64 * S, "s"));
    m.insert(
        "trace.unattributed_share",
        (ratio(a.unattributed as f64, root), "ratio"),
    );
    m.insert("trace.spans", (a.spans as f64, "count"));
    m
}

/// Matrix and cache counters of the simulator backends, read after the
/// traced run.
pub fn sim_metrics(dbs: &[&pipa_sim::Database], m: &mut Metrics) {
    let (mut evals, mut hits, mut misses, mut peak, mut fallbacks, mut lookups) =
        (0u64, 0u64, 0u64, 0usize, 0u64, 0u64);
    for db in dbs {
        let mx = db.whatif_matrix_stats();
        evals += mx.matrix_evals + mx.join_evals;
        hits += mx.entry_hits;
        misses += mx.entry_misses;
        peak += mx.peak_bytes;
        fallbacks += mx.full_fallbacks;
        let cache = db.whatif_cache_stats();
        lookups += cache.hits + cache.misses;
    }
    m.insert("sim.matrix_evals", (evals as f64, "count"));
    m.insert(
        "sim.matrix_hit_ratio",
        (ratio(hits as f64, (hits + misses) as f64), "ratio"),
    );
    m.insert("sim.matrix_peak_bytes", (peak as f64, "bytes"));
    m.insert("sim.full_fallbacks", (fallbacks as f64, "count"));
    m.insert("sim.cache_lookups", (lookups as f64, "count"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Span;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn layer_metrics_attribute_self_time_by_boundary() {
        // One cell: train (with a cost call), a probing recommend inside
        // the injector, and a measurement cost call straight under the cell.
        let mut tree = Tree {
            id: 0,
            spans: vec![
                span("cell", 0, 1_000, None),
                span("workload.gen", 0, 50, Some(0)),
                span("ia.train", 100, 400, Some(0)),
                span("cost.session_add", 150, 250, Some(2)),
                span("core.inject", 400, 800, Some(0)),
                span("ia.recommend", 450, 550, Some(4)),
                span("qgen.generate", 600, 700, Some(4)),
                span("cost.workload", 650, 700, Some(6)),
                span("cost.executed_workload", 850, 950, Some(0)),
            ],
            counts: BTreeMap::new(),
        };
        tree.counts.insert("core.inject.requested", 4);
        tree.counts.insert("core.inject.achieved", 3);
        tree.counts.insert("qgen.generate.calls", 4);
        tree.counts.insert("qgen.generate.accepted", 1);
        let m = span_metrics(&[tree]);
        let v = |k: &str| m[k].0;
        assert_eq!(v("cost.calls"), 3.0);
        assert_eq!(v("cost.session_calls"), 1.0);
        assert_eq!(v("cost.workload_calls"), 1.0);
        assert_eq!(v("cost.executed_calls"), 1.0);
        assert!((v("cost.share") - 0.25).abs() < 1e-12);
        assert!((v("core.measure_s") - 100e-9).abs() < 1e-18);
        assert!((v("ia.self_s") - 300e-9).abs() < 1e-18);
        assert!((v("core.inject.self_s") - 200e-9).abs() < 1e-18);
        assert!((v("qgen.self_s") - 50e-9).abs() < 1e-18);
        assert_eq!(v("ia.recommend_calls"), 1.0);
        assert_eq!(v("core.probe.recommend_calls"), 1.0);
        assert_eq!(v("core.injection_fill"), 0.75);
        assert_eq!(v("qgen.accept_ratio"), 0.25);
        // cell self: 1000 - (50 + 300 + 400 + 100) = 150.
        assert!((v("trace.unattributed_share") - 0.15).abs() < 1e-12);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 500.0);
        assert_eq!(percentile(&xs, 0.99), 990.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
