//! Scale-hardening properties: a byte-bounded benefit matrix is
//! invisible to cost bits, traffic generation is a pure function of its
//! seed, and the whole traffic layer is `--jobs`-independent.
//!
//! These pin the contracts the `scale` bench relies on:
//!
//! * a byte-budgeted benefit matrix (ANY budget, including the
//!   degenerate 0 and one cell) returns f64-bit-identical costs to the
//!   unbounded matrix, both per query and through an incremental
//!   session — compaction is presence-only;
//! * `TrafficModel` window pools, samples, and aggregated workloads are
//!   byte-identical across rebuilds from the same seed, and differ
//!   across seeds;
//! * sampling traffic windows under `par_map` with `--jobs 1/4/8`
//!   serializes byte-identically.

use pipa::core::runner::par_map;
use pipa::core::traffic::sampled_window_workload;
use pipa::sim::{Database, Index, IndexConfig, Workload};
use pipa::workload::{Arrivals, Benchmark, Diurnal, Popularity, TrafficModel, WorkloadGenerator};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn generator() -> WorkloadGenerator {
    WorkloadGenerator::new(
        Benchmark::TpcH.schema(),
        Benchmark::TpcH.default_templates(),
    )
}

/// A TPC-H database with the benefit matrix on under `byte_budget`.
fn budgeted_db(byte_budget: usize) -> Database {
    let db = Benchmark::TpcH.database(1.0, None);
    db.set_whatif_matrix_byte_budget(byte_budget);
    db
}

/// The approximate footprint of one matrix cell, read off the matrix's
/// own accounting after a single-table lookup under one index.
fn one_cell_bytes() -> usize {
    let db = budgeted_db(usize::MAX);
    let traffic = TrafficModel::uniform(1)
        .window_traffic(&generator(), 0, 0)
        .expect("pool instantiates");
    let q = (0..traffic.distinct_queries())
        .map(|i| traffic.query(i))
        .find(|q| q.tables.len() == 1)
        .expect("TPC-H templates include a single-table query");
    let col = *q
        .referenced_columns()
        .first()
        .expect("query reads a column");
    db.estimated_query_cost(q, &IndexConfig::from_indexes([Index::single(col)]));
    let s = db.whatif_matrix_stats();
    assert_eq!(s.entries + s.nl_entries, 1, "one lookup, one cell");
    s.approx_bytes
}

/// Cost a Zipf traffic pool under `byte_budget` along both matrix
/// paths, returning the raw bit patterns (order-sensitive):
///
/// * per query through `estimated_query_cost`, under a sweep of
///   single-index configs and one multi-index config, in two passes so
///   the second pass replays hits against whatever compaction left;
/// * through one incremental session over the pool workload, previewing
///   and then committing each candidate index in turn.
fn costs_at_budget(byte_budget: usize, seed: u64) -> Vec<u64> {
    let db = budgeted_db(byte_budget);
    let traffic = TrafficModel::zipf(1.2, 4)
        .window_traffic(&generator(), 0, seed)
        .expect("pool instantiates");
    let w = Workload::from_queries(
        (0..traffic.distinct_queries()).map(|i| (traffic.query(i).clone(), 1 + i as u32 % 3)),
    );
    let candidates: Vec<Index> = w
        .candidate_columns()
        .into_iter()
        .take(6)
        .map(Index::single)
        .collect();
    let mut configs: Vec<IndexConfig> = candidates
        .iter()
        .map(|i| IndexConfig::from_indexes([i.clone()]))
        .collect();
    configs.push(IndexConfig::from_indexes(candidates.iter().cloned()));
    let mut bits = Vec::new();
    for _pass in 0..2 {
        for cfg in &configs {
            for wq in w.iter() {
                bits.push(db.estimated_query_cost(&wq.query, cfg).to_bits());
            }
        }
    }
    let mut eval = db.whatif_eval_begin(&w);
    let mut cfg = IndexConfig::empty();
    bits.push(db.whatif_eval_total(&w, &eval).to_bits());
    for idx in &candidates {
        let mut after = cfg.clone();
        after.add(idx.clone());
        bits.push(db.whatif_eval_preview_add(&w, &eval, &after, idx).to_bits());
        bits.push(db.whatif_eval_add(&w, &mut eval, &after, idx).to_bits());
        cfg = after;
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// ANY matrix byte budget — 0 (every insert compacts), one cell,
    /// small, unbounded — yields the same cost bits as the unbounded
    /// matrix on the same query stream and session.
    #[test]
    fn any_matrix_byte_budget_is_bit_identical_to_unbounded(
        budget_idx in 0usize..4,
        seed in 0u64..1000,
    ) {
        // Degenerate budgets are in the table, not left to sampling
        // luck; the small budget holds a handful of cells.
        let cell = one_cell_bytes();
        let budget = [0usize, cell, 16 * cell, usize::MAX][budget_idx];
        let bounded = costs_at_budget(budget, seed);
        let unbounded = costs_at_budget(usize::MAX, seed);
        prop_assert_eq!(bounded, unbounded);
    }

    /// The traffic layer is a pure function of `(model, window, seed)`:
    /// the sampled, frequency-aggregated workload serializes
    /// byte-identically across rebuilds and differs across seeds.
    #[test]
    fn window_sampling_is_seed_stable(seed in 0u64..10_000, window in 0u64..48) {
        let gen = generator();
        let model = TrafficModel::zipf(1.1, 3);
        let (a, load_a) = sampled_window_workload(&model, &gen, window, 200, seed).unwrap();
        let (b, load_b) = sampled_window_workload(&model, &gen, window, 200, seed).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(load_a, load_b);
        let (c, _) = sampled_window_workload(&model, &gen, window, 200, seed ^ 0xdead_beef).unwrap();
        prop_assert_ne!(&a, &c);
    }
}

/// Zipf/diurnal/bursty generators produce byte-identical pools across
/// repeated construction — the contract the bench's unbounded replay
/// leg depends on.
#[test]
fn traffic_pools_rebuild_byte_identically() {
    let gen = generator();
    let mut model = TrafficModel::zipf(1.3, 5);
    model.diurnal = Diurnal::business();
    model.arrivals = Arrivals::Bursty {
        tenants: 4,
        burst_every: 6,
        burst_len: 2,
        burst_mult: 2.5,
    };
    for window in [0u64, 7, 23] {
        let a = model.window_traffic(&gen, window, 42).unwrap();
        let b = model.window_traffic(&gen, window, 42).unwrap();
        assert_eq!(a.distinct_queries(), b.distinct_queries());
        for i in 0..a.distinct_queries() {
            assert_eq!(a.query(i), b.query(i), "pool slot {i} diverged");
        }
        // And the draw sequence on top of the pool is seed-stable too.
        let mut ra = ChaCha8Rng::seed_from_u64(9);
        let mut rb = ChaCha8Rng::seed_from_u64(9);
        let da: Vec<usize> = (0..500).map(|_| a.sample(&mut ra)).collect();
        let db: Vec<usize> = (0..500).map(|_| b.sample(&mut rb)).collect();
        assert_eq!(da, db);
    }
}

/// Sampling a day of traffic windows through `par_map` is byte-identical
/// for `--jobs` 1, 4, and 8: parallelism must leave no trace.
#[test]
fn traffic_windows_are_jobs_independent() {
    let run = |jobs: usize| -> Vec<String> {
        let gen = generator();
        let mut model = TrafficModel::zipf(1.1, 4);
        model.diurnal = Diurnal::business();
        par_map(jobs, (0u64..12).collect(), |_, w| {
            let (workload, load) = sampled_window_workload(&model, &gen, w, 300, 7).unwrap();
            let queries: Vec<String> = workload
                .iter()
                .map(|wq| format!("{}x{:?}", wq.frequency, wq.query))
                .collect();
            format!("w{w} load{load} {}", queries.join("|"))
        })
    };
    let serial = run(1);
    assert_eq!(serial, run(4), "jobs=4 diverged from jobs=1");
    assert_eq!(serial, run(8), "jobs=8 diverged from jobs=1");
}

/// The Zipf head concentrates draws: under a bounded matrix the hot
/// queries' cells are re-touched between compactions, which is the
/// entire premise of the bench's hit-ratio comparison. Pin the
/// direction at unit scale.
#[test]
fn zipf_beats_uniform_matrix_hit_ratio_at_equal_byte_budget() {
    let budget = 48 * one_cell_bytes();
    let hit_ratio = |pop: Popularity| -> f64 {
        let db = budgeted_db(budget);
        let mut model = TrafficModel::uniform(8);
        model.popularity = pop;
        let traffic = model.window_traffic(&generator(), 0, 3).unwrap();
        let pool = Workload::from_queries(
            (0..traffic.distinct_queries()).map(|i| (traffic.query(i).clone(), 1)),
        );
        let cfg = IndexConfig::from_indexes(
            pool.candidate_columns()
                .into_iter()
                .take(6)
                .map(Index::single),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..4000 {
            db.estimated_query_cost(traffic.query(traffic.sample(&mut rng)), &cfg);
        }
        let s = db.whatif_matrix_stats();
        assert!(
            s.compactions > 0,
            "the budget must bind for the comparison to mean anything"
        );
        s.entry_hit_ratio()
    };
    let zipf = hit_ratio(Popularity::Zipf { exponent: 1.2 });
    let uniform = hit_ratio(Popularity::Uniform);
    assert!(
        zipf > uniform,
        "skew must raise the bounded hit ratio: zipf {zipf:.3} vs uniform {uniform:.3}"
    );
}
