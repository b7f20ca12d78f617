//! Workload featurization shared by the learned advisors.
//!
//! Every advisor sees the workload through some fixed-width summary; the
//! paper's analysis (DRLindex's sparse state, SWIRL's workload features,
//! DQN's weak workload representation) hinges on the *differences* between
//! these summaries, so each advisor picks the pieces it wants from here.
//!
//! All cost and statistics access goes through the [`CostBackend`] seam,
//! so features are identical no matter which backend answers.

use pipa_cost::{workload_benefit, CostBackend, CostResult};
use pipa_sim::{ColumnId, Index, IndexConfig, Workload};

/// Normalized frequency of each column in sargable filter predicates
/// (`(1, L)`, sums to 1 unless the workload filters nothing).
pub fn column_frequency_features(cost: &dyn CostBackend, w: &Workload) -> Vec<f32> {
    let l = cost.catalog().schema.num_columns();
    let freq = w.filter_column_frequencies(l);
    let total: f64 = freq.iter().sum();
    if total <= 0.0 {
        return vec![0.0; l];
    }
    freq.iter().map(|&f| (f / total) as f32).collect()
}

/// Per-column *workload benefit*: the relative cost reduction of a
/// single-column index on that column, for the whole workload. This is
/// what a perfect advisor would rank by; learned advisors approximate it.
pub fn column_benefit_features(cost: &dyn CostBackend, w: &Workload) -> CostResult<Vec<f32>> {
    cost.catalog()
        .schema
        .indexable_columns()
        .into_iter()
        .map(|c| single_column_benefit(cost, w, c).map(|b| b as f32))
        .collect()
}

/// Relative workload cost reduction from one single-column index.
pub fn single_column_benefit(
    cost: &dyn CostBackend,
    w: &Workload,
    col: ColumnId,
) -> CostResult<f64> {
    let cfg = IndexConfig::from_indexes([Index::single(col)]);
    workload_benefit(cost, w, &cfg)
}

/// 0/1 bitmap of which columns lead an index in the current config.
pub fn config_bitmap(cost: &dyn CostBackend, cfg: &IndexConfig) -> Vec<f32> {
    let l = cost.catalog().schema.num_columns();
    let mut bits = vec![0.0f32; l];
    for c in cfg.leading_columns() {
        bits[c.0 as usize] = 1.0;
    }
    bits
}

/// A sparse query×column occurrence matrix flattened row-major, with
/// queries hashed into `buckets` rows (DRLindex's state; the hash keeps
/// the width fixed while preserving the sparsity pattern the paper blames
/// for DRLindex's fragility).
pub fn query_column_matrix(cost: &dyn CostBackend, w: &Workload, buckets: usize) -> Vec<f32> {
    let l = cost.catalog().schema.num_columns();
    let mut m = vec![0.0f32; buckets * l];
    for (qi, wq) in w.iter().enumerate() {
        let row = qi % buckets;
        for c in wq.query.filter_columns() {
            m[row * l + c.0 as usize] += wq.frequency as f32;
        }
    }
    // Row-normalize so frequencies don't blow up the input scale.
    for row in m.chunks_mut(l) {
        let s: f32 = row.iter().sum();
        if s > 0.0 {
            for v in row.iter_mut() {
                *v /= s;
            }
        }
    }
    m
}

/// Candidate filter used by DQN-style advisors (the paper's "heuristic
/// index candidate selection"): keep columns that appear in the training
/// workload's predicates *and* have enough distinct values to be
/// selective.
pub fn heuristic_candidates(cost: &dyn CostBackend, w: &Workload, min_ndv: u64) -> Vec<ColumnId> {
    let cat = cost.catalog();
    w.candidate_columns()
        .into_iter()
        .filter(|&c| cat.column(c).ndv >= min_ndv)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipa_cost::SimBackend;
    use pipa_workload::Benchmark;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (SimBackend, Workload) {
        let db = Benchmark::TpcH.database(1.0, None);
        let g = pipa_workload::generator::WorkloadGenerator::new(
            Benchmark::TpcH.schema(),
            Benchmark::TpcH.default_templates(),
        );
        let w = g.normal(&mut ChaCha8Rng::seed_from_u64(1)).unwrap();
        (SimBackend::new(db), w)
    }

    #[test]
    fn frequency_features_normalized() {
        let (cost, w) = setup();
        let f = column_frequency_features(&cost, &w);
        assert_eq!(f.len(), 61);
        let sum: f32 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(f.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn benefit_features_highlight_useful_columns() {
        let (cost, w) = setup();
        let b = column_benefit_features(&cost, &w).unwrap();
        // l_shipdate is filtered by several templates with tight ranges —
        // its index benefit must be positive and among the best.
        let schema = cost.database().schema();
        let ship = schema.column_id("l_shipdate").unwrap();
        assert!(b[ship.0 as usize] > 0.0);
        // A never-filtered comment column has no benefit.
        let comment = schema.column_id("l_comment").unwrap();
        assert_eq!(b[comment.0 as usize], 0.0);
    }

    #[test]
    fn bitmap_tracks_config() {
        let (cost, _) = setup();
        let col = cost.database().schema().column_id("l_partkey").unwrap();
        let cfg = IndexConfig::from_indexes([Index::single(col)]);
        let bits = config_bitmap(&cost, &cfg);
        assert_eq!(bits[col.0 as usize], 1.0);
        assert_eq!(bits.iter().filter(|&&b| b > 0.0).count(), 1);
    }

    #[test]
    fn matrix_rows_normalized_and_sparse() {
        let (cost, w) = setup();
        let m = query_column_matrix(&cost, &w, 8);
        assert_eq!(m.len(), 8 * 61);
        let nonzero = m.iter().filter(|&&v| v > 0.0).count();
        assert!(nonzero > 0 && nonzero < m.len() / 4, "sparse: {nonzero}");
    }

    #[test]
    fn heuristic_candidates_filter_low_ndv() {
        let (cost, w) = setup();
        let all = heuristic_candidates(&cost, &w, 1);
        let strict = heuristic_candidates(&cost, &w, 1000);
        assert!(strict.len() < all.len());
        // Every candidate appears in the workload's filter/join surface.
        let wcols = w.candidate_columns();
        assert!(all.iter().all(|c| wcols.contains(c)));
    }
}
