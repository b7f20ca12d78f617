//! Cost estimation: PostgreSQL-style analytical model plus the what-if
//! (hypothetical index) interface every index advisor consumes.
//!
//! The advisors in `pipa-ia` and the PIPA framework in `pipa-core` never
//! look inside this module; they only call [`CostModel::query_cost`] /
//! [`WhatIf`] helpers, exactly as the paper's components only issue
//! `c(W, d, I)` requests to PostgreSQL's hypothetical-index extension.

pub mod fingerprint;
pub mod matrix;
pub(crate) mod model;

pub use matrix::{BenefitMatrix, ConfigDelta, IncrementalEval, MatrixStats};
pub use model::AnalyticalCostModel;

use crate::index::IndexConfig;
use crate::query::Query;
use crate::schema::{ColumnId, Schema, TableId};
use crate::stats::{ColumnStats, TableStats};
use crate::workload::Workload;

/// Simulated page size in bytes (PostgreSQL default).
pub const PAGE_SIZE: u64 = 8192;

/// Optimizer cost constants (PostgreSQL defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Cost of a sequentially fetched page.
    pub seq_page_cost: f64,
    /// Cost of a randomly fetched page.
    pub random_page_cost: f64,
    /// CPU cost of processing one tuple.
    pub cpu_tuple_cost: f64,
    /// CPU cost of processing one index entry.
    pub cpu_index_tuple_cost: f64,
    /// CPU cost of evaluating one operator.
    pub cpu_operator_cost: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            seq_page_cost: 1.0,
            // 2.5 rather than PostgreSQL's spinning-disk 4.0: the paper's
            // testbed (and every modern deployment) runs on SSDs, and
            // index-scan viability at moderate selectivities is central
            // to the experiments.
            random_page_cost: 2.5,
            cpu_tuple_cost: 0.01,
            cpu_index_tuple_cost: 0.005,
            cpu_operator_cost: 0.0025,
        }
    }
}

/// Read-only catalog view handed to cost models: schema plus statistics.
/// [`crate::db::Database`] constructs this; keeping it a plain struct
/// avoids a dependency cycle between `cost` and `db`.
#[derive(Clone, Copy)]
pub struct Catalog<'a> {
    /// The relational schema.
    pub schema: &'a Schema,
    /// Per-table statistics, indexed by `TableId.0`.
    pub table_stats: &'a [TableStats],
    /// Per-column statistics, indexed by `ColumnId.0`.
    pub column_stats: &'a [ColumnStats],
}

impl<'a> Catalog<'a> {
    /// Table statistics lookup.
    pub fn table(&self, t: TableId) -> &'a TableStats {
        &self.table_stats[t.0 as usize]
    }

    /// Column statistics lookup.
    pub fn column(&self, c: ColumnId) -> &'a ColumnStats {
        &self.column_stats[c.0 as usize]
    }
}

/// A cost model maps `(query, index configuration)` to an abstract cost.
/// Lower is better. Units are PostgreSQL-style "page fetch equivalents".
pub trait CostModel {
    /// Estimated cost of one query under a (possibly hypothetical) index
    /// configuration.
    fn query_cost(&self, cat: Catalog<'_>, query: &Query, config: &IndexConfig) -> f64;

    /// Frequency-weighted cost of a workload.
    fn workload_cost(&self, cat: Catalog<'_>, workload: &Workload, config: &IndexConfig) -> f64 {
        workload
            .iter()
            .map(|wq| wq.frequency as f64 * self.query_cost(cat, &wq.query, config))
            .sum()
    }
}

/// Convenience helpers over a [`CostModel`]: the what-if interface.
pub struct WhatIf<'a, M: CostModel> {
    cat: Catalog<'a>,
    model: &'a M,
}

impl<'a, M: CostModel> WhatIf<'a, M> {
    /// Wrap a model and catalog.
    pub fn new(cat: Catalog<'a>, model: &'a M) -> Self {
        WhatIf { cat, model }
    }

    /// `c(q, d, I)`.
    pub fn query_cost(&self, q: &Query, cfg: &IndexConfig) -> f64 {
        self.model.query_cost(self.cat, q, cfg)
    }

    /// `c(W, d, I)`.
    pub fn workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> f64 {
        self.model.workload_cost(self.cat, w, cfg)
    }

    /// Relative cost reduction of `cfg` over the empty configuration for a
    /// query: `1 - c(q,d,I)/c(q,d,∅)`. This is the reward most learned IAs
    /// optimize (paper Eq. 7 numerator).
    pub fn query_benefit(&self, q: &Query, cfg: &IndexConfig) -> f64 {
        let base = self.query_cost(q, &IndexConfig::empty());
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - self.query_cost(q, cfg) / base
    }

    /// Relative cost reduction for a whole workload.
    pub fn workload_benefit(&self, w: &Workload, cfg: &IndexConfig) -> f64 {
        let base = self.workload_cost(w, &IndexConfig::empty());
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - self.workload_cost(w, cfg) / base
    }

    /// Among `candidates`, the single index with the lowest query cost
    /// (ties: first). Returns `None` for an empty candidate list.
    pub fn best_single_index(
        &self,
        q: &Query,
        candidates: &[crate::index::Index],
    ) -> Option<crate::index::Index> {
        candidates
            .iter()
            .map(|i| {
                let cfg = IndexConfig::from_indexes([i.clone()]);
                (self.query_cost(q, &cfg), i)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, i)| i.clone())
    }
}
