//! Measurements composed from [`CostBackend`] calls: benefits relative
//! to the empty configuration, and estimated-vs-executed dispatch.
//!
//! Each is a pure composition of trait calls, so identical cost bits
//! flow through regardless of which backend sits behind the seam.

use crate::backend::CostBackend;
use crate::error::CostResult;
use pipa_sim::{IndexConfig, Query, Workload};

/// Relative cost reduction of `cfg` vs no indexes for one query:
/// `1 - c(q, I)/c(q, ∅)`, or `0` when the base cost is non-positive.
pub fn query_benefit(cost: &dyn CostBackend, q: &Query, cfg: &IndexConfig) -> CostResult<f64> {
    let base = cost.query_cost(q, &IndexConfig::empty())?;
    if base <= 0.0 {
        return Ok(0.0);
    }
    Ok(1.0 - cost.query_cost(q, cfg)? / base)
}

/// Relative cost reduction of `cfg` vs no indexes for a workload.
pub fn workload_benefit(
    cost: &dyn CostBackend,
    w: &Workload,
    cfg: &IndexConfig,
) -> CostResult<f64> {
    let base = cost.workload_cost(w, &IndexConfig::empty())?;
    if base <= 0.0 {
        return Ok(0.0);
    }
    Ok(1.0 - cost.workload_cost(w, cfg)? / base)
}

/// Workload cost measured the way the caller asked for: executed
/// (actual) when `use_actual`, estimated otherwise.
pub fn measured_workload_cost(
    cost: &dyn CostBackend,
    w: &Workload,
    cfg: &IndexConfig,
    use_actual: bool,
) -> CostResult<f64> {
    if use_actual {
        cost.executed_workload_cost(w, cfg)
    } else {
        cost.workload_cost(w, cfg)
    }
}
