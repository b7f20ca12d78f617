//! 128-bit structural fingerprints of queries, indexes and index
//! configurations.
//!
//! The benefit matrix keys its `(query, index)` cells and shape
//! classifications on these, the `Database` keys its distinct-lookup
//! observability counter on them, and `pipa-cost`'s replay tapes key
//! recorded what-if answers on `(query, config)` pairs. Two independent
//! FNV-1a streams over canonical, tagged, length-prefixed byte encodings
//! make accidental collisions negligible at every scale the repo runs.

use crate::index::IndexConfig;
use crate::predicate::PredOp;
use crate::query::{Aggregate, Query};

/// A 128-bit structural fingerprint (two independent FNV-1a streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    a: u64,
    b: u64,
}

impl Fingerprint {
    /// The fingerprint as one 128-bit value (observability keys).
    pub fn to_u128(self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

/// Incremental FNV-1a × 2 hasher over canonical byte encodings.
struct Fnv2 {
    a: u64,
    b: u64,
}

impl Fnv2 {
    fn new() -> Self {
        // Standard FNV-1a offset for stream A; an arbitrary odd constant
        // (pi fraction) decorrelates stream B.
        Fnv2 {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x2437_54c8_10f8_6cb5,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a = (self.a ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
            self.b = (self.b ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_0197);
        }
    }

    fn u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    fn finish(self) -> Fingerprint {
        Fingerprint {
            a: self.a,
            b: self.b,
        }
    }
}

/// Structural fingerprint of a query: every field that can influence its
/// cost, tagged and length-prefixed so distinct structures cannot
/// collide by concatenation.
pub fn fingerprint_query(q: &Query) -> Fingerprint {
    let mut h = Fnv2::new();
    h.u32(q.tables.len() as u32);
    for t in &q.tables {
        h.u32(t.0);
    }
    h.u32(q.joins.len() as u32);
    for j in &q.joins {
        h.u32(j.left.0);
        h.u32(j.right.0);
    }
    h.u32(q.predicates.len() as u32);
    for p in &q.predicates {
        h.u32(p.col.0);
        match &p.op {
            PredOp::Eq(v) => {
                h.u32(1);
                h.f64(*v);
            }
            PredOp::Le(v) => {
                h.u32(2);
                h.f64(*v);
            }
            PredOp::Ge(v) => {
                h.u32(3);
                h.f64(*v);
            }
            PredOp::Between(lo, hi) => {
                h.u32(4);
                h.f64(*lo);
                h.f64(*hi);
            }
            PredOp::In(vs) => {
                h.u32(5);
                h.u32(vs.len() as u32);
                for v in vs {
                    h.f64(*v);
                }
            }
        }
    }
    h.u32(q.projection.len() as u32);
    for c in &q.projection {
        h.u32(c.0);
    }
    h.u32(q.aggregates.len() as u32);
    for a in &q.aggregates {
        match a {
            Aggregate::CountStar => h.u32(0xffff_ffff),
            Aggregate::Sum(c) => {
                h.u32(1);
                h.u32(c.0);
            }
            Aggregate::Avg(c) => {
                h.u32(2);
                h.u32(c.0);
            }
            Aggregate::Min(c) => {
                h.u32(3);
                h.u32(c.0);
            }
            Aggregate::Max(c) => {
                h.u32(4);
                h.u32(c.0);
            }
        }
    }
    h.u32(q.group_by.len() as u32);
    for c in &q.group_by {
        h.u32(c.0);
    }
    h.u32(q.order_by.len() as u32);
    for c in &q.order_by {
        h.u32(c.0);
    }
    h.u64(q.limit.map_or(u64::MAX, |l| l.wrapping_add(1)));
    h.finish()
}

/// Structural fingerprint of a single index (its column list). Keys the
/// per-(query, index) benefit matrix the same way [`fingerprint_config`]
/// keys per-(query, config) replay-tape entries.
pub fn fingerprint_index(idx: &crate::index::Index) -> Fingerprint {
    let mut h = Fnv2::new();
    h.u32(idx.columns.len() as u32);
    for c in &idx.columns {
        h.u32(c.0);
    }
    h.finish()
}

/// Structural fingerprint of an index configuration (order-sensitive:
/// the cost model is order-insensitive, so keying on insertion order
/// only costs duplicate entries, never correctness).
pub fn fingerprint_config(cfg: &IndexConfig) -> Fingerprint {
    let mut h = Fnv2::new();
    h.u32(cfg.len() as u32);
    for idx in cfg.indexes() {
        h.u32(idx.columns.len() as u32);
        for c in &idx.columns {
            h.u32(c.0);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Index;
    use crate::schema::ColumnId;

    fn q(frac: f64) -> Query {
        Query {
            tables: vec![crate::schema::TableId(0)],
            joins: vec![],
            predicates: vec![crate::predicate::Predicate::eq(ColumnId(0), frac)],
            projection: vec![ColumnId(0)],
            aggregates: vec![],
            group_by: vec![],
            order_by: vec![],
            limit: None,
        }
    }

    #[test]
    fn distinct_structures_get_distinct_fingerprints() {
        let a = fingerprint_query(&q(0.25));
        let b = fingerprint_query(&q(0.75));
        assert_ne!(a, b);
        let c1 = fingerprint_config(&IndexConfig::empty());
        let c2 = fingerprint_config(&IndexConfig::from_indexes([Index::single(ColumnId(1))]));
        assert_ne!(c1, c2);
    }

    #[test]
    fn fingerprints_are_stable() {
        assert_eq!(fingerprint_query(&q(0.5)), fingerprint_query(&q(0.5)));
    }
}
