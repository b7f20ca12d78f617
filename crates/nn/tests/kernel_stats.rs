//! The process-wide kernel counters, in a test binary of their own.
//!
//! `pipa_nn::kernels::stats` reads global atomics that every matmul in
//! the process bumps. Unit tests in the library binary run matmuls on
//! parallel test threads, so an exact-count check there races them; this
//! binary holds the only test, so nothing else dispatches a product
//! between the reset and the read.

use pipa_nn::kernels::{reset_stats, stats};
use pipa_nn::Tensor;

fn seq_tensor(rows: usize, cols: usize) -> Tensor {
    // Mix of signs and exact zeros to exercise the skip path.
    let data = (0..rows * cols)
        .map(|i| match i % 5 {
            0 => 0.0,
            1 => 1.25 + i as f32 * 0.5,
            2 => -0.75 * i as f32,
            3 => 1.0 / (i as f32 + 1.0),
            _ => -2.5,
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

#[test]
fn stats_count_dispatched_products() {
    reset_stats();
    let a = seq_tensor(2, 3);
    let b = seq_tensor(3, 4);
    let _ = a.matmul(&b);
    let s = stats();
    assert_eq!(s.matmuls, 1);
    assert_eq!(s.flops, 2 * 2 * 3 * 4);
}
