//! Bit-exact fast matmul kernels: cache-blocked, packed-operand, and
//! (optionally) row-parallel implementations of the three matrix
//! products the models use, plus the shared layer-norm forward.
//!
//! ## The bit-equality contract
//!
//! Every kernel here produces output that is **bit-identical** (`f32`
//! `to_bits` equal) to the naive triple loops in [`crate::tensor`],
//! because for each output element the accumulation over the contraction
//! dimension `k` runs in strictly increasing order with exactly the same
//! per-term arithmetic:
//!
//! * `matmul` / `t_matmul` skip terms whose A-operand is exactly `0.0`
//!   (the naive loops do too — the skip is part of the reference
//!   semantics, not an optimization licence);
//! * `matmul_t` never skips (its naive loop is a plain dot product).
//!
//! The blocked kernels only restructure *which independent element
//! chains run together*: B is repacked into contiguous panels of
//! [`PANEL`] columns so that, for a fixed `(i, p)`, the [`PANEL`]
//! accumulator chains advance in lock-step over contiguous memory.
//! Independent chains may be reordered or vectorized freely without
//! changing any chain's own sequence of f32 additions. The parallel
//! variant partitions **disjoint output rows** of one product across
//! scoped threads (`std::thread::scope`; a different job from
//! `pipa-core`'s runner, which schedules whole cells), which again
//! touches no chain's internal order — `--jobs`-style determinism
//! holds by construction, and the differential suite
//! (`tests/nn_kernel_differential.rs`) proves it empirically.
//!
//! ## Telemetry
//!
//! Every dispatched product bumps the process-wide [`stats`] counters
//! and, when a `pipa-obs` recorder is installed on the calling thread,
//! the `nn_matmul` / `nn_flops` counters on the deterministic trace
//! channel. Counters are bumped on the *dispatching* thread before any
//! worker threads spawn, so traces stay byte-identical regardless of
//! the kernel mode.

use crate::tensor::Tensor;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Panel width (output columns per packed B panel). 16 f32 lanes fill
/// two AVX registers / four NEON registers and keep the accumulator
/// block in registers.
pub const PANEL: usize = 16;

/// Minimum multiply-add count before the parallel path spawns threads;
/// below this, scoped-thread setup costs more than it saves.
const PAR_MIN_FLOPS: usize = 1 << 17;

/// Minimum output rows per worker thread.
const PAR_MIN_ROWS: usize = 8;

/// Which kernel implementation [`Tensor::matmul`] and friends dispatch
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// The reference triple loops (the pre-kernel-layer code paths).
    Naive,
    /// Cache-blocked with a packed B operand, single-threaded.
    Blocked,
    /// Blocked, with large products row-partitioned across scoped
    /// threads. Falls back to [`KernelMode::Blocked`] when the product
    /// is small or only one hardware thread is available.
    BlockedParallel,
}

static MODE: AtomicU8 = AtomicU8::new(2);

/// Select the global kernel mode (process-wide). All modes are
/// bit-identical, so switching is safe at any time; only throughput
/// changes. Benches and the differential suite use this to compare
/// implementations.
pub fn set_kernel_mode(mode: KernelMode) {
    let v = match mode {
        KernelMode::Naive => 0,
        KernelMode::Blocked => 1,
        KernelMode::BlockedParallel => 2,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// The current global kernel mode (default:
/// [`KernelMode::BlockedParallel`]).
pub fn kernel_mode() -> KernelMode {
    match MODE.load(Ordering::Relaxed) {
        0 => KernelMode::Naive,
        1 => KernelMode::Blocked,
        _ => KernelMode::BlockedParallel,
    }
}

static MATMULS: AtomicU64 = AtomicU64::new(0);
static FLOPS: AtomicU64 = AtomicU64::new(0);
static BUF_REUSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide kernel counters (monotonic since the last
/// [`reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Matrix products dispatched (any kind, any mode).
    pub matmuls: u64,
    /// Multiply-add pairs dispatched (`2·m·k·n` per product).
    pub flops: u64,
    /// Buffers served from a [`crate::pool::BufferPool`] free list
    /// instead of a fresh allocation.
    pub buf_reuses: u64,
}

/// Snapshot the kernel counters.
pub fn stats() -> KernelStats {
    KernelStats {
        matmuls: MATMULS.load(Ordering::Relaxed),
        flops: FLOPS.load(Ordering::Relaxed),
        buf_reuses: BUF_REUSES.load(Ordering::Relaxed),
    }
}

/// Zero the kernel counters (benches call this between cells).
pub fn reset_stats() {
    MATMULS.store(0, Ordering::Relaxed);
    FLOPS.store(0, Ordering::Relaxed);
    BUF_REUSES.store(0, Ordering::Relaxed);
}

pub(crate) fn bump_buf_reuse() {
    BUF_REUSES.fetch_add(1, Ordering::Relaxed);
    pipa_obs::count("nn_buf_reuse", 1);
}

fn bump_matmul(m: usize, k: usize, n: usize) {
    MATMULS.fetch_add(1, Ordering::Relaxed);
    let flops = 2 * (m as u64) * (k as u64) * (n as u64);
    FLOPS.fetch_add(flops, Ordering::Relaxed);
    pipa_obs::count("nn_matmul", 1);
    pipa_obs::count("nn_flops", flops);
}

// ---------------------------------------------------------------------
// Packed B operand
// ---------------------------------------------------------------------

/// A `(k, n)` B operand repacked into contiguous column panels.
///
/// Panel `jp` holds columns `[jp·PANEL, jp·PANEL + w)` as `k` rows of
/// `w` contiguous floats: `data[k·jp·PANEL + p·w + jj]` is
/// `B[p][jp·PANEL + jj]`. One pack is `O(k·n)` — negligible against
/// the `O(m·k·n)` product — and a session-lived pack (IABART decoding)
/// amortizes it across every generated token.
#[derive(Debug, Clone)]
pub struct PackedB {
    data: Vec<f32>,
    /// Contraction length.
    pub k: usize,
    /// Output columns.
    pub n: usize,
}

impl PackedB {
    /// Pack a row-major `(k, n)` operand (the B of `matmul`).
    pub fn pack(b: &Tensor) -> PackedB {
        let mut data = vec![0.0; b.rows * b.cols];
        pack_into(&b.data, b.rows, b.cols, false, &mut data);
        PackedB {
            data,
            k: b.rows,
            n: b.cols,
        }
    }

    /// Pack a row-major `(n, k)` operand as its transpose (the B of
    /// `matmul_t`, whose rows are the output columns).
    pub fn pack_transposed(bt: &Tensor) -> PackedB {
        let mut data = vec![0.0; bt.rows * bt.cols];
        pack_into(&bt.data, bt.cols, bt.rows, true, &mut data);
        PackedB {
            data,
            k: bt.cols,
            n: bt.rows,
        }
    }
}

/// Fill `out` with the panel layout. `transposed = false` reads source
/// as `(k, n)` row-major; `true` reads it as `(n, k)` row-major (so the
/// packed logical matrix is its transpose).
fn pack_into(src: &[f32], k: usize, n: usize, transposed: bool, out: &mut [f32]) {
    debug_assert_eq!(out.len(), k * n);
    let mut jp = 0;
    while jp < n {
        let w = PANEL.min(n - jp);
        let panel = &mut out[k * jp..k * jp + k * w];
        for p in 0..k {
            let dst = &mut panel[p * w..(p + 1) * w];
            if transposed {
                for (jj, d) in dst.iter_mut().enumerate() {
                    *d = src[(jp + jj) * k + p];
                }
            } else {
                dst.copy_from_slice(&src[p * n + jp..p * n + jp + w]);
            }
        }
        jp += PANEL;
    }
}

// ---------------------------------------------------------------------
// Blocked cores
// ---------------------------------------------------------------------

/// Blocked product of `a` (`rows × k`, row-major) against a packed B,
/// writing `rows × n` into `out`. `SKIP` replicates the naive zero-skip
/// on the A operand (`matmul` / `t_matmul` semantics); `!SKIP` is the
/// plain dot-product (`matmul_t` semantics). `init` seeds every
/// accumulator: the axpy-shaped references start from a `+0.0`-zeroed
/// output buffer, but `matmul_t`'s reference is `Iterator::sum`, whose
/// fold starts at `-0.0` (the true additive identity) — the two differ
/// in the last bit exactly when every addend keeps the sum at `-0.0`.
fn blocked_rows_into<const SKIP: bool>(
    a: &[f32],
    rows: usize,
    k: usize,
    pb: &PackedB,
    out: &mut [f32],
    init: f32,
) {
    let n = pb.n;
    debug_assert_eq!(a.len(), rows * k);
    debug_assert_eq!(out.len(), rows * n);
    let mut jp = 0;
    while jp < n {
        let w = PANEL.min(n - jp);
        let panel = &pb.data[k * jp..k * jp + k * w];
        if w == PANEL {
            for i in 0..rows {
                let arow = &a[i * k..(i + 1) * k];
                let mut acc = [init; PANEL];
                for (p, &av) in arow.iter().enumerate() {
                    if SKIP && av == 0.0 {
                        continue;
                    }
                    let brow = &panel[p * PANEL..(p + 1) * PANEL];
                    for (aj, &bj) in acc.iter_mut().zip(brow) {
                        *aj += av * bj;
                    }
                }
                out[i * n + jp..i * n + jp + PANEL].copy_from_slice(&acc);
            }
        } else {
            for i in 0..rows {
                let arow = &a[i * k..(i + 1) * k];
                let mut acc = [init; PANEL];
                for (p, &av) in arow.iter().enumerate() {
                    if SKIP && av == 0.0 {
                        continue;
                    }
                    let brow = &panel[p * w..(p + 1) * w];
                    for (aj, &bj) in acc[..w].iter_mut().zip(brow) {
                        *aj += av * bj;
                    }
                }
                out[i * n + jp..i * n + jp + w].copy_from_slice(&acc[..w]);
            }
        }
        jp += PANEL;
    }
}

/// Worker-thread count for an `m × k × n` product under the current
/// hardware: 0 or 1 means "stay sequential".
fn par_threads(m: usize, k: usize, n: usize) -> usize {
    if m * k * n < PAR_MIN_FLOPS || m < 2 * PAR_MIN_ROWS {
        return 1;
    }
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(m / PAR_MIN_ROWS).min(8)
}

/// Row-parallel blocked product: output rows are partitioned into
/// contiguous disjoint chunks, one scoped thread each, all reading the
/// same packed B. Per-row arithmetic is untouched, so results are
/// bit-identical to [`blocked_rows_into`] (and hence to naive).
fn blocked_rows_parallel_into<const SKIP: bool>(
    a: &[f32],
    rows: usize,
    k: usize,
    pb: &PackedB,
    out: &mut [f32],
    init: f32,
) {
    let threads = par_threads(rows, k, pb.n);
    if threads < 2 {
        return blocked_rows_into::<SKIP>(a, rows, k, pb, out, init);
    }
    let chunk_rows = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        for (ci, out_chunk) in out.chunks_mut(chunk_rows * pb.n).enumerate() {
            let lo = ci * chunk_rows;
            let rows_here = out_chunk.len() / pb.n;
            let a_chunk = &a[lo * k..(lo + rows_here) * k];
            scope.spawn(move || {
                blocked_rows_into::<SKIP>(a_chunk, rows_here, k, pb, out_chunk, init);
            });
        }
    });
}

// ---------------------------------------------------------------------
// Naive reference loops (moved verbatim from the pre-kernel tensor.rs)
// ---------------------------------------------------------------------

/// Reference `matmul`: `(m,k) @ (k,n)`, ijp-ordered axpy with the
/// zero-skip on A.
pub fn matmul_naive_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        for p in 0..k {
            let av = a.data[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &b.data[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Reference `matmul_t`: `(m,k) @ (n,k)ᵀ`, one sequential dot product
/// per output element, no skip.
pub fn matmul_t_naive_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    let (m, k, n) = (a.rows, a.cols, b.rows);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let arow = &a.data[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b.data[j * k..(j + 1) * k];
            out[i * n + j] = arow.iter().zip(brow).map(|(&x, &y)| x * y).sum();
        }
    }
}

/// Reference `t_matmul`: `(k,m)ᵀ @ (k,n)`, pij-ordered axpy with the
/// zero-skip on A.
pub fn t_matmul_naive_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    let (k, m, n) = (a.rows, a.cols, b.cols);
    debug_assert_eq!(out.len(), m * n);
    for p in 0..k {
        let arow = &a.data[p * m..(p + 1) * m];
        let brow = &b.data[p * n..(p + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Dispatchers
// ---------------------------------------------------------------------

/// A scratch-buffer provider: the pooled entry points take one so the
/// pack and transpose scratch come from (and return to) a
/// [`crate::pool::BufferPool`]; the plain [`Tensor`] methods pass a
/// fresh-allocation shim.
pub(crate) trait Scratch {
    fn take_zeroed(&mut self, len: usize) -> Vec<f32>;
    fn put(&mut self, buf: Vec<f32>);
}

/// Fresh-allocation scratch for the pool-less entry points.
pub(crate) struct HeapScratch;

impl Scratch for HeapScratch {
    fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        vec![0.0; len]
    }
    fn put(&mut self, _buf: Vec<f32>) {}
}

/// `(m,k) @ (k,n)` into `out` (zeroed by the caller), under an explicit
/// mode. The differential suite uses this to compare implementations
/// without touching the process-global mode.
pub(crate) fn matmul_mode_into(
    a: &Tensor,
    b: &Tensor,
    out: &mut [f32],
    scratch: &mut dyn Scratch,
    mode: KernelMode,
) {
    assert_eq!(a.cols, b.rows, "matmul shape mismatch");
    bump_matmul(a.rows, a.cols, b.cols);
    match mode {
        KernelMode::Naive => matmul_naive_into(a, b, out),
        mode => {
            let mut pdata = scratch.take_zeroed(b.rows * b.cols);
            pack_into(&b.data, b.rows, b.cols, false, &mut pdata);
            let pb = PackedB {
                data: pdata,
                k: b.rows,
                n: b.cols,
            };
            if mode == KernelMode::BlockedParallel {
                blocked_rows_parallel_into::<true>(&a.data, a.rows, a.cols, &pb, out, 0.0);
            } else {
                blocked_rows_into::<true>(&a.data, a.rows, a.cols, &pb, out, 0.0);
            }
            scratch.put(pb.data);
        }
    }
}

/// `(m,k) @ (n,k)ᵀ` into `out`, under an explicit mode.
pub(crate) fn matmul_t_mode_into(
    a: &Tensor,
    b: &Tensor,
    out: &mut [f32],
    scratch: &mut dyn Scratch,
    mode: KernelMode,
) {
    assert_eq!(a.cols, b.cols, "matmul_t shape mismatch");
    bump_matmul(a.rows, a.cols, b.rows);
    match mode {
        KernelMode::Naive => matmul_t_naive_into(a, b, out),
        mode => {
            let mut pdata = scratch.take_zeroed(b.rows * b.cols);
            pack_into(&b.data, b.cols, b.rows, true, &mut pdata);
            let pb = PackedB {
                data: pdata,
                k: b.cols,
                n: b.rows,
            };
            // `matmul_t`'s naive reference accumulates with
            // `Iterator::sum`, whose fold starts at `-0.0` — match it.
            if mode == KernelMode::BlockedParallel {
                blocked_rows_parallel_into::<false>(&a.data, a.rows, a.cols, &pb, out, -0.0);
            } else {
                blocked_rows_into::<false>(&a.data, a.rows, a.cols, &pb, out, -0.0);
            }
            scratch.put(pb.data);
        }
    }
}

/// `(k,m)ᵀ @ (k,n)` into `out`, under an explicit mode: A is transposed
/// into scratch, then the blocked `matmul` core runs (per-element
/// chains — increasing `p`, zero-skip — are exactly the naive
/// `t_matmul`'s).
pub(crate) fn t_matmul_mode_into(
    a: &Tensor,
    b: &Tensor,
    out: &mut [f32],
    scratch: &mut dyn Scratch,
    mode: KernelMode,
) {
    assert_eq!(a.rows, b.rows, "t_matmul shape mismatch");
    let (k, m) = (a.rows, a.cols);
    bump_matmul(m, k, b.cols);
    match mode {
        KernelMode::Naive => t_matmul_naive_into(a, b, out),
        mode => {
            let mut at = scratch.take_zeroed(m * k);
            for p in 0..k {
                for i in 0..m {
                    at[i * k + p] = a.data[p * m + i];
                }
            }
            let mut pdata = scratch.take_zeroed(b.rows * b.cols);
            pack_into(&b.data, b.rows, b.cols, false, &mut pdata);
            let pb = PackedB {
                data: pdata,
                k: b.rows,
                n: b.cols,
            };
            if mode == KernelMode::BlockedParallel {
                blocked_rows_parallel_into::<true>(&at, m, k, &pb, out, 0.0);
            } else {
                blocked_rows_into::<true>(&at, m, k, &pb, out, 0.0);
            }
            scratch.put(pb.data);
            scratch.put(at);
        }
    }
}

/// `(m,k) @ (k,n)` under an explicit mode (fresh output allocation).
/// The differential suite and the kernel bench use this to pin an
/// implementation regardless of the process-global mode.
pub fn matmul_with_mode(a: &Tensor, b: &Tensor, mode: KernelMode) -> Tensor {
    let mut out = vec![0.0; a.rows * b.cols];
    matmul_mode_into(a, b, &mut out, &mut HeapScratch, mode);
    Tensor::from_vec(a.rows, b.cols, out)
}

/// `(m,k) @ (n,k)ᵀ` under an explicit mode (fresh output allocation).
pub fn matmul_t_with_mode(a: &Tensor, b: &Tensor, mode: KernelMode) -> Tensor {
    let mut out = vec![0.0; a.rows * b.rows];
    matmul_t_mode_into(a, b, &mut out, &mut HeapScratch, mode);
    Tensor::from_vec(a.rows, b.rows, out)
}

/// `(k,m)ᵀ @ (k,n)` under an explicit mode (fresh output allocation).
pub fn t_matmul_with_mode(a: &Tensor, b: &Tensor, mode: KernelMode) -> Tensor {
    let mut out = vec![0.0; a.cols * b.cols];
    t_matmul_mode_into(a, b, &mut out, &mut HeapScratch, mode);
    Tensor::from_vec(a.cols, b.cols, out)
}

/// `a @ B` against a pre-packed B (always the blocked core — prepacking
/// only exists on the fast path; bit-equal to every other mode). Used
/// by [`crate::transformer::DecodeSession`] to reuse one pack of the
/// projection/head weights across every generated token.
pub fn matmul_prepacked(a: &Tensor, pb: &PackedB) -> Tensor {
    assert_eq!(a.cols, pb.k, "matmul_prepacked shape mismatch");
    bump_matmul(a.rows, a.cols, pb.n);
    let mut out = vec![0.0; a.rows * pb.n];
    blocked_rows_into::<true>(&a.data, a.rows, a.cols, pb, &mut out, 0.0);
    Tensor::from_vec(a.rows, pb.n, out)
}

// ---------------------------------------------------------------------
// Pooled entry points (tape hot path)
// ---------------------------------------------------------------------

/// Output-row floor for blocking the zero-skip products (`matmul`,
/// `t_matmul`): the blocked core must pack all of B (`k·n` writes, i.e.
/// `1/m` of the MAC count) before multiplying, and its per-MAC edge
/// over the naive axpy loop is modest, so few-output-row products — an
/// action-selection forward is `m = 1` — come out slower blocked.
const MIN_BLOCK_ROWS_SKIP: usize = 16;

/// Output-row floor for blocking `matmul_t`. Its naive reference is a
/// scalar-chained dot per element (no vectorizable axpy), which the
/// panel kernel beats ~2× already at small row counts, so the floor
/// only has to cover the pack cost.
const MIN_BLOCK_ROWS_MT: usize = 8;

/// Density floor for blocking the zero-skip products: advisor state
/// vectors are mostly exact zeros, and the naive loops skip whole
/// `a == 0.0` terms, so on sparse A the reference does a fraction of
/// the MACs while blocked still pays full packing and panel overhead.
/// The O(m·k) density scan is ~`1/n` of the product cost.
const MIN_BLOCK_DENSITY: f32 = 0.75;

/// Global-mode dispatch heuristic for the zero-skip products: downgrade
/// to [`KernelMode::Naive`] when the output has too few rows to
/// amortize packing B, or when A is sparse enough that the naive loop's
/// zero-skip wins outright. All modes are bit-identical, so this is
/// purely a throughput choice; the explicit `*_with_mode` entry points
/// honor the requested mode unconditionally (the differential suite
/// needs the blocked core to run on 1-row and sparse shapes too).
pub(crate) fn auto_mode_skip(a: &Tensor, out_rows: usize, requested: KernelMode) -> KernelMode {
    if requested == KernelMode::Naive || out_rows < MIN_BLOCK_ROWS_SKIP {
        return KernelMode::Naive;
    }
    let nnz = a.data.iter().filter(|&&v| v != 0.0).count();
    if (nnz as f32) < MIN_BLOCK_DENSITY * a.data.len() as f32 {
        KernelMode::Naive
    } else {
        requested
    }
}

/// Global-mode dispatch heuristic for `matmul_t` (no zero-skip in its
/// reference, so density is irrelevant — only pack amortization).
pub(crate) fn auto_mode_mt(out_rows: usize, requested: KernelMode) -> KernelMode {
    if out_rows < MIN_BLOCK_ROWS_MT {
        KernelMode::Naive
    } else {
        requested
    }
}

/// `a @ b` with output and pack scratch served by a
/// [`crate::pool::BufferPool`] (global mode).
pub fn matmul_pooled(a: &Tensor, b: &Tensor, pool: &mut crate::pool::BufferPool) -> Tensor {
    let mut out = pool.take_zeroed(a.rows * b.cols);
    let mode = auto_mode_skip(a, a.rows, kernel_mode());
    matmul_mode_into(a, b, &mut out, pool, mode);
    Tensor::from_vec(a.rows, b.cols, out)
}

/// `a @ bᵀ` with pooled output and scratch (global mode).
pub fn matmul_t_pooled(a: &Tensor, b: &Tensor, pool: &mut crate::pool::BufferPool) -> Tensor {
    let mut out = pool.take_zeroed(a.rows * b.rows);
    let mode = auto_mode_mt(a.rows, kernel_mode());
    matmul_t_mode_into(a, b, &mut out, pool, mode);
    Tensor::from_vec(a.rows, b.rows, out)
}

/// `aᵀ @ b` with pooled output and scratch (global mode).
pub fn t_matmul_pooled(a: &Tensor, b: &Tensor, pool: &mut crate::pool::BufferPool) -> Tensor {
    let mut out = pool.take_zeroed(a.cols * b.cols);
    let mode = auto_mode_skip(a, a.cols, kernel_mode());
    t_matmul_mode_into(a, b, &mut out, pool, mode);
    Tensor::from_vec(a.cols, b.cols, out)
}

// ---------------------------------------------------------------------
// Shared layer-norm forward
// ---------------------------------------------------------------------

/// Row-wise layer-norm forward shared by the tape op and the tape-less
/// decode session, so both paths run literally the same float ops.
/// Returns `(out, xhat, inv_std)`; inference discards the last two.
pub fn layer_norm_forward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> (Tensor, Tensor, Vec<f32>) {
    let n = x.cols;
    let mut out = Tensor::zeros(x.rows, n);
    let mut xhat = Tensor::zeros(x.rows, n);
    let mut inv_std = vec![0.0f32; x.rows];
    for (r, inv_slot) in inv_std.iter_mut().enumerate() {
        let row = x.row_slice(r);
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + eps).sqrt();
        *inv_slot = inv;
        for (c, &xv) in row.iter().enumerate() {
            let xh = (xv - mean) * inv;
            xhat.data[r * n + c] = xh;
            out.data[r * n + c] = xh * gamma.data[c] + beta.data[c];
        }
    }
    (out, xhat, inv_std)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn blocked_matmul_bits_equal_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 7, 17), (16, 16, 16), (5, 33, 31)] {
            let a = seq_tensor(m, k);
            let b = seq_tensor(k, n);
            let mut naive = vec![0.0; m * n];
            matmul_naive_into(&a, &b, &mut naive);
            let pb = PackedB::pack(&b);
            let mut blocked = vec![0.0; m * n];
            blocked_rows_into::<true>(&a.data, m, k, &pb, &mut blocked, 0.0);
            let eq = naive
                .iter()
                .zip(&blocked)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(eq, "matmul bits differ at {m}x{k}x{n}");
        }
    }

    #[test]
    fn prepacked_matches_dispatch() {
        let a = seq_tensor(4, 21);
        let b = seq_tensor(21, 19);
        let pb = PackedB::pack(&b);
        assert_eq!(bits(&matmul_prepacked(&a, &pb)), bits(&a.matmul(&b)));
    }

    #[test]
    fn pack_transposed_views_rows_as_columns() {
        let bt = seq_tensor(5, 3); // logical B = btᵀ : (3, 5)
        let pb = PackedB::pack_transposed(&bt);
        assert_eq!((pb.k, pb.n), (3, 5));
        let a = seq_tensor(2, 3);
        let mut naive = vec![0.0; 2 * 5];
        matmul_t_naive_into(&a, &bt, &mut naive);
        let mut blocked = vec![0.0; 2 * 5];
        blocked_rows_into::<false>(&a.data, 2, 3, &pb, &mut blocked, -0.0);
        assert_eq!(
            naive.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            blocked.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
