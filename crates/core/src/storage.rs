//! Parameter storage for BPR training: a lock-free atomic table for Hogwild
//! and a plain `f32` table for the exact single-thread path.
//!
//! Section IV-B2: Sigmund trains one retailer per machine and uses
//! "Hogwild-style multi-threaded training [26]" managed in user code. Hogwild
//! updates shared parameters *without* synchronization and tolerates the
//! occasional lost update. [`Table`] stores every learnable scalar as an
//! [`AtomicF32`] (an `AtomicU32` holding the bit pattern) and performs racy
//! read-modify-write adds with `Relaxed` ordering — exactly the Hogwild
//! contract: no torn reads (word-sized atomics), no locks, rare lost updates.
//!
//! The atomic [`Table`] is what a [`crate::model::BprModel`] owns. It is
//! for (a) shared-mutation Hogwild epochs (`threads > 1`) and (b) everything
//! that reads a model *between* epochs through `&BprModel` — snapshots,
//! evaluation, inference, `observe_epoch`. It is **not** the working storage
//! of the exact `threads == 1` path: per-scalar relaxed loads and stores are
//! never vectorised or de-duplicated by LLVM, so an exact epoch checks every
//! table out into a `PlainTable` (`Table::checkout`), runs on `&mut` plain
//! `f32`s, and checks the result back in (`Table::checkin`). Both storages
//! implement the crate-private `RowStore` with the same float evaluation
//! order, so the one generic BPR step in [`crate::train`] produces identical
//! bytes on either.
//!
//! Under `--cfg loom` the raw atomics are swapped for the deterministic
//! interleaving explorer in [`crate::loom_model`], which exhaustively
//! model-checks the racy paths (see `tests/loom_storage.rs`).

#[cfg(loom)]
use crate::loom_model::shim::{AtomicU32, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU32, Ordering};

/// An `f32` that can be read and (racily) updated from many threads.
#[derive(Debug, Default)]
pub struct AtomicF32(AtomicU32);

impl AtomicF32 {
    /// Creates a new cell.
    #[inline]
    pub fn new(v: f32) -> Self {
        Self(AtomicU32::new(v.to_bits()))
    }

    /// Reads the current value.
    #[inline]
    pub fn load(&self) -> f32 {
        f32::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Overwrites the value.
    #[inline]
    pub fn store(&self, v: f32) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Hogwild add: `load`, add, `store`. Racing writers may drop each
    /// other's deltas; that is accepted by design [Niu et al., NIPS'11].
    #[inline]
    pub fn add(&self, delta: f32) {
        debug_assert!(delta.is_finite(), "non-finite delta {delta}");
        self.store(self.load() + delta);
    }
}

impl Clone for AtomicF32 {
    fn clone(&self) -> Self {
        Self::new(self.load())
    }
}

/// A dense `rows x dim` table of [`AtomicF32`] parameters with one Adagrad
/// accumulator per row.
///
/// Per-*row* accumulators follow the paper: Adagrad "works by keeping around,
/// for each parameter, the sum of the norms of its updates" — Sigmund
/// accumulates squared gradient norms per embedding, damping frequently
/// updated (popular) items and boosting rare ones.
#[derive(Debug)]
pub struct Table {
    data: Vec<AtomicF32>,
    /// Adagrad: sum of squared gradient norms per row.
    acc: Vec<AtomicF32>,
    dim: usize,
}

impl Table {
    /// Allocates a zero-initialized table.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        assert!(dim > 0, "table dim must be positive");
        let mut data = Vec::with_capacity(rows * dim);
        data.resize_with(rows * dim, AtomicF32::default);
        let mut acc = Vec::with_capacity(rows);
        acc.resize_with(rows, AtomicF32::default);
        Self { data, acc, dim }
    }

    /// Allocates a table initialized from a closure (used for Gaussian init).
    pub fn from_fn(rows: usize, dim: usize, mut f: impl FnMut() -> f32) -> Self {
        assert!(dim > 0, "table dim must be positive");
        let mut data = Vec::with_capacity(rows * dim);
        for _ in 0..rows * dim {
            data.push(AtomicF32::new(f()));
        }
        let mut acc = Vec::with_capacity(rows);
        acc.resize_with(rows, AtomicF32::default);
        Self { data, acc, dim }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.acc.len()
    }

    /// Embedding dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// A row as a slice of atomic cells.
    #[inline]
    pub fn row(&self, r: usize) -> &[AtomicF32] {
        &self.data[r * self.dim..(r + 1) * self.dim]
    }

    /// Copies a row into `out` (which must be `dim` long).
    #[inline]
    pub fn read_row(&self, r: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        for (o, c) in out.iter_mut().zip(self.row(r)) {
            *o = c.load();
        }
    }

    /// Adds a row into `out`.
    #[inline]
    pub fn accumulate_row(&self, r: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        for (o, c) in out.iter_mut().zip(self.row(r)) {
            *o += c.load();
        }
    }

    /// Applies one Adagrad SGD step to row `r`.
    ///
    /// `grad` is the gradient of the *loss* w.r.t. the row (we descend), and
    /// `reg` is the L2 coefficient. The decay term is folded into the
    /// accumulated gradient (`g' = g + reg·w`), so the accumulator sees the
    /// full update magnitude — with a bare-loss accumulator, a large `reg`
    /// paired with a tiny first gradient yields a huge effective step on the
    /// decay term and the row diverges to NaN. The effective step is
    /// `lr / sqrt(acc + eps)`.
    pub fn adagrad_step(&self, r: usize, grad: &[f32], lr: f32, reg: f32) {
        debug_assert_eq!(grad.len(), self.dim);
        debug_assert_finite_step(r, grad, lr, reg);
        let row = self.row(r);
        let mut norm2 = 0.0f32;
        for (cell, &g) in row.iter().zip(grad) {
            let eff = g + reg * cell.load();
            norm2 += eff * eff;
        }
        let acc = &self.acc[r];
        acc.add(norm2);
        let step = lr / (acc.load() + 1e-6).sqrt();
        for (cell, &g) in row.iter().zip(grad) {
            let cur = cell.load();
            cell.store(cur - step * (g + reg * cur));
        }
    }

    /// Resets all Adagrad accumulators to zero.
    ///
    /// The paper: "To ensure that the incremental runs work well with
    /// Adagrad, we reset all the stored norms to 0 before the incremental
    /// update."
    pub fn reset_adagrad(&self) {
        for a in &self.acc {
            a.store(0.0);
        }
    }

    /// Adagrad accumulator of a row (testing/diagnostics).
    #[inline]
    pub fn adagrad_acc(&self, r: usize) -> f32 {
        self.acc[r].load()
    }

    /// Snapshots the table contents to plain `f32`s (row-major), without
    /// accumulators.
    pub fn to_vec(&self) -> Vec<f32> {
        self.data.iter().map(|c| c.load()).collect()
    }

    /// Restores table contents from a row-major `f32` slice of identical
    /// shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn load_from(&self, values: &[f32]) {
        assert_eq!(values.len(), self.data.len(), "table shape mismatch");
        for (c, &v) in self.data.iter().zip(values) {
            c.store(v);
        }
    }

    /// Snapshots the per-row Adagrad accumulators.
    pub fn acc_to_vec(&self) -> Vec<f32> {
        self.acc.iter().map(|c| c.load()).collect()
    }

    /// Restores per-row Adagrad accumulators.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn load_acc_from(&self, values: &[f32]) {
        assert_eq!(values.len(), self.acc.len(), "accumulator shape mismatch");
        for (c, &v) in self.acc.iter().zip(values) {
            c.store(v);
        }
    }

    /// Copies the table and its accumulators out into plain working storage
    /// for one exact epoch.
    pub(crate) fn checkout(&self) -> PlainTable {
        PlainTable {
            data: self.to_vec(),
            acc: self.acc_to_vec(),
            dim: self.dim,
        }
    }

    /// Writes a checked-out table (same shape) back.
    pub(crate) fn checkin(&self, plain: &PlainTable) {
        self.load_from(&plain.data);
        self.load_acc_from(&plain.acc);
    }

    /// Grows the table to `new_rows`, initializing fresh rows from `init`.
    /// Existing rows (and their accumulators) are preserved. Used by
    /// incremental training when a retailer adds catalog items.
    pub fn grow_to(&mut self, new_rows: usize, mut init: impl FnMut() -> f32) {
        if new_rows <= self.rows() {
            return;
        }
        let extra = new_rows - self.rows();
        self.data.reserve(extra * self.dim);
        for _ in 0..extra * self.dim {
            self.data.push(AtomicF32::new(init()));
        }
        self.acc.resize_with(new_rows, AtomicF32::default);
    }
}

/// A NaN entering the parameter tables must fail loudly in debug and test
/// builds, on either storage, instead of silently poisoning MAP.
#[inline]
fn debug_assert_finite_step(r: usize, grad: &[f32], lr: f32, reg: f32) {
    debug_assert!(lr.is_finite() && reg.is_finite(), "non-finite lr/reg");
    debug_assert!(
        grad.iter().all(|g| g.is_finite()),
        "non-finite gradient for row {r}"
    );
}

/// The row operations the BPR step needs, over either storage.
///
/// Implementations must keep one float evaluation order — `norm2` summed in
/// index order, `cur - step * (g + reg * cur)` — so a `threads: 1` epoch
/// trains the same bytes on `&Table` and on [`PlainTable`]
/// (`train::tests::storage_invariance_*` holds them to it).
pub(crate) trait RowStore {
    /// Copies row `r` into `out`.
    fn read(&self, r: usize, out: &mut [f32]);
    /// Adds row `r` into `out`.
    fn accumulate(&self, r: usize, out: &mut [f32]);
    /// One Adagrad SGD step on row `r`; see [`Table::adagrad_step`].
    fn adagrad_step(&mut self, r: usize, grad: &[f32], lr: f32, reg: f32);
}

/// Hogwild storage: every trainer thread holds the same shared table.
impl RowStore for &Table {
    #[inline]
    fn read(&self, r: usize, out: &mut [f32]) {
        self.read_row(r, out);
    }

    #[inline]
    fn accumulate(&self, r: usize, out: &mut [f32]) {
        self.accumulate_row(r, out);
    }

    #[inline]
    fn adagrad_step(&mut self, r: usize, grad: &[f32], lr: f32, reg: f32) {
        Table::adagrad_step(self, r, grad, lr, reg);
    }
}

/// A [`Table`] checked out into plain `f32`s: the exclusive working storage
/// of one exact (`threads == 1`) epoch. No atomics, so the row loops
/// vectorise.
#[derive(Debug)]
pub(crate) struct PlainTable {
    data: Vec<f32>,
    acc: Vec<f32>,
    dim: usize,
}

impl PlainTable {
    #[inline]
    fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.dim..(r + 1) * self.dim]
    }
}

impl RowStore for PlainTable {
    #[inline]
    fn read(&self, r: usize, out: &mut [f32]) {
        out.copy_from_slice(self.row(r));
    }

    #[inline]
    fn accumulate(&self, r: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        for (o, &v) in out.iter_mut().zip(self.row(r)) {
            *o += v;
        }
    }

    #[inline]
    fn adagrad_step(&mut self, r: usize, grad: &[f32], lr: f32, reg: f32) {
        debug_assert_eq!(grad.len(), self.dim);
        debug_assert_finite_step(r, grad, lr, reg);
        let row = &mut self.data[r * self.dim..(r + 1) * self.dim];
        let mut norm2 = 0.0f32;
        for (&cur, &g) in row.iter().zip(grad) {
            let eff = g + reg * cur;
            norm2 += eff * eff;
        }
        let acc = &mut self.acc[r];
        *acc += norm2;
        let step = lr / (*acc + 1e-6).sqrt();
        for (cur, &g) in row.iter_mut().zip(grad) {
            *cur -= step * (g + reg * *cur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_f32_round_trip() {
        let a = AtomicF32::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-2.25);
        assert_eq!(a.load(), -2.25);
        a.add(0.25);
        assert_eq!(a.load(), -2.0);
    }

    #[test]
    fn table_rows_and_read() {
        let t = Table::from_fn(3, 4, || 1.0);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.dim(), 4);
        let mut buf = [0.0; 4];
        t.read_row(2, &mut buf);
        assert_eq!(buf, [1.0; 4]);
    }

    #[test]
    fn accumulate_row_adds() {
        let t = Table::from_fn(1, 3, || 2.0);
        let mut out = [1.0f32; 3];
        t.accumulate_row(0, &mut out);
        assert_eq!(out, [3.0; 3]);
    }

    #[test]
    fn adagrad_step_descends_and_damps() {
        let t = Table::from_fn(1, 2, || 0.0);
        let g = [1.0f32, 0.0];
        t.adagrad_step(0, &g, 0.1, 0.0);
        let mut buf = [0.0; 2];
        t.read_row(0, &mut buf);
        let first = -buf[0];
        assert!(first > 0.0, "moved against gradient");
        // Second identical step must be smaller (damped by the accumulator).
        t.adagrad_step(0, &g, 0.1, 0.0);
        t.read_row(0, &mut buf);
        let second = -buf[0] - first;
        assert!(second > 0.0 && second < first, "{second} vs {first}");
    }

    #[test]
    fn adagrad_reset_restores_step_size() {
        let t = Table::from_fn(1, 1, || 0.0);
        let g = [1.0f32];
        t.adagrad_step(0, &g, 0.1, 0.0);
        let step1 = t.adagrad_acc(0);
        t.adagrad_step(0, &g, 0.1, 0.0);
        assert!(t.adagrad_acc(0) > step1);
        t.reset_adagrad();
        assert_eq!(t.adagrad_acc(0), 0.0);
    }

    #[test]
    fn regularization_pulls_toward_zero() {
        let t = Table::from_fn(1, 1, || 10.0);
        t.adagrad_step(0, &[0.0], 0.1, 0.5);
        // acc stays 0 (zero gradient), step = 0.1/sqrt(1e-6) is huge, but the
        // direction must be toward zero.
        let v = t.row(0)[0].load();
        assert!(v < 10.0);
    }

    #[test]
    fn snapshot_round_trip() {
        let t = Table::from_fn(2, 2, || 3.0);
        let v = t.to_vec();
        let t2 = Table::zeros(2, 2);
        t2.load_from(&v);
        assert_eq!(t2.to_vec(), v);
    }

    #[test]
    fn grow_preserves_existing_rows() {
        let mut t = Table::from_fn(2, 2, || 1.0);
        t.adagrad_step(0, &[1.0, 1.0], 0.1, 0.0);
        let before = t.to_vec()[..4].to_vec();
        let acc0 = t.adagrad_acc(0);
        t.grow_to(4, || 9.0);
        assert_eq!(t.rows(), 4);
        assert_eq!(&t.to_vec()[..4], &before[..]);
        assert_eq!(t.adagrad_acc(0), acc0);
        assert_eq!(t.row(3)[0].load(), 9.0);
    }

    #[test]
    fn grow_to_smaller_is_noop() {
        let mut t = Table::from_fn(3, 2, || 1.0);
        t.grow_to(2, || 0.0);
        assert_eq!(t.rows(), 3);
    }

    #[test]
    fn concurrent_adds_mostly_land() {
        use std::sync::Arc;
        let t = Arc::new(Table::zeros(1, 1));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        t.row(0)[0].add(1.0);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let v = t.row(0)[0].load();
        // Hogwild: some updates may be lost, but a large majority must land.
        assert!(v > 10_000.0, "too many lost updates: {v}");
        assert!(v <= 40_000.0);
    }

    #[test]
    #[should_panic(expected = "table shape mismatch")]
    fn load_from_checks_shape() {
        let t = Table::zeros(2, 2);
        t.load_from(&[1.0, 2.0]);
    }
}
