//! Sparse matrices and sparse LU factorization.
//!
//! Circuit matrices produced by modified nodal analysis are extremely
//! sparse (a handful of nonzeros per row) and, with a sensible node
//! numbering, nearly banded. The factorization here is a straightforward
//! row-oriented Gaussian elimination with partial pivoting over sorted
//! sparse rows; combined with the reverse Cuthill–McKee ordering from
//! [`crate::ordering`] it keeps fill-in low for every circuit in this
//! workspace while staying simple enough to verify against the dense path.
//!
//! A Newton loop factors one sparsity pattern over and over. Two
//! recordings make those repeats cost O(nnz) without moving a bit:
//! [`AssemblyPlan`] replays where each stamped triplet lands, and
//! [`LuWorkspace`] replays the last full elimination's pivot sequence
//! and fill structure while a per-step check confirms the pivot choice.

use crate::{NumError, Result};

/// Pivot magnitudes below this floor make the matrix singular.
const PIVOT_FLOOR: f64 = f64::MIN_POSITIVE * 1e4;

/// A coordinate-format (triplet) builder for a square sparse matrix.
///
/// Duplicate entries are kept as separate triplets and *summed* when
/// the matrix is assembled, which is exactly the semantics MNA stamping
/// wants.
///
/// # Examples
///
/// ```
/// use mtk_num::sparse::Triplets;
///
/// let mut t = Triplets::new(2);
/// t.add(0, 0, 1.0);
/// t.add(0, 0, 1.0); // stamps accumulate
/// t.add(1, 1, 4.0);
/// let x = t.factor().unwrap().solve(&[2.0, 4.0]).unwrap();
/// assert_eq!(x, vec![1.0, 1.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Triplets {
    n: usize,
    /// `(row, col)` of each entry, in insertion order.
    at: Vec<(usize, usize)>,
    /// The value of each entry, parallel to `at`.
    values: Vec<f64>,
}

impl Triplets {
    /// Creates an empty builder for an `n × n` matrix.
    pub fn new(n: usize) -> Self {
        Triplets {
            n,
            at: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of raw (possibly duplicate) entries added so far.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// Whether no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// Adds `value` at `(row, col)`. Duplicates accumulate on assembly.
    ///
    /// Exact zeros are kept as *structural* entries: a stamp whose
    /// conductance happens to evaluate to `0.0` (e.g. a MOSFET in deep
    /// cutoff) still occupies its slot in the sparsity pattern. That
    /// keeps the assembled pattern a function of the stamp sequence
    /// alone, so a recorded [`AssemblyPlan`] stays valid across Newton
    /// iterations whose values cross zero.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "triplet index out of bounds");
        self.at.push((row, col));
        self.values.push(value);
    }

    /// Removes all entries while keeping the dimension, so the allocation
    /// can be reused across Newton iterations.
    pub fn clear(&mut self) {
        self.at.clear();
        self.values.clear();
    }

    /// Assembles into sorted, duplicate-summed sparse rows.
    ///
    /// Entries that sum to exactly zero are kept (structurally), for the
    /// same pattern-stability reason as in [`Triplets::add`].
    pub fn to_rows(&self) -> SparseRows {
        let mut out = SparseRows::empty(self.n);
        self.assemble_into(&mut out);
        out
    }

    /// [`Triplets::to_rows`] into a caller-owned [`SparseRows`], reusing
    /// its allocations. Produces exactly the same result.
    ///
    /// Each row's entries are sorted by column with an unstable sort and
    /// duplicates are summed left to right in the order the sort leaves
    /// them; [`AssemblyPlan`] records that order.
    ///
    /// # Panics
    ///
    /// Panics if `out` was built for a different dimension.
    pub fn assemble_into(&self, out: &mut SparseRows) {
        assert_eq!(out.n, self.n, "assemble_into dimension mismatch");
        let (raw_start, raw) = group_rows(self.n, self.entries());
        out.start.clear();
        out.cols.clear();
        out.vals.clear();
        out.start.push(0);
        for r in 0..self.n {
            for run in raw[raw_start[r]..raw_start[r + 1]].chunk_by(|a, b| a.0 == b.0) {
                let mut sum = run[0].1;
                for &(_, v) in &run[1..] {
                    sum += v;
                }
                out.cols.push(run[0].0);
                out.vals.push(sum);
            }
            out.start.push(out.cols.len());
        }
    }

    /// Assembles and factors the matrix in one step.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::SingularMatrix`] when elimination hits an empty
    /// pivot column.
    pub fn factor(&self) -> Result<SparseLu> {
        self.to_rows().factor()
    }

    /// Computes `A x` without assembling, useful for residual checks.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] when `x.len() != n`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.n {
            return Err(NumError::DimensionMismatch {
                expected: self.n,
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; self.n];
        for (r, c, v) in self.entries() {
            y[r] += v * x[c];
        }
        Ok(y)
    }

    fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + Clone + '_ {
        self.at
            .iter()
            .zip(&self.values)
            .map(|(&(r, c), &v)| (r, c, v))
    }
}

/// Groups `(row, col, value)` entries by row, keeping insertion order
/// within a row, then sorts each row by column with the unstable sort
/// every assembly uses. Duplicates are left adjacent, unsummed. Returns
/// the row starts (`start[r]..start[r + 1]` is row `r`) and the
/// `(col, value)` entries.
///
/// The sort compares columns only, so the arrangement depends on the
/// `(row, col)` sequence alone: entries tagged with their index travel
/// exactly as real values do, which is how [`AssemblyPlan`] learns the
/// summation order.
fn group_rows(
    n: usize,
    entries: impl Iterator<Item = (usize, usize, f64)> + Clone,
) -> (Vec<usize>, Vec<(usize, f64)>) {
    let mut start = vec![0; n + 1];
    for (r, _, _) in entries.clone() {
        start[r + 1] += 1;
    }
    for r in 0..n {
        start[r + 1] += start[r];
    }
    let mut next = start[..n].to_vec();
    let mut out = vec![(0usize, 0.0f64); start[n]];
    for (r, c, v) in entries {
        out[next[r]] = (c, v);
        next[r] += 1;
    }
    for r in 0..n {
        out[start[r]..start[r + 1]].sort_unstable_by_key(|&(c, _)| c);
    }
    (start, out)
}

/// An assembled sparse matrix in compressed sparse row form: sorted,
/// duplicate-free column indices per row and one value per entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRows {
    n: usize,
    /// `start[r]..start[r + 1]` indexes row `r` in `cols` and `vals`.
    start: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl SparseRows {
    /// An all-empty (structurally zero) `n × n` matrix, useful as the
    /// reusable target of [`Triplets::assemble_into`].
    pub fn empty(n: usize) -> SparseRows {
        SparseRows {
            n,
            start: vec![0; n + 1],
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether both matrices have exactly the same column pattern
    /// (values ignored).
    pub fn same_pattern(&self, other: &SparseRows) -> bool {
        self.n == other.n && self.start == other.start && self.cols == other.cols
    }

    /// Total number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// The `(col, value)` entries of row `r`, columns ascending.
    fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + Clone + '_ {
        let span = self.start[r]..self.start[r + 1];
        self.cols[span.clone()]
            .iter()
            .copied()
            .zip(self.vals[span].iter().copied())
    }

    /// Every entry as `(row, col, value)`, row-major.
    fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + Clone + '_ {
        (0..self.n).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// Returns entry `(row, col)`, or `0.0` if it is structurally absent.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "index out of bounds");
        let span = self.start[row]..self.start[row + 1];
        match self.cols[span.clone()].binary_search(&col) {
            Ok(i) => self.vals[span.start + i],
            Err(_) => 0.0,
        }
    }

    /// The symmetric adjacency structure (union of `A` and `Aᵀ` patterns,
    /// diagonal removed), used by ordering heuristics.
    pub fn symmetric_adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.n];
        for (r, c, _) in self.entries() {
            if c != r {
                adj[r].push(c);
                adj[c].push(r);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        adj
    }

    /// Applies a symmetric permutation: entry `(i, j)` moves to
    /// `(pos[i], pos[j])` where `pos` is the inverse of `order`
    /// (`order[k]` = original index placed at position `k`).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..n`.
    pub fn permute_symmetric(&self, order: &[usize]) -> SparseRows {
        self.permuted(&inverse_permutation(order, self.n))
    }

    /// [`SparseRows::permute_symmetric`] with the inverse permutation
    /// `pos` (`pos[orig]` = new position) already computed.
    fn permuted(&self, pos: &[usize]) -> SparseRows {
        let (start, rows) = group_rows(self.n, self.entries().map(|(r, c, v)| (pos[r], pos[c], v)));
        let (cols, vals) = rows.into_iter().unzip();
        SparseRows {
            n: self.n,
            start,
            cols,
            vals,
        }
    }

    /// The matrix as one sorted `(col, value)` vector per row — the
    /// working form of the full elimination — written into `rows`,
    /// reusing its allocations.
    fn copy_rows_into(&self, rows: &mut Vec<Vec<(usize, f64)>>) {
        if rows.len() < self.n {
            rows.resize_with(self.n, Vec::new);
        }
        for (r, dst) in rows.iter_mut().take(self.n).enumerate() {
            dst.clear();
            dst.extend(self.row(r));
        }
    }

    /// Factors the matrix as `P A = L U` with partial pivoting over sparse
    /// rows.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::SingularMatrix`] when a pivot column has no
    /// usable entry.
    pub fn factor(self) -> Result<SparseLu> {
        let n = self.n;
        let mut rows = Vec::new();
        self.copy_rows_into(&mut rows);
        // l_rows[i] holds the multipliers applied to row i, as (col, factor).
        let mut l_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        // row_of[k] = which original row currently sits at elimination
        // position k (row swaps are done on this indirection).
        let mut row_of: Vec<usize> = (0..n).collect();
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        let mut pivots = Vec::new();
        eliminate(
            n,
            &mut rows,
            &mut l_rows,
            &mut row_of,
            &mut scratch,
            &mut pivots,
        )?;

        // Collect U and L rows in elimination order; each was recorded
        // against the original row index.
        let u_rows = row_of
            .iter()
            .map(|&ri| std::mem::take(&mut rows[ri]))
            .collect();
        let l_rows = row_of
            .iter()
            .map(|&ri| std::mem::take(&mut l_rows[ri]))
            .collect();
        Ok(SparseLu {
            n,
            u_rows,
            l_rows,
            row_of,
        })
    }
}

/// `pos` with `pos[order[k]] = k`.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..n`.
fn inverse_permutation(order: &[usize], n: usize) -> Vec<usize> {
    assert_eq!(order.len(), n, "order must have length n");
    let mut pos = vec![usize::MAX; n];
    for (k, &orig) in order.iter().enumerate() {
        assert!(pos[orig] == usize::MAX, "order is not a permutation");
        pos[orig] = k;
    }
    pos
}

/// Sparse LU factorization produced by [`SparseRows::factor`] or
/// [`Triplets::factor`].
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Upper-triangular rows in elimination order (col >= row position).
    u_rows: Vec<Vec<(usize, f64)>>,
    /// Multipliers applied to the row now at each elimination position,
    /// in the order they were applied.
    l_rows: Vec<Vec<(usize, f64)>>,
    /// `row_of[k]` = original row index at elimination position `k`.
    row_of: Vec<usize>,
}

impl SparseLu {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros in the U factor (a fill-in metric).
    pub fn u_nnz(&self) -> usize {
        self.u_rows.iter().map(Vec::len).sum()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] when `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(NumError::DimensionMismatch {
                expected: self.n,
                actual: b.len(),
            });
        }
        let mut x = Vec::new();
        substitute(
            &self.row_of,
            |i| self.l_rows[i].as_slice(),
            |i| self.u_rows[i].as_slice(),
            b,
            &mut Vec::new(),
            &mut x,
        );
        Ok(x)
    }
}

/// Forward substitution of `b` (permuted into elimination order) through
/// the multipliers `l_row(k)` of the row at position `k`, then back
/// substitution through its U row `u_row(k)`, into `x`.
fn substitute<'a>(
    row_of: &[usize],
    l_row: impl Fn(usize) -> &'a [(usize, f64)],
    u_row: impl Fn(usize) -> &'a [(usize, f64)],
    b: &[f64],
    y: &mut Vec<f64>,
    x: &mut Vec<f64>,
) {
    let n = row_of.len();
    y.clear();
    y.extend(row_of.iter().map(|&r| b[r]));
    for i in 0..n {
        let mut s = y[i];
        for &(col, factor) in l_row(i) {
            s -= factor * y[col];
        }
        y[i] = s;
    }
    x.clear();
    x.resize(n, 0.0);
    for i in (0..n).rev() {
        let mut s = y[i];
        let mut diag = 0.0;
        for &(c, v) in u_row(i) {
            if c == i {
                diag = v;
            } else if c > i {
                s -= v * x[c];
            }
        }
        debug_assert!(diag != 0.0, "zero diagonal slipped through eliminate()");
        x[i] = s / diag;
    }
}

/// In-place LU elimination with partial pivoting: on success `rows`
/// holds the U rows (indexed through `row_of`), `l_rows` the multipliers
/// applied to each original row in application order, `row_of[k]` the
/// original row at elimination position `k`, and `pivots[k]` the
/// position the step-`k` pivot was swapped in from.
///
/// This is the reference kernel. [`LuWorkspace`] replays its recorded
/// pivot sequence and must reproduce it bit for bit, so every rule
/// here — the pivot choice (largest `|v|`, first in position order on
/// ties), the swap, the merge order, and dropping a merged entry that
/// cancels to exactly zero — is part of that contract.
fn eliminate(
    n: usize,
    rows: &mut [Vec<(usize, f64)>],
    l_rows: &mut [Vec<(usize, f64)>],
    row_of: &mut [usize],
    scratch: &mut Vec<(usize, f64)>,
    pivots: &mut Vec<usize>,
) -> Result<()> {
    pivots.clear();
    for k in 0..n {
        // Find the pivot: the row at position >= k with the largest
        // magnitude entry in column k.
        let mut pivot_pos = usize::MAX;
        let mut pivot_mag = 0.0f64;
        for (p, &ri) in row_of.iter().enumerate().skip(k) {
            if let Ok(idx) = rows[ri].binary_search_by_key(&k, |&(c, _)| c) {
                let mag = rows[ri][idx].1.abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_pos = p;
                }
            }
        }
        if pivot_pos == usize::MAX || pivot_mag < PIVOT_FLOOR {
            return Err(NumError::SingularMatrix { step: k });
        }
        pivots.push(pivot_pos);
        row_of.swap(k, pivot_pos);
        let pivot_row_idx = row_of[k];
        let pivot_val = {
            let row = &rows[pivot_row_idx];
            let idx = row.binary_search_by_key(&k, |&(c, _)| c).unwrap();
            row[idx].1
        };

        // Eliminate column k from every later row that has it.
        for &ri in row_of.iter().skip(k + 1) {
            let idx = match rows[ri].binary_search_by_key(&k, |&(c, _)| c) {
                Ok(i) => i,
                Err(_) => continue,
            };
            let factor = rows[ri][idx].1 / pivot_val;
            l_rows[ri].push((k, factor));
            // rows[ri] -= factor * rows[pivot]; merge the two sorted rows.
            scratch.clear();
            let (target, pivot_row) = {
                // Split borrows: pivot_row_idx != ri is guaranteed.
                let (a, b) = if pivot_row_idx < ri {
                    let (lo, hi) = rows.split_at_mut(ri);
                    (&mut hi[0], &lo[pivot_row_idx])
                } else {
                    let (lo, hi) = rows.split_at_mut(pivot_row_idx);
                    (&mut lo[ri], &hi[0])
                };
                (a, b)
            };
            let mut ti = 0usize;
            let mut pi = 0usize;
            while ti < target.len() || pi < pivot_row.len() {
                let tc = target.get(ti).map(|&(c, _)| c).unwrap_or(usize::MAX);
                let pc = pivot_row.get(pi).map(|&(c, _)| c).unwrap_or(usize::MAX);
                if tc < pc {
                    if tc > k {
                        scratch.push(target[ti]);
                    }
                    ti += 1;
                } else if pc < tc {
                    if pc > k {
                        scratch.push((pc, -factor * pivot_row[pi].1));
                    }
                    pi += 1;
                } else {
                    if tc > k {
                        let v = target[ti].1 - factor * pivot_row[pi].1;
                        if v != 0.0 {
                            scratch.push((tc, v));
                        }
                    }
                    ti += 1;
                    pi += 1;
                }
            }
            std::mem::swap(target, scratch);
        }
    }
    Ok(())
}

/// A recorded assembly: where each entry of a [`Triplets`] sequence
/// lands in the assembled, symmetrically permuted matrix, and in what
/// order duplicates are summed.
///
/// [`Triplets::assemble_into`] sorts every row and
/// [`SparseRows::permute_symmetric`] sorts it again. When only the
/// values change between calls — a Newton loop re-stamping the same
/// devices — both sorts arrange the entries identically every time, so
/// the plan records that arrangement once and [`AssemblyPlan::assemble`]
/// replays it as a gather after one integer compare of the sequence.
/// Each slot sums its duplicates left to right in the order the sort
/// left them, so the values are bitwise those of
/// `t.to_rows().permute_symmetric(order)`.
///
/// ```
/// use mtk_num::sparse::{AssemblyPlan, Triplets};
///
/// let mut t = Triplets::new(2);
/// t.add(1, 1, 2.0);
/// t.add(0, 1, 1.0);
/// t.add(1, 1, 0.5);
/// let order = [1, 0];
/// let mut plan = AssemblyPlan::new(&t, &order);
/// assert!(plan.assemble(&t));
/// assert_eq!(plan.matrix(), &t.to_rows().permute_symmetric(&order));
/// ```
#[derive(Debug, Clone)]
pub struct AssemblyPlan {
    /// The `(row, col)` sequence the plan was recorded for.
    at: Vec<(usize, usize)>,
    /// Triplet indices feeding each entry of `matrix`, in summation
    /// order; `gather_start[s]..gather_start[s + 1]` feeds entry `s`.
    gather: Vec<usize>,
    gather_start: Vec<usize>,
    /// The permuted pattern; [`AssemblyPlan::assemble`] rewrites its
    /// values.
    matrix: SparseRows,
}

impl AssemblyPlan {
    /// Records the plan for `t`'s `(row, col)` sequence under the
    /// symmetric permutation `order` (`order[k]` = original index placed
    /// at position `k`). Values in `t` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..t.n()`.
    pub fn new(t: &Triplets, order: &[usize]) -> AssemblyPlan {
        let n = t.n;
        let pos = inverse_permutation(order, n);
        // Tag every triplet with its index (exact in an f64 for any
        // realistic count) and sort the tags the way assembly sorts
        // values: each run of one column within a row is one assembled
        // entry, summed in run order.
        let (raw_start, raw) = group_rows(
            n,
            t.at.iter().enumerate().map(|(k, &(r, c))| (r, c, k as f64)),
        );
        let mut runs: Vec<&[(usize, f64)]> = Vec::new();
        let mut assembled = SparseRows {
            n,
            start: vec![0],
            cols: Vec::new(),
            vals: Vec::new(),
        };
        for r in 0..n {
            for run in raw[raw_start[r]..raw_start[r + 1]].chunk_by(|a, b| a.0 == b.0) {
                assembled.cols.push(run[0].0);
                assembled.vals.push(runs.len() as f64);
                runs.push(run);
            }
            assembled.start.push(assembled.cols.len());
        }
        // Permute the entry tags and read back which entry each permuted
        // slot holds.
        let mut matrix = assembled.permuted(&pos);
        let mut gather = Vec::with_capacity(t.len());
        let mut gather_start = Vec::with_capacity(matrix.nnz() + 1);
        gather_start.push(0);
        for v in &mut matrix.vals {
            gather.extend(runs[*v as usize].iter().map(|&(_, k)| k as usize));
            gather_start.push(gather.len());
            *v = 0.0;
        }
        AssemblyPlan {
            at: t.at.clone(),
            gather,
            gather_start,
            matrix,
        }
    }

    /// Writes `t`'s values into the permuted matrix when `t` has exactly
    /// the `(row, col)` sequence the plan was recorded for, and returns
    /// whether it did; on `false` nothing was written.
    pub fn assemble(&mut self, t: &Triplets) -> bool {
        if t.n != self.matrix.n || t.at != self.at {
            return false;
        }
        for (s, v) in self.matrix.vals.iter_mut().enumerate() {
            let feed = &self.gather[self.gather_start[s]..self.gather_start[s + 1]];
            let mut sum = t.values[feed[0]];
            for &k in &feed[1..] {
                sum += t.values[k];
            }
            *v = sum;
        }
        true
    }

    /// The permuted matrix holding the values of the last successful
    /// [`AssemblyPlan::assemble`] (zeros before the first).
    pub fn matrix(&self) -> &SparseRows {
        &self.matrix
    }
}

/// Reusable buffers for repeated factor-and-solve calls — the numeric
/// refactorization half of the sparse LU.
///
/// A Newton loop factors matrices with one sparsity pattern over and
/// over, and the partial-pivot choice almost never changes between
/// iterations. The workspace therefore records the pivot sequence and
/// the fill structure of its last full elimination, and the next
/// factorization of the same pattern *replays* them on flat index
/// arrays: no row merges, no binary searches, no allocation. Each
/// replayed step re-runs the pivot search rule as a check (largest
/// `|v|`, first in position order on ties) and tracks entries that
/// cancel to exactly zero the way the full elimination drops them. On
/// the first disagreement, or a pivot below the singular floor, the
/// call falls back to the full elimination on the original matrix and
/// records its sequence instead. Either way the result is
/// bitwise-identical to `a.clone().factor()?.solve(b)`.
///
/// ```
/// use mtk_num::sparse::{LuWorkspace, Triplets};
///
/// let mut t = Triplets::new(2);
/// t.add(0, 0, 2.0);
/// t.add(1, 1, 4.0);
/// let mut ws = LuWorkspace::new();
/// let mut x = Vec::new();
/// ws.factor_solve(&t.to_rows(), &[2.0, 8.0], &mut x).unwrap();
/// assert_eq!(x, vec![1.0, 2.0]);
/// ws.factor_solve(&t.to_rows(), &[4.0, 4.0], &mut x).unwrap();
/// assert_eq!(x, vec![2.0, 1.0]);
/// assert_eq!((ws.full_eliminations(), ws.replays()), (1, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace {
    /// Full-elimination buffers.
    rows: Vec<Vec<(usize, f64)>>,
    l_rows: Vec<Vec<(usize, f64)>>,
    row_of: Vec<usize>,
    scratch: Vec<(usize, f64)>,
    pivots: Vec<usize>,
    y: Vec<f64>,
    /// The last full elimination, replayed while its pattern and pivot
    /// sequence hold.
    replay: Option<Replay>,
    full_eliminations: usize,
    replays: usize,
}

impl LuWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        LuWorkspace::default()
    }

    /// Factorizations that ran the full pivoting elimination: the first
    /// for each pattern, and every one whose pivot choice departed from
    /// the recorded sequence.
    pub fn full_eliminations(&self) -> usize {
        self.full_eliminations
    }

    /// Factorizations served by replaying the recorded elimination.
    pub fn replays(&self) -> usize {
        self.replays
    }

    /// Factors `a` and solves `A x = b` in one pass, writing the solution
    /// into `x` (resized as needed). Bitwise-identical to
    /// `a.clone().factor()?.solve(b)`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] when `b.len() != a.n()`,
    /// and [`NumError::SingularMatrix`] when elimination hits an empty
    /// pivot column. The workspace stays reusable after either error.
    pub fn factor_solve(&mut self, a: &SparseRows, b: &[f64], x: &mut Vec<f64>) -> Result<()> {
        let n = a.n;
        if b.len() != n {
            return Err(NumError::DimensionMismatch {
                expected: n,
                actual: b.len(),
            });
        }
        if let Some(replay) = self.replay.as_mut().filter(|r| r.pattern.same_pattern(a)) {
            if replay.factor(&a.vals) {
                replay.solve(b, &mut self.y, x);
                self.replays += 1;
                return Ok(());
            }
        }

        self.full_eliminations += 1;
        a.copy_rows_into(&mut self.rows);
        if self.l_rows.len() < n {
            self.l_rows.resize_with(n, Vec::new);
        }
        for l in self.l_rows.iter_mut().take(n) {
            l.clear();
        }
        self.row_of.clear();
        self.row_of.extend(0..n);
        eliminate(
            n,
            &mut self.rows[..n],
            &mut self.l_rows[..n],
            &mut self.row_of,
            &mut self.scratch,
            &mut self.pivots,
        )?;
        let (rows, l_rows) = (&self.rows, &self.l_rows);
        substitute(
            &self.row_of,
            |i| l_rows[self.row_of[i]].as_slice(),
            |i| rows[self.row_of[i]].as_slice(),
            b,
            &mut self.y,
            x,
        );
        self.replay = Some(Replay::record(a, &self.pivots));
        Ok(())
    }
}

/// The pivot sequence and fill structure of one full elimination, laid
/// out as flat index arrays over numbered *slots*.
///
/// Every `(row, col)` position a row can ever hold under the recorded
/// pivot sequence — its original entries plus all fill a merge can
/// bring, as if no entry ever cancelled — owns one slot. A `present`
/// flag per slot tracks the entries the full elimination actually
/// holds, so an entry that cancels to exactly zero is dropped (and may
/// later be refilled) exactly as [`eliminate`] does it.
#[derive(Debug, Clone)]
struct Replay {
    /// The matrix pattern the record was made for (values unused).
    pattern: SparseRows,
    /// `row_of[k]` = original row at elimination position `k`.
    row_of: Vec<usize>,
    /// Slot of each input entry, parallel to the pattern's values.
    entry_slot: Vec<usize>,
    /// Pivot candidates of step `k` — the column-`k` slots of the rows
    /// at positions `>= k`, in position order — are
    /// `cand_slot[cand_start[k]..cand_start[k + 1]]`.
    cand_start: Vec<usize>,
    cand_slot: Vec<usize>,
    /// Index within step `k`'s candidates of the recorded pivot.
    pivot_pick: Vec<usize>,
    /// Eliminations of step `k` are `elim_start[k]..elim_start[k + 1]`;
    /// elimination `e` clears the target's column-`k` slot
    /// `elim_slot[e]` with multiplier `mult[e]` through the merge pairs
    /// `op_start[e]..op_start[e + 1]`.
    elim_start: Vec<usize>,
    elim_slot: Vec<usize>,
    op_start: Vec<usize>,
    /// Merge pairs `(pivot-row slot, target-row slot)` of one column.
    ops: Vec<(usize, usize)>,
    /// Forward substitution of position `i`: `(elimination, column)`
    /// pairs `fwd[fwd_start[i]..fwd_start[i + 1]]`, in step order.
    fwd_start: Vec<usize>,
    fwd: Vec<(usize, usize)>,
    /// Back substitution of position `i`: `(slot, column)` pairs of its
    /// U row with column `>= i`, ascending,
    /// `back[back_start[i]..back_start[i + 1]]`.
    back_start: Vec<usize>,
    back: Vec<(usize, usize)>,
    /// Numeric state, per slot and per elimination.
    val: Vec<f64>,
    present: Vec<bool>,
    mult: Vec<f64>,
    applied: Vec<bool>,
}

impl Replay {
    /// Builds the slot structure of the elimination of `a`'s pattern
    /// under the pivot sequence `pivots` (as [`eliminate`] records it).
    fn record(a: &SparseRows, pivots: &[usize]) -> Replay {
        let n = a.n;
        // Symbolic elimination: the union of every column each row can
        // ever hold.
        let mut cols: Vec<Vec<usize>> =
            (0..n).map(|r| a.row(r).map(|(c, _)| c).collect()).collect();
        let mut row_of: Vec<usize> = (0..n).collect();
        for (k, &p) in pivots.iter().enumerate() {
            row_of.swap(k, p);
            let fill: Vec<usize> = cols[row_of[k]].iter().copied().filter(|&c| c > k).collect();
            for &ri in &row_of[k + 1..] {
                if cols[ri].binary_search(&k).is_ok() {
                    cols[ri].extend_from_slice(&fill);
                    cols[ri].sort_unstable();
                    cols[ri].dedup();
                }
            }
        }
        // Slots: row by row, columns ascending.
        let mut slot_start = Vec::with_capacity(n + 1);
        slot_start.push(0);
        for c in &cols {
            slot_start.push(slot_start[slot_start.len() - 1] + c.len());
        }
        let slot = |r: usize, c: usize| -> usize {
            slot_start[r]
                + cols[r]
                    .binary_search(&c)
                    .expect("column is in the fill structure")
        };
        let entry_slot = a.entries().map(|(r, c, _)| slot(r, c)).collect();

        // Replay the pivot sequence over the final structure, emitting
        // the candidate, elimination and merge programs.
        let mut rep = Replay {
            pattern: a.clone(),
            row_of: (0..n).collect(),
            entry_slot,
            cand_start: vec![0],
            cand_slot: Vec::new(),
            pivot_pick: Vec::with_capacity(n),
            elim_start: vec![0],
            elim_slot: Vec::new(),
            op_start: vec![0],
            ops: Vec::new(),
            fwd_start: vec![0],
            fwd: Vec::new(),
            back_start: vec![0],
            back: Vec::new(),
            val: vec![0.0; slot_start[n]],
            present: vec![false; slot_start[n]],
            mult: Vec::new(),
            applied: Vec::new(),
        };
        let mut fwd_of_row: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (k, &p) in pivots.iter().enumerate() {
            let mut pick = usize::MAX;
            for (pos, &ri) in rep.row_of.iter().enumerate().skip(k) {
                if cols[ri].binary_search(&k).is_ok() {
                    if pos == p {
                        pick = rep.cand_slot.len() - rep.cand_start[k];
                    }
                    rep.cand_slot.push(slot(ri, k));
                }
            }
            rep.cand_start.push(rep.cand_slot.len());
            rep.pivot_pick.push(pick);
            rep.row_of.swap(k, p);
            let pr = rep.row_of[k];
            let pivot_cols: Vec<usize> = cols[pr].iter().copied().filter(|&c| c > k).collect();
            for &ri in &rep.row_of[k + 1..] {
                if cols[ri].binary_search(&k).is_err() {
                    continue;
                }
                fwd_of_row[ri].push((rep.elim_slot.len(), k));
                rep.elim_slot.push(slot(ri, k));
                rep.ops
                    .extend(pivot_cols.iter().map(|&c| (slot(pr, c), slot(ri, c))));
                rep.op_start.push(rep.ops.len());
            }
            rep.elim_start.push(rep.elim_slot.len());
        }
        for (i, &ri) in rep.row_of.iter().enumerate() {
            rep.fwd.extend_from_slice(&fwd_of_row[ri]);
            rep.fwd_start.push(rep.fwd.len());
            rep.back.extend(
                cols[ri]
                    .iter()
                    .filter(|&&c| c >= i)
                    .map(|&c| (slot(ri, c), c)),
            );
            rep.back_start.push(rep.back.len());
        }
        rep.mult = vec![0.0; rep.elim_slot.len()];
        rep.applied = vec![false; rep.elim_slot.len()];
        rep
    }

    /// Replays the recorded elimination on `vals` (parallel to the
    /// recorded pattern). Returns `false` — leaving nothing the caller
    /// relies on — as soon as a step's pivot search disagrees with the
    /// record or its pivot falls below the singular floor.
    fn factor(&mut self, vals: &[f64]) -> bool {
        let Replay {
            val,
            present,
            mult,
            applied,
            ..
        } = self;
        present.fill(false);
        for (&s, &v) in self.entry_slot.iter().zip(vals) {
            val[s] = v;
            present[s] = true;
        }
        for k in 0..self.pivot_pick.len() {
            // The pivot check: the same search eliminate() runs.
            let cands = &self.cand_slot[self.cand_start[k]..self.cand_start[k + 1]];
            let mut pick = usize::MAX;
            let mut mag = 0.0f64;
            for (j, &s) in cands.iter().enumerate() {
                if present[s] && val[s].abs() > mag {
                    mag = val[s].abs();
                    pick = j;
                }
            }
            if pick != self.pivot_pick[k] || mag < PIVOT_FLOOR {
                return false;
            }
            let pivot_val = val[cands[pick]];
            for e in self.elim_start[k]..self.elim_start[k + 1] {
                let ts = self.elim_slot[e];
                applied[e] = present[ts];
                if !present[ts] {
                    continue;
                }
                let factor = val[ts] / pivot_val;
                mult[e] = factor;
                present[ts] = false;
                for &(ps, t) in &self.ops[self.op_start[e]..self.op_start[e + 1]] {
                    if !present[ps] {
                        continue;
                    }
                    if present[t] {
                        let v = val[t] - factor * val[ps];
                        if v != 0.0 {
                            val[t] = v;
                        } else {
                            present[t] = false;
                        }
                    } else {
                        val[t] = -factor * val[ps];
                        present[t] = true;
                    }
                }
            }
        }
        true
    }

    /// Forward and back substitution through the replayed factors, in
    /// exactly [`substitute`]'s order.
    fn solve(&self, b: &[f64], y: &mut Vec<f64>, x: &mut Vec<f64>) {
        let n = self.row_of.len();
        y.clear();
        y.extend(self.row_of.iter().map(|&r| b[r]));
        for i in 0..n {
            let mut s = y[i];
            for &(e, col) in &self.fwd[self.fwd_start[i]..self.fwd_start[i + 1]] {
                if self.applied[e] {
                    s -= self.mult[e] * y[col];
                }
            }
            y[i] = s;
        }
        x.clear();
        x.resize(n, 0.0);
        for i in (0..n).rev() {
            let mut s = y[i];
            let mut diag = 0.0;
            for &(slot, c) in &self.back[self.back_start[i]..self.back_start[i + 1]] {
                if !self.present[slot] {
                    continue;
                }
                if c == i {
                    diag = self.val[slot];
                } else {
                    s -= self.val[slot] * x[c];
                }
            }
            debug_assert!(diag != 0.0, "zero diagonal slipped through the replay");
            x[i] = s / diag;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::prng::Xoshiro256pp;

    /// Random `(row, col, value)` entries for the randomized solver
    /// checks, mirroring the old property-test strategy.
    fn random_entries(
        rng: &mut Xoshiro256pp,
        dim: usize,
        max_len: usize,
    ) -> Vec<(usize, usize, f64)> {
        let len = 1 + rng.next_index(max_len);
        (0..len)
            .map(|_| {
                (
                    rng.next_index(dim),
                    rng.next_index(dim),
                    rng.next_f64_in(-2.0, 2.0),
                )
            })
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn diagonal_solve() {
        let mut t = Triplets::new(3);
        for i in 0..3 {
            t.add(i, i, (i + 1) as f64);
        }
        let x = t.factor().unwrap().solve(&[1.0, 4.0, 9.0]).unwrap();
        assert_close(&x, &[1.0, 2.0, 3.0], 1e-14);
    }

    #[test]
    fn duplicates_accumulate() {
        let mut t = Triplets::new(1);
        t.add(0, 0, 1.5);
        t.add(0, 0, 2.5);
        let rows = t.to_rows();
        assert_eq!(rows.get(0, 0), 4.0);
        assert_eq!(rows.nnz(), 1);
    }

    #[test]
    fn zero_adds_are_kept_structurally() {
        let mut t = Triplets::new(2);
        t.add(0, 1, 0.0);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
        let rows = t.to_rows();
        assert_eq!(rows.nnz(), 1, "exact zeros stay in the pattern");
        assert_eq!(rows.get(0, 1), 0.0);
    }

    /// Regression test for the pattern-instability bug: a conditional
    /// stamp whose conductance crosses zero (cutoff ↔ conducting) must
    /// not change the assembled sparsity pattern between Newton
    /// iterations, or a cached pivot order would silently be applied to
    /// a different structure.
    #[test]
    fn pattern_is_stable_when_a_stamp_crosses_zero() {
        let stamp = |g: f64| {
            let mut t = Triplets::new(3);
            // Fixed background stamps.
            t.add(0, 0, 1.0);
            t.add(1, 1, 2.0);
            t.add(2, 2, 3.0);
            // A device stamp between nodes 1 and 2 whose conductance is
            // re-evaluated every iteration and may be exactly 0.0. The
            // accumulated (1,1)/(2,2) diagonals also stay structurally
            // identical whether or not g cancels.
            t.add(1, 1, g);
            t.add(1, 2, -g);
            t.add(2, 1, -g);
            t.add(2, 2, g);
            t.to_rows()
        };
        let cutoff = stamp(0.0);
        let conducting = stamp(0.5);
        assert!(
            cutoff.same_pattern(&conducting),
            "zero-valued stamp changed the sparsity pattern"
        );
        assert_eq!(cutoff.nnz(), conducting.nnz());
        // The zero-crossing iteration still factors and solves.
        let x = cutoff.factor().unwrap().solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_close(&x, &[1.0, 1.0, 1.0], 1e-14);
    }

    /// The reusable workspace must be *bitwise* identical to the
    /// allocate-per-call `factor()` + `solve()` path, across repeated
    /// uses and dimension changes, and stay usable after a singular
    /// matrix is rejected.
    #[test]
    fn workspace_factor_solve_matches_factor_then_solve() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x5A03);
        let mut ws = LuWorkspace::new();
        let mut x_ws = Vec::new();
        for _ in 0..64 {
            let n = 2 + rng.next_index(10);
            let seed_entries = random_entries(&mut rng, 12, 59);
            let mut t = Triplets::new(n);
            let mut row_abs = vec![0.0f64; n];
            for &(r, c, v) in &seed_entries {
                let (r, c) = (r % n, c % n);
                if r != c {
                    t.add(r, c, v);
                    row_abs[r] += v.abs();
                }
            }
            for (i, &ra) in row_abs.iter().enumerate().take(n) {
                t.add(i, i, ra + 1.0);
            }
            let b: Vec<f64> = (0..n).map(|_| rng.next_f64_in(-10.0, 10.0)).collect();
            let rows = t.to_rows();
            let x_lu = rows.clone().factor().unwrap().solve(&b).unwrap();
            ws.factor_solve(&rows, &b, &mut x_ws).unwrap();
            assert_eq!(x_ws, x_lu, "workspace drifted from factor()+solve()");
        }
        // Singular rejection leaves the workspace reusable.
        let mut sing = Triplets::new(2);
        sing.add(0, 0, 1.0);
        assert!(matches!(
            ws.factor_solve(&sing.to_rows(), &[1.0, 1.0], &mut x_ws),
            Err(NumError::SingularMatrix { step: 1 })
        ));
        let mut ok = Triplets::new(2);
        ok.add(0, 0, 2.0);
        ok.add(1, 1, 2.0);
        ws.factor_solve(&ok.to_rows(), &[2.0, 4.0], &mut x_ws)
            .unwrap();
        assert_eq!(x_ws, vec![1.0, 2.0]);
    }

    #[test]
    fn pivoting_handles_zero_leading_diagonal() {
        // [[0, 1], [1, 0]] — requires a swap.
        let mut t = Triplets::new(2);
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        let x = t.factor().unwrap().solve(&[3.0, 7.0]).unwrap();
        assert_close(&x, &[7.0, 3.0], 1e-14);
    }

    #[test]
    fn singular_is_detected() {
        let mut t = Triplets::new(2);
        t.add(0, 0, 1.0);
        t.add(0, 1, 2.0);
        t.add(1, 0, 2.0);
        t.add(1, 1, 4.0);
        match t.factor() {
            Err(NumError::SingularMatrix { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn structurally_empty_column_is_singular() {
        let mut t = Triplets::new(2);
        t.add(0, 0, 1.0);
        // Column/row 1 never stamped.
        assert!(matches!(
            t.factor(),
            Err(NumError::SingularMatrix { step: 1 })
        ));
    }

    #[test]
    fn fill_in_is_handled() {
        // Arrow matrix: dense last row/col, diagonal elsewhere. Eliminating
        // in natural order creates fill in the last row.
        let n = 8;
        let mut t = Triplets::new(n);
        for i in 0..n - 1 {
            t.add(i, i, 2.0);
            t.add(i, n - 1, 1.0);
            t.add(n - 1, i, 1.0);
        }
        t.add(n - 1, n - 1, 10.0);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 3.0).collect();
        let b = t.mul_vec(&x_true).unwrap();
        let x = t.factor().unwrap().solve(&b).unwrap();
        assert_close(&x, &x_true, 1e-10);
    }

    #[test]
    fn permute_symmetric_roundtrip_values() {
        let mut t = Triplets::new(3);
        t.add(0, 2, 5.0);
        t.add(1, 1, 2.0);
        t.add(2, 0, -1.0);
        let rows = t.to_rows();
        let order = vec![2, 0, 1]; // original 2 -> pos 0, 0 -> pos 1, 1 -> pos 2
        let p = rows.permute_symmetric(&order);
        assert_eq!(p.get(1, 0), 5.0); // was (0, 2)
        assert_eq!(p.get(2, 2), 2.0); // was (1, 1)
        assert_eq!(p.get(0, 1), -1.0); // was (2, 0)
    }

    #[test]
    fn symmetric_adjacency_unions_pattern() {
        let mut t = Triplets::new(3);
        t.add(0, 1, 1.0);
        t.add(2, 0, 1.0);
        let adj = t.to_rows().symmetric_adjacency();
        assert_eq!(adj[0], vec![1, 2]);
        assert_eq!(adj[1], vec![0]);
        assert_eq!(adj[2], vec![0]);
    }

    #[test]
    fn rhs_dimension_checked() {
        let mut t = Triplets::new(2);
        t.add(0, 0, 1.0);
        t.add(1, 1, 1.0);
        let lu = t.factor().unwrap();
        assert!(lu.solve(&[1.0]).is_err());
        assert!(t.mul_vec(&[1.0, 2.0, 3.0]).is_err());
    }

    /// Sparse LU must agree with dense LU on random diagonally
    /// dominant systems (which are always nonsingular).
    #[test]
    fn sparse_matches_dense() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x5A01);
        for _ in 0..64 {
            let n = 2 + rng.next_index(10);
            let seed_entries = random_entries(&mut rng, 12, 59);
            let mut t = Triplets::new(n);
            let mut dense = DenseMatrix::zeros(n);
            let mut row_abs = vec![0.0f64; n];
            for &(r, c, v) in &seed_entries {
                let (r, c) = (r % n, c % n);
                if r != c {
                    t.add(r, c, v);
                    dense.add(r, c, v);
                    row_abs[r] += v.abs();
                }
            }
            for (i, &ra) in row_abs.iter().enumerate().take(n) {
                let d = ra + 1.0;
                t.add(i, i, d);
                dense.add(i, i, d);
            }
            let b: Vec<f64> = (0..n).map(|_| rng.next_f64_in(-10.0, 10.0)).collect();
            let xs = t.factor().unwrap().solve(&b).unwrap();
            let xd = dense.factor().unwrap().solve(&b).unwrap();
            for (a, bb) in xs.iter().zip(&xd) {
                assert!((a - bb).abs() < 1e-8, "{xs:?} vs {xd:?}");
            }
        }
    }

    /// A x should reproduce b for the solved x (residual check).
    #[test]
    fn solve_residual_is_small() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x5A02);
        for _ in 0..64 {
            let n = 2 + rng.next_index(8);
            let seed_entries = random_entries(&mut rng, 10, 39);
            let mut t = Triplets::new(n);
            let mut row_abs = vec![0.0f64; n];
            for &(r, c, v) in &seed_entries {
                let (r, c) = (r % n, c % n);
                if r != c {
                    t.add(r, c, v);
                    row_abs[r] += v.abs();
                }
            }
            for (i, &ra) in row_abs.iter().enumerate().take(n) {
                t.add(i, i, ra + 1.0);
            }
            let b: Vec<f64> = (0..n).map(|_| rng.next_f64_in(-5.0, 5.0)).collect();
            let x = t.factor().unwrap().solve(&b).unwrap();
            let ax = t.mul_vec(&x).unwrap();
            for (a, bb) in ax.iter().zip(&b) {
                assert!((a - bb).abs() < 1e-8);
            }
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// One triplet per `(row, col)` of `pattern`, valued by `value`.
    fn with_values(
        n: usize,
        pattern: &[(usize, usize)],
        mut value: impl FnMut(usize, usize) -> f64,
    ) -> SparseRows {
        let mut t = Triplets::new(n);
        for &(r, c) in pattern {
            t.add(r, c, value(r, c));
        }
        t.to_rows()
    }

    /// The workspace result — replayed or not — against the reference
    /// `factor()` + `solve()`, bit for bit, errors included.
    fn check_against_reference(ws: &mut LuWorkspace, a: &SparseRows, b: &[f64]) -> Result<()> {
        let reference = a.clone().factor().and_then(|lu| lu.solve(b));
        let mut x = Vec::new();
        let got = ws.factor_solve(a, b, &mut x).map(|()| x);
        match (&got, &reference) {
            (Ok(g), Ok(r)) => assert_eq!(bits(g), bits(r), "replay drifted: {g:?} vs {r:?}"),
            (g, r) => assert_eq!(g, r),
        }
        got.map(|_| ())
    }

    /// Seeded property: over random patterns, each refactored with a
    /// run of value sets, the workspace must match the reference
    /// bitwise. Small-integer values make exact cancellation, pivot
    /// ties, pivot-order changes and singular matrices common; the
    /// counters prove every path was exercised.
    #[test]
    fn replay_matches_factor_then_solve_bitwise() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x5A04);
        let mut ws = LuWorkspace::new();
        let (mut singular, mut factorizations) = (0, 0);
        for _ in 0..300 {
            let n = 2 + rng.next_index(8);
            let mut pattern: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
            for _ in 0..rng.next_index(3 * n) {
                let at = (rng.next_index(n), rng.next_index(n));
                if !pattern.contains(&at) {
                    pattern.push(at);
                }
            }
            for _ in 0..6 {
                let integers = rng.next_index(3) != 0;
                let dominant = rng.next_index(2) == 0;
                let a = with_values(n, &pattern, |r, c| {
                    let v = if integers {
                        [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0][rng.next_index(6)]
                    } else {
                        rng.next_f64_in(-2.0, 2.0)
                    };
                    if dominant && r == c {
                        v + 4.0 * n as f64
                    } else {
                        v
                    }
                });
                let b: Vec<f64> = (0..n).map(|_| rng.next_f64_in(-3.0, 3.0)).collect();
                factorizations += 1;
                if check_against_reference(&mut ws, &a, &b).is_err() {
                    singular += 1;
                }
            }
        }
        assert!(singular > 0, "no singular matrix was drawn");
        assert!(ws.replays() > factorizations / 4, "replay rarely ran");
        assert!(
            ws.full_eliminations() > 300,
            "no pivot change forced a fallback"
        );
        assert_eq!(ws.replays() + ws.full_eliminations(), factorizations);
    }

    /// An entry that cancels to exactly zero is dropped by the full
    /// elimination and may be refilled by a later merge; a replay
    /// recorded without the cancellation (or with it) must track both.
    #[test]
    fn replay_tracks_exact_cancellation_and_refill() {
        // Step 0 merges row 0 into row 2: (2, 3) = x − 0.125·1, which is
        // exactly zero at x = 0.125. Step 1 refills (2, 3) from row 1.
        let pattern = [
            (0, 0),
            (0, 3),
            (1, 1),
            (1, 3),
            (2, 0),
            (2, 1),
            (2, 2),
            (2, 3),
            (3, 2),
            (3, 3),
        ];
        let matrix = |x: f64| {
            with_values(4, &pattern, |r, c| match (r, c) {
                (2, 3) => x,
                (0, 3) | (1, 3) | (2, 0) | (2, 1) | (3, 2) => 1.0,
                _ => 8.0,
            })
        };
        let b = [1.0, -2.0, 3.0, 0.5];
        for (record, replay) in [(0.5, 0.125), (0.125, 0.5)] {
            let mut ws = LuWorkspace::new();
            check_against_reference(&mut ws, &matrix(record), &b).unwrap();
            check_against_reference(&mut ws, &matrix(replay), &b).unwrap();
            assert_eq!((ws.full_eliminations(), ws.replays()), (1, 1));
        }
        // Without a later refill the cancelled entry stays out of U.
        let pattern = [
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, 1),
            (2, 2),
        ];
        let matrix = |x: f64| {
            with_values(3, &pattern, |r, c| {
                [[4.0, 1.0, x], [2.0, 3.0, 1.0], [0.0, 1.0, 5.0]][r][c]
            })
        };
        let u_nnz = |x: f64| matrix(x).factor().unwrap().u_nnz();
        assert!(u_nnz(2.0) < u_nnz(1.0), "(1, 2) = 1 − 0.5·2 must cancel");
        // y₁ = −0 and x₂ < 0: a cancelled (1, 2) kept as an explicit zero
        // would turn x₁ = −0 / 2.5 into +0, so the bits see the drop.
        let b = [0.0, -0.0, -1.0];
        for (record, replay) in [(1.0, 2.0), (2.0, 1.0)] {
            let mut ws = LuWorkspace::new();
            check_against_reference(&mut ws, &matrix(record), &b).unwrap();
            check_against_reference(&mut ws, &matrix(replay), &b).unwrap();
            assert_eq!((ws.full_eliminations(), ws.replays()), (1, 1));
        }
    }

    /// A pivot-order change between two calls falls back to the full
    /// elimination, records the new order, and replays that one next.
    #[test]
    fn replay_falls_back_when_the_pivot_order_changes() {
        let pattern = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let low_first = with_values(2, &pattern, |r, c| [[1.0, 2.0], [3.0, 4.0]][r][c]);
        let high_first = with_values(2, &pattern, |r, c| [[3.0, 2.0], [1.0, 4.0]][r][c]);
        let b = [1.0, 1.0];
        let mut ws = LuWorkspace::new();
        for a in [&low_first, &high_first, &high_first, &low_first] {
            check_against_reference(&mut ws, a, &b).unwrap();
        }
        assert_eq!((ws.full_eliminations(), ws.replays()), (3, 1));
    }

    /// A singular matrix met during replay reports the same
    /// `SingularMatrix { step }` as the reference, and the workspace
    /// keeps its record for the next call.
    #[test]
    fn replay_reports_singular_like_factor() {
        let pattern = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let regular = with_values(2, &pattern, |r, c| [[1.0, 2.0], [3.0, 4.0]][r][c]);
        let singular = with_values(2, &pattern, |r, c| [[1.0, 2.0], [2.0, 4.0]][r][c]);
        let b = [1.0, 2.0];
        let mut ws = LuWorkspace::new();
        check_against_reference(&mut ws, &regular, &b).unwrap();
        assert_eq!(
            check_against_reference(&mut ws, &singular, &b),
            Err(NumError::SingularMatrix { step: 1 })
        );
        check_against_reference(&mut ws, &regular, &b).unwrap();
        assert_eq!((ws.full_eliminations(), ws.replays()), (2, 1));
    }

    /// The assembly plan gathers values bitwise like
    /// `to_rows().permute_symmetric()`, including the summation order of
    /// long duplicate runs (where order changes the rounding) and signed
    /// zeros.
    #[test]
    fn assembly_plan_matches_assemble_then_permute() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x5A05);
        for _ in 0..40 {
            let n = 1 + rng.next_index(12);
            let len = 1 + rng.next_index(120);
            let at: Vec<(usize, usize)> = (0..len)
                .map(|_| (rng.next_index(n), rng.next_index(n.min(3))))
                .collect();
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.next_index(i + 1));
            }
            let mut t = Triplets::new(n);
            let mut plan = None;
            for _ in 0..3 {
                t.clear();
                for &(r, c) in &at {
                    let v = match rng.next_index(4) {
                        0 => [0.0, -0.0, 1e16, -1e16][rng.next_index(4)],
                        _ => rng.next_f64_in(-1.0, 1.0),
                    };
                    t.add(r, c, v);
                }
                let plan = plan.get_or_insert_with(|| AssemblyPlan::new(&t, &order));
                assert!(plan.assemble(&t));
                let want = t.to_rows().permute_symmetric(&order);
                assert!(plan.matrix().same_pattern(&want));
                assert_eq!(bits(&plan.matrix().vals), bits(&want.vals));
            }
            let mut other = Triplets::new(n);
            other.add(0, 0, 1.0);
            assert_eq!(plan.unwrap().assemble(&other), at == [(0, 0)]);
        }
    }
}
