//! Sparse propagation operators.
//!
//! GNN layers only ever *multiply* by the (normalised) adjacency, so the
//! operator does not need to be materialised. [`Propagator`] is either a
//! materialised CSR matrix or a **lazily extended block operator**
//!
//! ```text
//! [[ base, incᵀ ],
//!  [ inc,  inter ]]
//! ```
//!
//! with normalisation applied on the fly. The lazy form makes per-batch
//! inductive inference O(nnz(inc) + nnz(inter) + n·d) instead of copying
//! the entire base graph into a new CSR per batch (Eq. 3/11 deployments
//! re-attach a fresh batch to the same base graph every call).
//!
//! # Receptive-field serving
//!
//! Serving only needs the `n` inductive output rows of an `L`-step
//! propagation, and those read only the request's **receptive field** in
//! the base graph. [`ReceptiveField`] builds, per request, the nested sets
//! `S_{P-1} ⊆ … ⊆ S_0` of base rows the logits depend on — `S_{P-1}` is
//! the set of base columns of the attachment block, and every earlier set
//! adds one hop of base neighbours ([`hop_closures`]) — together with
//! local CSR blocks `base[S_k, S_{k-1}]` and `inc[:, S_k]` whose columns
//! are relabelled monotonically (the sets are sorted). Step `k` of the
//! forward pass then maps base activations on `S_{k-1}` plus all `n` new
//! rows to base activations on `S_k` plus the new rows
//! ([`ReceptiveField::split`]); the last step produces only the new rows
//! ([`ReceptiveField::bottom`]).
//!
//! Each local row holds the same entries in the same order as the full
//! row it was cut from, and the SpMM kernels accumulate every output row
//! in source-position order, so every computed row is **bitwise
//! identical** to the same row of the full extended product
//! ([`Propagator::spmm`]) at any thread count and SIMD tier. A request
//! costs `O(Σ_k nnz(base rows of S_k)·d + n·d)` instead of `O(N'·d)` per
//! layer; when a set covers the whole base (small condensed bases) the
//! base CSR is used as-is, without a copy.
//!
//! The base graph's degree sums never change between requests;
//! [`BaseDegrees`] captures them once so per-request normalisation only
//! folds in the incremental/interconnect mass — and only for the rows of
//! `S_0`.
//!
//! # SIMD levels
//!
//! Propagation is built entirely on the SpMM kernels, which are **bitwise
//! identical at every `MCOND_SIMD` level** (lane-widened multiply-then-add,
//! same order — see `mcond_sparse`'s module docs). Served logits therefore
//! only depend on the SIMD level through the *dense* head matmuls, whose
//! FMA tiers regroup additions; a deployment that must reproduce archived
//! logits exactly pins `MCOND_SIMD` rather than the propagation path.

use mcond_linalg::DMat;
use mcond_sparse::Csr;
use std::borrow::Cow;
use std::sync::Arc;

/// Per-node weighted degree sums of a fixed base graph, computed once and
/// shared across every request served against that graph.
///
/// `sym` includes the GCN self-loop (`1 + Σ_j w_ij`), `mean` does not
/// (`Σ_j w_ij`). The accumulation order matches what
/// [`Propagator::extended_sym`] / [`Propagator::extended_mean`] would
/// compute from scratch, so operators built via the `_with` constructors
/// are bitwise identical to the direct ones.
pub struct BaseDegrees {
    /// `1 + row mass` per base node (symmetric kernel, self-loop included).
    pub sym: Vec<f32>,
    /// `row mass` per base node (mean kernel, no self-loop).
    pub mean: Vec<f32>,
}

impl BaseDegrees {
    /// Accumulates both degree vectors in one pass over `base`.
    #[must_use]
    pub fn of(base: &Csr) -> Self {
        let n = base.rows();
        let mut sym = vec![1.0f32; n];
        let mut mean = vec![0.0f32; n];
        for (i, _, v) in base.iter() {
            sym[i] += v;
            mean[i] += v;
        }
        Self { sym, mean }
    }

    /// Folds a promotion's edge mass into the degree sums **in place**,
    /// in `O(nnz(attach) + nnz(inter))` instead of re-summing the whole
    /// base: `attach` is the `n x N` bottom-left block being appended to
    /// the base (its mirror extends the old rows) and `inter` the `n x n`
    /// block among the appended nodes.
    ///
    /// Because `Csr::block_extend` appends the mirrored columns *after*
    /// each old row's existing entries and the new rows' entries in
    /// `attach`-then-`inter` slice order, this accumulation visits values
    /// in exactly the order [`BaseDegrees::of`] would on the extended
    /// matrix — the update is **bitwise identical** to a from-scratch
    /// recompute.
    ///
    /// # Panics
    /// Panics when the block shapes disagree with the current base size.
    pub fn extend_for_promotion(&mut self, attach: &Csr, inter: &Csr) {
        let n_old = self.sym.len();
        assert_eq!(attach.cols(), n_old, "extend_for_promotion: attach columns");
        assert_eq!(inter.rows(), attach.rows(), "extend_for_promotion: inter rows");
        assert_eq!(inter.cols(), attach.rows(), "extend_for_promotion: inter must be square");
        // Old rows: the mirrored top-right entries, visited in the same
        // (ascending new-row) order block_extend appends their columns.
        for (_, j, v) in attach.iter() {
            self.sym[j] += v;
            self.mean[j] += v;
        }
        // New rows: attach mass first, then interconnect mass.
        for i in 0..attach.rows() {
            let mut s = 1.0f32;
            let mut m = 0.0f32;
            for &v in attach.row_vals(i) {
                s += v;
                m += v;
            }
            for &v in inter.row_vals(i) {
                s += v;
                m += v;
            }
            self.sym.push(s);
            self.mean.push(m);
        }
    }
}

/// The lazy extension payload: borrowed base graph + incremental blocks +
/// precomputed normalisation vectors, split base-side / new-side.
///
/// Borrowing (instead of owning `Arc`s) is what makes the serving fast
/// path zero-copy: a request's `inc`/`inter` blocks are used in place and
/// the base graph is shared by reference for the lifetime of the forward
/// pass.
pub struct Extension<'a> {
    base: &'a Csr,
    inc: &'a Csr,
    inter: &'a Csr,
    /// Per-node scale for base rows: `1/sqrt(d̃)` (symmetric kernel,
    /// applied before and after the raw product) or `1/d` (mean kernel,
    /// applied after). Length `base.rows()`.
    scale_base: Vec<f32>,
    /// Same, for the new (inductive) rows. Length `inc.rows()`.
    scale_new: Vec<f32>,
    /// Whether a self-loop term (`+ x_i`) is part of the raw product
    /// (symmetric GCN kernel) or not (mean kernel).
    self_loop: bool,
}

impl Extension<'_> {
    /// Normalised block product `[top; bottom] = K_ext · [x_base; x_new]`,
    /// returned as its two row blocks.
    fn product(&self, x_base: &DMat, x_new: &DMat) -> (DMat, DMat) {
        // Symmetric kernel: scale, raw product, scale. Mean kernel: raw
        // product, then reciprocal-degree scale.
        let (xb, xn) = if self.self_loop {
            let xb = x_base.scale_rows(&self.scale_base);
            (Cow::Owned(xb), Cow::Owned(x_new.scale_rows(&self.scale_new)))
        } else {
            (Cow::Borrowed(x_base), Cow::Borrowed(x_new))
        };
        // Top block: base·x_base + incᵀ·x_new (+ x_base).
        let mut top = self.base.spmm(&xb);
        top.add_assign(&self.inc.spmm_t(&xn));
        // Bottom block: inc·x_base + inter·x_new (+ x_new).
        let mut bottom = self.inc.spmm(&xb);
        bottom.add_assign(&self.inter.spmm(&xn));
        if self.self_loop {
            top.add_assign(&xb);
            bottom.add_assign(&xn);
        }
        top.scale_rows_assign(&self.scale_base);
        bottom.scale_rows_assign(&self.scale_new);
        (top, bottom)
    }
}

/// A multiply-only view of a (normalised) adjacency.
pub enum Propagator<'a> {
    /// Materialised sparse matrix.
    Matrix(Arc<Csr>),
    /// Lazily extended block operator (symmetric kernel:
    /// `D̃^{-1/2} Ã_ext D̃^{-1/2}`; mean kernel: `D^{-1} A_ext`).
    Extended(Box<Extension<'a>>),
}

impl<'a> Propagator<'a> {
    /// Number of rows (= columns) of the square operator.
    #[must_use]
    pub fn rows(&self) -> usize {
        match self {
            Propagator::Matrix(m) => m.rows(),
            Propagator::Extended(e) => e.base.rows() + e.inc.rows(),
        }
    }

    /// `self · x`, over every row of the operator — for the extended form
    /// this is the full-width reference the receptive-field serving path
    /// ([`ReceptiveField`]) is verified against.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn spmm(&self, x: &DMat) -> DMat {
        match self {
            Propagator::Matrix(m) => m.spmm(x),
            Propagator::Extended(e) => {
                assert_eq!(x.rows(), self.rows(), "Propagator::spmm: row mismatch");
                let n_base = e.base.rows();
                let x_base = x.slice_rows(0, n_base);
                let x_new = x.slice_rows(n_base, x.rows());
                let (top, bottom) = e.product(&x_base, &x_new);
                top.vstack(&bottom)
            }
        }
    }

    /// The materialised CSR handle, for recording `Tape::spmm` ops during
    /// training.
    ///
    /// # Panics
    /// Panics for extended operators — materialise the extension first
    /// (training always runs on a fixed graph; the lazy form is an
    /// inference-serving optimisation).
    #[must_use]
    pub fn csr(&self) -> Arc<Csr> {
        match self {
            Propagator::Matrix(m) => Arc::clone(m),
            Propagator::Extended(_) => panic!(
                "Propagator::csr: extended operators cannot be recorded on a tape; \
                 materialise the extended graph for training"
            ),
        }
    }

    /// Builds the **symmetric GCN kernel** of the extended graph without
    /// materialising it: `D̃^{-1/2}(Ã_ext)D̃^{-1/2}` with self-loops, where
    /// the extension is `[[base, incᵀ], [inc, inter]]`.
    ///
    /// # Panics
    /// Panics on inconsistent block shapes.
    #[must_use]
    pub fn extended_sym(base: &'a Csr, inc: &'a Csr, inter: &'a Csr) -> Self {
        Self::extended_sym_with(base, inc, inter, &BaseDegrees::of(base))
    }

    /// [`extended_sym`](Self::extended_sym) with the base-graph degree
    /// sums supplied by the caller ([`BaseDegrees::of`], computed once per
    /// server instead of once per request). Bitwise identical to the
    /// direct constructor.
    ///
    /// # Panics
    /// Panics on inconsistent block shapes or a `deg` of the wrong length.
    #[must_use]
    pub fn extended_sym_with(
        base: &'a Csr,
        inc: &'a Csr,
        inter: &'a Csr,
        deg: &BaseDegrees,
    ) -> Self {
        let (n_base, n_new) = check_blocks(base, inc, inter);
        assert_eq!(deg.sym.len(), n_base, "extended_sym_with: degree length mismatch");
        // Degrees of Ã_ext (self-loop included): base sums are shared, the
        // request only folds in its incremental/interconnect mass — in the
        // same order the from-scratch accumulation would.
        let mut deg_base = deg.sym.clone();
        let mut deg_new = vec![1.0f32; n_new];
        for (bi, bj, v) in inc.iter() {
            deg_new[bi] += v; // row of the bottom-left block
            deg_base[bj] += v; // mirrored into the top-right block
        }
        for (bi, _, v) in inter.iter() {
            deg_new[bi] += v;
        }
        Propagator::Extended(Box::new(Extension {
            base,
            inc,
            inter,
            scale_base: deg_base.iter().map(inv_sqrt).collect(),
            scale_new: deg_new.iter().map(inv_sqrt).collect(),
            self_loop: true,
        }))
    }

    /// Builds the **mean (row-stochastic) kernel** of the extended graph:
    /// `D^{-1} A_ext`, no self-loops.
    ///
    /// # Panics
    /// Panics on inconsistent block shapes.
    #[must_use]
    pub fn extended_mean(base: &'a Csr, inc: &'a Csr, inter: &'a Csr) -> Self {
        Self::extended_mean_with(base, inc, inter, &BaseDegrees::of(base))
    }

    /// [`extended_mean`](Self::extended_mean) with shared base-graph
    /// degree sums; bitwise identical to the direct constructor.
    ///
    /// # Panics
    /// Panics on inconsistent block shapes or a `deg` of the wrong length.
    #[must_use]
    pub fn extended_mean_with(
        base: &'a Csr,
        inc: &'a Csr,
        inter: &'a Csr,
        deg: &BaseDegrees,
    ) -> Self {
        let (n_base, n_new) = check_blocks(base, inc, inter);
        assert_eq!(deg.mean.len(), n_base, "extended_mean_with: degree length mismatch");
        let mut deg_base = deg.mean.clone();
        let mut deg_new = vec![0.0f32; n_new];
        for (bi, bj, v) in inc.iter() {
            deg_new[bi] += v;
            deg_base[bj] += v;
        }
        for (bi, _, v) in inter.iter() {
            deg_new[bi] += v;
        }
        Propagator::Extended(Box::new(Extension {
            base,
            inc,
            inter,
            scale_base: deg_base.iter().map(inv).collect(),
            scale_new: deg_new.iter().map(inv).collect(),
            self_loop: false,
        }))
    }
}

/// Nested hop closures of `seeds` in the square adjacency `adj`.
///
/// `out[0]` is the deduplicated seed set and `out[h]` adds every
/// neighbour of a row in `out[h - 1]`, so `out[0] ⊆ out[1] ⊆ … ⊆
/// out[depth]`; every set is sorted ascending. Each hop expands only the
/// rows the previous hop added, and none once a set covers every row;
/// sets are read off a membership mask (an `O(N)` scan per hop is far
/// cheaper than sorting a closure that reaches a large share of the
/// graph).
///
/// Returns `None` as soon as a set holds more than `max_rows` rows — the
/// caller's signal that working on the closure no longer pays.
///
/// # Panics
/// Panics when a seed is out of bounds.
#[must_use]
pub(crate) fn hop_closures(
    adj: &Csr,
    seeds: impl IntoIterator<Item = usize>,
    depth: usize,
    max_rows: usize,
) -> Option<Vec<Vec<usize>>> {
    let n = adj.rows();
    let mut in_set = vec![false; n];
    // Discovery order: rows[frontier..] are the rows the last hop added.
    let mut rows = Vec::new();
    for s in seeds {
        assert!(s < n, "hop_closures: seed {s} out of bounds");
        if !in_set[s] {
            in_set[s] = true;
            rows.push(s);
        }
    }
    let mut out = Vec::with_capacity(depth + 1);
    let mut frontier = 0;
    for hop in 0..=depth {
        if hop > 0 && rows.len() < n {
            let known = rows.len();
            for i in frontier..known {
                for &c in adj.row_cols(rows[i]) {
                    let c = c as usize;
                    if !in_set[c] {
                        in_set[c] = true;
                        rows.push(c);
                    }
                }
            }
            frontier = known;
        }
        if rows.len() > max_rows {
            return None;
        }
        out.push(in_set.iter().enumerate().filter_map(|(i, &m)| m.then_some(i)).collect());
    }
    Some(out)
}

/// Which normalisation of the extended graph a propagation step applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Symmetric GCN kernel `D̃^{-1/2}(A + I)D̃^{-1/2}` (self-loops).
    Sym,
    /// Mean (row-stochastic) kernel `D^{-1}A` (no self-loops).
    Mean,
}

/// Per-row scales of one kernel over a receptive field.
struct Scales {
    /// `base[k]` scales the rows of `S_k`, in set order.
    base: Vec<Vec<f32>>,
    /// Scales of the `n` new rows.
    new: Vec<f32>,
}

/// One request's receptive field in the extended graph `[[base, incᵀ],
/// [inc, inter]]`: the nested base-row sets a `P`-step propagation's new
/// rows depend on, with the local blocks and degree scales that step
/// through them (see the module docs).
///
/// Base-side operands are **compact**: row `i` of an operand on `S_k` is
/// the `i`-th smallest base row of `S_k`. Every computed row is bitwise
/// identical to the same row of the full extended product.
pub struct ReceptiveField<'a> {
    n_base: usize,
    inter: &'a Csr,
    /// `sets[k]` = `S_k`, sorted; `sets[0]` is the widest.
    sets: Vec<Vec<usize>>,
    /// `base_blocks[k - 1]` = `base[S_k, S_{k-1}]`, for `k` in `1..P`.
    base_blocks: Vec<Cow<'a, Csr>>,
    /// `inc_blocks[k]` = `inc[:, S_k]`, for `k` in `0..P`.
    inc_blocks: Vec<Cow<'a, Csr>>,
    /// `narrow[k - 1]`: positions of `S_k` inside `S_{k-1}` (`None` when
    /// the sets are equal).
    narrow: Vec<Option<Vec<usize>>>,
    sym: Scales,
    mean: Scales,
}

impl<'a> ReceptiveField<'a> {
    /// Builds the receptive field of a `depth`-step propagation (`P`;
    /// see `GnnModel::propagation_depth`) over the extended graph, with
    /// the base graph's degree sums `deg` shared across requests.
    ///
    /// # Panics
    /// Panics on inconsistent block shapes or a `deg` of the wrong length.
    #[must_use]
    pub fn new(
        base: &'a Csr,
        inc: &'a Csr,
        inter: &'a Csr,
        deg: &BaseDegrees,
        depth: usize,
    ) -> Self {
        let (n_base, n_new) = check_blocks(base, inc, inter);
        assert_eq!(deg.sym.len(), n_base, "ReceptiveField: degree length mismatch");
        // S_{P-1} is the attachment block's column set; each earlier set
        // adds one hop of base neighbours.
        let mut sets = match depth {
            0 => Vec::new(),
            _ => hop_closures(base, inc.iter().map(|(_, j, _)| j), depth - 1, usize::MAX)
                .expect("no row budget"),
        };
        sets.reverse();

        // New-row degrees: attachment mass, then interconnect mass — the
        // order the full operator accumulates them in.
        let mut sym_new = vec![1.0f32; n_new];
        let mut mean_new = vec![0.0f32; n_new];
        for (bi, _, v) in inc.iter().chain(inter.iter()) {
            sym_new[bi] += v;
            mean_new[bi] += v;
        }
        let mut sym = Scales { base: Vec::new(), new: sym_new.iter().map(inv_sqrt).collect() };
        let mut mean = Scales { base: Vec::new(), new: mean_new.iter().map(inv).collect() };

        // `pos[j]` is base row j's position in the set being processed.
        let mut pos = vec![u32::MAX; n_base];
        let mut base_blocks = Vec::with_capacity(depth.saturating_sub(1));
        let mut inc_blocks = Vec::with_capacity(depth);
        let mut narrow = Vec::with_capacity(depth.saturating_sub(1));
        for (k, set) in sets.iter().enumerate() {
            for (p, &j) in set.iter().enumerate() {
                pos[j] = p as u32;
            }
            let full = set.len() == n_base;
            if k == 0 {
                // Base degrees for S_0 only: shared sums plus the
                // request's back-edge mass, folded in `inc` order.
                let mut d_sym: Vec<f32> = set.iter().map(|&j| deg.sym[j]).collect();
                let mut d_mean: Vec<f32> = set.iter().map(|&j| deg.mean[j]).collect();
                for (_, bj, v) in inc.iter() {
                    d_sym[pos[bj] as usize] += v;
                    d_mean[pos[bj] as usize] += v;
                }
                let s0: Vec<f32> = d_sym.iter().map(inv_sqrt).collect();
                let m0: Vec<f32> = d_mean.iter().map(inv).collect();
                for s in &sets {
                    sym.base.push(s.iter().map(|&j| s0[pos[j] as usize]).collect());
                    mean.base.push(s.iter().map(|&j| m0[pos[j] as usize]).collect());
                }
            }
            inc_blocks.push(if full {
                Cow::Borrowed(inc)
            } else {
                Cow::Owned(remap_block(inc, 0..n_new, &pos, set.len()))
            });
            if let Some(next) = sets.get(k + 1) {
                base_blocks.push(if next.len() == n_base {
                    Cow::Borrowed(base)
                } else {
                    Cow::Owned(remap_block(base, next.iter().copied(), &pos, set.len()))
                });
                let strict = next.len() < set.len();
                narrow.push(strict.then(|| next.iter().map(|&j| pos[j] as usize).collect()));
            }
            for &j in set {
                pos[j] = u32::MAX;
            }
        }
        Self { n_base, inter, sets, base_blocks, inc_blocks, narrow, sym, mean }
    }

    /// Propagation depth `P` the field was built for.
    #[must_use]
    pub(crate) fn depth(&self) -> usize {
        self.sets.len()
    }

    /// `Σ_k |S_k|`: base rows whose activations a forward pass computes.
    #[must_use]
    pub fn base_rows(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// The rows of the full base operand `x_base` on `S_0` — borrowed
    /// as-is when `S_0` is the whole base.
    ///
    /// # Panics
    /// Panics when `x_base` does not carry one row per base node.
    #[must_use]
    pub(crate) fn gather<'x>(&self, x_base: &'x DMat) -> Cow<'x, DMat> {
        assert_eq!(x_base.rows(), self.n_base, "ReceptiveField::gather: base row mismatch");
        match self.sets.first() {
            Some(s0) if s0.len() == self.n_base => Cow::Borrowed(x_base),
            Some(s0) => Cow::Owned(x_base.select_rows(s0)),
            None => Cow::Owned(DMat::zeros(0, x_base.cols())),
        }
    }

    /// Narrows a compact operand on `S_{k-1}` to its rows on `S_k` (the
    /// self and teleport terms of a layer whose output lives on `S_k`).
    ///
    /// # Panics
    /// Panics when `k` is not in `1..P`.
    #[must_use]
    pub(crate) fn narrow<'x>(&self, k: usize, x: &'x DMat) -> Cow<'x, DMat> {
        match &self.narrow[k - 1] {
            Some(idx) => Cow::Owned(x.select_rows(idx)),
            None => Cow::Borrowed(x),
        }
    }

    /// Propagation step `k` in `1..P`: base rows on `S_{k-1}` and the new
    /// rows in, `(base rows on S_k, new rows)` out. An owned base operand
    /// is normalised in place instead of copied.
    ///
    /// # Panics
    /// Panics when `k` is out of range or the operands are mis-shaped.
    #[must_use]
    pub(crate) fn split(
        &self,
        kernel: Kernel,
        k: usize,
        x_base: Cow<'_, DMat>,
        x_new: &DMat,
    ) -> (DMat, DMat) {
        assert!((1..self.depth()).contains(&k), "ReceptiveField::split: step {k} out of range");
        let (top, bottom) = self.step(kernel, k, x_base, x_new, true);
        (top.expect("top block requested"), bottom)
    }

    /// The final step `P`: base rows on `S_{P-1}` and the new rows in,
    /// only the `n` new output rows out.
    ///
    /// # Panics
    /// Panics when the field has depth 0 or the operands are mis-shaped.
    #[must_use]
    pub(crate) fn bottom(&self, kernel: Kernel, x_base: Cow<'_, DMat>, x_new: &DMat) -> DMat {
        assert!(self.depth() > 0, "ReceptiveField::bottom: depth-0 field has no step");
        self.step(kernel, self.depth(), x_base, x_new, false).1
    }

    /// Step `k` of the normalised product; the top block (base rows on
    /// `S_k`) only when `with_top`. Mirrors the full extended product
    /// operation for operation, on the local blocks.
    fn step(
        &self,
        kernel: Kernel,
        k: usize,
        x_base: Cow<'_, DMat>,
        x_new: &DMat,
        with_top: bool,
    ) -> (Option<DMat>, DMat) {
        assert_eq!(x_base.rows(), self.sets[k - 1].len(), "ReceptiveField: base row mismatch");
        assert_eq!(x_new.rows(), self.inter.rows(), "ReceptiveField: new row mismatch");
        assert_eq!(x_base.cols(), x_new.cols(), "ReceptiveField: column mismatch");
        let (s, self_loop) = match kernel {
            Kernel::Sym => (&self.sym, true),
            Kernel::Mean => (&self.mean, false),
        };
        let (xb, xn) = if self_loop {
            let mut xb = x_base.into_owned();
            xb.scale_rows_assign(&s.base[k - 1]);
            (Cow::Owned(xb), Cow::Owned(x_new.scale_rows(&s.new)))
        } else {
            (x_base, Cow::Borrowed(x_new))
        };
        let top = with_top.then(|| {
            let mut top = self.base_blocks[k - 1].spmm(&xb);
            top.add_assign(&self.inc_blocks[k].spmm_t(&xn));
            if self_loop {
                top.add_assign(&self.narrow(k, &xb));
            }
            top.scale_rows_assign(&s.base[k]);
            top
        });
        let mut bottom = self.inc_blocks[k - 1].spmm(&xb);
        bottom.add_assign(&self.inter.spmm(&xn));
        if self_loop {
            bottom.add_assign(&xn);
        }
        bottom.scale_rows_assign(&s.new);
        (top, bottom)
    }
}

#[allow(clippy::trivially_copy_pass_by_ref)]
fn inv_sqrt(d: &f32) -> f32 {
    if *d > 0.0 {
        1.0 / d.sqrt()
    } else {
        0.0
    }
}

#[allow(clippy::trivially_copy_pass_by_ref)]
fn inv(d: &f32) -> f32 {
    if *d > 0.0 {
        1.0 / d
    } else {
        0.0
    }
}

/// `m[rows, :]` with column `c` relabelled to `pos[c]` in a `width`-column
/// space, built straight into CSR arrays. `pos` is increasing on the
/// columns present, so every row keeps its entries in their original
/// order — the SpMM kernels then accumulate each row exactly as over `m`.
fn remap_block(
    m: &Csr,
    rows: impl Iterator<Item = usize> + Clone,
    pos: &[u32],
    width: usize,
) -> Csr {
    let nnz: usize = rows.clone().map(|r| m.row_cols(r).len()).sum();
    let mut indptr = Vec::with_capacity(rows.size_hint().0 + 1);
    let mut cols = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    indptr.push(0u64);
    for r in rows {
        cols.extend(m.row_cols(r).iter().map(|&c| pos[c as usize]));
        vals.extend_from_slice(m.row_vals(r));
        indptr.push(cols.len() as u64);
    }
    Csr::from_raw(indptr.len() - 1, width, indptr, cols, vals)
}

fn check_blocks(base: &Csr, inc: &Csr, inter: &Csr) -> (usize, usize) {
    assert_eq!(base.rows(), base.cols(), "extended: base must be square");
    assert_eq!(inc.cols(), base.rows(), "extended: inc columns must index the base");
    assert_eq!(inter.rows(), inc.rows(), "extended: inter rows");
    assert_eq!(inter.cols(), inc.rows(), "extended: inter must be square");
    (base.rows(), inc.rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_linalg::{approx_eq, MatRng};
    use mcond_sparse::{row_normalize_dense, sym_normalize, Coo};

    /// base: ring of 4; two new nodes, node 0' -> base 1 (w 2.0),
    /// node 1' -> base 3 (w 1.0); new nodes connected to each other.
    fn blocks() -> (Csr, Csr, Csr) {
        let mut base = Coo::new(4, 4);
        for i in 0..4 {
            base.push_sym(i, (i + 1) % 4, 1.0);
        }
        let mut inc = Coo::new(2, 4);
        inc.push(0, 1, 2.0);
        inc.push(1, 3, 1.0);
        let mut inter = Coo::new(2, 2);
        inter.push_sym(0, 1, 1.0);
        (base.to_csr(), inc.to_csr(), inter.to_csr())
    }

    fn materialised(base: &Csr, inc: &Csr, inter: &Csr) -> Csr {
        base.block_extend(inc, inter)
    }

    #[test]
    fn extended_sym_matches_materialised_normalisation() {
        let (base, inc, inter) = blocks();
        let lazy = Propagator::extended_sym(&base, &inc, &inter);
        let dense = sym_normalize(&materialised(&base, &inc, &inter));
        let x = MatRng::seed_from(1).normal(6, 3, 0.0, 1.0);
        let a = lazy.spmm(&x);
        let b = dense.spmm(&x);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(approx_eq(*u, *v, 1e-4), "{u} vs {v}");
        }
    }

    #[test]
    fn extended_mean_matches_materialised_normalisation() {
        let (base, inc, inter) = blocks();
        let lazy = Propagator::extended_mean(&base, &inc, &inter);
        let dense_raw = materialised(&base, &inc, &inter).to_dense();
        let dense = row_normalize_dense(&dense_raw);
        let x = MatRng::seed_from(2).normal(6, 3, 0.0, 1.0);
        let a = lazy.spmm(&x);
        let b = dense.matmul(&x);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(approx_eq(*u, *v, 1e-4), "{u} vs {v}");
        }
    }

    #[test]
    fn shared_base_degrees_are_bitwise_identical_to_direct_build() {
        let (base, inc, inter) = blocks();
        let deg = BaseDegrees::of(&base);
        let x = MatRng::seed_from(7).normal(6, 5, 0.0, 1.0);
        for (direct, shared) in [
            (
                Propagator::extended_sym(&base, &inc, &inter),
                Propagator::extended_sym_with(&base, &inc, &inter, &deg),
            ),
            (
                Propagator::extended_mean(&base, &inc, &inter),
                Propagator::extended_mean_with(&base, &inc, &inter, &deg),
            ),
        ] {
            assert_eq!(direct.spmm(&x).as_slice(), shared.spmm(&x).as_slice());
        }
    }

    /// Weighted path 0–1–…–13 with two new nodes: 0' → base 3 (w 2.0),
    /// 1' → base 9 (w 0.5) and base 10 (w 1.0), and 0'–1' (w 0.75).
    /// Every set is a strict subset up to depth 3; from depth 4 on the
    /// widest sets cover the whole base.
    fn path_blocks() -> (Csr, Csr, Csr) {
        let mut base = Coo::new(14, 14);
        for i in 0..13 {
            base.push_sym(i, i + 1, 1.0 + 0.1 * i as f32);
        }
        let mut inc = Coo::new(2, 14);
        inc.push(0, 3, 2.0);
        inc.push(1, 9, 0.5);
        inc.push(1, 10, 1.0);
        let mut inter = Coo::new(2, 2);
        inter.push_sym(0, 1, 0.75);
        (base.to_csr(), inc.to_csr(), inter.to_csr())
    }

    /// Every receptive-field step reproduces the rows it computes of the
    /// full extended product **bitwise** — top rows on `S_k`, and the new
    /// rows — for both kernels, every depth (strict subsets and full
    /// cover), at 1 and 4 threads.
    #[test]
    fn receptive_steps_match_full_product_rows_bitwise() {
        let (base, inc, inter) = path_blocks();
        let deg = BaseDegrees::of(&base);
        let (nb, nn) = (base.rows(), inc.rows());
        for threads in [1usize, 4] {
            mcond_par::with_thread_limit(threads, || {
                for depth in 1..=6 {
                    let rf = ReceptiveField::new(&base, &inc, &inter, &deg, depth);
                    for (kernel, full) in [
                        (Kernel::Sym, Propagator::extended_sym(&base, &inc, &inter)),
                        (Kernel::Mean, Propagator::extended_mean(&base, &inc, &inter)),
                    ] {
                        let mut x = MatRng::seed_from(depth as u64).normal(nb + nn, 5, 0.0, 1.0);
                        for k in 1..=depth {
                            let y = full.spmm(&x);
                            let xb = x.slice_rows(0, nb).select_rows(&rf.sets[k - 1]);
                            let xn = x.slice_rows(nb, nb + nn);
                            let bottom = if k < depth {
                                let (top, bottom) = rf.split(kernel, k, Cow::Borrowed(&xb), &xn);
                                let want = y.slice_rows(0, nb).select_rows(&rf.sets[k]);
                                let ctx = format!("{kernel:?} P{depth} k{k}");
                                assert_eq!(top.as_slice(), want.as_slice(), "{ctx}");
                                bottom
                            } else {
                                rf.bottom(kernel, Cow::Owned(xb.clone()), &xn)
                            };
                            let want = y.slice_rows(nb, nb + nn);
                            let ctx = format!("{kernel:?} P{depth} k{k}");
                            assert_eq!(bottom.as_slice(), want.as_slice(), "{ctx}");
                            x = y;
                        }
                    }
                }
            });
        }
    }

    /// Reference closure: breadth-first distances from the seeds over the
    /// dense adjacency, `{v : dist(v) <= h}` per hop.
    fn naive_closures(adj: &Csr, seeds: &[usize], depth: usize) -> Vec<Vec<usize>> {
        let dense = adj.to_dense();
        let n = adj.rows();
        let mut dist = vec![usize::MAX; n];
        for &s in seeds {
            dist[s] = 0;
        }
        for h in 1..=depth {
            let reached: Vec<usize> = (0..n).filter(|&u| dist[u] == h - 1).collect();
            for u in reached {
                for (v, dv) in dist.iter_mut().enumerate() {
                    if dense.get(u, v) != 0.0 && *dv == usize::MAX {
                        *dv = h;
                    }
                }
            }
        }
        (0..=depth).map(|h| (0..n).filter(|&v| dist[v] <= h).collect()).collect()
    }

    #[test]
    fn hop_closures_match_naive_bfs() {
        // A random sparse graph plus the path fixture.
        let mut rng = MatRng::seed_from(5);
        let noise = rng.normal(40, 40, 0.0, 1.0);
        let mut coo = Coo::new(40, 40);
        for i in 0..40 {
            for j in (i + 1)..40 {
                if noise.get(i, j) > 1.9 {
                    coo.push_sym(i, j, 1.0);
                }
            }
        }
        let (path, _, _) = path_blocks();
        for (adj, seeds) in [(coo.to_csr(), vec![7usize, 3, 7, 31]), (path, vec![9, 3, 10])] {
            for depth in 0..6 {
                let got = hop_closures(&adj, seeds.iter().copied(), depth, usize::MAX).unwrap();
                assert_eq!(got, naive_closures(&adj, &seeds, depth), "depth {depth}");
                for pair in got.windows(2) {
                    assert!(pair[0].iter().all(|r| pair[1].binary_search(r).is_ok()), "nested");
                }
                for set in &got {
                    assert!(set.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
                }
                // The row budget: the widest set fits exactly, one less declines.
                let widest = got.last().unwrap().len();
                assert!(hop_closures(&adj, seeds.iter().copied(), depth, widest).is_some());
                assert!(hop_closures(&adj, seeds.iter().copied(), depth, widest - 1).is_none());
            }
        }
    }

    /// `S_{P-1}` is the attachment block's column set, the sets nest
    /// widest-first, and `Σ|S_k|` is what `base_rows` reports.
    #[test]
    fn receptive_sets_start_at_the_attachment_columns() {
        let (base, inc, inter) = path_blocks();
        let deg = BaseDegrees::of(&base);
        assert_eq!(ReceptiveField::new(&base, &inc, &inter, &deg, 0).base_rows(), 0);
        for depth in 1..=4 {
            let rf = ReceptiveField::new(&base, &inc, &inter, &deg, depth);
            assert_eq!(rf.depth(), depth);
            assert_eq!(rf.sets[depth - 1], vec![3, 9, 10]);
            let mut want = naive_closures(&base, &[3, 9, 10], depth - 1);
            want.reverse();
            assert_eq!(rf.sets, want);
            assert_eq!(rf.base_rows(), want.iter().map(Vec::len).sum::<usize>());
        }
    }

    /// A set covering every base row uses the base graph and the
    /// attachment block as-is — borrowed, never copied — and so does the
    /// feature gather; strict subsets get local copies.
    #[test]
    fn full_cover_uses_the_base_untouched() {
        let (base, inc, inter) = blocks();
        let deg = BaseDegrees::of(&base);
        let x = MatRng::seed_from(8).normal(4, 2, 0.0, 1.0);
        // Ring of 4, attachments at 1 and 3: one hop covers everything.
        let rf = ReceptiveField::new(&base, &inc, &inter, &deg, 3);
        assert!(rf.sets[..2].iter().all(|s| s.len() == 4));
        assert!(matches!(&rf.base_blocks[0], Cow::Borrowed(b) if std::ptr::eq(*b, &base)));
        assert!(matches!(&rf.inc_blocks[0], Cow::Borrowed(b) if std::ptr::eq(*b, &inc)));
        assert!(matches!(rf.gather(&x), Cow::Borrowed(g) if std::ptr::eq(g, &x)));
        // The last set ({1, 3}) is strict: its blocks are local copies.
        assert!(matches!(&rf.base_blocks[1], Cow::Owned(b) if b.rows() == 2 && b.cols() == 4));
        assert!(matches!(&rf.inc_blocks[2], Cow::Owned(b) if b.cols() == 2));

        let (path, pinc, pinter) = path_blocks();
        let rf = ReceptiveField::new(&path, &pinc, &pinter, &BaseDegrees::of(&path), 2);
        let x = MatRng::seed_from(9).normal(14, 2, 0.0, 1.0);
        assert!(matches!(rf.gather(&x), Cow::Owned(g) if g.rows() == 7));
    }

    /// Two stacked promotions folded in incrementally must agree
    /// **bitwise** with a from-scratch accumulation over the final
    /// extended matrix.
    #[test]
    fn incremental_degrees_match_from_scratch_bitwise() {
        let (base, inc, inter) = blocks();
        let mut deg = BaseDegrees::of(&base);
        deg.extend_for_promotion(&inc, &inter);
        let grown = base.block_extend(&inc, &inter);
        // Second wave: one node attached to old row 1 and promoted row 4.
        let mut inc2 = Coo::new(1, 6);
        inc2.push(0, 1, 0.5);
        inc2.push(0, 4, 1.5);
        let inc2 = inc2.to_csr();
        let inter2 = Csr::empty(1, 1);
        deg.extend_for_promotion(&inc2, &inter2);
        let full = BaseDegrees::of(&grown.block_extend(&inc2, &inter2));
        assert_eq!(deg.sym, full.sym);
        assert_eq!(deg.mean, full.mean);
    }

    #[test]
    fn empty_extension_reduces_to_base_kernel() {
        let (base, _, _) = blocks();
        let inc = Csr::empty(0, 4);
        let inter = Csr::empty(0, 0);
        let lazy = Propagator::extended_sym(&base, &inc, &inter);
        let direct = sym_normalize(&base);
        let x = MatRng::seed_from(3).normal(4, 2, 0.0, 1.0);
        let a = lazy.spmm(&x);
        let b = direct.spmm(&x);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(approx_eq(*u, *v, 1e-4));
        }
    }

    #[test]
    fn matrix_variant_delegates() {
        let (base, _, _) = blocks();
        let norm = Arc::new(sym_normalize(&base));
        let p = Propagator::Matrix(Arc::clone(&norm));
        let x = MatRng::seed_from(4).normal(4, 2, 0.0, 1.0);
        assert_eq!(p.spmm(&x), norm.spmm(&x));
        assert_eq!(p.rows(), 4);
        assert!(Arc::ptr_eq(&p.csr(), &norm));
    }

    #[test]
    #[should_panic(expected = "cannot be recorded on a tape")]
    fn extended_csr_handle_panics() {
        let (base, inc, inter) = blocks();
        let lazy = Propagator::extended_sym(&base, &inc, &inter);
        let _ = lazy.csr();
    }
}
