//! Frozen-base serving cache: the `ServeMode::FrozenBase` approximation.
//!
//! The exact forward pass ([`GnnModel::predict_split`]) re-propagates the
//! request's receptive field on every request: attaching a batch perturbs
//! the degrees of the base rows it touches, and base activations on the
//! nested sets `S_k` feed the new rows at every layer, so each request
//! pays `O(Σ_k nnz(base rows of S_k)·d)` — up to the whole base graph for
//! a well-connected batch. [`FrozenBase`] trades that exactness for a cost
//! that no longer depends on the base at all: it runs the forward pass
//! **once over the base graph alone** (base-only normalisation, no batch
//! attached) and caches, for every propagation site of the architecture,
//! the base-side operand that site would multiply by the bottom-left
//! `inc` block — pre-scaled by the frozen base normalisation for
//! symmetric sites.
//!
//! A request is then served in `O(L·(nnz(inc) + nnz(inter) + n·d))`:
//! each site computes only its `n` new rows as
//!
//! ```text
//! sym:  s_n ∘ ( inc·(s_b ∘ H_b)  +  inter·(s_n ∘ H_n)  +  s_n ∘ H_n )
//! mean: r_n ∘ ( inc·H_b          +  inter·H_n )
//! ```
//!
//! where `s_b ∘ H_b` / `H_b` is the cached operand and `s_n`/`r_n` are the
//! request's own degree scales (computed exactly from `inc`/`inter` row
//! mass). The **approximation** is entirely base-side: cached `H_b` ignores
//! the batch's back-edges into the base graph, and `s_b` is the base-only
//! scale `1/sqrt(1 + base mass)` rather than the batch-perturbed one. For
//! a batch with *no* incremental edges the two coincide and the frozen
//! path reproduces the exact logits; deviation grows with the batch's
//! relative edge mass (quantified by the calibration test in
//! `mcond-core`). The exact path stays the default — this cache is
//! opt-in.

use crate::model::{GnnKind, GnnModel, GraphOps};
use crate::propagator::{hop_closures, BaseDegrees};
use mcond_linalg::DMat;
use mcond_sparse::{Coo, Csr};

/// Per-layer base activations frozen under base-only normalisation.
///
/// Built once per `(model, base graph)` pair via [`FrozenBase::new`];
/// served via [`GnnModel::predict_frozen`]. Immutable and `Sync` — one
/// cache can serve concurrent requests.
///
/// The cache is stamped with the **base version** it was built from
/// ([`FrozenBase::base_version`], [`FrozenBase::with_version`]): a live
/// base graph that admits delta promotions bumps its version on every
/// mutation, and the serving layer refuses to answer from a cache whose
/// stamp trails the base (`ServeError::StaleCache` in `mcond-core`)
/// instead of emitting silently wrong logits. When a promotion's
/// receptive field is small, [`FrozenBase::try_patch`] recomputes only
/// the affected rows — bitwise identical to a full rebuild — and
/// re-stamps the cache.
#[derive(Clone)]
pub struct FrozenBase {
    kind: GnnKind,
    hops: usize,
    n_base: usize,
    in_dim: usize,
    /// Cached base-side operands, one per propagation site in forward
    /// order. Symmetric sites are pre-scaled by the frozen base scale.
    sites: Vec<DMat>,
    /// Unscaled intermediates the patch path replays the propagation
    /// chain from: `raws[k]` is the pre-scale operand behind `sites[k]`
    /// for the chain architectures (SGC/APPNP hop intermediates, GCN's
    /// `XW`). Empty for SAGE/Cheby, whose sites are recomputable from the
    /// base features alone.
    raws: Vec<DMat>,
    /// Version of the base graph the cache reflects (0 for a static base).
    base_version: u64,
}

impl FrozenBase {
    /// Runs the base-only forward pass of `model` over `(base_adj,
    /// base_x)` and caches every propagation site's base operand.
    ///
    /// # Panics
    /// Panics on inconsistent shapes (`base_adj` not square or feature
    /// rows not matching it).
    #[must_use]
    pub fn new(model: &GnnModel, base_adj: &Csr, base_x: &DMat) -> Self {
        let mut span = mcond_obs::span_timed("frozen_base.build", "serve.cache.build_us");
        span.record("base_nodes", base_adj.rows());
        assert_eq!(base_adj.rows(), base_adj.cols(), "FrozenBase: base must be square");
        assert_eq!(base_x.rows(), base_adj.rows(), "FrozenBase: feature rows mismatch");
        let ops = GraphOps::from_adj(base_adj);
        // Frozen symmetric scale: 1/sqrt(1 + base row mass) — identical to
        // what sym_normalize bakes into the base-only kernel.
        let sb: Vec<f32> = BaseDegrees::of(base_adj)
            .sym
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let p = model.params();
        let mut sites = Vec::new();
        let mut raws = Vec::new();
        match model.kind() {
            GnnKind::Sgc => {
                let mut h = base_x.clone();
                for _ in 0..model.hops {
                    sites.push(h.scale_rows(&sb));
                    raws.push(h.clone());
                    h = ops.sym.spmm(&h);
                }
            }
            GnnKind::Gcn => {
                let xw = base_x.matmul(&p[0]);
                sites.push(xw.scale_rows(&sb));
                let h = ops.sym.spmm(&xw).add_row_broadcast(p[1].row(0)).relu();
                sites.push(h.matmul(&p[2]).scale_rows(&sb));
                raws.push(xw);
            }
            GnnKind::Sage => {
                sites.push(base_x.clone());
                let h = base_x
                    .matmul(&p[0])
                    .add(&ops.mean.spmm(base_x).matmul(&p[1]))
                    .add_row_broadcast(p[2].row(0))
                    .relu();
                sites.push(h);
            }
            GnnKind::Appnp => {
                let h0 = base_x
                    .matmul(&p[0])
                    .add_row_broadcast(p[1].row(0))
                    .relu()
                    .matmul(&p[2])
                    .add_row_broadcast(p[3].row(0));
                let teleport = h0.scale(model.alpha);
                let mut z = h0;
                for _ in 0..model.hops {
                    sites.push(z.scale_rows(&sb));
                    raws.push(z.clone());
                    z = ops.sym.spmm(&z).scale(1.0 - model.alpha).add(&teleport);
                }
            }
            GnnKind::Cheby => {
                sites.push(base_x.scale_rows(&sb));
                let t1x = ops.sym.spmm(base_x).scale(-1.0);
                let h = base_x
                    .matmul(&p[0])
                    .add(&t1x.matmul(&p[1]))
                    .add_row_broadcast(p[2].row(0))
                    .relu();
                sites.push(h.scale_rows(&sb));
            }
        }
        Self {
            kind: model.kind(),
            hops: model.hops,
            n_base: base_adj.rows(),
            in_dim: base_x.cols(),
            sites,
            raws,
            base_version: 0,
        }
    }

    /// Stamps the cache with the base version it reflects; the serving
    /// layer compares this against the live base's version before
    /// answering from the cache.
    #[must_use]
    pub fn with_version(mut self, version: u64) -> Self {
        self.base_version = version;
        self
    }

    /// The base version this cache was built (or last patched) against.
    #[must_use]
    pub fn base_version(&self) -> u64 {
        self.base_version
    }

    /// Architecture the cache was frozen for.
    #[must_use]
    pub fn kind(&self) -> GnnKind {
        self.kind
    }

    /// Number of cached propagation sites (layers touching the graph).
    #[must_use]
    pub fn sites(&self) -> usize {
        self.sites.len()
    }

    /// Number of base nodes the cache covers.
    #[must_use]
    pub fn n_base(&self) -> usize {
        self.n_base
    }

    /// Payload size of the cached activations (sites and unscaled patch
    /// intermediates), in bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.sites
            .iter()
            .chain(self.raws.iter())
            .map(|s| s.rows() * s.cols() * core::mem::size_of::<f32>())
            .sum()
    }

    /// Incrementally re-freezes the cache after the base graph grew:
    /// `new_adj`/`new_x` are the mutated base (old nodes keep their ids;
    /// appended nodes take the highest ids), `deg` its degree sums, and
    /// `touched` the **old** rows that gained edges in the mutation
    /// (appended rows are included automatically). Only rows inside the
    /// hop-closure of the mutation are recomputed; every recomputed value
    /// is **bitwise identical** to a from-scratch
    /// [`FrozenBase::new`] over the mutated base (the kernels' row
    /// independence contract). The returned cache is stamped with
    /// `new_version`.
    ///
    /// Returns `None` when the closure exceeds `max_rows` — the signal
    /// that a full rebuild is cheaper than the patch.
    ///
    /// # Panics
    /// Panics when `model` does not match the architecture/depth this
    /// cache was frozen for, when the new base shrank or its shapes are
    /// inconsistent, or when `touched`/`deg` disagree with `new_adj`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn try_patch(
        &self,
        model: &GnnModel,
        new_adj: &Csr,
        new_x: &DMat,
        deg: &BaseDegrees,
        touched: &[usize],
        max_rows: usize,
        new_version: u64,
    ) -> Option<FrozenBase> {
        assert_eq!(self.kind, model.kind(), "try_patch: architecture mismatch");
        assert_eq!(self.hops, model.hops, "try_patch: propagation depth mismatch");
        assert_eq!(new_adj.rows(), new_adj.cols(), "try_patch: base must be square");
        assert_eq!(new_x.rows(), new_adj.rows(), "try_patch: feature rows mismatch");
        assert_eq!(new_x.cols(), self.in_dim, "try_patch: feature width mismatch");
        assert_eq!(deg.sym.len(), new_adj.rows(), "try_patch: degree length mismatch");
        let n_old = self.n_base;
        let n_new = new_adj.rows();
        assert!(n_new >= n_old, "try_patch: base shrank ({n_old} -> {n_new})");

        // Hop-closure of the mutation: seeds are the appended rows plus
        // every old row whose degree (and therefore sym scale) changed;
        // each SpMM feeding a cached site widens the affected set by one
        // hop.
        let depth = model.propagation_depth().saturating_sub(1);
        let seeds = touched.iter().copied().chain(n_old..n_new);
        let rows = hop_closures(new_adj, seeds, depth, max_rows)?.pop().expect("depth + 1 sets");

        // Frozen symmetric scale of the mutated base, full vector plus the
        // closure-row gather — same expression as the from-scratch build.
        let sb_full: Vec<f32> =
            deg.sym.iter().map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 }).collect();
        let sb_r: Vec<f32> = rows.iter().map(|&r| sb_full[r]).collect();
        let p = model.params();
        let mut sites = Vec::with_capacity(self.sites.len());
        let mut raws = Vec::with_capacity(self.raws.len());
        match self.kind {
            GnnKind::Sgc => {
                let lsym = local_sym_rows(new_adj, &sb_full, &rows);
                for k in 0..self.hops {
                    let hk_rows = if k == 0 {
                        new_x.select_rows(&rows)
                    } else {
                        lsym.spmm(&raws[k - 1])
                    };
                    sites.push(widen_scatter(
                        &self.sites[k],
                        n_new,
                        &rows,
                        &hk_rows.scale_rows(&sb_r),
                    ));
                    raws.push(widen_scatter(&self.raws[k], n_new, &rows, &hk_rows));
                }
            }
            GnnKind::Gcn => {
                let lsym = local_sym_rows(new_adj, &sb_full, &rows);
                let xw_rows = new_x.select_rows(&rows).matmul(&p[0]);
                let raw_xw = widen_scatter(&self.raws[0], n_new, &rows, &xw_rows);
                sites.push(widen_scatter(
                    &self.sites[0],
                    n_new,
                    &rows,
                    &xw_rows.scale_rows(&sb_r),
                ));
                let h_rows = lsym.spmm(&raw_xw).add_row_broadcast(p[1].row(0)).relu();
                sites.push(widen_scatter(
                    &self.sites[1],
                    n_new,
                    &rows,
                    &h_rows.matmul(&p[2]).scale_rows(&sb_r),
                ));
                raws.push(raw_xw);
            }
            GnnKind::Sage => {
                let lmean = local_mean_rows(new_adj, &rows);
                sites.push(new_x.clone());
                let h_rows = new_x
                    .select_rows(&rows)
                    .matmul(&p[0])
                    .add(&lmean.spmm(new_x).matmul(&p[1]))
                    .add_row_broadcast(p[2].row(0))
                    .relu();
                sites.push(widen_scatter(&self.sites[1], n_new, &rows, &h_rows));
            }
            GnnKind::Appnp => {
                let lsym = local_sym_rows(new_adj, &sb_full, &rows);
                let mut tele_rows = DMat::zeros(0, 0);
                for k in 0..self.hops {
                    let zk_rows = if k == 0 {
                        let z0 = new_x
                            .select_rows(&rows)
                            .matmul(&p[0])
                            .add_row_broadcast(p[1].row(0))
                            .relu()
                            .matmul(&p[2])
                            .add_row_broadcast(p[3].row(0));
                        tele_rows = z0.scale(model.alpha);
                        z0
                    } else {
                        lsym.spmm(&raws[k - 1]).scale(1.0 - model.alpha).add(&tele_rows)
                    };
                    sites.push(widen_scatter(
                        &self.sites[k],
                        n_new,
                        &rows,
                        &zk_rows.scale_rows(&sb_r),
                    ));
                    raws.push(widen_scatter(&self.raws[k], n_new, &rows, &zk_rows));
                }
            }
            GnnKind::Cheby => {
                let lsym = local_sym_rows(new_adj, &sb_full, &rows);
                let x_rows = new_x.select_rows(&rows);
                sites.push(widen_scatter(
                    &self.sites[0],
                    n_new,
                    &rows,
                    &x_rows.scale_rows(&sb_r),
                ));
                let t1_rows = lsym.spmm(new_x).scale(-1.0);
                let h_rows = x_rows
                    .matmul(&p[0])
                    .add(&t1_rows.matmul(&p[1]))
                    .add_row_broadcast(p[2].row(0))
                    .relu();
                sites.push(widen_scatter(
                    &self.sites[1],
                    n_new,
                    &rows,
                    &h_rows.scale_rows(&sb_r),
                ));
            }
        }
        Some(FrozenBase {
            kind: self.kind,
            hops: self.hops,
            n_base: n_new,
            in_dim: self.in_dim,
            sites,
            raws,
            base_version: new_version,
        })
    }
}

/// The closure rows of the symmetrically normalised base operator
/// `D̃^{-1/2}(A + I)D̃^{-1/2}`, as a `|rows| x N` CSR. Entry construction
/// mirrors `sym_normalize` exactly (adjacency entries first, diagonal
/// last, same multiply association) so each local row is bitwise
/// identical to the corresponding row of the full operator.
fn local_sym_rows(adj: &Csr, isr: &[f32], rows: &[usize]) -> Csr {
    let nnz: usize = rows.iter().map(|&r| adj.row_cols(r).len()).sum();
    let mut coo = Coo::with_capacity(rows.len(), adj.cols(), nnz + rows.len());
    for (li, &r) in rows.iter().enumerate() {
        for (&j, &v) in adj.row_cols(r).iter().zip(adj.row_vals(r)) {
            coo.push(li, j as usize, v * isr[r] * isr[j as usize]);
        }
    }
    for (li, &r) in rows.iter().enumerate() {
        coo.push(li, r, isr[r] * isr[r]);
    }
    coo.to_csr()
}

/// The closure rows of the mean (row-stochastic) base operator `D^{-1}A`,
/// mirroring `GraphOps::from_adj` (rows with non-positive mass stay
/// empty, same divide per entry).
fn local_mean_rows(adj: &Csr, rows: &[usize]) -> Csr {
    let nnz: usize = rows.iter().map(|&r| adj.row_cols(r).len()).sum();
    let mut coo = Coo::with_capacity(rows.len(), adj.cols(), nnz);
    for (li, &r) in rows.iter().enumerate() {
        let d: f32 = adj.row_vals(r).iter().sum();
        if d > 0.0 {
            for (&j, &v) in adj.row_cols(r).iter().zip(adj.row_vals(r)) {
                coo.push(li, j as usize, v / d);
            }
        }
    }
    coo.to_csr()
}

/// Widens `old` to `n_rows` rows (appended rows zero-filled) and
/// overwrites row `rows[k]` with `patch` row `k`.
fn widen_scatter(old: &DMat, n_rows: usize, rows: &[usize], patch: &DMat) -> DMat {
    debug_assert_eq!(patch.rows(), rows.len());
    let mut out = DMat::zeros(n_rows, old.cols());
    for i in 0..old.rows() {
        out.row_mut(i).copy_from_slice(old.row(i));
    }
    for (k, &r) in rows.iter().enumerate() {
        out.row_mut(r).copy_from_slice(patch.row(k));
    }
    out
}

/// New-row output of one frozen **symmetric** site:
/// `s_n ∘ (inc·cached + inter·(s_n ∘ v) + s_n ∘ v)`.
fn site_sym(cached: &DMat, inc: &Csr, inter: &Csr, v: &DMat, sn: &[f32]) -> DMat {
    let vs = v.scale_rows(sn);
    let mut out = inc.spmm(cached);
    out.add_assign(&inter.spmm(&vs));
    out.add_assign(&vs);
    out.scale_rows_assign(sn);
    out
}

/// New-row output of one frozen **mean** site:
/// `r_n ∘ (inc·cached + inter·v)`.
fn site_mean(cached: &DMat, inc: &Csr, inter: &Csr, v: &DMat, rn: &[f32]) -> DMat {
    let mut out = inc.spmm(cached);
    out.add_assign(&inter.spmm(v));
    out.scale_rows_assign(rn);
    out
}

/// The request's own degree scales: symmetric `1/sqrt(1 + inc mass +
/// inter mass)` and mean `1/(inc mass + inter mass)` per new row —
/// identical to what the exact extended operator computes for its new
/// rows.
fn request_scales(inc: &Csr, inter: &Csr) -> (Vec<f32>, Vec<f32>) {
    let n = inc.rows();
    let mut sym = vec![1.0f32; n];
    let mut mean = vec![0.0f32; n];
    for (bi, _, v) in inc.iter() {
        sym[bi] += v;
        mean[bi] += v;
    }
    for (bi, _, v) in inter.iter() {
        sym[bi] += v;
        mean[bi] += v;
    }
    let sn = sym.iter().map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 }).collect();
    let rn = mean.iter().map(|&d| if d > 0.0 { 1.0 / d } else { 0.0 }).collect();
    (sn, rn)
}

impl GnnModel {
    /// Serves a batch's logits from a [`FrozenBase`] cache — the
    /// approximate `O(L·(nnz + n·d))` path. See the module docs for the
    /// approximation contract.
    ///
    /// # Panics
    /// Panics when `frozen` was built for a different architecture /
    /// propagation depth, or on block-shape mismatch.
    #[must_use]
    pub fn predict_frozen(
        &self,
        frozen: &FrozenBase,
        inc: &Csr,
        inter: &Csr,
        x_new: &DMat,
    ) -> DMat {
        assert_eq!(frozen.kind, self.kind(), "predict_frozen: architecture mismatch");
        assert_eq!(
            frozen.hops, self.hops,
            "predict_frozen: cache frozen at a different propagation depth"
        );
        assert_eq!(inc.cols(), frozen.n_base, "predict_frozen: inc columns must index the base");
        assert_eq!(inc.rows(), x_new.rows(), "predict_frozen: inc rows");
        assert_eq!(inter.rows(), x_new.rows(), "predict_frozen: inter rows");
        assert_eq!(inter.cols(), x_new.rows(), "predict_frozen: inter must be square");
        assert_eq!(x_new.cols(), frozen.in_dim, "predict_frozen: feature width mismatch");
        let (sn, rn) = request_scales(inc, inter);
        let p = self.params();
        let s = &frozen.sites;
        match self.kind() {
            GnnKind::Sgc => {
                let mut h = x_new.clone();
                for site in s {
                    h = site_sym(site, inc, inter, &h, &sn);
                }
                h.matmul(&p[0]).add_row_broadcast(p[1].row(0))
            }
            GnnKind::Gcn => {
                let hn = site_sym(&s[0], inc, inter, &x_new.matmul(&p[0]), &sn)
                    .add_row_broadcast(p[1].row(0))
                    .relu();
                site_sym(&s[1], inc, inter, &hn.matmul(&p[2]), &sn)
                    .add_row_broadcast(p[3].row(0))
            }
            GnnKind::Sage => {
                let an = site_mean(&s[0], inc, inter, x_new, &rn);
                let hn = x_new
                    .matmul(&p[0])
                    .add(&an.matmul(&p[1]))
                    .add_row_broadcast(p[2].row(0))
                    .relu();
                hn.matmul(&p[3])
                    .add(&site_mean(&s[1], inc, inter, &hn, &rn).matmul(&p[4]))
                    .add_row_broadcast(p[5].row(0))
            }
            GnnKind::Appnp => {
                let hn0 = x_new
                    .matmul(&p[0])
                    .add_row_broadcast(p[1].row(0))
                    .relu()
                    .matmul(&p[2])
                    .add_row_broadcast(p[3].row(0));
                let tn = hn0.scale(self.alpha);
                let mut zn = hn0;
                for site in s {
                    zn = site_sym(site, inc, inter, &zn, &sn).scale(1.0 - self.alpha).add(&tn);
                }
                zn
            }
            GnnKind::Cheby => {
                let t1n = site_sym(&s[0], inc, inter, x_new, &sn).scale(-1.0);
                let hn = x_new
                    .matmul(&p[0])
                    .add(&t1n.matmul(&p[1]))
                    .add_row_broadcast(p[2].row(0))
                    .relu();
                let t1hn = site_sym(&s[1], inc, inter, &hn, &sn).scale(-1.0);
                hn.matmul(&p[3])
                    .add(&t1hn.matmul(&p[4]))
                    .add_row_broadcast(p[5].row(0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagator::ReceptiveField;
    use mcond_linalg::MatRng;
    use mcond_sparse::Coo;

    fn fixture() -> (Csr, DMat) {
        let mut base = Coo::new(5, 5);
        for i in 0..5 {
            base.push_sym(i, (i + 1) % 5, 1.0);
        }
        (base.to_csr(), MatRng::seed_from(11).normal(5, 4, 0.0, 1.0))
    }

    fn exact_new_rows(
        model: &GnnModel,
        base: &Csr,
        base_x: &DMat,
        inc: &Csr,
        inter: &Csr,
        x_new: &DMat,
    ) -> DMat {
        let deg = BaseDegrees::of(base);
        let rf = ReceptiveField::new(base, inc, inter, &deg, model.propagation_depth());
        model.predict_split(&rf, base_x, x_new)
    }

    /// With zero incremental edges the batch does not perturb base
    /// degrees or activations, so the frozen path must agree with the
    /// exact one (the only remaining difference is exact-zero `inc`
    /// contributions).
    #[test]
    fn disconnected_batch_is_served_exactly() {
        let (base, base_x) = fixture();
        let inc = Csr::empty(2, 5);
        let mut inter = Coo::new(2, 2);
        inter.push_sym(0, 1, 1.0);
        let inter = inter.to_csr();
        let x_new = MatRng::seed_from(12).normal(2, 4, 0.0, 1.0);
        for kind in GnnKind::ALL {
            let model = GnnModel::new(kind, 4, 6, 3, 21);
            let frozen = FrozenBase::new(&model, &base, &base_x);
            let approx = model.predict_frozen(&frozen, &inc, &inter, &x_new);
            let exact = exact_new_rows(&model, &base, &base_x, &inc, &inter, &x_new);
            assert_eq!(approx.shape(), (2, 3), "{}", kind.name());
            for (a, b) in approx.as_slice().iter().zip(exact.as_slice()) {
                assert!(
                    mcond_linalg::approx_eq(*a, *b, 1e-5),
                    "{}: {a} vs {b}",
                    kind.name()
                );
            }
        }
    }

    /// Connected batches deviate but stay finite, shape-correct, and in
    /// the same ballpark as the exact logits.
    #[test]
    fn connected_batch_stays_finite_and_bounded() {
        let (base, base_x) = fixture();
        let mut inc = Coo::new(2, 5);
        inc.push(0, 1, 2.0);
        inc.push(1, 3, 1.0);
        let inc = inc.to_csr();
        let inter = Csr::empty(2, 2);
        let x_new = MatRng::seed_from(13).normal(2, 4, 0.0, 1.0);
        for kind in GnnKind::ALL {
            let model = GnnModel::new(kind, 4, 6, 3, 22);
            let frozen = FrozenBase::new(&model, &base, &base_x);
            assert!(frozen.bytes() > 0);
            let approx = model.predict_frozen(&frozen, &inc, &inter, &x_new);
            let exact = exact_new_rows(&model, &base, &base_x, &inc, &inter, &x_new);
            assert_eq!(approx.shape(), exact.shape());
            assert!(approx.all_finite(), "{}", kind.name());
            let dev: f32 = approx
                .as_slice()
                .iter()
                .zip(exact.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max);
            assert!(dev < 5.0, "{}: max deviation {dev}", kind.name());
        }
    }

    /// Growing the base (two appended nodes attached to rows 1 and 3)
    /// and patching must reproduce a from-scratch rebuild **bitwise** at
    /// every site and raw level, for every architecture.
    #[test]
    fn patched_cache_is_bitwise_identical_to_rebuild() {
        let (base, base_x) = fixture();
        // Appended nodes 5 and 6: 5-1 (w 2.0), 6-3 (w 1.0), 5-6 (w 0.5).
        let mut b = Coo::new(2, 5);
        b.push(0, 1, 2.0);
        b.push(1, 3, 1.0);
        let mut inter = Coo::new(2, 2);
        inter.push_sym(0, 1, 0.5);
        let new_adj = base.block_extend(&b.to_csr(), &inter.to_csr());
        let new_x = base_x.vstack(&MatRng::seed_from(17).normal(2, 4, 0.0, 1.0));
        let deg = BaseDegrees::of(&new_adj);
        let touched = [1usize, 3];
        for kind in GnnKind::ALL {
            let model = GnnModel::new(kind, 4, 6, 3, 23);
            let frozen = FrozenBase::new(&model, &base, &base_x);
            let patched = frozen
                .try_patch(&model, &new_adj, &new_x, &deg, &touched, usize::MAX, 7)
                .expect("closure fits");
            let rebuilt = FrozenBase::new(&model, &new_adj, &new_x);
            assert_eq!(patched.base_version(), 7, "{}", kind.name());
            assert_eq!(patched.n_base(), 7, "{}", kind.name());
            assert_eq!(patched.sites.len(), rebuilt.sites.len(), "{}", kind.name());
            for (k, (a, b)) in patched.sites.iter().zip(&rebuilt.sites).enumerate() {
                assert_eq!(a.shape(), b.shape(), "{} site {k}", kind.name());
                assert_eq!(a.as_slice(), b.as_slice(), "{} site {k} not bitwise", kind.name());
            }
            assert_eq!(patched.raws.len(), rebuilt.raws.len(), "{}", kind.name());
            for (k, (a, b)) in patched.raws.iter().zip(&rebuilt.raws).enumerate() {
                assert_eq!(a.as_slice(), b.as_slice(), "{} raw {k} not bitwise", kind.name());
            }
        }
    }

    /// A closure larger than the row budget refuses to patch (the caller
    /// falls back to a full rebuild).
    #[test]
    fn oversized_closure_declines_to_patch() {
        let (base, base_x) = fixture();
        let mut b = Coo::new(1, 5);
        b.push(0, 0, 1.0);
        let new_adj = base.block_extend(&b.to_csr(), &Csr::empty(1, 1));
        let new_x = base_x.vstack(&MatRng::seed_from(18).normal(1, 4, 0.0, 1.0));
        let deg = BaseDegrees::of(&new_adj);
        let model = GnnModel::new(GnnKind::Gcn, 4, 6, 3, 24);
        let frozen = FrozenBase::new(&model, &base, &base_x);
        assert!(frozen.try_patch(&model, &new_adj, &new_x, &deg, &[0], 1, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "architecture mismatch")]
    fn cross_architecture_cache_is_rejected() {
        let (base, base_x) = fixture();
        let sgc = GnnModel::new(GnnKind::Sgc, 4, 0, 3, 1);
        let gcn = GnnModel::new(GnnKind::Gcn, 4, 6, 3, 1);
        let frozen = FrozenBase::new(&sgc, &base, &base_x);
        let _ = gcn.predict_frozen(&frozen, &Csr::empty(1, 5), &Csr::empty(1, 1), &DMat::zeros(1, 4));
    }
}
