//! Split-operator serving fast path: equivalence, probes, and calibration
//! (DESIGN.md §4g).
//!
//! The sweep asserts the tentpole contract: [`ServeMode::Exact`] logits
//! are **bitwise identical** to the legacy [`ServeMode::Extended`] path
//! for every architecture, at 1 and 4 threads, under every fallback
//! policy — while copying zero base-feature bytes per request (the
//! `serve.bytes_saved` probe). The chaos catalogue passes through the
//! fast path with the same typed-error taxonomy, and the opt-in
//! [`ServeMode::FrozenBase`] cache is calibrated against the exact path.

use mcond_core::chaos::corrupted_batches;
use mcond_core::{FallbackPolicy, InductiveServer, ServeError, ServeMode};
use mcond_gnn::{GnnKind, GnnModel};
use mcond_graph::{load_dataset, Graph, InductiveDataset, NodeBatch, Scale};
use mcond_linalg::{DMat, MatRng};
use mcond_sparse::{Coo, Csr};

/// 6-node toy split: train {0,1,2} triangle, val {3}, test {4,5}; 3-dim
/// features; plus a 2-node synthetic graph whose mapping covers train
/// nodes {0,1} with half mass and train node 2 fully (so batch coverage
/// varies node to node).
fn fixture() -> (InductiveDataset, Graph, Csr) {
    let mut coo = Coo::new(6, 6);
    for &(i, j) in &[(0, 1), (1, 2), (0, 2), (3, 0), (4, 1), (5, 2), (4, 5)] {
        coo.push_sym(i, j, 1.0);
    }
    let features = MatRng::seed_from(7).normal(6, 3, 0.0, 1.0);
    let g = Graph::new(coo.to_csr(), features, vec![0, 1, 0, 1, 0, 1], 2);
    let data = InductiveDataset::new(g, vec![0, 1, 2], vec![3], vec![4, 5]);

    let syn = Graph::new(
        Csr::eye(2),
        DMat::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]),
        vec![0, 1],
        2,
    );
    let mut map = Coo::new(3, 2);
    map.push(0, 0, 0.5);
    map.push(1, 0, 0.5);
    map.push(2, 1, 1.0);
    (data, syn, map.to_csr())
}

/// A mapping with train node 2 fully pruned: batch node 5 (attached only
/// to train 2) gets an empty `aM` row, exercising the fallback branches.
fn pruned_mapping() -> Csr {
    let mut map = Coo::new(3, 2);
    map.push(0, 0, 0.5);
    map.push(1, 0, 0.5);
    map.to_csr()
}

fn counter(server: &InductiveServer<'_>, name: &str) -> u64 {
    server.metrics_snapshot().counters.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
}

fn bytes_saved(server: &InductiveServer<'_>) -> f64 {
    server
        .metrics_snapshot()
        .gauges
        .iter()
        .find(|(k, _)| k == "serve.bytes_saved")
        .map_or(0.0, |(_, v)| *v)
}

/// The tentpole sweep: every architecture × thread count × fallback
/// policy, on both serving modes, with a coverage threshold that forces
/// some nodes through the fallback — Exact and Extended must agree
/// bitwise on every Ok result and on every typed error.
#[test]
fn exact_path_is_bitwise_identical_to_extended_everywhere() {
    let (data, syn, _) = fixture();
    let mapping = pruned_mapping();
    let original = data.original_graph();
    let batches =
        [data.batch(&[4, 5], true), data.batch(&[4], false), data.batch(&[5], true)];
    let policies =
        [FallbackPolicy::Reject, FallbackPolicy::SelfLoopOnly, FallbackPolicy::OriginalGraph];

    for kind in GnnKind::ALL {
        let model = GnnModel::new(kind, 3, 4, 2, 1);
        for threads in [1usize, 4] {
            mcond_par::with_thread_limit(threads, || {
                for policy in policies {
                    // Synthetic (Eq. 11) serving, fallback armed with the
                    // original graph so `OriginalGraph` can degrade.
                    let exact = InductiveServer::on_synthetic(&syn, &mapping, &model)
                        .with_fallback(policy)
                        .with_original_graph(&original);
                    let legacy = InductiveServer::on_synthetic(&syn, &mapping, &model)
                        .with_fallback(policy)
                        .with_original_graph(&original)
                        .with_serve_mode(ServeMode::Extended);
                    for (bi, batch) in batches.iter().enumerate() {
                        let a = exact.try_serve(batch);
                        let b = legacy.try_serve(batch);
                        match (&a, &b) {
                            (Ok(x), Ok(y)) => assert_eq!(
                                x.as_slice(),
                                y.as_slice(),
                                "{} t{threads} {policy:?} batch {bi}: logits drifted",
                                kind.name()
                            ),
                            (Err(x), Err(y)) => assert_eq!(x, y),
                            _ => panic!(
                                "{} t{threads} {policy:?} batch {bi}: Ok/Err disagreement",
                                kind.name()
                            ),
                        }
                    }

                    // Original-graph (Eq. 3) serving.
                    let exact = InductiveServer::on_original(&original, &model)
                        .with_fallback(policy);
                    let legacy = InductiveServer::on_original(&original, &model)
                        .with_fallback(policy)
                        .with_serve_mode(ServeMode::Extended);
                    for (bi, batch) in batches.iter().enumerate() {
                        let a = exact.try_serve(batch);
                        let b = legacy.try_serve(batch);
                        match (&a, &b) {
                            (Ok(x), Ok(y)) => assert_eq!(
                                x.as_slice(),
                                y.as_slice(),
                                "{} t{threads} {policy:?} original batch {bi}",
                                kind.name()
                            ),
                            (Err(x), Err(y)) => assert_eq!(x, y),
                            _ => panic!("{} t{threads} {policy:?}: disagreement", kind.name()),
                        }
                    }
                }
            });
        }
    }
}

/// Exact and Extended must agree on every `Ok` logit bit and on every
/// typed error.
fn assert_same(a: &Result<DMat, ServeError>, b: &Result<DMat, ServeError>, ctx: &str) {
    match (a, b) {
        (Ok(x), Ok(y)) => assert_eq!(x.as_slice(), y.as_slice(), "{ctx}: logits drifted"),
        (Err(x), Err(y)) => assert_eq!(x, y, "{ctx}"),
        _ => panic!("{ctx}: Ok/Err disagreement ({a:?} vs {b:?})"),
    }
}

/// A hand-built batch: node `i` attaches to the base nodes `rows[i]`
/// (weights 1.0, 0.5, …) of an `n_cols`-wide index space, features are
/// seeded noise, and `inter` lists symmetric interconnect edges.
fn custom_batch(
    rows: &[&[usize]],
    inter: &[(usize, usize)],
    n_cols: usize,
    dim: usize,
) -> NodeBatch {
    let n = rows.len();
    let mut inc = Coo::new(n, n_cols);
    for (i, cols) in rows.iter().enumerate() {
        for (k, &c) in cols.iter().enumerate() {
            inc.push(i, c, 1.0 / (k + 1) as f32);
        }
    }
    let mut ic = Coo::new(n, n);
    for &(i, j) in inter {
        ic.push_sym(i, j, 0.5);
    }
    NodeBatch {
        features: MatRng::seed_from(n as u64).normal(n, dim, 0.0, 1.0),
        incremental: inc.to_csr(),
        interconnect: ic.to_csr(),
        labels: vec![0; n],
    }
}

/// The strict-subset sweep. On pubmed-small's training graph (900 nodes,
/// average degree ~6) a request's receptive field is a strict subset of
/// the base, so the exact path runs on local blocks — unlike the 3-node
/// base above, where every field is the whole base. Every architecture
/// (SGC/APPNP at 0–3 hops) × thread count × batch shape is served by
/// Eq. 3 serving and by the `OriginalGraph` degradation of both Exact and
/// FrozenBase synthetic servers, and must match Extended bitwise.
#[test]
fn exact_path_matches_extended_on_strict_receptive_fields() {
    let data = load_dataset("pubmed", Scale::Small, 0).expect("pubmed generator");
    let original = data.original_graph();
    let (n_train, dim) = (original.num_nodes(), original.feature_dim());
    let adj = &original.adj;
    let hub = (0..n_train).max_by_key(|&i| adj.row_cols(i).len()).expect("non-empty base");
    // Two base nodes sharing the neighbour `w`.
    let w = (0..n_train).find(|&i| adj.row_cols(i).len() >= 2).expect("a degree-2 node");
    let (u, v) = (adj.row_cols(w)[0] as usize, adj.row_cols(w)[1] as usize);
    let empty_row = {
        let mut b = data.batch(&data.test_idx[..3], false);
        let mut inc = Coo::new(3, n_train);
        for (i, j, x) in b.incremental.iter().filter(|&(i, _, _)| i != 1) {
            inc.push(i, j, x);
        }
        b.incremental = inc.to_csr();
        b
    };
    // Pre-promotion batch: attachments within the first half of the base,
    // encoded against that narrower index space.
    let half = n_train / 2;
    let prefix = custom_batch(&[&[1, half - 1], &[2]], &[], half, dim);
    let batches = [
        ("node batch", data.batch(&data.test_idx[..6], false)),
        ("graph batch", data.batch(&data.test_idx[..60], true)),
        ("empty attachment row", empty_row),
        ("hub", custom_batch(&[&[hub], &[hub, w]], &[(0, 1)], n_train, dim)),
        ("shared neighbours", custom_batch(&[&[u], &[v]], &[], n_train, dim)),
        ("prefix width", prefix),
    ];
    assert!(batches[1].1.interconnect.nnz() > 0, "the graph batch must carry interconnections");

    // A 3-node synthetic target whose coverage threshold (above 1) sends
    // every node to the original graph.
    let syn_x = MatRng::seed_from(3).normal(3, dim, 0.0, 1.0);
    let syn = Graph::new(Csr::eye(3), syn_x, vec![0, 1, 2], 3);
    let mapping = {
        let mut m = Coo::new(n_train, 3);
        for i in 0..n_train {
            m.push(i, i % 3, 1.0);
        }
        m.to_csr()
    };

    let mut models = Vec::new();
    for hops in 0..=3 {
        for kind in [GnnKind::Sgc, GnnKind::Appnp] {
            let mut m = GnnModel::new(kind, dim, 8, original.num_classes, 4);
            m.hops = hops;
            models.push(m);
        }
    }
    for kind in [GnnKind::Gcn, GnnKind::Sage, GnnKind::Cheby] {
        models.push(GnnModel::new(kind, dim, 8, original.num_classes, 4));
    }

    for model in &models {
        let tag = format!("{} hops {}", model.kind().name(), model.hops);
        for threads in [1usize, 4] {
            mcond_par::with_thread_limit(threads, || {
                for policy in [FallbackPolicy::SelfLoopOnly, FallbackPolicy::Reject] {
                    let exact =
                        InductiveServer::on_original(&original, model).with_fallback(policy);
                    let legacy = InductiveServer::on_original(&original, model)
                        .with_fallback(policy)
                        .with_serve_mode(ServeMode::Extended);
                    for (name, batch) in &batches {
                        let ctx = format!("{tag} t{threads} {policy:?} {name}");
                        assert_same(&exact.try_serve(batch), &legacy.try_serve(batch), &ctx);
                    }
                }
                let degraded = |mode| {
                    InductiveServer::on_synthetic(&syn, &mapping, model)
                        .with_fallback(FallbackPolicy::OriginalGraph)
                        .with_original_graph(&original)
                        .with_coverage_threshold(1.5)
                        .with_serve_mode(mode)
                };
                let legacy = degraded(ServeMode::Extended);
                for mode in [ServeMode::Exact, ServeMode::FrozenBase] {
                    let server = degraded(mode);
                    for (name, batch) in &batches {
                        let ctx = format!("{tag} t{threads} degraded {mode:?} {name}");
                        assert_same(&server.try_serve(batch), &legacy.try_serve(batch), &ctx);
                    }
                    assert_eq!(counter(&server, "serve.cache.hits"), 0, "{tag}: not cached");
                }
            });
        }
    }
}

/// The zero-copy probe: every fast-path request books exactly the
/// `N'×d×4` base-feature bytes the legacy vstack would have copied; the
/// legacy path books none.
#[test]
fn bytes_saved_probe_counts_the_avoided_base_copies() {
    let (data, syn, mapping) = fixture();
    let model = GnnModel::new(GnnKind::Gcn, 3, 4, 2, 1);
    let batch = data.batch(&[4, 5], false);
    let per_request = (syn.features.rows() * syn.features.cols() * 4) as f64;

    let fast = InductiveServer::on_synthetic(&syn, &mapping, &model);
    for _ in 0..3 {
        let _ = fast.serve(&batch);
    }
    assert_eq!(bytes_saved(&fast), 3.0 * per_request);

    // Empty batches never reach the forward pass — nothing to save.
    let _ = fast.serve(&data.batch(&[], false));
    assert_eq!(bytes_saved(&fast), 3.0 * per_request);
    assert_eq!(counter(&fast, "serve.requests"), 4);

    let legacy = InductiveServer::on_synthetic(&syn, &mapping, &model)
        .with_serve_mode(ServeMode::Extended);
    let _ = legacy.serve(&batch);
    assert_eq!(bytes_saved(&legacy), 0.0);
}

/// The chaos catalogue passes through the fast path (and the frozen-base
/// cache) with the same typed-error taxonomy — no panic escapes, and the
/// donor keeps serving bitwise-stable finite logits afterwards.
#[test]
fn chaos_catalogue_passes_through_the_fast_path() {
    let (data, syn, mapping) = fixture();
    let model = GnnModel::new(GnnKind::Gcn, 3, 4, 2, 1);
    let donor = data.batch(&[4, 5], true);
    let cases = corrupted_batches(&donor);
    assert!(cases.len() >= 10);

    let servers = [
        ("exact", InductiveServer::on_synthetic(&syn, &mapping, &model)),
        (
            "frozen",
            InductiveServer::on_synthetic(&syn, &mapping, &model)
                .with_serve_mode(ServeMode::FrozenBase),
        ),
    ];
    for (mode, server) in &servers {
        let good = server.try_serve(&donor).expect("donor batch is valid");
        assert!(good.all_finite(), "{mode}: donor logits must be finite");
        for case in corrupted_batches(&donor) {
            match server.try_serve(&case.batch) {
                Err(ServeError::InvalidBatch(_)) => {}
                Err(other) => panic!("{mode}/{}: unexpected error {other:?}", case.name),
                Ok(_) => panic!("{mode}/{}: corrupted batch was served", case.name),
            }
        }
        let again = server.try_serve(&donor).expect("server survives the sweep");
        assert_eq!(again.as_slice(), good.as_slice());
        assert_eq!(counter(server, "serve.panic"), 0, "{mode}");
        assert_eq!(counter(server, "serve.rejected"), cases.len() as u64, "{mode}");
    }
}

/// Calibration of the opt-in frozen-base cache: a batch with no
/// incremental edges is served exactly; connected batches deviate by a
/// bounded, finite amount for every architecture, and the cache probes
/// record the hits.
#[test]
fn frozen_base_calibration_against_the_exact_path() {
    let (data, syn, mapping) = fixture();
    let connected = data.batch(&[4, 5], false);
    let disconnected = {
        let mut b = connected.clone();
        b.incremental = Csr::empty(2, 3);
        b
    };

    for kind in GnnKind::ALL {
        let model = GnnModel::new(kind, 3, 4, 2, 1);
        let exact = InductiveServer::on_synthetic(&syn, &mapping, &model);
        let frozen = InductiveServer::on_synthetic(&syn, &mapping, &model)
            .with_serve_mode(ServeMode::FrozenBase);

        // Exact on disconnected batches (no base perturbation to ignore).
        let e = exact.serve(&disconnected);
        let f = frozen.serve(&disconnected);
        for (a, b) in e.as_slice().iter().zip(f.as_slice()) {
            assert!(
                mcond_linalg::approx_eq(*a, *b, 1e-5),
                "{}: disconnected batch must serve exactly ({a} vs {b})",
                kind.name()
            );
        }

        // Bounded deviation on connected batches.
        let e = exact.serve(&connected);
        let f = frozen.serve(&connected);
        assert_eq!(e.shape(), f.shape());
        assert!(f.all_finite(), "{}", kind.name());
        let dev = e
            .as_slice()
            .iter()
            .zip(f.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(dev < 1.0, "{}: frozen-base deviation {dev} out of bounds", kind.name());

        assert_eq!(counter(&frozen, "serve.cache.hits"), 2, "{}", kind.name());
        assert_eq!(counter(&exact, "serve.cache.hits"), 0, "{}", kind.name());
    }
}

/// Regression for the coverage-accounting bugfix: negative edge weights
/// must not zero out coverage (spurious rejection), and coverage must
/// never exceed 1 even when signed sums would inflate it.
#[test]
fn coverage_uses_absolute_mass_and_clamps_to_one() {
    let (data, syn, mapping) = fixture();
    let model = GnnModel::new(GnnKind::Gcn, 3, 4, 2, 1);
    let donor = data.batch(&[4], false);

    // Node with weights {+0.5 → train 0, -1.0 → train 1}: both map onto
    // synthetic node 0 with mass 0.5, so the aM entry is 0.25 - 0.5 =
    // -0.25 and the old *signed* sum (-0.5 raw) forced coverage to 0.0 —
    // a spurious rejection under any positive threshold. Absolute mass
    // gives |−0.25| / 1.5 = 1/6.
    let negative = {
        let mut b = donor.clone();
        let mut inc = Coo::new(1, 3);
        inc.push(0, 0, 0.5);
        inc.push(0, 1, -1.0);
        b.incremental = inc.to_csr();
        b
    };
    let strict = InductiveServer::on_synthetic(&syn, &mapping, &model)
        .with_fallback(FallbackPolicy::Reject)
        .with_coverage_threshold(0.1);
    let served = strict.try_serve(&negative);
    assert!(
        served.is_ok(),
        "negative weights must not be spuriously rejected: {served:?}"
    );
    let cov = strict
        .metrics_snapshot()
        .histograms
        .iter()
        .find(|(k, _)| k == "serve.coverage")
        .expect("coverage histogram")
        .1;
    assert!((cov.max - 1.0 / 6.0).abs() < 1e-5, "coverage {0} != 1/6", cov.max);

    // A super-stochastic mapping row (mass 2.0) would report coverage 2.0
    // without the clamp — the histogram must stay inside [0, 1].
    let heavy = {
        let mut m = Coo::new(3, 2);
        m.push(0, 0, 2.0);
        m.push(1, 0, 0.5);
        m.push(2, 1, 1.0);
        m.to_csr()
    };
    let inflated = {
        let mut b = donor.clone();
        let mut inc = Coo::new(1, 3);
        inc.push(0, 0, 1.0);
        b.incremental = inc.to_csr();
        b
    };
    let server = InductiveServer::on_synthetic(&syn, &heavy, &model);
    let _ = server.serve(&inflated);
    let cov = server
        .metrics_snapshot()
        .histograms
        .iter()
        .find(|(k, _)| k == "serve.coverage")
        .expect("coverage histogram")
        .1;
    assert!((cov.max - 1.0).abs() < 1e-6, "coverage must clamp to 1, got {}", cov.max);
    assert!(cov.min > 0.0, "abs-mass coverage of a non-empty row is positive");
}
