//! Legacy-vs-fastpath serving latency: the vstack-and-slice reference path
//! (`ServeMode::Extended`), the receptive-field exact path
//! (`ServeMode::Exact`, the default), and the opt-in frozen-base cache
//! (`ServeMode::FrozenBase`), each on both attachment targets — the
//! original graph (Eq. 3) and a reduced graph + mapping (Eq. 11).
//!
//! Each mode serves the same batch set serially; the report records the
//! per-mode median, the speedup over the Extended baseline, and (from the
//! attached metrics snapshot) the base-feature bytes the fast path never
//! copied. The equivalence contract itself (`Exact` logits bitwise equal
//! to `Extended`) is enforced by the `fastpath_equivalence` test — the
//! bench asserts it once more on one batch so a perf number is never
//! reported for a divergent path.
//!
//! Output: `results/BENCH_serve_fastpath.json` at the default sample
//! budget; a smoke run (`MCOND_BENCH_SAMPLES` / `MCOND_BENCH_SAMPLE_MS`
//! overridden) writes `target/BENCH_serve_fastpath.json` instead, so it
//! never replaces the committed full-budget record.

use mcond_bench::microbench::{black_box, write_record, Bench};
use mcond_bench::{print_table, Row, TableReport};
use mcond_core::{vng, InductiveServer, ServeMode};
use mcond_gnn::{GnnKind, GnnModel};
use mcond_graph::{load_dataset, NodeBatch, Scale};

const MODES: [(&str, ServeMode); 3] = [
    ("extended", ServeMode::Extended),
    ("exact", ServeMode::Exact),
    ("frozen", ServeMode::FrozenBase),
];

fn bench_serving(
    bench: &mut Bench,
    target: &str,
    make: &dyn Fn(ServeMode) -> InductiveServer<'static>,
    batches: &[NodeBatch],
) {
    // Guard the contract before timing it: the fast path must agree with
    // the reference bitwise (Exact) before its latency means anything.
    let reference = make(ServeMode::Extended).serve(&batches[0]);
    let fast = make(ServeMode::Exact).serve(&batches[0]);
    assert_eq!(
        reference.as_slice(),
        fast.as_slice(),
        "{target}: exact fast path diverged from the extended reference"
    );

    for (name, mode) in MODES {
        let server = make(mode);
        bench.run(&format!("serve/{target}/{name}"), || {
            for batch in batches {
                black_box(server.serve(batch));
            }
        });
    }
}

fn report(bench: &Bench, targets: &[&str]) -> TableReport {
    let mut report = TableReport::new("serving fast path (median over the batch sweep)");
    let median = |name: &str| {
        bench
            .results()
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.median_ns)
            .unwrap_or(f64::NAN)
    };
    for target in targets {
        let extended = median(&format!("serve/{target}/extended"));
        for (name, _) in MODES {
            let m = median(&format!("serve/{target}/{name}"));
            report.push(
                Row::new()
                    .key("target", target)
                    .key("mode", name)
                    .metric("median_ns", m)
                    .metric("speedup_vs_extended", extended / m),
            );
        }
    }
    report.attach_metrics(&mcond_obs::snapshot());
    report
}

fn main() {
    let mut bench = Bench::from_env();
    let data = load_dataset("pubmed", Scale::Small, 0).expect("pubmed generator");
    let original = Box::leak(Box::new(data.original_graph()));
    let model = Box::leak(Box::new(GnnModel::new(
        GnnKind::Gcn,
        data.full.feature_dim(),
        16,
        data.full.num_classes,
        2,
    )));
    let batches = data.test_batches(40, true);

    // Eq. 3: attach to the original training graph.
    bench_serving(
        &mut bench,
        "original",
        &|mode| InductiveServer::on_original(original, model).with_serve_mode(mode),
        &batches,
    );

    // Eq. 11: attach to a reduced graph through its mapping (VNG stands in
    // for a condensed artifact — serving cost only depends on N' and nnz).
    let n_virtual = (original.num_nodes() / 20).max(original.num_classes);
    let reduced = Box::leak(Box::new(vng(original, &original.features, n_virtual, 3)));
    bench_serving(
        &mut bench,
        "synthetic",
        &|mode| {
            InductiveServer::on_synthetic(&reduced.graph, &reduced.mapping, model)
                .with_serve_mode(mode)
        },
        &batches,
    );

    let report = report(&bench, &["original", "synthetic"]);
    let default_budget = bench.is_default_budget();
    bench.finish("serving fast path microbenches");
    print_table(&report);
    write_record(&report, "serve_fastpath", default_budget);
}
