//! The headline experiment in miniature: how much faster and smaller is
//! inductive inference on the condensed graph versus the original graph?
//! (Paper: up to 121.5x speedup and 55.9x memory reduction on Reddit.)
//!
//! The second half layers the **serving fast path** on top: the same
//! condensed graph served through [`InductiveServer`] in each
//! [`ServeMode`] — the legacy vstack-and-slice reference (`Extended`),
//! the receptive-field exact path (`Exact`, the default; verified
//! bitwise against the reference here), and the approximate frozen-base
//! cache (`FrozenBase`).
//!
//! ```sh
//! cargo run --release --example inference_acceleration
//! ```

use mcond::prelude::*;
use std::time::Instant;

fn main() {
    // Reddit-like: the largest, densest bundled dataset.
    let data = load_dataset("reddit", Scale::Small, 0).expect("bundled dataset");
    let original = data.original_graph();
    let condensed = condense(
        &data,
        &McondConfig { ratio: 0.01, outer_loops: 3, relay_steps: 10, ..Default::default() },
    );

    // One model serves both targets: train on the original graph (O->·).
    let ops = GraphOps::from_adj(&original.adj);
    let mut model = GnnModel::new(
        GnnKind::Sgc,
        original.feature_dim(),
        64,
        original.num_classes,
        0,
    );
    train(
        &mut model,
        &ops,
        &original.features,
        &original.labels,
        &TrainConfig { epochs: 150, lr: 0.03, ..TrainConfig::default() },
        None,
    );

    let meter = CostMeter::default();
    let batches = data.test_batches(1000, true);
    let targets = [
        ("original graph (Whole)", InferenceTarget::Original(&original)),
        (
            "synthetic graph (MCond)",
            InferenceTarget::Synthetic {
                graph: &condensed.synthetic,
                mapping: &condensed.mapping,
            },
        ),
    ];

    let mut costs = Vec::new();
    for (label, target) in &targets {
        let mut seconds = 0.0;
        let mut memory = 0usize;
        let mut hits = 0.0;
        let mut total = 0usize;
        for batch in &batches {
            let (adj, x) = target.attach(batch);
            let n_base = target.base_nodes();
            let (logits, cost) = meter.measure(&adj, x.rows(), x.cols(), || {
                let ops = GraphOps::from_adj(&adj);
                let full = model.predict(&ops, &x);
                full.slice_rows(n_base, full.rows())
            });
            hits += accuracy(&logits, &batch.labels) * batch.len() as f64;
            total += batch.len();
            seconds += cost.seconds;
            memory = memory.max(cost.memory_bytes);
        }
        println!(
            "{label:>24}: acc {:.2}%  time {:.2} ms/batch  memory {:.2} MB",
            100.0 * hits / total as f64,
            1000.0 * seconds / batches.len() as f64,
            memory as f64 / 1e6
        );
        costs.push((seconds, memory));
    }

    println!(
        "\nMCond vs Whole: {:.1}x inference speedup, {:.1}x memory reduction",
        costs[0].0 / costs[1].0.max(1e-12),
        costs[0].1 as f64 / costs[1].1.max(1) as f64
    );

    // --- Serving fast path on the condensed graph -----------------------
    // The servers above re-materialised the extended graph per batch; the
    // InductiveServer streams through the shared base instead, and the
    // exact receptive-field path (the default) never copies base features.
    println!("\nserving fast path (same condensed graph, {} batches):", batches.len());
    let modes = [
        ("Extended (reference)", ServeMode::Extended),
        ("Exact (fast path)", ServeMode::Exact),
        ("FrozenBase (approx.)", ServeMode::FrozenBase),
    ];
    let mut reference: Option<DMat> = None;
    for (label, mode) in modes {
        let server =
            InductiveServer::on_synthetic(&condensed.synthetic, &condensed.mapping, &model)
                .with_serve_mode(mode);
        let start = Instant::now();
        let first = server.serve(&batches[0]);
        for batch in &batches[1..] {
            let _ = server.serve(batch);
        }
        let elapsed = start.elapsed().as_secs_f64();
        match (&reference, mode) {
            (None, _) => reference = Some(first),
            (Some(r), ServeMode::Exact) => assert_eq!(
                r.as_slice(),
                first.as_slice(),
                "exact fast path must be bitwise identical to the reference"
            ),
            _ => {}
        }
        let snap = server.metrics_snapshot();
        let gauge = |name: &str| {
            snap.gauges.iter().find(|(k, _)| k == name).map_or(0.0, |(_, v)| *v)
        };
        println!(
            "{label:>22}: {:.2} ms/batch  base bytes avoided {:.2} MB",
            1000.0 * elapsed / batches.len() as f64,
            gauge("serve.bytes_saved") / 1e6
        );
    }
    println!("exact fast path verified bitwise against the extended reference");
}
