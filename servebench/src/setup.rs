//! Set-up, timed stage by stage: dataset → (condense) → train →
//! checkpoint → `boot_slot` → `mcond_serve::spawn` with the default
//! `ServeConfig` → first accepted request.

use crate::wire::Conn;
use mcond_bench::{default_condense_config, default_epochs, train_on_graph};
use mcond_core::{condense, Checkpoint};
use mcond_gnn::GnnKind;
use mcond_graph::{load_dataset, Scale};
use mcond_serve::{boot_slot, spawn, ServeConfig, ServeHandle};
use mcond_sparse::Csr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The graph every workload serves: reddit at the small scale (N = 2600
/// training nodes, 1000 inductive test nodes, 8 classes).
pub const DATASET: &str = "reddit";
/// Dataset, condensation and weight seed. Fixed, so every run serves the
/// same model and `--seed` varies only the traffic.
pub const DATA_SEED: u64 = 0;
/// MCond condensation ratio: N' = 0.75 % of 2600 = 20 synthetic nodes.
pub const RATIO: f64 = 0.0075;
/// SGC hidden width, as in the repository's experiment pipeline.
const HIDDEN: usize = 64;

/// What the served checkpoint holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// MCond: synthetic graph S + mapping M, SGC trained on S (Eq. 11).
    Condensed,
    /// The training graph T behind an identity mapping, SGC trained on T
    /// (Eq. 3). No condensation step.
    Original,
}

/// Wall time of each set-up stage, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    /// Condense + train: everything that produces the model.
    pub model_s: f64,
    pub train_s: f64,
    pub save_s: f64,
    /// `boot_slot` + `spawn` + the first accepted request.
    pub boot_s: f64,
    pub total_s: f64,
    /// CPU seconds the whole process spent over `total_s`.
    pub cpu_s: f64,
}

/// A booted front end and the artifacts behind it.
pub struct Stack {
    pub handle: ServeHandle,
    pub ckpt: Checkpoint,
    pub ckpt_path: PathBuf,
    pub times: SetupTimes,
}

/// Runs the whole set-up once. `first` is the pre-encoded request whose
/// `200` ends the timed interval.
///
/// # Errors
/// Any failing stage, described.
pub fn build(target: Target, dir: &Path, tag: usize, first: &[u8]) -> Result<Stack, String> {
    let (t0, cpu0) = (Instant::now(), crate::load::process_cpu_s());
    let data = load_dataset(DATASET, Scale::Small, DATA_SEED)?;
    let original = data.original_graph();
    let generate_s = t0.elapsed().as_secs_f64();

    let t = Instant::now();
    let epochs = default_epochs(Scale::Small);
    let (ckpt, train_s) = match target {
        Target::Condensed => {
            let cfg = default_condense_config(DATASET, Scale::Small, RATIO, DATA_SEED);
            let condensed = condense(&data, &cfg);
            let tt = Instant::now();
            let model = train_on_graph(&condensed.synthetic, GnnKind::Sgc, epochs, HIDDEN, DATA_SEED);
            (condensed.checkpoint(&model), tt.elapsed().as_secs_f64())
        }
        Target::Original => {
            let model = train_on_graph(&original, GnnKind::Sgc, epochs, HIDDEN, DATA_SEED);
            let n = original.num_nodes();
            let ckpt = Checkpoint::new(original, Csr::eye(n), model)
                .map_err(|e| format!("identity checkpoint: {e}"))?;
            (ckpt, t.elapsed().as_secs_f64())
        }
    };
    let model_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let ckpt_path = dir.join(format!("boot-{tag}.mcst"));
    ckpt.save(&ckpt_path).map_err(|e| format!("save checkpoint: {e}"))?;
    let save_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let slot = boot_slot(&ckpt_path).map_err(|e| format!("boot_slot: {e}"))?;
    let handle = spawn(slot, ServeConfig::default()).map_err(|e| format!("spawn: {e}"))?;
    let status = Conn::open(handle.addr())
        .and_then(|mut c| c.call(first))
        .map_err(|e| format!("first request: {e}"))?
        .status;
    if status != 200 {
        return Err(format!("first request answered {status}"));
    }
    let boot_s = t.elapsed().as_secs_f64();
    let times = SetupTimes {
        generate_s,
        model_s,
        train_s,
        save_s,
        boot_s,
        total_s: t0.elapsed().as_secs_f64(),
        cpu_s: crate::load::process_cpu_s() - cpu0,
    };
    Ok(Stack { handle, ckpt, ckpt_path, times })
}
