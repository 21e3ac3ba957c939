//! The correctness gate, run after the timed window: every answered
//! request must carry exactly the logits a direct `try_serve` on the
//! checkpoint of the epoch named in its `x-mcond-epoch` header gives for
//! the same (decoded) batch.

use crate::inputs::Inputs;
use crate::load::Phase;
use crate::wire::logits_digest;
use mcond_core::{Checkpoint, InductiveServer};
use mcond_serve::{decode_batch, encode_logits};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::PathBuf;

/// Served-node accuracy over the verified answers.
#[derive(Clone, Copy, Debug, Default)]
pub struct Verified {
    pub nodes: usize,
    pub correct: usize,
}

impl Verified {
    /// Sums per-phase tallies.
    #[must_use]
    pub fn sum<'a>(parts: impl IntoIterator<Item = &'a Verified>) -> Self {
        parts.into_iter().fold(Self::default(), |a, b| Self {
            nodes: a.nodes + b.nodes,
            correct: a.correct + b.correct,
        })
    }

    #[must_use]
    pub fn accuracy(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let acc = self.correct as f64 / self.nodes.max(1) as f64;
        acc
    }
}

/// Checkpoints by epoch, loaded from their files on first use.
pub struct Epochs<'a> {
    files: &'a [(u64, PathBuf)],
    loaded: HashMap<u64, Checkpoint>,
}

impl<'a> Epochs<'a> {
    #[must_use]
    pub fn new(files: &'a [(u64, PathBuf)]) -> Self {
        Self { files, loaded: HashMap::new() }
    }

    /// The checkpoint that serves `epoch`.
    ///
    /// # Errors
    /// An epoch no reload installed, or an unreadable checkpoint file.
    pub fn get(&mut self, epoch: u64) -> Result<&Checkpoint, String> {
        if let Entry::Vacant(slot) = self.loaded.entry(epoch) {
            let path = self
                .files
                .iter()
                .find(|(e, _)| *e == epoch)
                .map(|(_, p)| p)
                .ok_or_else(|| format!("answer names epoch {epoch}, which no reload installed"))?;
            let ckpt = Checkpoint::load(path)
                .map_err(|e| format!("epoch {epoch}: cannot load {}: {e}", path.display()))?;
            slot.insert(ckpt);
        }
        Ok(&self.loaded[&epoch])
    }
}

/// Checks every `200` answer of every phase, returning per phase how
/// many nodes were answered and how many of them correctly.
///
/// # Errors
/// A description of the first answer that differs from the direct call,
/// or of an epoch with no known checkpoint.
pub fn verify(
    phases: &[Phase],
    inputs: &Inputs,
    labels: &[usize],
    epochs: &[(u64, PathBuf)],
) -> Result<Vec<Verified>, String> {
    let mut ckpts = Epochs::new(epochs);
    // (epoch, pool index) -> (digest, correctly classified nodes)
    let mut expected: HashMap<(u64, u32), (u64, usize)> = HashMap::new();
    phases
        .iter()
        .map(|p| verify_phase(p, inputs, labels, &mut ckpts, &mut expected))
        .collect()
}

/// The digest and correctly classified node count of the direct
/// `try_serve` answer to pool request `req` on `epoch`.
fn expect(
    ckpts: &mut Epochs<'_>,
    epoch: u64,
    req: u32,
    inputs: &Inputs,
    labels: &[usize],
) -> Result<(u64, usize), String> {
    let server = InductiveServer::from_checkpoint(ckpts.get(epoch)?);
    let wire = &inputs.pool[req as usize];
    let text = std::str::from_utf8(wire.body()).map_err(|e| e.to_string())?;
    let batch = decode_batch(text).map_err(|e| format!("request {req}: {e}"))?;
    let logits =
        server.try_serve(&batch).map_err(|e| format!("direct try_serve of request {req}: {e}"))?;
    let correct =
        logits.argmax_rows().iter().zip(&wire.nodes).filter(|(p, n)| **p == labels[**n]).count();
    Ok((logits_digest(encode_logits(0, &logits).as_bytes()), correct))
}

fn verify_phase(
    phase: &Phase,
    inputs: &Inputs,
    labels: &[usize],
    ckpts: &mut Epochs<'_>,
    expected: &mut HashMap<(u64, u32), (u64, usize)>,
) -> Result<Verified, String> {
    let mut out = Verified::default();
    for s in phase.samples.iter().filter(|s| s.ok()) {
        let epoch = s.reply.epoch;
        let (digest, correct) = match expected.entry((epoch, s.req)) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(slot) => *slot.insert(expect(ckpts, epoch, s.req, inputs, labels)?),
        };
        if digest != s.reply.digest {
            return Err(format!(
                "request {} (caller {}, epoch {epoch}): the wire answer differs from try_serve",
                s.req, s.caller
            ));
        }
        out.nodes += inputs.nodes(s.req);
        out.correct += correct;
    }
    Ok(out)
}
