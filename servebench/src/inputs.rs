//! Seeded, pre-encoded inputs. Everything a run sends — request bodies,
//! their order, the promotion schedule and its reload requests — is
//! generated and encoded here, before any timing starts, so client-side
//! JSON encoding never lands inside a latency.

use crate::wire;
use mcond_core::GraphDelta;
use mcond_graph::InductiveDataset;
use mcond_serve::encode_batch;
use std::path::{Path, PathBuf};

/// Distinct small requests in the online pool.
const ONLINE_POOL: usize = 1024;
/// Nodes per online request are drawn from `1..=ONLINE_MAX_NODES`.
const ONLINE_MAX_NODES: usize = 8;
/// Length of a request stream before it wraps around.
const STREAM_LEN: usize = 1 << 15;
/// Distinct bulk requests.
const BULK_POOL: usize = 48;
/// Nodes per bulk request.
pub const BULK_NODES: usize = 100;
/// Nodes promoted by one write.
pub const PROMOTE_NODES: usize = 4;
/// A bulk-live write follows every `WRITE_EVERY`-th request of caller 0.
pub const WRITE_EVERY: usize = 100;
/// Writes every workload performs in its own phase, on an idle server.
pub const ISOLATED_WRITES: usize = 40;
/// Most writes one run can perform (the schedule is pre-built this long).
const MAX_WRITES: usize = 512;

/// SplitMix64: tiny, seedable, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_5e12_7e57_0b1d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        let r = (self.next_u64() % n as u64) as usize;
        r
    }

    /// `k` distinct items of `from`, in draw order.
    pub fn pick(&mut self, from: &[usize], k: usize) -> Vec<usize> {
        let mut pool = from.to_vec();
        let k = k.min(pool.len());
        for i in 0..k {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// One pre-encoded `POST /v1/serve`.
pub struct WireRequest {
    /// The inductive (test-split) node ids the request carries.
    pub nodes: Vec<usize>,
    /// Head + body, exactly as written to the socket.
    pub bytes: Vec<u8>,
    body_start: usize,
}

impl WireRequest {
    fn new(data: &InductiveDataset, nodes: Vec<usize>, graph_batch: bool) -> Self {
        let body = encode_batch(&data.batch(&nodes, graph_batch));
        let bytes = wire::post("/v1/serve", body.as_bytes());
        let body_start = bytes.len() - body.len();
        Self { nodes, bytes, body_start }
    }

    /// The JSON body.
    #[must_use]
    pub fn body(&self) -> &[u8] {
        &self.bytes[self.body_start..]
    }
}

/// One scheduled write: the nodes promoted into the live base, where its
/// checkpoint is saved, and the pre-encoded reload request naming it.
pub struct Promotion {
    pub delta: GraphDelta,
    pub path: PathBuf,
    pub reload: Vec<u8>,
}

/// Everything one run sends.
pub struct Inputs {
    pub pool: Vec<WireRequest>,
    /// Pool indices in send order, one stream per caller (the online
    /// fixed-rate phases use stream 0 only).
    pub streams: Vec<Vec<u32>>,
    pub promotions: Vec<Promotion>,
}

impl Inputs {
    /// The request at position `pos` of caller `caller`'s stream.
    #[must_use]
    pub fn at(&self, caller: usize, pos: usize) -> (u32, &WireRequest) {
        let stream = &self.streams[caller];
        let idx = stream[pos % stream.len()];
        (idx, &self.pool[idx as usize])
    }

    /// Total nodes carried by pool request `idx`.
    #[must_use]
    pub fn nodes(&self, idx: u32) -> usize {
        self.pool[idx as usize].nodes.len()
    }
}

fn stream(rng: &mut Rng, pool: usize) -> Vec<u32> {
    #[allow(clippy::cast_possible_truncation)]
    (0..STREAM_LEN).map(|_| rng.below(pool) as u32).collect()
}

fn promotions(
    data: &InductiveDataset,
    dir: &Path,
    slices: impl Iterator<Item = Vec<usize>>,
) -> Vec<Promotion> {
    slices
        .take(MAX_WRITES)
        .enumerate()
        .map(|(k, nodes)| {
            let path = dir.join(format!("ckpt-v{:04}.mcst", k + 2));
            let body = mcond_obs::json::Json::obj()
                .with("path", path.to_string_lossy().as_ref())
                .dump();
            Promotion {
                delta: GraphDelta::from_batch(&data.batch(&nodes, true)),
                reload: wire::post("/v1/admin/reload", body.as_bytes()),
                path,
            }
        })
        .collect()
}

/// The online streams: 1–8 test nodes per request in the node-batch
/// setting (no intra-batch edges). Eq. 11 and Eq. 3 runs with the same
/// seed send byte-identical streams. Writes promote the leading nodes of
/// the stream's first requests.
#[must_use]
pub fn online(data: &InductiveDataset, seed: u64, dir: &Path) -> Inputs {
    let mut rng = Rng::new(seed);
    let pool: Vec<WireRequest> = (0..ONLINE_POOL)
        .map(|_| {
            let n = 1 + rng.below(ONLINE_MAX_NODES);
            WireRequest::new(data, rng.pick(&data.test_idx, n), false)
        })
        .collect();
    let streams = vec![stream(&mut rng, pool.len()), stream(&mut rng, pool.len())];
    let slices: Vec<Vec<usize>> = streams[0]
        .iter()
        .take(ISOLATED_WRITES)
        .map(|&i| pool[i as usize].nodes.iter().copied().take(PROMOTE_NODES).collect())
        .collect();
    let promotions = promotions(data, dir, slices.into_iter());
    Inputs { pool, streams, promotions }
}

/// The bulk stream: 100-node graph batches (intra-batch edges kept), two
/// callers. Write `k` follows caller 0's request `(k + 1) · WRITE_EVERY −
/// 1` and promotes a seeded slice of exactly that batch, so the base
/// grows the same way on every run with this seed.
#[must_use]
pub fn bulk(data: &InductiveDataset, seed: u64, dir: &Path) -> Inputs {
    let mut rng = Rng::new(seed);
    let pool: Vec<WireRequest> = (0..BULK_POOL)
        .map(|_| WireRequest::new(data, rng.pick(&data.test_idx, BULK_NODES), true))
        .collect();
    let streams = vec![stream(&mut rng, pool.len()), stream(&mut rng, pool.len())];
    let slices: Vec<Vec<usize>> = (0..MAX_WRITES)
        .map(|k| {
            let answered = &pool[streams[0][((k + 1) * WRITE_EVERY - 1) % STREAM_LEN] as usize];
            let at = rng.below(BULK_NODES - PROMOTE_NODES);
            answered.nodes[at..at + PROMOTE_NODES].to_vec()
        })
        .collect();
    let promotions = promotions(data, dir, slices.into_iter());
    Inputs { pool, streams, promotions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_graph::{load_dataset, Scale};

    fn fingerprint(inputs: &Inputs) -> Vec<u8> {
        let mut all = Vec::new();
        for r in &inputs.pool {
            all.extend_from_slice(&r.bytes);
        }
        for s in &inputs.streams {
            all.extend(s.iter().flat_map(|i| i.to_le_bytes()));
        }
        for p in &inputs.promotions {
            all.extend_from_slice(encode_batch(&p.delta.batch).as_bytes());
        }
        all
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs_and_another_seed_does_not() {
        let data = load_dataset(crate::setup::DATASET, Scale::Small, crate::setup::DATA_SEED)
            .expect("dataset");
        let dir = Path::new("unused");
        for make in [online, bulk] {
            let a = fingerprint(&make(&data, 7, dir));
            let b = fingerprint(&make(&data, 7, dir));
            let c = fingerprint(&make(&data, 8, dir));
            assert_eq!(a, b, "same seed must give byte-identical inputs");
            assert_ne!(a, c, "another seed must give other inputs");
        }
    }

    #[test]
    fn online_bodies_stay_small_and_bulk_bodies_carry_100_nodes() {
        let data = load_dataset(crate::setup::DATASET, Scale::Small, crate::setup::DATA_SEED)
            .expect("dataset");
        let dir = Path::new("unused");
        let on = online(&data, 1, dir);
        assert!(on.pool.iter().all(|r| (1..=ONLINE_MAX_NODES).contains(&r.nodes.len())));
        assert!(on.pool.iter().all(|r| r.body().len() <= 24 * 1024));
        let bk = bulk(&data, 1, dir);
        assert!(bk.pool.iter().all(|r| r.nodes.len() == BULK_NODES));
        assert_eq!(bk.promotions.len(), MAX_WRITES);
    }
}
