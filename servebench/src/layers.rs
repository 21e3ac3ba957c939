//! The traced run: per-layer numbers measured from outside the program.
//!
//! Two sources of spans. The program's own sink writes its spans to a
//! file (`MCOND_LOG`), each stamped with the request's trace id, which
//! the server also returns in `x-mcond-trace`. The benchmark keeps its own
//! spans in memory: a root span per request (send → reply, carrying that
//! trace id) whose children replay the request through each layer's
//! public entry point — `RequestParser`, `decode_batch`,
//! `InductiveServer::try_serve`, `encode_logits` — plus a root per write
//! (promote, save, reload, timed inline) and per set-up stage. A layer's
//! self time is its span's duration minus what its children cover.

use crate::inputs::Inputs;
use crate::load::{Phase, WriteSample};
use crate::record::{self, Metric};
use crate::setup::{SetupTimes, Stack};
use crate::stats::{median, sorted};
use crate::verify::Epochs;
use mcond_core::{Checkpoint, InductiveServer};
use mcond_obs::json::Json;
use mcond_obs::MetricsSnapshot;
use mcond_serve::http::RequestParser;
use mcond_serve::{decode_batch, encode_logits, HttpLimits};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Most requests replayed through the layers (evenly strided).
const MAX_REPLAYS: usize = 1500;
/// `load_for_serving` replays behind `store.load_us`.
const LOAD_REPLAYS: usize = 5;

/// What the traced run hands over for the per-layer report.
pub struct Context<'a> {
    pub workload: &'static str,
    pub seed: u64,
    pub stack: &'a Stack,
    pub inputs: &'a Inputs,
    pub epochs: &'a [(u64, std::path::PathBuf)],
    /// The low and high read phases.
    pub measured: &'a [&'a Phase; 2],
    pub writes: &'a [WriteSample],
    pub setups: &'a [SetupTimes],
    /// Registry snapshot taken right after the traffic.
    pub traffic: &'a MetricsSnapshot,
    pub server_log: &'a Path,
    pub overhead: Overhead,
    pub base_nodes: usize,
    pub results: &'a Path,
}

/// What tracing cost: this run's figure minus its untraced twin's.
pub struct Overhead {
    /// On `cpu_us_per_req.low`.
    pub cpu_us: f64,
    /// On `p50_ms.low` (wall clock).
    pub p50_ms: f64,
}

/// Runs the workload untraced in a child process (same seed, same
/// length) and returns the record it appended to the results file, the
/// base of the tracing overhead.
///
/// # Errors
/// The child failing, or leaving no parsable record.
pub fn untraced_child(args: &crate::Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .arg("--results")
        .arg(args.results.as_os_str())
        .env_remove("MCOND_LOG")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the untraced child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines() {
        println!("[untraced] {line}");
    }
    if !out.status.success() {
        return Err(format!("untraced child run failed ({})", out.status));
    }
    std::fs::read_to_string(&args.results)
        .ok()
        .and_then(|t| Json::parse(t.lines().last()?).ok())
        .ok_or_else(|| format!("the untraced child left no record in {}", args.results.display()))
}

struct Span {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    trace: u64,
    start_us: f64,
    dur_us: f64,
    replay: bool,
}

#[derive(Default)]
struct Spans(Vec<Span>);

impl Spans {
    fn push(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        trace: u64,
        start_us: f64,
        dur_us: f64,
        replay: bool,
    ) -> usize {
        let id = self.0.len();
        self.0.push(Span { id, parent, name, trace, start_us, dur_us, replay });
        id
    }

    /// Children laid end to end from their parent's start: replays and
    /// sequential stages have no overlap of their own.
    fn chain(&mut self, parent: usize, parts: &[(&'static str, f64)], replay: bool) {
        let (trace, mut at) = (self.0[parent].trace, self.0[parent].start_us);
        for &(name, dur) in parts {
            self.push(Some(parent), name, trace, at, dur, replay);
            at += dur;
        }
    }

    /// `name -> (calls, total µs, self µs)`.
    fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut covered = vec![0.0; self.0.len()];
        for s in &self.0 {
            if let Some(p) = s.parent {
                covered[p] += s.dur_us;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &self.0 {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_us;
            e.2 += s.dur_us - covered[s.id];
        }
        out
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.0 {
            let rec = Json::obj()
                .with("id", s.id)
                .with("parent", s.parent.map_or(Json::Null, Json::from))
                .with("name", s.name)
                .with("trace", s.trace)
                .with("start_us", s.start_us)
                .with("dur_us", s.dur_us)
                .with("replay", s.replay);
            writeln!(f, "{}", rec.dump())?;
        }
        f.flush()
    }
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Server-side `serve` span durations by trace id, from the program's
/// own JSONL log.
fn server_spans(log: &Path) -> HashMap<u64, f64> {
    let Ok(text) = std::fs::read_to_string(log) else { return HashMap::new() };
    text.lines()
        .filter(|l| l.contains("\"serve\""))
        .filter_map(|l| Json::parse(l).ok())
        .filter(|j| {
            j.get("ev").and_then(Json::as_str) == Some("span")
                && j.get("name").and_then(Json::as_str) == Some("serve")
        })
        .filter_map(|j| {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let trace = j.get("trace")?.as_f64()? as u64;
            Some((trace, j.get("us")?.as_f64()?))
        })
        .collect()
}

fn hist_mean(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.sum / (h.count.max(1) as f64))
}

#[allow(clippy::cast_precision_loss)]
fn per(diff: u64, n: usize) -> f64 {
    diff as f64 / n.max(1) as f64
}

/// Replays, self-time table, Eq. 3 / Eq. 11 ratios, and the per-layer
/// metrics, in `BENCHMARK.json` order.
///
/// # Errors
/// A replayed call failing, or the span file being unwritable.
#[allow(clippy::too_many_lines)]
pub fn report(ctx: &Context<'_>) -> Result<Vec<Metric>, String> {
    let mut spans = Spans::default();
    let mut epochs = Epochs::new(ctx.epochs);

    // 1. Replays of the measured reads through every layer.
    let reads: Vec<_> = ctx.measured.iter().flat_map(|p| p.samples.iter()).filter(|s| s.ok()).collect();
    let stride = reads.len().div_ceil(MAX_REPLAYS).max(1);
    let picked: Vec<_> = reads.iter().step_by(stride).copied().collect();
    for s in &picked {
        epochs.get(s.reply.epoch)?;
    }
    let needed: HashSet<u64> = picked.iter().map(|s| s.reply.epoch).collect();
    let ckpts: HashMap<u64, Checkpoint> =
        needed.iter().map(|&e| epochs.get(e).map(|c| (e, c.clone()))).collect::<Result<_, _>>()?;
    let servers: HashMap<u64, InductiveServer<'_>> =
        ckpts.iter().map(|(&e, c)| (e, InductiveServer::from_checkpoint(c))).collect();
    let before = mcond_obs::snapshot();
    let (mut parse, mut decode, mut serve, mut encode, mut residual) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut req_bytes, mut resp_bytes) = (Vec::new(), Vec::new());
    for s in &picked {
        let wire = &ctx.inputs.pool[s.req as usize];
        let t = Instant::now();
        let mut parser = RequestParser::new(HttpLimits::default());
        parser.push(&wire.bytes);
        let request = parser.next_request().map_err(|e| e.to_string())?.ok_or("replay: short request")?;
        let parse_us = us_since(t);
        let t = Instant::now();
        let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        let batch = decode_batch(text).map_err(|e| e.to_string())?;
        let decode_us = us_since(t);
        let t = Instant::now();
        let logits = servers[&s.reply.epoch].try_serve(&batch).map_err(|e| e.to_string())?;
        let serve_us = us_since(t);
        let t = Instant::now();
        let body = encode_logits(s.reply.trace, &logits);
        let encode_us = us_since(t);
        std::hint::black_box(&body);
        let wire_us = s.done_us - s.sent_us;
        let root = spans.push(None, "request", s.reply.trace, s.sent_us, wire_us, false);
        spans.chain(
            root,
            &[
                ("http.parse", parse_us),
                ("codec.decode", decode_us),
                ("core.try_serve", serve_us),
                ("codec.encode", encode_us),
            ],
            true,
        );
        parse.push(parse_us);
        decode.push(decode_us);
        serve.push(serve_us);
        encode.push(encode_us);
        residual.push(wire_us - parse_us - decode_us - serve_us - encode_us);
        #[allow(clippy::cast_precision_loss)]
        {
            req_bytes.push(wire.bytes.len() as f64);
            resp_bytes.push(s.reply.bytes as f64);
        }
    }
    let after = mcond_obs::snapshot();
    let diff = |name: &str| per(after.counter(name).saturating_sub(before.counter(name)), picked.len());

    // 2. Writes (timed inline during the run) and set-up stages.
    for w in ctx.writes {
        let root = spans.push(None, "write", 0, w.start_us, w.total_us, false);
        spans.chain(
            root,
            &[("delta.promote", w.promote_us), ("store.save", w.save_us), ("serve.reload", w.reload_us)],
            false,
        );
    }
    for st in ctx.setups {
        let root = spans.push(None, "setup", 0, 0.0, st.total_s * 1e6, false);
        spans.chain(
            root,
            &[
                ("setup.generate", st.generate_s * 1e6),
                ("setup.model", st.model_s * 1e6),
                ("setup.save", st.save_s * 1e6),
                ("setup.boot", st.boot_s * 1e6),
            ],
            false,
        );
        let model = spans.0.iter().rev().find(|s| s.name == "setup.model").map(|s| (s.id, s.start_us));
        if let Some((id, start)) = model {
            // Training ends the model stage; what precedes it is condensation.
            let train_us = st.train_s * 1e6;
            spans.push(Some(id), "setup.train", 0, start + st.model_s * 1e6 - train_us, train_us, false);
        }
    }

    // 3. Store load replays.
    let mut loads = Vec::new();
    for _ in 0..LOAD_REPLAYS {
        let t = Instant::now();
        Checkpoint::load_for_serving(&ctx.stack.ckpt_path).map_err(|e| e.to_string())?;
        loads.push(us_since(t));
    }

    // 4. Link the benchmark's roots to the program's own spans.
    let server = server_spans(ctx.server_log);
    let roots: Vec<&Span> = spans.0.iter().filter(|s| s.name == "request").collect();
    let linked: Vec<f64> = roots.iter().filter_map(|r| server.get(&r.trace).copied()).collect();
    if linked.is_empty() {
        return Err(format!("no request span links to a server span in {}", ctx.server_log.display()));
    }
    #[allow(clippy::cast_precision_loss)]
    let linked_frac = linked.len() as f64 / roots.len().max(1) as f64;

    let traces = record::bench_dir().join("out").join("traces");
    let span_file = traces.join(format!("{}-seed{}.spans.jsonl", ctx.workload, ctx.seed));
    spans.write(&span_file).map_err(|e| format!("cannot write {}: {e}", span_file.display()))?;

    println!("\nself time by span ({} spans -> {})", spans.0.len(), span_file.display());
    println!("{:<16} {:>7} {:>12} {:>12} {:>12}", "span", "calls", "total_ms", "self_ms", "self_us/call");
    for (name, (calls, total, own)) in spans.self_times() {
        #[allow(clippy::cast_precision_loss)]
        let per_call = own / calls.max(1) as f64;
        println!("{name:<16} {calls:>7} {:>12.3} {:>12.3} {per_call:>12.2}", total / 1e3, own / 1e3);
    }
    println!(
        "server spans linked by x-mcond-trace: {}/{} request roots (log {})",
        linked.len(),
        roots.len(),
        ctx.server_log.display()
    );

    let reads_all: Vec<&crate::load::Sample> = ctx.measured.iter().flat_map(|p| p.samples.iter()).collect();
    let late = sorted(reads_all.iter().map(|s| s.late_ms()));
    println!(
        "trace overhead at the low rate (traced - untraced): {:+.2} us CPU per request, {:+.4} ms p50",
        ctx.overhead.cpu_us, ctx.overhead.p50_ms
    );
    match record::eq_ratios(ctx.results) {
        Ok(text) if !text.is_empty() => print!("{text}"),
        _ => println!("eq3-online / eq11-online ratios: run both online workloads untraced to see them"),
    }

    let t = ctx.traffic;
    #[allow(clippy::cast_precision_loss)]
    let coalesce = t.counter("serve.http.coalesced") as f64 / t.counter("serve.http.batches").max(1) as f64;
    let setup_med = |f: fn(&SetupTimes) -> f64| median(&ctx.setups.iter().map(f).collect::<Vec<_>>());
    let wmed = |f: fn(&WriteSample) -> f64| median(&ctx.writes.iter().map(f).collect::<Vec<_>>());
    let n = picked.len();
    #[allow(clippy::cast_precision_loss)]
    let base_nodes = ctx.base_nodes as f64;
    Ok(vec![
        Metric::new("http.parse_us", "us", median(&parse)).from(parse.clone(), n),
        Metric::new("codec.decode_us", "us", median(&decode)).from(decode.clone(), n),
        Metric::new("codec.encode_us", "us", median(&encode)).from(encode.clone(), n),
        Metric::new("codec.req_bytes", "bytes", median(&req_bytes)).from(req_bytes.clone(), n),
        Metric::new("codec.resp_bytes", "bytes", median(&resp_bytes)).from(resp_bytes.clone(), n),
        Metric::new("batcher.coalesce_ratio", "ratio", coalesce),
        Metric::new("wire.residual_us", "us", median(&residual)).from(residual.clone(), n),
        Metric::new("core.try_serve_us", "us", median(&serve)).from(serve.clone(), n),
        Metric::new("serve.stage.validate_us", "us", hist_mean(t, "serve.stage.validate")),
        Metric::new("serve.stage.attach_us", "us", hist_mean(t, "serve.stage.attach")),
        Metric::new("serve.stage.propagate_us", "us", hist_mean(t, "serve.stage.propagate")),
        Metric::new("serve.stage.head_us", "us", hist_mean(t, "serve.stage.head")),
        Metric::new("linalg.matmul.flops", "flop", diff("linalg.matmul.flops")),
        Metric::new("sparse.spmm.nnz", "count", diff("sparse.spmm.nnz")),
        Metric::new("sparse.spmm.bytes", "bytes", diff("sparse.spmm.bytes")),
        Metric::new("par.pool.tasks", "count", diff("par.pool.tasks")),
        Metric::new("delta.promote_us", "us", wmed(|w| w.promote_us)),
        Metric::new("delta.base_nodes", "count", base_nodes),
        Metric::new("store.save_us", "us", wmed(|w| w.save_us)),
        #[allow(clippy::cast_precision_loss)]
        Metric::new("store.save_bytes", "bytes", wmed(|w| w.save_bytes as f64)),
        Metric::new("store.load_us", "us", median(&loads)).from(loads.clone(), LOAD_REPLAYS),
        Metric::new("serve.reload_ms", "ms", t.histogram("serve.reload.ms").map_or(0.0, |h| h.p50)),
        Metric::new("setup.generate_s", "s", setup_med(|s| s.generate_s)),
        Metric::new("setup.model_s", "s", setup_med(|s| s.model_s)),
        Metric::new("setup.train_s", "s", setup_med(|s| s.train_s)),
        Metric::new("setup.save_s", "s", setup_med(|s| s.save_s)),
        Metric::new("setup.boot_s", "s", setup_med(|s| s.boot_s)),
        Metric::new("trace.overhead_cpu_us", "us", ctx.overhead.cpu_us),
        Metric::new("trace.overhead_ms", "ms", ctx.overhead.p50_ms),
        Metric::new("trace.linked_frac", "ratio", linked_frac),
        Metric::new("server.serve_us", "us", median(&linked)).from(linked.clone(), linked.len()),
        Metric::new("loadgen.late_p90_ms", "ms", crate::stats::percentile(&late, 0.9)),
        Metric::new("loadgen.late_max_ms", "ms", crate::stats::percentile(&late, 1.0)),
    ])
}
