//! Result records: provenance, the per-run line appended to the results
//! file, and the compare mode that diffs two results files.

use crate::stats::quartiles;
use mcond_obs::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The benchmark's own directory (results and traces go under `out/`).
#[must_use]
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository checkout the benchmark was built in.
#[must_use]
pub fn repo_dir() -> PathBuf {
    bench_dir().parent().map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The commit checked out, read from `.git` without running git; `None`
/// outside a git checkout.
fn commit() -> Option<String> {
    let git = repo_dir().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head.to_owned()) };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
}

/// FNV digest over the served program's sources and manifests, so a
/// record made outside a git checkout still names the code it measured.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let root = repo_dir();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&bench_dir().join("src"), &mut files);
    files.sort();
    let mut state = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            let rel = f.strip_prefix(&root).unwrap_or(f);
            state = crate::wire::fnv1a(rel.to_string_lossy().as_bytes(), state);
            state = crate::wire::fnv1a(&bytes, state);
        }
    }
    format!("{state:016x}")
}

/// Where and on what the numbers were measured.
#[must_use]
pub fn provenance(seed: u64, seconds: u64, trace: bool) -> Json {
    let env = |k: &str| std::env::var(k).map_or(Json::Null, |v| Json::from(v.as_str()));
    let detected = mcond_linalg::simd::available_levels()
        .last()
        .map_or("scalar", |l| l.name());
    Json::obj()
        .with("commit", commit().map_or(Json::Null, |c| Json::from(c.as_str())))
        .with("source_digest", source_digest().as_str())
        .with("nproc", std::thread::available_parallelism().map_or(0, std::num::NonZero::get))
        .with("simd_detected", detected)
        .with("simd_level", mcond_linalg::simd::simd_level().name())
        .with("MCOND_SIMD", env("MCOND_SIMD"))
        .with("MCOND_THREADS", env("MCOND_THREADS"))
        .with("pool_threads", mcond_par::max_threads())
        .with("seed", seed)
        .with("seconds", seconds)
        .with("trace", trace)
}

/// One metric of a record, with the samples it was computed from.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The values the reported one summarises (windows, repetitions...).
    pub samples: Vec<f64>,
    /// How many raw observations stand behind it (requests, runs...).
    pub count: usize,
}

impl Metric {
    #[must_use]
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value, samples: vec![value], count: 1 }
    }

    #[must_use]
    pub fn from(mut self, samples: Vec<f64>, count: usize) -> Self {
        self.samples = samples;
        self.count = count;
        self
    }

    #[must_use]
    pub fn to_json(&self) -> Json {
        let (q1, _, q3) = quartiles(&self.samples);
        Json::obj()
            .with("value", self.value)
            .with("unit", self.unit)
            .with("count", self.count)
            .with("summarised", self.samples.len())
            .with("q1", q1)
            .with("q3", q3)
    }
}

/// Appends one line to the results file.
///
/// # Errors
/// I/O failures.
pub fn append(path: &Path, record: &Json) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{}", record.dump())
}

/// Untraced records of a results file: workload -> metric -> values,
/// gated and informational metrics alike.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &Path) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut table = Table::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rec = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if rec.get("provenance").and_then(|p| p.get("trace")) != Some(&Json::Bool(false)) {
            continue;
        }
        let Some(workload) = rec.get("workload").and_then(Json::as_str) else { continue };
        let row = table.entry(workload.to_owned()).or_default();
        for section in ["metrics", "info"] {
            for (name, m) in rec.get(section).and_then(Json::as_obj).unwrap_or_default() {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    row.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(table)
}

/// `(name, better_is_lower, bound)` of each end-to-end metric.
fn bounds(bench: &Path) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", bench.display()))?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", bench.display()))?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Compare mode: both medians for every (workload, metric) pair, flagged
/// only when the change exceeds the metric's bound, and "unresolved"
/// when either side's run-to-run spread (quartile distance over median)
/// is wider than the bound.
///
/// # Errors
/// Unreadable inputs.
pub fn compare(base: &Path, change: &Path, bench: &Path) -> Result<String, String> {
    let (a, b, bounds) = (load(base)?, load(change)?, bounds(bench)?);
    let mut out = format!(
        "{:<16} {:<14} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict\n",
        "workload", "metric", "base", "change", "delta", "spr.a", "spr.b"
    );
    for (workload, row_a) in &a {
        let Some(row_b) = b.get(workload) else { continue };
        for (name, lower_better, bound) in &bounds {
            let (Some(va), Some(vb)) = (row_a.get(name), row_b.get(name)) else { continue };
            let ((qa1, ma, qa3), (qb1, mb, qb3)) = (quartiles(va), quartiles(vb));
            let (sa, sb) = ((qa3 - qa1) / ma.abs(), (qb3 - qb1) / mb.abs());
            let delta = (mb - ma) / ma.abs();
            let worse = if *lower_better { delta } else { -delta };
            let verdict = if sa > *bound || sb > *bound {
                "unresolved"
            } else if worse > *bound {
                "REGRESSION"
            } else if -worse > *bound {
                "improved"
            } else {
                ""
            };
            out.push_str(&format!(
                "{workload:<16} {name:<14} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {verdict}\n",
                delta * 100.0,
                sa * 100.0,
                sb * 100.0
            ));
        }
    }
    for path in [base, change] {
        out.push_str(&eq_ratios(path)?);
    }
    Ok(out)
}

/// The paper's Eq. 3 / Eq. 11 comparison over the wire: the ratio of the
/// two online workloads' medians of `p50_ms.low` and `max_rate_rps` in a
/// results file, with their bases. Empty unless both workloads ran.
///
/// # Errors
/// An unreadable results file.
pub fn eq_ratios(results: &Path) -> Result<String, String> {
    let t = load(results)?;
    let med = |w: &str, m: &str| t.get(w).and_then(|r| r.get(m)).map(|v| (quartiles(v).1, v.len()));
    let mut out = String::new();
    for metric in ["p50_ms.low", "max_rate_rps"] {
        if let (Some((e3, n3)), Some((e11, n11))) = (med("eq3-online", metric), med("eq11-online", metric)) {
            out.push_str(&format!(
                "{}: eq3-online / eq11-online {metric} = {:.3} (eq3 {e3:.4} over {n3} runs / eq11 {e11:.4} over {n11} runs)\n",
                results.display(),
                e3 / e11
            ));
        }
    }
    Ok(out)
}
