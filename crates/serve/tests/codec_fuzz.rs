//! Seeded property fuzzing of the wire codec, in the same style as the
//! store fault-injection suite: random `NodeBatch`es (including NaN/Inf
//! contamination and empty shapes) must either round-trip bitwise or
//! fail with a typed [`CodecError`]; random byte mutations and
//! truncations of valid payloads must never panic the decoder.
//!
//! The second half is differential: the single-pass decoders must return
//! exactly what a tree decoder (`Json::parse`, then a walk) returns, on
//! random schema-shaped documents, mutated bodies, odd number spellings,
//! decimals at f32 rounding midpoints and deep nesting; and the encoders
//! must write the tree writer's bytes.

use mcond_graph::NodeBatch;
use mcond_linalg::MatRng;
use mcond_serve::{decode_batch, decode_logits, encode_batch, encode_logits, CodecError};
use mcond_sparse::Coo;

/// Draws a random batch: `n×d` features, `n×base` incremental, `n×n`
/// interconnect, with occasional degenerate shapes.
fn random_batch(rng: &mut MatRng, round: usize) -> NodeBatch {
    let n = [0usize, 1, 2, 3, 5, 8][round % 6];
    let d = 1 + round % 4;
    let base = 1 + round % 5;
    let features = rng.normal(n, d, 0.0, 10.0);
    let mut inc = Coo::new(n, base);
    let mut inter = Coo::new(n, n);
    for i in 0..n {
        inc.push(i, i % base, rng.normal(1, 1, 0.0, 1.0).get(0, 0));
        if n > 1 {
            inter.push(i, (i + 1) % n, 1.0);
        }
    }
    NodeBatch {
        features,
        incremental: inc.to_csr(),
        interconnect: inter.to_csr(),
        labels: (0..n).map(|i| i % 2).collect(),
    }
}

/// Seeds a deterministic corruption into the batch's floats.
fn poison(batch: &mut NodeBatch, round: usize) {
    if batch.features.rows() == 0 {
        return;
    }
    let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][round % 3];
    batch.features.set(0, 0, bad);
}

#[test]
fn clean_batches_round_trip_bitwise() {
    let mut rng = MatRng::seed_from(0x5EED);
    for round in 0..200 {
        let batch = random_batch(&mut rng, round);
        let text = encode_batch(&batch);
        let back = decode_batch(&text)
            .unwrap_or_else(|e| panic!("round {round}: clean batch failed decode: {e}"));
        assert!(back.features.bit_eq(&batch.features), "round {round}: features drifted");
        assert!(back.incremental.bit_eq(&batch.incremental), "round {round}: incremental");
        assert!(back.interconnect.bit_eq(&batch.interconnect), "round {round}: interconnect");
        assert_eq!(back.labels, batch.labels, "round {round}: labels");
    }
}

#[test]
fn non_finite_payloads_fail_typed_never_panic() {
    let mut rng = MatRng::seed_from(0xBAD);
    let mut typed_failures = 0;
    for round in 0..120 {
        let mut batch = random_batch(&mut rng, round);
        poison(&mut batch, round);
        match decode_batch(&encode_batch(&batch)) {
            Ok(back) => {
                // Empty batches have nothing to poison and stay clean.
                assert_eq!(batch.features.rows(), 0, "round {round}: poison decoded");
                assert_eq!(back.features.rows(), 0);
            }
            Err(CodecError::Type { field, .. }) => {
                assert_eq!(field, "features", "round {round}");
                typed_failures += 1;
            }
            Err(other) => panic!("round {round}: wrong error class: {other}"),
        }
    }
    assert!(typed_failures > 50, "poisoning must actually exercise the error path");
}

#[test]
fn logits_round_trip_bitwise_including_edge_floats() {
    let specials: &[f32] = &[
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        1.0e-40, // subnormal
        123_456.75,
    ];
    let mut rng = MatRng::seed_from(0xF10A7);
    for round in 0..100 {
        let rows = round % 5;
        let cols = 1 + round % 3;
        let mut logits = rng.normal(rows, cols, 0.0, 1.0e6);
        if rows > 0 {
            logits.set(0, 0, specials[round % specials.len()]);
        }
        let (trace, back) = decode_logits(&encode_logits(round as u64, &logits))
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(trace, round as u64);
        assert!(back.bit_eq(&logits), "round {round}: logits drifted");
    }
}

/// Byte-level adversarial pass: mutate or truncate a valid payload at a
/// seeded random position. The decoder must return — `Ok` or typed
/// `Err` — but never panic (the harness would abort on panic).
#[test]
fn mutated_and_truncated_payloads_never_panic() {
    let mut rng = MatRng::seed_from(0xC0DEC);
    let base = {
        let batch = random_batch(&mut rng, 4);
        encode_batch(&batch)
    };
    let draw = |rng: &mut MatRng, bound: usize| -> usize {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let v = (rng.normal(1, 1, 0.0, 1.0).get(0, 0).abs() * 1.0e4) as usize;
        v % bound.max(1)
    };
    let mut outcomes = [0usize; 2];
    for round in 0..600 {
        let mut bytes = base.clone().into_bytes();
        if round % 3 == 0 {
            // Truncation.
            bytes.truncate(draw(&mut rng, bytes.len()));
        } else {
            // Single-byte mutation over printable-ish space.
            let pos = draw(&mut rng, bytes.len());
            let delta = 1 + (draw(&mut rng, 94)) as u8;
            bytes[pos] = 32 + (bytes[pos].wrapping_add(delta)) % 95;
        }
        // Non-UTF8 never reaches the codec in the server (the endpoint
        // rejects it first); nothing to assert for that branch.
        if let Ok(text) = String::from_utf8(bytes) {
            match decode_batch(&text) {
                Ok(_) => outcomes[0] += 1,
                Err(_) => outcomes[1] += 1,
            }
        }
    }
    assert!(outcomes[1] > 100, "mutations must exercise the error paths: {outcomes:?}");
}

/// The differential reference: a tree decoder and writer (`Json::parse`
/// into a value tree, then a walk over it; `Json::dump` of a built tree).
/// The streaming codec must return the same `Result` for every input (up
/// to the message inside `Parse`) and write the same bytes.
mod reference {
    use mcond_graph::NodeBatch;
    use mcond_linalg::DMat;
    use mcond_obs::Json;
    use mcond_serve::{CodecError, MAX_WIRE_COLS};
    use mcond_sparse::{Coo, Csr};

    const PREALLOC_CLAMP: usize = 1 << 20;

    pub fn decode_batch(text: &str) -> Result<NodeBatch, CodecError> {
        let json = Json::parse(text).map_err(CodecError::Parse)?;
        batch_from_json(&json)
    }

    fn batch_from_json(json: &Json) -> Result<NodeBatch, CodecError> {
        let Json::Obj(_) = json else {
            return Err(CodecError::Type { field: "<root>", expected: "an object" });
        };
        let rows = json
            .get("features")
            .ok_or(CodecError::Missing("features"))?
            .as_arr()
            .ok_or(CodecError::Type { field: "features", expected: "an array of rows" })?;
        let n = rows.len();
        let dim = match json.get("feature_dim") {
            Some(v) => Some(parse_index(v, "feature_dim")?),
            None => None,
        };
        let first_width = match rows.first() {
            Some(row) => row
                .as_arr()
                .ok_or(CodecError::Type { field: "features", expected: "an array of rows" })?
                .len(),
            None => dim.ok_or(CodecError::Missing("feature_dim"))?,
        };
        if let Some(d) = dim {
            if n > 0 && d != first_width {
                return Err(CodecError::Ragged { row: 0, got: first_width, expected: d });
            }
        }
        let mut data = Vec::with_capacity(n.saturating_mul(first_width).min(PREALLOC_CLAMP));
        for (i, row) in rows.iter().enumerate() {
            let row = row
                .as_arr()
                .ok_or(CodecError::Type { field: "features", expected: "an array of rows" })?;
            if row.len() != first_width {
                return Err(CodecError::Ragged { row: i, got: row.len(), expected: first_width });
            }
            for v in row {
                data.push(parse_f32(v, "features")?);
            }
        }
        let features = DMat::from_vec(n, first_width, data);
        let inc_json = json.get("incremental").ok_or(CodecError::Missing("incremental"))?;
        let incremental = csr_from_json(inc_json, "incremental", n, None)?;
        let interconnect = match json.get("interconnect") {
            Some(j) => csr_from_json(j, "interconnect", n, Some(n))?,
            None => Csr::empty(n, n),
        };
        let labels = match json.get("labels") {
            Some(Json::Arr(items)) => {
                let mut labels = Vec::with_capacity(items.len());
                for item in items {
                    labels.push(parse_index(item, "labels")?);
                }
                labels
            }
            Some(_) => {
                return Err(CodecError::Type { field: "labels", expected: "an array of integers" })
            }
            None => vec![0; n],
        };
        Ok(NodeBatch { features, incremental, interconnect, labels })
    }

    fn csr_from_json(
        json: &Json,
        field: &'static str,
        default_rows: usize,
        default_cols: Option<usize>,
    ) -> Result<Csr, CodecError> {
        let Json::Obj(_) = json else {
            return Err(CodecError::Type { field, expected: "an object with an entries array" });
        };
        let rows = match json.get("rows") {
            Some(v) => parse_index(v, field)?,
            None => default_rows,
        };
        if rows != default_rows {
            return Err(CodecError::RowCountMismatch { field, got: rows, expected: default_rows });
        }
        let cols = match (json.get("cols"), default_cols) {
            (Some(v), _) => parse_index(v, field)?,
            (None, Some(d)) => d,
            (None, None) => return Err(CodecError::Missing("incremental.cols")),
        };
        if cols > MAX_WIRE_COLS {
            return Err(CodecError::ColsTooLarge { field, got: cols, max: MAX_WIRE_COLS });
        }
        let entries = match json.get("entries") {
            Some(j) => j.as_arr().ok_or(CodecError::Type { field, expected: "an entries array" })?,
            None => &[],
        };
        let mut coo = Coo::with_capacity(rows, cols, entries.len());
        for (index, entry) in entries.iter().enumerate() {
            let triple = entry.as_arr().ok_or(CodecError::EntryShape { field, index })?;
            let [i, j, v] = triple else {
                return Err(CodecError::EntryShape { field, index });
            };
            let i = parse_index(i, field)?;
            let j = parse_index(j, field)?;
            let v = parse_f32(v, field)?;
            if i >= rows || j >= cols {
                return Err(CodecError::EntryOutOfRange { field, row: i, col: j, rows, cols });
            }
            coo.push(i, j, v);
        }
        Ok(coo.to_csr())
    }

    pub fn decode_logits(text: &str) -> Result<(u64, DMat), CodecError> {
        let json = Json::parse(text).map_err(CodecError::Parse)?;
        let trace = parse_index(json.get("trace").ok_or(CodecError::Missing("trace"))?, "trace")?;
        let rows = parse_index(json.get("rows").ok_or(CodecError::Missing("rows"))?, "rows")?;
        let cols = parse_index(json.get("cols").ok_or(CodecError::Missing("cols"))?, "cols")?;
        let body = json
            .get("logits")
            .ok_or(CodecError::Missing("logits"))?
            .as_arr()
            .ok_or(CodecError::Type { field: "logits", expected: "an array of rows" })?;
        if body.len() != rows {
            return Err(CodecError::Type { field: "logits", expected: "exactly `rows` rows" });
        }
        let mut data = Vec::with_capacity(rows.saturating_mul(cols).min(PREALLOC_CLAMP));
        for row in body {
            let row = row
                .as_arr()
                .ok_or(CodecError::Type { field: "logits", expected: "an array of rows" })?;
            if row.len() != cols {
                return Err(CodecError::Type {
                    field: "logits",
                    expected: "exactly `cols` columns",
                });
            }
            for v in row {
                data.push(parse_f32(v, "logits")?);
            }
        }
        Ok((trace as u64, DMat::from_vec(rows, cols, data)))
    }

    fn parse_f32(json: &Json, field: &'static str) -> Result<f32, CodecError> {
        match json {
            Json::Num(v) if v.is_finite() => {
                let f = *v as f32;
                if f.is_finite() {
                    Ok(f)
                } else {
                    Err(CodecError::Type { field, expected: "a finite number" })
                }
            }
            _ => Err(CodecError::Type { field, expected: "a finite number" }),
        }
    }

    fn parse_index(json: &Json, field: &'static str) -> Result<usize, CodecError> {
        match json {
            Json::Num(v)
                if v.is_finite() && *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) =>
            {
                Ok(*v as usize)
            }
            _ => Err(CodecError::BadIndex { field }),
        }
    }

    pub fn encode_batch(batch: &NodeBatch) -> String {
        Json::obj()
            .with("feature_dim", batch.features.cols())
            .with("features", rows_to_json(&batch.features))
            .with("incremental", csr_to_json(&batch.incremental))
            .with("interconnect", csr_to_json(&batch.interconnect))
            .with("labels", Json::Arr(batch.labels.iter().map(|&l| Json::from(l)).collect()))
            .dump()
    }

    pub fn encode_logits(trace: u64, logits: &DMat) -> String {
        Json::obj()
            .with("trace", trace)
            .with("rows", logits.rows())
            .with("cols", logits.cols())
            .with("logits", rows_to_json(logits))
            .dump()
    }

    fn rows_to_json(m: &DMat) -> Json {
        Json::Arr(
            (0..m.rows())
                .map(|i| Json::Arr(m.row(i).iter().map(|&v| Json::from(v)).collect()))
                .collect(),
        )
    }

    fn csr_to_json(m: &Csr) -> Json {
        Json::obj().with("rows", m.rows()).with("cols", m.cols()).with(
            "entries",
            Json::Arr(
                m.iter()
                    .map(|(i, j, v)| Json::Arr(vec![Json::from(i), Json::from(j), Json::from(v)]))
                    .collect(),
            ),
        )
    }
}

/// Asserts the streaming decoder and the reference agree on `text`: the
/// same error (any `Parse` matches any `Parse`), or bitwise-equal batches.
fn assert_batch_agrees(text: &str) -> bool {
    let got = decode_batch(text);
    let want = reference::decode_batch(text);
    match (&got, &want) {
        (Ok(g), Ok(w)) => {
            assert!(g.features.bit_eq(&w.features), "features differ on {text:?}");
            assert!(g.incremental.bit_eq(&w.incremental), "incremental differs on {text:?}");
            assert!(g.interconnect.bit_eq(&w.interconnect), "interconnect differs on {text:?}");
            assert_eq!(g.labels, w.labels, "labels differ on {text:?}");
        }
        (Err(CodecError::Parse(_)), Err(CodecError::Parse(_))) => {}
        (Err(g), Err(w)) if g == w => {}
        _ => panic!("decoders disagree on {text:?}:\n  streaming {got:?}\n  reference {want:?}"),
    }
    got.is_ok()
}

fn assert_logits_agree(text: &str) {
    match (decode_logits(text), reference::decode_logits(text)) {
        (Ok((gt, g)), Ok((wt, w))) => {
            assert_eq!(gt, wt, "trace differs on {text:?}");
            assert!(g.bit_eq(&w), "logits differ on {text:?}");
        }
        (Err(CodecError::Parse(_)), Err(CodecError::Parse(_))) => {}
        (Err(g), Err(w)) if g == w => {}
        (got, want) => {
            panic!("decoders disagree on {text:?}:\n  streaming {got:?}\n  reference {want:?}")
        }
    }
}

/// splitmix64: a tiny seeded source for the byte-level fuzzers.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Number spellings that stress the token rule and both number paths.
const SPELLINGS: &[&str] = &[
    "0", "1", "7", "01", "00", "-0", "-0.0", "0.0", "1.", "-.5", ".5", "1E5", "1e5", "1e+5",
    "1e-5", "1e400", "-1e400", "-1e-400", "1e39", "-1e39", "1.5.2", "1-2", "--1", "-", "1e", "+1",
    "2.5", "-2.5", "3.0", "4.25", "9007199254740992", "9007199254740993", "9007199254740991.0",
    "18446744073709551615", "18446744073709551616", "1234567890123456789",
    "12345678901234567890", "0.1000000014901161193847656", "0.10000000149011612",
    "-0.10000000149011612", "0.1234567890123456789", "123456789.0123456789",
    "0.0000000000000000000001", "0.00000000000000000000001", "0.33333334326744080",
    "3.4028234663852886e38", "340282356779733661637539395458142568448", "1.4e-45", "7e-46",
    "4294967295", "4294967296", "100000000000000000000000", "5",
];

/// A random value of any JSON type, at most `depth` levels deep.
fn random_value(rng: &mut Rng, depth: usize) -> String {
    match rng.below(if depth == 0 { 6 } else { 9 }) {
        0 | 1 => rng.pick(SPELLINGS).to_owned(),
        2 => rng.pick(&["null", "true", "false"]).to_owned(),
        3 => rng.pick(&["\"\"", "\"x\"", "\"\\u0041\\n\"", "\"\\u+041\"", "\"é\""]).to_owned(),
        4 | 5 => format!("{}", rng.below(6)),
        6 | 7 => {
            let n = rng.below(5);
            let items: Vec<_> = (0..n).map(|_| random_value(rng, depth - 1)).collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let n = rng.below(3);
            let items: Vec<_> = (0..n)
                .map(|_| format!("\"{}\":{}", rng.pick(KEYS), random_value(rng, depth - 1)))
                .collect();
            format!("{{{}}}", items.join(","))
        }
    }
}

/// Keys the codec reads, escaped spellings of them, and keys it ignores.
const KEYS: &[&str] = &[
    "features", "feature_dim", "incremental", "interconnect", "labels", "rows", "cols",
    "entries", "trace", "logits", "\\u0066eatures", "\\u0063ols", "entrie\\u0073", "other",
    "Features", "\\u+066eatures",
];

/// A value shaped like what the schema expects at `key`, mostly valid:
/// `n` rows of `width` features, sparse matrices `cols` wide.
fn plausible(rng: &mut Rng, key: &str, n: usize, width: usize, cols: usize) -> String {
    let num = |rng: &mut Rng| -> String {
        match rng.below(40) {
            0 => random_value(rng, 1),
            1..=3 => rng.pick(SPELLINGS).to_owned(),
            _ => format!("{}", f64::from(rng.below(2000) as f32 / 7.0 - 100.0)),
        }
    };
    let index = |rng: &mut Rng, exact: usize| -> String {
        match rng.below(30) {
            0 => rng.pick(SPELLINGS).to_owned(),
            1 => format!("{}", rng.below(exact + 2)),
            _ => format!("{exact}"),
        }
    };
    match key {
        "features" | "\\u0066eatures" | "logits" => {
            let rows: Vec<_> = (0..n)
                .map(|_| {
                    if rng.below(40) == 0 {
                        return random_value(rng, 2);
                    }
                    let w = if rng.below(30) == 0 { rng.below(4) } else { width };
                    let vals: Vec<_> = (0..w).map(|_| num(rng)).collect();
                    format!("[{}]", vals.join(","))
                })
                .collect();
            format!("[{}]", rows.join(", "))
        }
        "feature_dim" => index(rng, width),
        "rows" => index(rng, n),
        "cols" | "\\u0063ols" => index(rng, cols),
        "trace" => index(rng, 77),
        "labels" => {
            let vals: Vec<_> = (0..n)
                .map(|_| {
                    let label = rng.below(3);
                    index(rng, label)
                })
                .collect();
            format!("[{}]", vals.join(","))
        }
        "entries" | "entrie\\u0073" => {
            let count = if n == 0 { 0 } else { rng.below(5) };
            let items: Vec<_> = (0..count)
                .map(|_| {
                    let (i, j) = (rng.below(n), rng.below(cols));
                    match rng.below(30) {
                        0 => random_value(rng, 2),
                        1 => format!("[{i},{j}]"),
                        2 => format!("[{i},{j},{},{}]", num(rng), num(rng)),
                        3 => format!("[{},{},{}]", index(rng, i), index(rng, j), num(rng)),
                        _ => format!("[{i},{j},{}]", num(rng)),
                    }
                })
                .collect();
            format!("[{}]", items.join(","))
        }
        "incremental" | "interconnect" => {
            if rng.below(40) == 0 {
                return random_value(rng, 2);
            }
            let cols = if key == "interconnect" { n } else { 1 + rng.below(4) };
            let mut keys = vec!["entries"];
            if key == "incremental" || rng.below(2) == 0 {
                keys.push("cols");
            }
            if rng.below(2) == 0 {
                keys.push("rows");
            }
            if rng.below(8) == 0 {
                keys.push(rng.pick(&["\\u0063ols", "entrie\\u0073", "other", "cols", "entries"]));
            }
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.below(i + 1));
            }
            let fields: Vec<_> = keys
                .iter()
                .map(|k| format!("\"{k}\": {}", plausible(rng, k, n, width, cols)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        }
        _ => random_value(rng, 3),
    }
}

/// A document holding `keys` (each dropped now and then) plus, at
/// times, duplicates, escaped spellings and unknown keys, in random order.
fn random_document(rng: &mut Rng, keys: &[&str]) -> String {
    let n = rng.below(4);
    let width = 1 + rng.below(3);
    let mut chosen: Vec<&str> = keys.iter().copied().filter(|_| rng.below(20) != 0).collect();
    for _ in 0..rng.below(3) / 2 {
        chosen.push(if rng.below(2) == 0 { rng.pick(KEYS) } else { rng.pick(keys) });
    }
    for i in (1..chosen.len()).rev() {
        chosen.swap(i, rng.below(i + 1));
    }
    let fields: Vec<_> = chosen
        .iter()
        .map(|key| format!("\"{key}\":{}", plausible(rng, key, n, width, width)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

const BATCH_KEYS: &[&str] = &["features", "feature_dim", "incremental", "interconnect", "labels"];

#[test]
fn streaming_decoder_matches_the_tree_reference_on_random_documents() {
    let mut rng = Rng(0xD1FF);
    let mut ok = 0;
    for _ in 0..40_000 {
        if assert_batch_agrees(&random_document(&mut rng, BATCH_KEYS)) {
            ok += 1;
        }
    }
    // Both outcomes must be well represented, or the test is vacuous.
    assert!((2_000..38_000).contains(&ok), "{ok} of 40000 documents decoded");
    for _ in 0..10_000 {
        assert_logits_agree(&random_document(&mut rng, &["trace", "rows", "cols", "logits"]));
    }
}

#[test]
fn streaming_decoder_matches_the_tree_reference_on_mutated_bodies() {
    let mut rng = Rng(0x3A7E);
    let mut mrng = MatRng::seed_from(0x3A7E);
    const ALPHABET: &[u8] = b"[]{},:\"\\-+.eE0123456789 \nnultrfasx";
    let mut decoded = 0;
    for round in 0..3_000 {
        let base = encode_batch(&random_batch(&mut mrng, round));
        for _ in 0..4 {
            let mut bytes = base.clone().into_bytes();
            for _ in 0..1 + rng.below(3) {
                let pos = rng.below(bytes.len());
                match rng.below(4) {
                    0 => bytes[pos] = ALPHABET[rng.below(ALPHABET.len())],
                    1 => bytes.insert(pos, ALPHABET[rng.below(ALPHABET.len())]),
                    2 => {
                        bytes.remove(pos);
                    }
                    _ => bytes.truncate(pos),
                }
                if bytes.is_empty() {
                    break;
                }
            }
            if assert_batch_agrees(std::str::from_utf8(&bytes).expect("ASCII alphabet")) {
                decoded += 1;
            }
        }
        let logits = mrng.normal(round % 4, 1 + round % 3, 0.0, 10.0);
        let text = encode_logits(round as u64, &logits);
        let cut = rng.below(text.len() + 1);
        assert_logits_agree(&text[..cut]);
    }
    assert!(decoded > 500, "only {decoded} mutated bodies decoded");
}

#[test]
fn every_number_spelling_decodes_like_the_reference_at_every_destination() {
    let entry = |e: &str| {
        format!(r#"{{"features": [[1]], "incremental": {{"cols": 2, "entries": [{e}]}}}}"#)
    };
    for s in SPELLINGS {
        let docs = [
            format!(r#"{{"features": [[{s}]], "incremental": {{"cols": 2}}}}"#),
            format!(r#"{{"features": [[1]], "feature_dim": {s}, "incremental": {{"cols": 2}}}}"#),
            format!(r#"{{"features": [[1]], "incremental": {{"cols": {s}}}}}"#),
            format!(r#"{{"features": [[1]], "incremental": {{"rows": {s}, "cols": 2}}}}"#),
            entry(&format!("[{s}, 1, 1]")),
            entry(&format!("[0, {s}, 1]")),
            entry(&format!("[0, 1, {s}]")),
            format!(r#"{{"features": [[1]], "incremental": {{"cols": 2}}, "labels": [{s}]}}"#),
            format!(r#"{{"features": [[1]], "incremental": {{"cols": 2}}, "other": [{s}]}}"#),
        ];
        for doc in &docs {
            assert_batch_agrees(doc);
        }
        assert_logits_agree(&format!(
            r#"{{"trace": {s}, "rows": 1, "cols": 1, "logits": [[{s}]]}}"#
        ));
    }
    // Long mantissas around the 19-digit fast-path limit.
    for digits in 15..=21 {
        for lead in ["1", "9", "4"] {
            let m = format!("{lead}{}", "7".repeat(digits - 1));
            for s in [m.clone(), format!("0.{m}"), format!("-{}.{}", &m[..3], &m[3..])] {
                assert_batch_agrees(&format!(
                    r#"{{"features": [[{s}]], "incremental": {{"cols": 2}}, "labels": [{m}]}}"#
                ));
            }
        }
    }
}

#[test]
fn decimals_near_f32_rounding_midpoints_decode_like_the_reference() {
    let mut rng = Rng(0x41D);
    let mut values = Vec::new();
    for _ in 0..4_000 {
        // An f32 in a wide exponent range and the f64 midpoint above it.
        let bits = (rng.next() as u32 & 0x807F_FFFF) | ((100 + rng.below(60) as u32) << 23);
        let x = f32::from_bits(bits);
        let mid = (f64::from(x) + f64::from(f32::from_bits(bits + 1))) / 2.0;
        for d in -6i64..=6 {
            let v = f64::from_bits((mid.to_bits() as i64 + d) as u64);
            values.push(format!("{v}"));
            // Truncations of the exact expansion: 16–19 significant digits.
            let exact = format!("{v:.40e}");
            let (mantissa, exp) = exact.split_once('e').unwrap();
            let exp: i32 = exp.parse().unwrap();
            let digits: String = mantissa.chars().filter(char::is_ascii_digit).collect();
            for len in 16..=19 {
                let sig = &digits[..len];
                // Plain decimal spelling (no exponent), as the writer uses.
                let point = exp + 1;
                let sign = if v < 0.0 { "-" } else { "" };
                let text = if point <= 0 {
                    format!("{sign}0.{}{sig}", "0".repeat((-point) as usize))
                } else if point as usize >= sig.len() {
                    format!("{sign}{sig}{}", "0".repeat(point as usize - sig.len()))
                } else {
                    format!("{sign}{}.{}", &sig[..point as usize], &sig[point as usize..])
                };
                values.push(text);
            }
        }
    }
    for chunk in values.chunks(64) {
        let row = chunk.join(",");
        assert!(
            assert_batch_agrees(&format!(
                r#"{{"features": [[{row}]], "incremental": {{"cols": 1}}}}"#
            )) || chunk.iter().any(|v| v.parse::<f64>().map_or(true, |f| !(f as f32).is_finite())),
            "chunk failed to decode: {row}"
        );
    }
}

#[test]
fn escaped_duplicate_and_unknown_keys_decode_like_the_reference() {
    let docs = [
        r#"{"\u0066eatures": [[1.5]], "incremental": {"cols": 2}}"#,
        r#"{"\u+066eatures": [[1.5]], "incremental": {"cols": 2}}"#,
        r#"{"features": [[1.5]], "features": [[2.5, 3]], "incremental": {"cols": 2}}"#,
        r#"{"features": 7, "features": [[2.5]], "incremental": {"cols": 2}}"#,
        r#"{"features": [[2.5]], "incremental": {"cols": 2, "\u0063ols": 9, "cols": 1}}"#,
        r#"{"features": [[2.5]], "incremental": {"cols": 2}, "x": {"a": [1, {"b": [null]}]}}"#,
        r#"{"features": [[2.5]], "incremental": {"cols": 2}, "x": {"a": [1, {"b": [nul]}]}}"#,
        r#"{"features": [[2.5]], "incremental": {"cols": 2}, "x": "\ud800"}"#,
        r#"{"features": [[2.5]], "incremental": {"cols": 2}, "x": "\u12"}"#,
        r#"{"incremental": {"cols": 1, "entries": [[0, 5, 1]]}, "features": [[1, null]]}"#,
        r#"{"incremental": {"entries": [[0, 5, 1]], "cols": 2}, "features": [[1]]}"#,
        r#"{"labels": [-1], "incremental": {"cols": 2}, "features": [[1]], "feature_dim": 2}"#,
        r#"{"features": [[1], 5, [1, 2]], "incremental": {"cols": 2}}"#,
        r#"{"features": [[1], [null], [1, 2]], "incremental": {"cols": 2}}"#,
        r#"{"features": [[1, null], [2]], "feature_dim": 1, "incremental": {"cols": 2}}"#,
        r#"{"features": [], "incremental": {"cols": 2}}"#,
        r#"{"features": [], "feature_dim": -0, "incremental": {"cols": 2, "rows": -0}}"#,
        r#"{"features": [[1]], "incremental": {"cols": 2, "entries": [[0, 1, null], [0, 9, 1]]}}"#,
        r#"{"features": [[1]], "incremental": {"cols": 2, "entries": [[0, 9, 1], [0, 1, null]]}}"#,
        r#"{"features": [[1]], "incremental": {"cols": 2, "entries": [[-0, 1, 1]]}}"#,
        r#"{"features": [[1]], "incremental": {"cols": 2, "entries": [[0]]}, "interconnect": 3}"#,
    ];
    for doc in docs {
        assert_batch_agrees(doc);
    }
}

#[test]
fn nesting_limit_is_the_same_in_both_decoders() {
    for depth in [126, 127, 128, 129, 200] {
        let nest = |inner: &str| format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth));
        for doc in [
            nest(""),
            format!(r#"{{"features": [[1]], "incremental": {{"cols": 2}}, "x": {}}}"#, nest("")),
            format!(r#"{{"features": {}, "incremental": {{"cols": 2}}}}"#, nest("1")),
            format!(
                r#"{{"features": [[1]], "incremental": {{"cols": 2, "entries": {}}}}}"#,
                nest("0")
            ),
        ] {
            assert_batch_agrees(&doc);
        }
    }
    // A million `[` is a typed parse error, not a stack overflow.
    assert!(matches!(decode_batch(&"[".repeat(1 << 20)), Err(CodecError::Parse(_))));
}

#[test]
fn encoders_write_the_same_bytes_as_the_tree_writer() {
    let specials: &[f32] = &[
        0.0,
        -0.0,
        1.0e15,
        4.0e15,
        1_125_899_906_842_624.0, // 2^50: an integer above 1e15
        f32::MAX,
        f32::MIN,
        1.0e-40, // subnormal
        -1.0e-45,
        f32::MIN_POSITIVE,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.1,
        123_456.75,
    ];
    let mut rng = MatRng::seed_from(0x901D);
    for round in 0..300 {
        let mut batch = random_batch(&mut rng, round);
        if batch.features.rows() > 0 {
            batch.features.set(0, 0, specials[round % specials.len()]);
        }
        batch.incremental = batch.incremental.map_values(|v| if round % 7 == 0 { -v } else { v });
        assert_eq!(encode_batch(&batch), reference::encode_batch(&batch), "round {round}");
        let mut logits = rng.normal(round % 4, 1 + round % 3, 0.0, 1.0e6);
        if logits.rows() > 0 {
            logits.set(0, 0, specials[round % specials.len()]);
        }
        for trace in [round as u64, u64::MAX, (1 << 53) + 1, 999_999_999_999_999] {
            assert_eq!(
                encode_logits(trace, &logits),
                reference::encode_logits(trace, &logits),
                "round {round}"
            );
        }
    }
}
