//! JSON wire codec for [`NodeBatch`] requests and logits responses.
//!
//! Hermeticity rule as everywhere in the workspace: no serde. The encoders
//! write straight into a pre-sized `String`, byte for byte what
//! [`mcond_obs::Json::dump`] would write for the same value tree. The
//! decoders make **one pass** over the body: a schema-directed reader
//! writes feature values straight into the row-major `Vec<f32>` and
//! sparse triples straight into the COO list, validating and skipping
//! whatever the schema does not name. No JSON value tree is built.
//!
//! The decoder is *total*: any string either decodes to a structurally
//! well-formed batch or returns a typed [`CodecError`], never a panic —
//! the seeded fuzz suite (`codec_fuzz` test) drives random, truncated,
//! and mutated payloads through it. The decoder also refuses to let
//! client-declared shapes drive allocations (see the shape-bounds
//! paragraph below); within those bounds it accepts any self-consistent
//! shape and lets [`NodeBatch::validate_against`] produce its usual typed
//! `ServeError`, so wire requests fail exactly like library requests.
//!
//! # Request format (`POST /v1/serve`)
//!
//! ```json
//! {
//!   "feature_dim": 3,
//!   "features": [[0.1, 0.2, 0.3], [1.0, 2.0, 3.0]],
//!   "incremental": {"cols": 140, "entries": [[0, 7, 1.0], [1, 12, 0.5]]},
//!   "interconnect": {"entries": [[0, 1, 1.0], [1, 0, 1.0]]},
//!   "labels": [0, 1]
//! }
//! ```
//!
//! `features` is dense (row per node); sparse matrices are
//! `{rows?, cols?, entries: [[row, col, value], ...]}` with `rows`
//! defaulting to the node count and `interconnect.cols` to the node count
//! (`incremental.cols` — the base-graph width — is required).
//! `feature_dim` is required only when `features` is empty (the empty
//! batch still has a feature width to validate); `labels` and the whole
//! `interconnect` object are optional. Numbers must be finite: JSON has no
//! `NaN`/`Infinity`, a non-finite f32 on the encode side serialises as
//! `null`, and the decoder rejects both `null` and any finite f64 whose
//! f32 cast overflows to infinity — the wire cannot smuggle a non-finite
//! value past validation.
//!
//! Declared shapes are resource-bounded before anything is allocated
//! from them: a sparse `rows` must equal the batch's node count (a
//! mismatch could only fail `validate_against` later, but CSR conversion
//! allocates `rows + 1` slots *first*, so a lying declaration must die at
//! decode time, not after a multi-petabyte allocation attempt), and
//! `cols` is capped at [`MAX_WIRE_COLS`] — the CSR representation stores
//! column indices as `u32`, so wider matrices are unrepresentable
//! anyway. Size hints taken from declarations are clamped, so only the
//! body's real contents grow a buffer. Within those bounds, *semantic*
//! validation against the serving base (incremental width, feature
//! dimension, label count) is still deliberately deferred to
//! [`NodeBatch::validate_against`], so wire requests fail exactly like
//! library requests.
//!
//! # Error contract
//!
//! A body decodes to the same `Result` as parsing it with
//! [`Json::parse`](mcond_obs::Json::parse) and then walking the value
//! tree; only the message inside [`CodecError::Parse`] may differ. (The
//! test suite keeps that tree decoder as its differential reference.) So:
//!
//! * **Syntax first.** Any syntax error anywhere in the body is a
//!   `Parse` error, even after a semantic defect earlier in the text.
//!   Semantic findings are therefore recorded while reading and resolved
//!   only once the whole document has been checked.
//! * **Dependency order, not document order.** Semantic errors are
//!   reported in the order the fields depend on each other: a non-object
//!   root; `features` missing or not an array; a bad `feature_dim`; row 0
//!   not an array (or, for no rows, `feature_dim` missing); row 0's width
//!   against `feature_dim`; then per row, in order, not an array, a width
//!   other than row 0's, a non-finite value; then `incremental` (missing,
//!   not an object, `rows`, `cols`, `entries`, then per entry its shape,
//!   indices, value and range) and `interconnect` the same way; last
//!   `labels`. A sparse entry's range check needs the node count and
//!   `cols`, which may come later in the body, so the triples are kept
//!   and checked at the end.
//! * **Keys.** Keys compare after unescaping (`"\u0066eatures"` is
//!   `features`). A repeated key keeps its first occurrence, as
//!   `Json::get` does; later ones and unknown keys are syntax-checked and
//!   skipped.
//! * **Depth.** Arrays and objects nest at most
//!   [`MAX_DEPTH`] (128) deep, counting the
//!   root as 1, in this reader and in `Json::parse` alike: a body of a
//!   million `[` is a `Parse` error, not a stack overflow.
//!
//! # Numbers
//!
//! A number token is scanned once under `Json::parse`'s rule: a maximal
//! run of `[0-9+\-.eE]` starting with `-` or a digit. Every value must
//! come out bit-identical to `str::parse::<f64>` (then `as f32` for
//! features and sparse values), so only tokens whose result can be
//! computed exactly skip `str::parse`:
//!
//! * **Integers** (indices, `rows`, `cols`, `labels`, `feature_dim`): a
//!   digits-only token accumulates into a `u64`; up to 2^53 that is the
//!   value `parse` gives.
//! * **f32 destinations**: a token `-?[0-9]+(\.[0-9]+)?` with at most 19
//!   significant and at most 22 fraction digits has value `w / 10^k` with
//!   `w < 10^19` and `10^k` exact. Let `a = w as f64 / 10^k`.
//!   - `w <= 2^53`: `w` is exact too, and one IEEE division is correctly
//!     rounded (Clinger's fast path), so `a` *is* `parse`'s result.
//!   - `w > 2^53`: `w as f64` and the division each round once, so `a` is
//!     within a relative `2^-52` of the true value: within 2 f64 ulps of
//!     it, and so within 2.5 ulps — at most 2 representable steps — of
//!     the correctly rounded `r` that `parse` returns. Narrowing to f32
//!     rounds on the low 29 mantissa bits, whose halfway point is
//!     `1 << 28`. When `a`'s low bits are more than 4 away from it, `r`
//!     lies on the same side and both narrow to the same f32 (crossing a
//!     multiple of `2^29` moves both toward the same f32 too). Otherwise
//!     the token falls back. Here `a` lies in `[2^53 / 10^22, 10^19)`,
//!     inside the normal f32 range, so no subnormal or overflow case
//!     arises.
//! * **Everything else** (exponents, `1.`, `-.5`, long mantissas,
//!   near-midpoint values, integers above 2^53) goes through
//!   `str::parse::<f64>` and the same finiteness and index rules.
//!
//! Round-trip fidelity is **bitwise** for finite values: `f32 → f64`
//! widening is exact, the writer emits shortest-round-trip decimal (and
//! `-0.0` explicitly), so `decode(encode(b))` reproduces every payload bit
//! the serving layer can observe.

use mcond_graph::NodeBatch;
use mcond_linalg::DMat;
use mcond_obs::json::{write_number, Json, MAX_DEPTH};
use mcond_sparse::{Coo, Csr};
use std::fmt;

/// Widest sparse matrix the wire accepts: CSR stores column indices as
/// `u32`, so any declared `cols` beyond this is unrepresentable and is
/// rejected with [`CodecError::ColsTooLarge`] before anything is built
/// from it.
pub const MAX_WIRE_COLS: usize = u32::MAX as usize;

/// Clamp on `Vec::with_capacity` sizing hints derived from
/// client/server-declared shapes (features `n × dim`, logits
/// `rows × cols`). Per-element validation still bounds the vectors'
/// *real* growth by the payload's actual contents; the clamp only stops
/// a lying declaration from forcing a huge up-front allocation (Rust
/// aborts the process when an allocation fails, so an unclamped hint is
/// a single-request denial of service).
const PREALLOC_CLAMP: usize = 1 << 20;

/// Why a wire payload failed to decode. Every variant maps to HTTP `400`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The body is not syntactically valid JSON (offset in the message).
    Parse(String),
    /// The body is not UTF-8.
    Utf8,
    /// A required field is absent.
    Missing(&'static str),
    /// A field has the wrong JSON type (or a non-finite / `null` number
    /// where a finite one is required).
    Type {
        /// Dotted path of the offending field.
        field: &'static str,
        /// What the decoder needed there.
        expected: &'static str,
    },
    /// A dense row has a different width than the first row.
    Ragged {
        /// Row index.
        row: usize,
        /// Its width.
        got: usize,
        /// Width of row 0.
        expected: usize,
    },
    /// A sparse entry is not a `[row, col, value]` triple.
    EntryShape {
        /// Which sparse field.
        field: &'static str,
        /// Entry index.
        index: usize,
    },
    /// A sparse entry's indices fall outside the declared shape.
    EntryOutOfRange {
        /// Which sparse field.
        field: &'static str,
        /// The entry's row.
        row: usize,
        /// The entry's column.
        col: usize,
        /// Declared row count.
        rows: usize,
        /// Declared column count.
        cols: usize,
    },
    /// An index field is not a non-negative integer.
    BadIndex {
        /// Dotted path of the offending field.
        field: &'static str,
    },
    /// A sparse matrix declares a row count different from the batch's
    /// node count. Rejected at decode time because CSR conversion
    /// allocates `rows + 1` slots before semantic validation would run.
    RowCountMismatch {
        /// Which sparse field.
        field: &'static str,
        /// Declared row count.
        got: usize,
        /// The batch's node count.
        expected: usize,
    },
    /// A sparse matrix declares a column count beyond [`MAX_WIRE_COLS`].
    ColsTooLarge {
        /// Which sparse field.
        field: &'static str,
        /// Declared column count.
        got: usize,
        /// The [`MAX_WIRE_COLS`] cap.
        max: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Parse(msg) => write!(f, "body is not valid JSON: {msg}"),
            CodecError::Utf8 => write!(f, "body is not UTF-8"),
            CodecError::Missing(field) => write!(f, "missing required field {field:?}"),
            CodecError::Type { field, expected } => {
                write!(f, "field {field:?} must be {expected}")
            }
            CodecError::Ragged { row, got, expected } => write!(
                f,
                "features row {row} has {got} values but row 0 has {expected}"
            ),
            CodecError::EntryShape { field, index } => {
                write!(f, "{field} entry {index} is not a [row, col, value] triple")
            }
            CodecError::EntryOutOfRange { field, row, col, rows, cols } => write!(
                f,
                "{field} entry ({row}, {col}) is outside the declared {rows}x{cols} shape"
            ),
            CodecError::BadIndex { field } => {
                write!(f, "field {field:?} must be a non-negative integer")
            }
            CodecError::RowCountMismatch { field, got, expected } => write!(
                f,
                "{field} declares {got} rows but the batch has {expected} nodes"
            ),
            CodecError::ColsTooLarge { field, got, max } => {
                write!(f, "{field} declares {got} columns, above the {max} cap")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Serialises a batch to a compact JSON string.
#[must_use]
pub fn encode_batch(batch: &NodeBatch) -> String {
    let f = &batch.features;
    let nnz = batch.incremental.nnz() + batch.interconnect.nnz();
    let mut out =
        String::with_capacity(64 + 24 * f.rows() * f.cols() + 32 * nnz + 4 * batch.labels.len());
    out.push_str("{\"feature_dim\":");
    write_index(&mut out, f.cols());
    out.push_str(",\"features\":");
    write_rows(&mut out, f);
    out.push_str(",\"incremental\":");
    write_csr(&mut out, &batch.incremental);
    out.push_str(",\"interconnect\":");
    write_csr(&mut out, &batch.interconnect);
    out.push_str(",\"labels\":[");
    for (k, &label) in batch.labels.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        write_index(&mut out, label);
    }
    out.push_str("]}");
    out
}

/// Serialises a logits response: the request's trace id and the `n x C`
/// logit matrix, row per node.
#[must_use]
pub fn encode_logits(trace: u64, logits: &DMat) -> String {
    let mut out = String::with_capacity(64 + 24 * logits.rows() * logits.cols());
    out.push_str("{\"trace\":");
    #[allow(clippy::cast_precision_loss)]
    write_number(&mut out, trace as f64);
    out.push_str(",\"rows\":");
    write_index(&mut out, logits.rows());
    out.push_str(",\"cols\":");
    write_index(&mut out, logits.cols());
    out.push_str(",\"logits\":");
    write_rows(&mut out, logits);
    out.push('}');
    out
}

/// An integer as `Json::from(usize)` writes it (through `f64`).
fn write_index(out: &mut String, v: usize) {
    #[allow(clippy::cast_precision_loss)]
    write_number(out, v as f64);
}

fn write_rows(out: &mut String, m: &DMat) {
    out.push('[');
    for i in 0..m.rows() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (k, &v) in m.row(i).iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            write_number(out, f64::from(v));
        }
        out.push(']');
    }
    out.push(']');
}

fn write_csr(out: &mut String, m: &Csr) {
    out.push_str("{\"rows\":");
    write_index(out, m.rows());
    out.push_str(",\"cols\":");
    write_index(out, m.cols());
    out.push_str(",\"entries\":[");
    for (k, (i, j, v)) in m.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push('[');
        write_index(out, i);
        out.push(',');
        write_index(out, j);
        out.push(',');
        write_number(out, f64::from(v));
        out.push(']');
    }
    out.push_str("]}");
}

/// Decodes a `POST /v1/serve` body in one pass (module docs).
///
/// # Errors
/// [`CodecError::Parse`] when the body is not JSON; otherwise a typed
/// [`CodecError`] for the first structural defect in the precedence the
/// module docs give.
pub fn decode_batch(text: &str) -> Result<NodeBatch, CodecError> {
    let mut doc = BatchDoc::default();
    let keys = ["features", "feature_dim", "incremental", "interconnect", "labels"];
    doc.object = Reader::document(text, &keys, |r, key| {
        match key {
            0 => doc.features = r.rows(2, 0)?,
            1 => doc.feature_dim = r.index_field(2)?,
            2 => doc.incremental = r.sparse(2)?,
            3 => doc.interconnect = r.sparse(2)?,
            _ => doc.labels = r.labels(2)?,
        }
        Ok(())
    })?;
    doc.finish()
}

/// Decodes a logits response back into `(trace, logits)`.
///
/// # Errors
/// A typed [`CodecError`] on any structural defect.
pub fn decode_logits(text: &str) -> Result<(u64, DMat), CodecError> {
    let (mut trace, mut rows, mut cols, mut logits) =
        (Field::Absent, Field::Absent, Field::Absent, Field::Absent);
    // A root that is not an object leaves every field absent: `Missing`.
    Reader::document(text, &["trace", "rows", "cols", "logits"], |r, key| {
        match key {
            0 => trace = r.index_field(2)?,
            1 => rows = r.index_field(2)?,
            2 => cols = r.index_field(2)?,
            _ => {
                let hint = match (&rows, &cols) {
                    (Field::Got(n), Field::Got(c)) => n.saturating_mul(*c),
                    _ => 0,
                };
                logits = r.rows(2, hint.min(PREALLOC_CLAMP))?;
            }
        }
        Ok(())
    })?;
    let trace = trace.index("trace")?;
    let rows = rows.index("rows")?;
    let cols = cols.index("cols")?;
    let body = match logits {
        Field::Absent => return Err(CodecError::Missing("logits")),
        Field::Wrong => return Err(rows_type("logits")),
        Field::Got(body) => body,
    };
    if body.n != rows {
        return Err(CodecError::Type { field: "logits", expected: "exactly `rows` rows" });
    }
    body.check("logits", cols, |_, _| CodecError::Type {
        field: "logits",
        expected: "exactly `cols` columns",
    })?;
    Ok((trace as u64, DMat::from_vec(rows, cols, body.data)))
}

/// The error for a dense field that is not an array of arrays.
fn rows_type(field: &'static str) -> CodecError {
    CodecError::Type { field, expected: "an array of rows" }
}

/// The error for a value that is not a finite number after narrowing.
fn non_finite(field: &'static str) -> CodecError {
    CodecError::Type { field, expected: "a finite number" }
}

/// A field as the reader left it: not in the object, present with the
/// wrong JSON type (or, for an index, not a valid index), or read.
#[derive(Default)]
enum Field<T> {
    #[default]
    Absent,
    Wrong,
    Got(T),
}

impl Field<usize> {
    /// A required index field.
    fn index(self, field: &'static str) -> Result<usize, CodecError> {
        match self {
            Field::Absent => Err(CodecError::Missing(field)),
            Field::Wrong => Err(CodecError::BadIndex { field }),
            Field::Got(v) => Ok(v),
        }
    }
}

/// A dense array of rows (`features`, `logits`), read in row-major order.
/// The width checks wait for [`Rows::check`] because the reference width
/// (row 0's, or a declared `cols`) may come later in the document.
#[derive(Default)]
struct Rows {
    /// Number of rows, of any JSON type.
    n: usize,
    /// Values of the rows before the first bad one.
    data: Vec<f32>,
    /// Widths of the rows up to and including the first bad one (a row
    /// that is not an array has no width and is not listed).
    widths: Vec<usize>,
    /// The first row that is not an array or holds a non-finite value.
    bad: Option<BadRow>,
}

enum BadRow {
    NotArray,
    Value,
}

impl Rows {
    /// The row loop's first error (module docs, "Error contract"): per
    /// row, not an array, then a width other than `width`, then a bad
    /// value.
    fn check(
        &self,
        field: &'static str,
        width: usize,
        ragged: impl Fn(usize, usize) -> CodecError,
    ) -> Result<(), CodecError> {
        if let Some(row) = self.widths.iter().position(|&w| w != width) {
            return Err(ragged(row, self.widths[row]));
        }
        match self.bad {
            Some(BadRow::NotArray) => Err(rows_type(field)),
            Some(BadRow::Value) => Err(non_finite(field)),
            None => Ok(()),
        }
    }
}

/// A sparse object's fields.
#[derive(Default)]
struct Sparse {
    rows: Field<usize>,
    cols: Field<usize>,
    entries: Field<Entries>,
}

/// Sparse triples before the first malformed entry.
#[derive(Default)]
struct Entries {
    triples: Vec<(usize, usize, f32)>,
    /// The first entry that is not a `[row, col, value]` triple of a
    /// valid index, index and finite number; it sits at `triples.len()`.
    bad: Option<BadEntry>,
}

enum BadEntry {
    Shape,
    Index,
    Value,
}

impl Sparse {
    /// Resolves the object against the batch's node count `n` in the
    /// order of the module docs' "Error contract":
    /// `rows` must equal `n`; `default_cols` is `Some(n)` for the
    /// interconnect and `None` for the incremental matrix, whose `cols`
    /// the client must declare, bounded by [`MAX_WIRE_COLS`].
    fn finish(
        self,
        field: &'static str,
        n: usize,
        default_cols: Option<usize>,
    ) -> Result<Csr, CodecError> {
        let rows = match self.rows {
            Field::Absent => n,
            Field::Wrong => return Err(CodecError::BadIndex { field }),
            Field::Got(rows) => rows,
        };
        if rows != n {
            return Err(CodecError::RowCountMismatch { field, got: rows, expected: n });
        }
        let cols = match (self.cols, default_cols) {
            (Field::Wrong, _) => return Err(CodecError::BadIndex { field }),
            (Field::Got(cols), _) => cols,
            (Field::Absent, Some(d)) => d,
            (Field::Absent, None) => return Err(CodecError::Missing("incremental.cols")),
        };
        if cols > MAX_WIRE_COLS {
            return Err(CodecError::ColsTooLarge { field, got: cols, max: MAX_WIRE_COLS });
        }
        let entries = match self.entries {
            Field::Absent => Entries::default(),
            Field::Wrong => return Err(CodecError::Type { field, expected: "an entries array" }),
            Field::Got(entries) => entries,
        };
        let mut coo = Coo::with_capacity(rows, cols, entries.triples.len());
        for &(row, col, v) in &entries.triples {
            if row >= rows || col >= cols {
                return Err(CodecError::EntryOutOfRange { field, row, col, rows, cols });
            }
            coo.push(row, col, v);
        }
        match entries.bad {
            Some(BadEntry::Shape) => {
                Err(CodecError::EntryShape { field, index: entries.triples.len() })
            }
            Some(BadEntry::Index) => Err(CodecError::BadIndex { field }),
            Some(BadEntry::Value) => Err(non_finite(field)),
            None => Ok(coo.to_csr()),
        }
    }
}

/// The fields of a request body, as read.
#[derive(Default)]
struct BatchDoc {
    object: bool,
    features: Field<Rows>,
    feature_dim: Field<usize>,
    incremental: Field<Sparse>,
    interconnect: Field<Sparse>,
    /// `Got(None)`: some label is not a valid index.
    labels: Field<Option<Vec<usize>>>,
}

impl BatchDoc {
    /// Picks the first error in the order the fields depend on each
    /// other, whatever order the document wrote them in.
    fn finish(self) -> Result<NodeBatch, CodecError> {
        if !self.object {
            return Err(CodecError::Type { field: "<root>", expected: "an object" });
        }
        let rows = match self.features {
            Field::Absent => return Err(CodecError::Missing("features")),
            Field::Wrong => return Err(rows_type("features")),
            Field::Got(rows) => rows,
        };
        let n = rows.n;
        let dim = match self.feature_dim {
            Field::Absent => None,
            Field::Wrong => return Err(CodecError::BadIndex { field: "feature_dim" }),
            Field::Got(d) => Some(d),
        };
        let width = if n > 0 {
            *rows.widths.first().ok_or(rows_type("features"))?
        } else {
            dim.ok_or(CodecError::Missing("feature_dim"))?
        };
        if let Some(d) = dim {
            if n > 0 && d != width {
                return Err(CodecError::Ragged { row: 0, got: width, expected: d });
            }
        }
        rows.check("features", width, |row, got| CodecError::Ragged { row, got, expected: width })?;
        let features = DMat::from_vec(n, width, rows.data);
        let incremental = match self.incremental {
            Field::Absent => return Err(CodecError::Missing("incremental")),
            Field::Wrong => return Err(sparse_type("incremental")),
            Field::Got(s) => s.finish("incremental", n, None)?,
        };
        let interconnect = match self.interconnect {
            Field::Absent => Csr::empty(n, n),
            Field::Wrong => return Err(sparse_type("interconnect")),
            Field::Got(s) => s.finish("interconnect", n, Some(n))?,
        };
        let labels = match self.labels {
            Field::Absent => vec![0; n],
            Field::Wrong => {
                return Err(CodecError::Type { field: "labels", expected: "an array of integers" })
            }
            Field::Got(labels) => labels.ok_or(CodecError::BadIndex { field: "labels" })?,
        };
        Ok(NodeBatch { features, incremental, interconnect, labels })
    }
}

/// The error for a sparse field that is not an object.
fn sparse_type(field: &'static str) -> CodecError {
    CodecError::Type { field, expected: "an object with an entries array" }
}

/// Result of a syntax step: the only error is [`CodecError::Parse`].
type Syntax<T> = Result<T, CodecError>;

/// Cursor over a JSON text that accepts exactly the documents
/// [`Json::parse`](mcond_obs::Json::parse) accepts, reading the fields
/// a caller names and validating and skipping the rest.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads one document whose root should be an object with `keys`
    /// (see [`Reader::object`]) and returns whether it was an object; any
    /// other root value is validated and skipped. Only whitespace may
    /// follow the root.
    fn document(
        text: &'a str,
        keys: &[&str],
        field: impl FnMut(&mut Self, usize) -> Syntax<()>,
    ) -> Syntax<bool> {
        let mut r = Reader { bytes: text.as_bytes(), pos: 0 };
        r.ws();
        let object = r.peek() == Some(b'{');
        if object {
            r.object(1, keys, field)?;
        } else {
            r.skip_value(1)?;
        }
        r.ws();
        if r.pos == r.bytes.len() {
            Ok(object)
        } else {
            Err(r.error("trailing data"))
        }
    }

    fn error(&self, what: &str) -> CodecError {
        CodecError::Parse(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Syntax<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", b as char)))
        }
    }

    /// Opens a container at nesting `depth` (the root is at 1).
    fn open(&mut self, b: u8, depth: usize) -> Syntax<()> {
        if depth > MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.eat(b)
    }

    /// Reads `[v, ...]` at nesting `depth`, calling `item` with the cursor
    /// on each element; returns the element count.
    fn array(
        &mut self,
        depth: usize,
        mut item: impl FnMut(&mut Self) -> Syntax<()>,
    ) -> Syntax<usize> {
        self.open(b'[', depth)?;
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(0);
        }
        let mut count = 0;
        loop {
            self.ws();
            item(self)?;
            count += 1;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(count);
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    /// Reads `{"k": v, ...}` at nesting `depth`. `field(r, i)` reads the
    /// value of the first occurrence of `keys[i]`; unknown keys and later
    /// occurrences are validated and skipped, so a repeated key behaves as
    /// under `Json::get` (first match).
    fn object(
        &mut self,
        depth: usize,
        keys: &[&str],
        mut field: impl FnMut(&mut Self, usize) -> Syntax<()>,
    ) -> Syntax<()> {
        self.open(b'{', depth)?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        let mut seen = 0u32;
        loop {
            self.ws();
            let key = self.key(keys)?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            match key {
                Some(i) if seen & (1 << i) == 0 => {
                    seen |= 1 << i;
                    field(self, i)?;
                }
                _ => self.skip_value(depth + 1)?,
            }
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    /// Validates and skips any value; a container would sit at `depth`.
    fn skip_value(&mut self, depth: usize) -> Syntax<()> {
        match self.peek() {
            Some(b'[') => self.array(depth, |r| r.skip_value(depth + 1)).map(drop),
            Some(b'{') => self.object(depth, &[], |_, _| Ok(())),
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err(self.error("unexpected byte")),
        }
    }

    fn literal(&mut self, text: &str) -> Syntax<()> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(self.error("bad literal"))
        }
    }

    /// Reads an object key and returns its position in `keys`.
    fn key(&mut self, keys: &[&str]) -> Syntax<Option<usize>> {
        let (raw, escaped) = self.string()?;
        if !escaped {
            return Ok(keys.iter().position(|k| k.as_bytes() == raw));
        }
        // Rare: let `Json::parse` unescape it, so an escaped key reads
        // exactly as it does there.
        let quoted = format!("\"{}\"", String::from_utf8_lossy(raw));
        let key = Json::parse(&quoted).ok();
        Ok(keys.iter().position(|k| key.as_ref().and_then(Json::as_str) == Some(*k)))
    }

    /// Reads a string literal, checking escapes as `Json::parse` does;
    /// returns the bytes between the quotes and whether any escape
    /// occurred.
    fn string(&mut self) -> Syntax<(&'a [u8], bool)> {
        self.eat(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            let Some(c) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok((&self.bytes[start..self.pos - 1], escaped)),
                b'\\' => {
                    escaped = true;
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' | b'n' | b'r' | b't' | b'b' | b'f' => {}
                        b'u' if hex4(self.bytes.get(self.pos..self.pos + 4)).is_some() => {
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                }
                _ => {}
            }
        }
    }

    /// Scans one number token under `Json::parse`'s rule — a maximal run
    /// of `[0-9+\-.eE]`, starting at a `-` or digit under the cursor —
    /// and classifies it (module docs, "Numbers"). Inlined into each
    /// caller: it runs once per value, and each caller uses one result.
    #[inline(always)]
    fn number(&mut self) -> Syntax<Number<'a>> {
        let b = self.bytes;
        let start = self.pos;
        let neg = b[start] == b'-';
        let int_start = start + usize::from(neg);
        let (mut w, int_end) = digits(b, int_start, 0);
        let mut end = int_end;
        let mut k = 0;
        let mut simple = end > int_start;
        if b.get(end) == Some(&b'.') {
            (w, end) = digits(b, end + 1, w);
            k = end - int_end - 1;
            simple &= k > 0;
        }
        // `w` wraps past 19 digits, so it is exact only when at most 19
        // of them follow the leading zeros.
        simple &= k < POW10.len()
            && (int_end - int_start + k <= MAX_DIGITS
                || significant(&b[int_start..end]) <= MAX_DIGITS)
            && !b.get(end).is_some_and(|&c| is_number_byte(c));
        if simple {
            self.pos = end;
            return Ok(Number::Decimal { neg, w, k, token: &b[start..end] });
        }
        while b.get(end).is_some_and(|&c| is_number_byte(c)) {
            end += 1;
        }
        self.pos = end;
        parse_f64(&b[start..end])
            .map(Number::Parsed)
            .ok_or_else(|| CodecError::Parse(format!("bad number at byte {start}")))
    }

    /// A value bound for an `f32`: `Some` for a number whose narrowed
    /// value is finite, `None` for any other value (still validated).
    fn f32_value(&mut self, depth: usize) -> Syntax<Option<f32>> {
        if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            Ok(self.number()?.f32())
        } else {
            self.skip_value(depth).map(|()| None)
        }
    }

    /// A value bound for an index: `Some` for a non-negative integer up to
    /// 2^53, `None` for any other value (still validated).
    fn index_value(&mut self, depth: usize) -> Syntax<Option<usize>> {
        if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            Ok(self.number()?.index())
        } else {
            self.skip_value(depth).map(|()| None)
        }
    }

    fn index_field(&mut self, depth: usize) -> Syntax<Field<usize>> {
        Ok(self.index_value(depth)?.map_or(Field::Wrong, Field::Got))
    }

    /// A dense array of rows at `depth`, values written straight into
    /// the row-major buffer (reserved to `reserve`).
    fn rows(&mut self, depth: usize, reserve: usize) -> Syntax<Field<Rows>> {
        if self.peek() != Some(b'[') {
            return self.skip_value(depth).map(|()| Field::Wrong);
        }
        let mut rows = Rows { data: Vec::with_capacity(reserve), ..Rows::default() };
        rows.n = self.array(depth, |r| {
            if rows.bad.is_some() {
                return r.skip_value(depth + 1);
            }
            if r.peek() != Some(b'[') {
                rows.bad = Some(BadRow::NotArray);
                return r.skip_value(depth + 1);
            }
            let mut finite = true;
            let width = r.array(depth + 1, |r| {
                match r.f32_value(depth + 2)? {
                    Some(v) if finite => rows.data.push(v),
                    Some(_) => {}
                    None => finite = false,
                }
                Ok(())
            })?;
            rows.widths.push(width);
            if !finite {
                rows.bad = Some(BadRow::Value);
            }
            Ok(())
        })?;
        Ok(Field::Got(rows))
    }

    /// A sparse `{rows?, cols?, entries?}` object at `depth`.
    fn sparse(&mut self, depth: usize) -> Syntax<Field<Sparse>> {
        if self.peek() != Some(b'{') {
            return self.skip_value(depth).map(|()| Field::Wrong);
        }
        let mut s = Sparse::default();
        self.object(depth, &["rows", "cols", "entries"], |r, key| {
            match key {
                0 => s.rows = r.index_field(depth + 1)?,
                1 => s.cols = r.index_field(depth + 1)?,
                _ => s.entries = r.entries(depth + 1)?,
            }
            Ok(())
        })?;
        Ok(Field::Got(s))
    }

    /// A sparse `entries` array at `depth`, triples written straight into
    /// the list.
    fn entries(&mut self, depth: usize) -> Syntax<Field<Entries>> {
        if self.peek() != Some(b'[') {
            return self.skip_value(depth).map(|()| Field::Wrong);
        }
        let mut e = Entries::default();
        self.array(depth, |r| {
            if e.bad.is_some() {
                return r.skip_value(depth + 1);
            }
            if r.peek() != Some(b'[') {
                e.bad = Some(BadEntry::Shape);
                return r.skip_value(depth + 1);
            }
            let (mut row, mut col, mut v) = (None, None, None);
            let mut slot = 0;
            let len = r.array(depth + 1, |r| {
                match slot {
                    0 => row = r.index_value(depth + 2)?,
                    1 => col = r.index_value(depth + 2)?,
                    2 => v = r.f32_value(depth + 2)?,
                    _ => r.skip_value(depth + 2)?,
                }
                slot += 1;
                Ok(())
            })?;
            e.bad = match (len, row, col, v) {
                (3, Some(row), Some(col), Some(v)) => {
                    e.triples.push((row, col, v));
                    None
                }
                (3, None, _, _) | (3, _, None, _) => Some(BadEntry::Index),
                (3, ..) => Some(BadEntry::Value),
                _ => Some(BadEntry::Shape),
            };
            Ok(())
        })?;
        Ok(Field::Got(e))
    }

    /// A `labels` array at `depth`; `Got(None)` when some label is not a
    /// valid index.
    fn labels(&mut self, depth: usize) -> Syntax<Field<Option<Vec<usize>>>> {
        if self.peek() != Some(b'[') {
            return self.skip_value(depth).map(|()| Field::Wrong);
        }
        let mut labels = Some(Vec::new());
        self.array(depth, |r| {
            let label = r.index_value(depth + 1)?;
            if let Some(all) = labels.as_mut() {
                match label {
                    Some(label) => all.push(label),
                    None => labels = None,
                }
            }
            Ok(())
        })?;
        Ok(Field::Got(labels))
    }
}

/// Accumulates the decimal digits from `b[i..]` onto `w` (wrapping) and
/// returns the new value and the end of the run; eight digits at a time
/// while they last.
fn digits(b: &[u8], mut i: usize, mut w: u64) -> (u64, usize) {
    while let Some(chunk) = b.get(i..i + 8).and_then(|c| <[u8; 8]>::try_from(c).ok()) {
        let v = u64::from_le_bytes(chunk);
        let d = v.wrapping_sub(0x3030_3030_3030_3030);
        // Every byte is in b'0'..=b'9' when neither `v - '0'` nor
        // `v + 0x46` sets a high bit.
        if (d | v.wrapping_add(0x4646_4646_4646_4646)) & 0x8080_8080_8080_8080 != 0 {
            break;
        }
        // Pairwise combine: 8 digits -> 4 two-digit -> 2 four-digit -> 1.
        let d = d.wrapping_mul(10).wrapping_add(d >> 8) & 0x00FF_00FF_00FF_00FF;
        let d = d.wrapping_mul(100).wrapping_add(d >> 16) & 0x0000_FFFF_0000_FFFF;
        let d = d.wrapping_mul(10_000).wrapping_add(d >> 32) & 0xFFFF_FFFF;
        w = w.wrapping_mul(100_000_000).wrapping_add(d);
        i += 8;
    }
    while let Some(&c) = b.get(i).filter(|c| c.is_ascii_digit()) {
        w = w.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
        i += 1;
    }
    (w, i)
}

/// Digits after the leading zeros of a `[0-9]+(\.[0-9]+)?` token.
fn significant(token: &[u8]) -> usize {
    token
        .iter()
        .position(|&c| c != b'0' && c != b'.')
        .map_or(0, |p| token[p..].iter().filter(|c| c.is_ascii_digit()).count())
}

fn is_number_byte(c: u8) -> bool {
    c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
}

fn parse_f64(token: &[u8]) -> Option<f64> {
    std::str::from_utf8(token).ok()?.parse().ok()
}

/// The code point of a `\u` escape's four bytes, exactly as `Json::parse`
/// reads it.
fn hex4(hex: Option<&[u8]>) -> Option<u32> {
    u32::from_str_radix(std::str::from_utf8(hex?).ok()?, 16).ok()
}

/// Most significant digits a [`Number::Decimal`] may carry: `10^19 - 1`
/// still fits a `u64`.
const MAX_DIGITS: usize = 19;

/// `10^k` for `k <= 22`, every one exact in an `f64` (`5^22 < 2^53`).
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Integers up to here are exact in an `f64`.
const EXACT_INT: u64 = 1 << 53;

/// A scanned number token.
#[derive(Clone, Copy, Debug)]
enum Number<'a> {
    /// `-?[0-9]+(\.[0-9]+)?` with at most [`MAX_DIGITS`] significant and
    /// at most 22 fraction digits: the value is `±w / 10^k`.
    Decimal { neg: bool, w: u64, k: usize, token: &'a [u8] },
    /// Any other token, parsed by `str::parse::<f64>`.
    Parsed(f64),
}

impl Number<'_> {
    /// The value `str::parse::<f64>` gives the token.
    fn f64(self) -> f64 {
        match self {
            // Clinger's exact case: `w` and `10^k` are exact, and one
            // IEEE division rounds the quotient correctly.
            #[allow(clippy::cast_precision_loss)]
            Number::Decimal { neg, w, k, .. } if w <= EXACT_INT => {
                let a = w as f64 / POW10[k];
                if neg {
                    -a
                } else {
                    a
                }
            }
            // A Decimal token is always valid float syntax.
            Number::Decimal { token, .. } => parse_f64(token).unwrap_or(f64::NAN),
            Number::Parsed(v) => v,
        }
    }

    /// `parse::<f64>() as f32` when that is finite (`parse_f32`'s rule).
    fn f32(self) -> Option<f32> {
        if let Number::Decimal { neg, w, k, .. } = self {
            if w > EXACT_INT {
                // `a` is within 2.5 f64 ulps of the correctly rounded
                // value; far from the f32 rounding midpoint both narrow
                // to the same f32 (module docs). `a` lies in
                // [2^53 / 10^22, 10^19), inside the normal f32 range.
                #[allow(clippy::cast_precision_loss)]
                let a = w as f64 / POW10[k];
                let low = a.to_bits() & ((1 << 29) - 1);
                if low.abs_diff(1 << 28) > 4 {
                    #[allow(clippy::cast_possible_truncation)]
                    let f = a as f32;
                    return Some(if neg { -f } else { f });
                }
            }
        }
        #[allow(clippy::cast_possible_truncation)]
        let f = self.f64() as f32;
        f.is_finite().then_some(f)
    }

    /// A non-negative integer up to 2^53 (`parse_index`'s rule).
    fn index(self) -> Option<usize> {
        if let Number::Decimal { neg: false, w, k: 0, .. } = self {
            if w <= EXACT_INT {
                return Some(usize::try_from(w).unwrap_or(usize::MAX));
            }
        }
        let v = self.f64();
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let index = v as usize;
        #[allow(clippy::cast_precision_loss)]
        let max = EXACT_INT as f64;
        (v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= max).then_some(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodeBatch {
        let mut inc = Coo::new(2, 5);
        inc.push(0, 1, 1.0);
        inc.push(1, 4, -0.25);
        let mut inter = Coo::new(2, 2);
        inter.push_sym(0, 1, 1.0);
        NodeBatch {
            features: DMat::from_rows(&[&[0.5, -0.0, 3.25], &[1e-7, 2.0, -1.5]]),
            incremental: inc.to_csr(),
            interconnect: inter.to_csr(),
            labels: vec![1, 0],
        }
    }

    #[test]
    fn round_trip_is_bitwise() {
        let batch = sample();
        let back = decode_batch(&encode_batch(&batch)).unwrap();
        assert!(back.features.bit_eq(&batch.features), "features drifted");
        assert!(back.incremental.bit_eq(&batch.incremental));
        assert!(back.interconnect.bit_eq(&batch.interconnect));
        assert_eq!(back.labels, batch.labels);
    }

    #[test]
    fn empty_batch_round_trips_with_explicit_dim() {
        let batch = NodeBatch {
            features: DMat::zeros(0, 3),
            incremental: Csr::empty(0, 7),
            interconnect: Csr::empty(0, 0),
            labels: vec![],
        };
        let back = decode_batch(&encode_batch(&batch)).unwrap();
        assert_eq!(back.features.shape(), (0, 3));
        assert_eq!(back.incremental.cols(), 7);
    }

    #[test]
    fn non_finite_payloads_yield_typed_errors() {
        let mut batch = sample();
        batch.features.set(0, 0, f32::NAN);
        // NaN serialises as null; decode rejects it with a typed error.
        assert_eq!(
            decode_batch(&encode_batch(&batch)).unwrap_err(),
            CodecError::Type { field: "features", expected: "a finite number" }
        );
        let mut batch = sample();
        batch.incremental = batch.incremental.map_values(|_| f32::INFINITY);
        assert!(matches!(
            decode_batch(&encode_batch(&batch)),
            Err(CodecError::Type { field: "incremental", .. })
        ));
    }

    #[test]
    fn missing_and_malformed_fields_are_typed() {
        assert!(matches!(decode_batch("not json"), Err(CodecError::Parse(_))));
        assert_eq!(
            decode_batch("[]").unwrap_err(),
            CodecError::Type { field: "<root>", expected: "an object" }
        );
        assert_eq!(decode_batch("{}").unwrap_err(), CodecError::Missing("features"));
        assert_eq!(
            decode_batch(r#"{"features": []}"#).unwrap_err(),
            CodecError::Missing("feature_dim")
        );
        assert_eq!(
            decode_batch(r#"{"features": [[1.0]], "incremental": {"entries": []}}"#)
                .unwrap_err(),
            CodecError::Missing("incremental.cols")
        );
        assert_eq!(
            decode_batch(r#"{"features": [[1.0], [2.0, 3.0]], "incremental": {"cols": 2}}"#)
                .unwrap_err(),
            CodecError::Ragged { row: 1, got: 2, expected: 1 }
        );
        assert_eq!(
            decode_batch(
                r#"{"features": [[1.0]], "incremental": {"cols": 2, "entries": [[0, 5, 1.0]]}}"#
            )
            .unwrap_err(),
            CodecError::EntryOutOfRange { field: "incremental", row: 0, col: 5, rows: 1, cols: 2 }
        );
        assert_eq!(
            decode_batch(
                r#"{"features": [[1.0]], "incremental": {"cols": 2, "entries": [[0, 1]]}}"#
            )
            .unwrap_err(),
            CodecError::EntryShape { field: "incremental", index: 0 }
        );
        assert_eq!(
            decode_batch(r#"{"features": [[1.0]], "incremental": {"cols": -2}}"#).unwrap_err(),
            CodecError::BadIndex { field: "incremental" }
        );
    }

    #[test]
    fn wrong_declared_cols_decode_and_fail_batch_validation_later() {
        // Within the resource bounds the codec still accepts semantically
        // wrong widths (interconnect 1x3 for a 1-node batch, incremental
        // cols 4 against a 5-wide base) — validate_against owns those
        // rejections, so HTTP requests fail exactly like library calls.
        let batch = decode_batch(
            r#"{"features": [[1.0]],
                "incremental": {"cols": 4, "entries": []},
                "interconnect": {"cols": 3, "entries": []}}"#,
        )
        .unwrap();
        assert!(batch.validate_against(5, 1).is_err());
    }

    #[test]
    fn lying_row_declarations_die_at_decode_without_allocating() {
        // The remote-DoS shape: a tiny request declaring 9e15 rows
        // would force a ~72 PB indptr allocation in to_csr if it got that
        // far. It must be a typed error instead — for absurd counts and
        // for any mismatch at all.
        assert_eq!(
            decode_batch(
                r#"{"features": [[1.0]],
                    "incremental": {"rows": 9000000000000000, "cols": 2, "entries": []}}"#,
            )
            .unwrap_err(),
            CodecError::RowCountMismatch {
                field: "incremental",
                got: 9_000_000_000_000_000,
                expected: 1
            }
        );
        assert_eq!(
            decode_batch(
                r#"{"features": [[1.0]],
                    "incremental": {"cols": 2, "entries": []},
                    "interconnect": {"rows": 3, "cols": 3, "entries": []}}"#,
            )
            .unwrap_err(),
            CodecError::RowCountMismatch { field: "interconnect", got: 3, expected: 1 }
        );
    }

    #[test]
    fn cols_beyond_the_u32_representation_are_rejected() {
        assert_eq!(
            decode_batch(
                r#"{"features": [[1.0]],
                    "incremental": {"cols": 9000000000000000, "entries": []}}"#,
            )
            .unwrap_err(),
            CodecError::ColsTooLarge {
                field: "incremental",
                got: 9_000_000_000_000_000,
                max: MAX_WIRE_COLS
            }
        );
        // The cap itself is fine.
        let batch = decode_batch(&format!(
            r#"{{"features": [[1.0]], "incremental": {{"cols": {MAX_WIRE_COLS}, "entries": []}}}}"#
        ))
        .unwrap();
        assert_eq!(batch.incremental.cols(), MAX_WIRE_COLS);
    }

    #[test]
    fn f64_values_overflowing_f32_are_rejected_as_non_finite() {
        // 1e39 is a finite f64 but saturates to +inf as an f32; the
        // decoder's invariant is about the narrowed value.
        assert_eq!(
            decode_batch(
                r#"{"features": [[1e39]], "incremental": {"cols": 2, "entries": []}}"#
            )
            .unwrap_err(),
            CodecError::Type { field: "features", expected: "a finite number" }
        );
        assert_eq!(
            decode_batch(
                r#"{"features": [[1.0]],
                    "incremental": {"cols": 2, "entries": [[0, 0, -1e309]]}}"#
            )
            .unwrap_err(),
            CodecError::Type { field: "incremental", expected: "a finite number" }
        );
    }

    #[test]
    fn lying_logits_shape_cannot_force_a_huge_preallocation() {
        // Server responses are trusted less than they should be: a
        // declared cols of 9e15 must fail on the first row's width check,
        // not abort the client in Vec::with_capacity.
        assert_eq!(
            decode_logits(
                r#"{"trace": 1, "rows": 1, "cols": 9000000000000000, "logits": [[1.0]]}"#
            )
            .unwrap_err(),
            CodecError::Type { field: "logits", expected: "exactly `cols` columns" }
        );
    }

    fn scan(token: &str) -> Number<'_> {
        Reader { bytes: token.as_bytes(), pos: 0 }.number().unwrap()
    }

    #[test]
    fn only_plain_decimals_take_the_fast_paths() {
        let plain = ["0", "-0", "12", "0.5", "-3.25", "1234567890123456789", "0.00123456789012345"];
        for token in plain {
            assert!(matches!(scan(token), Number::Decimal { .. }), "{token}");
        }
        let odd = ["1.", "-.5", "1e5", "1E-5", "12345678901234567890", "0.00000000000000000000001"];
        for token in odd {
            assert!(matches!(scan(token), Number::Parsed(_)), "{token}");
        }
        assert_eq!(scan("9007199254740992").index(), Some(1 << 53));
        // 2^53 + 1 rounds to 2^53 through f64, which the index rule accepts.
        assert_eq!(scan("9007199254740993").index(), Some(1 << 53));
        assert_eq!(scan("9007199254740994").index(), None);
        assert_eq!(scan("-0").index(), Some(0));
        assert_eq!(scan("2.0").index(), Some(2));
    }

    #[test]
    fn midpoint_guard_is_exercised_both_ways_and_matches_std() {
        // Decimals within a dozen f64 ulps of an f32 rounding midpoint, at
        // 16 to 19 significant digits: the nearest fall back, the farther
        // clear the guard, and every one narrows exactly like
        // `parse::<f64>() as f32`.
        let (mut fast, mut fallback) = (0, 0);
        for i in 0..20_000u32 {
            let x = f32::from_bits(0x3C00_0000 + i.wrapping_mul(0x9E37_79B9) % 0x0800_0000);
            let mid = (f64::from(x) + f64::from(f32::from_bits(x.to_bits() + 1))) / 2.0;
            for d in [-12i64, -6, -3, -1, 0, 1, 3, 6, 12] {
                let v = f64::from_bits(mid.to_bits().wrapping_add_signed(d));
                let token = format!("{v:.*}", 18 - (v.log10().floor() as usize).min(17));
                let n = scan(&token);
                if let Number::Decimal { w, k, .. } = n {
                    if w > EXACT_INT {
                        let a = w as f64 / POW10[k];
                        if (a.to_bits() & ((1 << 29) - 1)).abs_diff(1 << 28) > 4 {
                            fast += 1;
                        } else {
                            fallback += 1;
                        }
                    }
                }
                let want = token.parse::<f64>().unwrap() as f32;
                assert_eq!(n.f32().map(f32::to_bits), Some(want.to_bits()), "{token}");
            }
        }
        assert!(fast > 1_000 && fallback > 1_000, "fast {fast}, fallback {fallback}");
    }

    #[test]
    fn logits_round_trip_is_bitwise() {
        let logits = DMat::from_rows(&[&[0.1, -0.0], &[f32::MIN_POSITIVE, 123456.75]]);
        let text = encode_logits(42, &logits);
        let (trace, back) = decode_logits(&text).unwrap();
        assert_eq!(trace, 42);
        assert!(back.bit_eq(&logits));
    }
}
