//! The workload IR: a JSON-lines trace of communication operations.
//!
//! A trace is a header line followed by one operation per line:
//!
//! ```text
//! {"trace":"cpm-workload","version":1,"name":"train","n":4}
//! {"id":0,"phase":"layer0","op":"compute","ranks":[0,1,2,3],"seconds":0.001}
//! {"id":1,"phase":"layer0","op":"reduce","root":0,"m":65536,"gamma":4e-9}
//! {"id":2,"phase":"layer0","op":"bcast","root":0,"m":65536}
//! ```
//!
//! Dependencies are per-rank program order: an op depends, on each
//! participating rank, on that rank's previous op in trace order. That is
//! exactly the ordering an MPI program written as a sequence of calls
//! would impose, and it is the order both the analytic engine and the DES
//! replay execute (see [`mod@crate::lower`]).
//!
//! The trace hash mirrors the registry fingerprint of `cpm-serve`:
//! canonical JSON (recursively sorted map keys) hashed twice with FNV-1a
//! from independent offset bases into a 128-bit hex string. Equal traces
//! hash equally regardless of field order in their serialized form, and
//! the JSON-lines and single-object forms hash identically.

use std::collections::HashMap;
use std::fmt;

use cpm_core::rank::Rank;
use cpm_core::units::Bytes;
use serde_json::Value;

/// Format marker emitted in the trace header line.
pub const TRACE_FORMAT: &str = "cpm-workload";
/// Schema version emitted in the trace header line.
pub const TRACE_VERSION: u64 = 1;

/// Errors raised by trace parsing, validation, planning or replay.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadError {
    /// The trace text could not be parsed.
    Parse(String),
    /// The trace parsed but is not executable (rank out of range, ...).
    Invalid(String),
    /// The DES replay failed (deadlock, simulator error).
    Sim(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Parse(m) => write!(f, "trace parse error: {m}"),
            WorkloadError::Invalid(m) => write!(f, "invalid trace: {m}"),
            WorkloadError::Sim(m) => write!(f, "replay error: {m}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// One communication (or local) operation.
#[derive(Clone, Debug, PartialEq)]
pub enum OpKind {
    /// A single point-to-point message.
    P2p {
        /// Sender.
        src: Rank,
        /// Receiver.
        dst: Rank,
        /// Message size, bytes.
        m: Bytes,
    },
    /// Scatter of one `m`-byte block per non-root process.
    Scatter {
        /// Root rank.
        root: Rank,
        /// Per-process block size, bytes.
        m: Bytes,
    },
    /// Gather of one `m`-byte block per non-root process.
    Gather {
        /// Root rank.
        root: Rank,
        /// Per-process block size, bytes.
        m: Bytes,
    },
    /// Broadcast of an `m`-byte payload.
    Bcast {
        /// Root rank.
        root: Rank,
        /// Payload size, bytes.
        m: Bytes,
    },
    /// Reduction of `m`-byte vectors; `gamma` is the combine cost per
    /// byte (seconds/byte) charged wherever two vectors meet.
    Reduce {
        /// Root rank receiving the combined vector.
        root: Rank,
        /// Vector size, bytes.
        m: Bytes,
        /// Combine cost per byte, seconds.
        gamma: f64,
    },
    /// Ring allgather of one `m`-byte block per process.
    Allgather {
        /// Per-process block size, bytes.
        m: Bytes,
    },
    /// Rotation alltoall of one `m`-byte block per pair.
    Alltoall {
        /// Per-pair block size, bytes.
        m: Bytes,
    },
    /// Local computation on the listed ranks.
    Compute {
        /// The ranks that compute.
        ranks: Vec<Rank>,
        /// Duration, seconds.
        seconds: f64,
    },
    /// Full barrier.
    Barrier,
}

impl OpKind {
    /// The `"op"` field value for this kind.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::P2p { .. } => "p2p",
            OpKind::Scatter { .. } => "scatter",
            OpKind::Gather { .. } => "gather",
            OpKind::Bcast { .. } => "bcast",
            OpKind::Reduce { .. } => "reduce",
            OpKind::Allgather { .. } => "allgather",
            OpKind::Alltoall { .. } => "alltoall",
            OpKind::Compute { .. } => "compute",
            OpKind::Barrier => "barrier",
        }
    }

    /// The ranks that execute at least one primitive of this op.
    pub fn participants(&self, n: usize) -> Vec<Rank> {
        match self {
            OpKind::P2p { src, dst, .. } => vec![*src, *dst],
            OpKind::Compute { ranks, .. } => ranks.clone(),
            _ => (0..n as u32).map(Rank).collect(),
        }
    }
}

/// One trace line: a stable id, a phase label, and the operation.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceOp {
    /// Stable op id, unique within the trace.
    pub id: u64,
    /// Phase label (ops aggregate into per-phase plan breakdowns).
    pub phase: String,
    /// The operation.
    pub kind: OpKind,
}

/// A complete workload trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Human-readable workload name (from the generator or the author).
    pub name: String,
    /// Number of processes the trace is written for.
    pub n: usize,
    /// Operations in trace order.
    pub ops: Vec<TraceOp>,
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn bad(msg: impl Into<String>) -> WorkloadError {
    WorkloadError::Parse(msg.into())
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, WorkloadError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| bad(format!("missing or non-string field {key:?}")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, WorkloadError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| bad(format!("missing or non-integer field {key:?}")))
}

fn f64_field(v: &Value, key: &str) -> Result<f64, WorkloadError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| bad(format!("missing or non-numeric field {key:?}")))
}

fn rank_field(v: &Value, key: &str) -> Result<Rank, WorkloadError> {
    let raw = u64_field(v, key)?;
    u32::try_from(raw)
        .map(Rank)
        .map_err(|_| bad(format!("field {key:?} is not a valid rank")))
}

fn rank_u64(r: Rank) -> Value {
    Value::U64(r.0 as u64)
}

/// One field of a trace line, borrowed from the op.
enum Field<'a> {
    U64(u64),
    F64(f64),
    Str(&'a str),
    Ranks(&'a [Rank]),
}

impl Field<'_> {
    fn to_value(&self) -> Value {
        match *self {
            Field::U64(x) => Value::U64(x),
            Field::F64(x) => Value::F64(x),
            Field::Str(x) => Value::Str(x.to_string()),
            Field::Ranks(rs) => Value::Seq(rs.iter().map(|r| rank_u64(*r)).collect()),
        }
    }
}

impl TraceOp {
    /// The op's fields in line order: the one definition both
    /// [`TraceOp::to_value`] and [`Trace::hash`] read.
    fn fields(&self) -> Vec<(&'static str, Field<'_>)> {
        let mut f = Vec::with_capacity(6);
        f.push(("id", Field::U64(self.id)));
        f.push(("phase", Field::Str(&self.phase)));
        f.push(("op", Field::Str(self.kind.name())));
        let rank = |r: &Rank| Field::U64(r.0 as u64);
        match &self.kind {
            OpKind::P2p { src, dst, m } => {
                f.push(("src", rank(src)));
                f.push(("dst", rank(dst)));
                f.push(("m", Field::U64(*m)));
            }
            OpKind::Scatter { root, m }
            | OpKind::Gather { root, m }
            | OpKind::Bcast { root, m } => {
                f.push(("root", rank(root)));
                f.push(("m", Field::U64(*m)));
            }
            OpKind::Reduce { root, m, gamma } => {
                f.push(("root", rank(root)));
                f.push(("m", Field::U64(*m)));
                f.push(("gamma", Field::F64(*gamma)));
            }
            OpKind::Allgather { m } | OpKind::Alltoall { m } => {
                f.push(("m", Field::U64(*m)));
            }
            OpKind::Compute { ranks, seconds } => {
                f.push(("ranks", Field::Ranks(ranks)));
                f.push(("seconds", Field::F64(*seconds)));
            }
            OpKind::Barrier => {}
        }
        f
    }

    /// The op as a single JSON object (one trace line).
    pub fn to_value(&self) -> Value {
        Value::Map(
            self.fields()
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
    }

    /// Parses one trace line.
    pub fn from_value(v: &Value) -> Result<TraceOp, WorkloadError> {
        let id = u64_field(v, "id")?;
        let phase = str_field(v, "phase")?.to_string();
        let kind = match str_field(v, "op")? {
            "p2p" => OpKind::P2p {
                src: rank_field(v, "src")?,
                dst: rank_field(v, "dst")?,
                m: u64_field(v, "m")?,
            },
            "scatter" => OpKind::Scatter {
                root: rank_field(v, "root")?,
                m: u64_field(v, "m")?,
            },
            "gather" => OpKind::Gather {
                root: rank_field(v, "root")?,
                m: u64_field(v, "m")?,
            },
            "bcast" => OpKind::Bcast {
                root: rank_field(v, "root")?,
                m: u64_field(v, "m")?,
            },
            "reduce" => OpKind::Reduce {
                root: rank_field(v, "root")?,
                m: u64_field(v, "m")?,
                gamma: f64_field(v, "gamma")?,
            },
            "allgather" => OpKind::Allgather {
                m: u64_field(v, "m")?,
            },
            "alltoall" => OpKind::Alltoall {
                m: u64_field(v, "m")?,
            },
            "compute" => {
                let Some(Value::Seq(raw)) = v.get("ranks") else {
                    return Err(bad("missing or non-array field \"ranks\""));
                };
                let mut ranks = Vec::with_capacity(raw.len());
                for item in raw {
                    let r = item
                        .as_u64()
                        .and_then(|u| u32::try_from(u).ok())
                        .ok_or_else(|| bad("non-rank entry in \"ranks\""))?;
                    ranks.push(Rank(r));
                }
                OpKind::Compute {
                    ranks,
                    seconds: f64_field(v, "seconds")?,
                }
            }
            "barrier" => OpKind::Barrier,
            other => {
                return Err(bad(format!(
                    "unknown op {other:?} (p2p|scatter|gather|bcast|reduce|\
                     allgather|alltoall|compute|barrier)"
                )))
            }
        };
        Ok(TraceOp { id, phase, kind })
    }
}

impl Trace {
    /// The trace as a single JSON object (the wire form of the `plan`
    /// verb): header fields plus an `"ops"` array of trace lines.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("trace", Value::Str(TRACE_FORMAT.to_string())),
            ("version", Value::U64(TRACE_VERSION)),
            ("name", Value::Str(self.name.clone())),
            ("n", Value::U64(self.n as u64)),
            (
                "ops",
                Value::Seq(self.ops.iter().map(TraceOp::to_value).collect()),
            ),
        ])
    }

    /// Parses the single-object form.
    pub fn from_value(v: &Value) -> Result<Trace, WorkloadError> {
        let format = str_field(v, "trace")?;
        if format != TRACE_FORMAT {
            return Err(bad(format!(
                "unknown trace format {format:?} (expected {TRACE_FORMAT:?})"
            )));
        }
        let version = u64_field(v, "version")?;
        if version != TRACE_VERSION {
            return Err(bad(format!(
                "unsupported trace version {version} (expected {TRACE_VERSION})"
            )));
        }
        let name = str_field(v, "name")?.to_string();
        let n = u64_field(v, "n")? as usize;
        let Some(Value::Seq(raw_ops)) = v.get("ops") else {
            return Err(bad("missing or non-array field \"ops\""));
        };
        let ops = raw_ops
            .iter()
            .map(TraceOp::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trace { name, n, ops })
    }

    /// Serializes to the JSON-lines form: header line, then one op per
    /// line, trailing newline included.
    pub fn to_jsonl(&self) -> String {
        let header = obj(vec![
            ("trace", Value::Str(TRACE_FORMAT.to_string())),
            ("version", Value::U64(TRACE_VERSION)),
            ("name", Value::Str(self.name.clone())),
            ("n", Value::U64(self.n as u64)),
        ]);
        let mut out = serde_json::to_string(&header).expect("header serializes");
        out.push('\n');
        for op in &self.ops {
            out.push_str(&serde_json::to_string(&op.to_value()).expect("op serializes"));
            out.push('\n');
        }
        out
    }

    /// Parses the JSON-lines form. Blank lines are ignored.
    pub fn from_jsonl(text: &str) -> Result<Trace, WorkloadError> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .enumerate();
        let Some((_, header_line)) = lines.next() else {
            return Err(bad("empty trace"));
        };
        let header: Value =
            serde_json::from_str(header_line).map_err(|e| bad(format!("header line: {e:?}")))?;
        let format = str_field(&header, "trace")?;
        if format != TRACE_FORMAT {
            return Err(bad(format!(
                "unknown trace format {format:?} (expected {TRACE_FORMAT:?})"
            )));
        }
        let version = u64_field(&header, "version")?;
        if version != TRACE_VERSION {
            return Err(bad(format!(
                "unsupported trace version {version} (expected {TRACE_VERSION})"
            )));
        }
        let name = str_field(&header, "name")?.to_string();
        let n = u64_field(&header, "n")? as usize;
        let mut ops = Vec::new();
        for (lineno, line) in lines {
            let v: Value = serde_json::from_str(line)
                .map_err(|e| bad(format!("line {}: {e:?}", lineno + 1)))?;
            ops.push(
                TraceOp::from_value(&v).map_err(|e| bad(format!("line {}: {e}", lineno + 1)))?,
            );
        }
        Ok(Trace { name, n, ops })
    }

    /// The stable 128-bit trace hash, hex-encoded.
    ///
    /// Computed over the canonical JSON of [`Trace::to_value`] (compact,
    /// map keys sorted at every level) with the same double-FNV-1a
    /// construction as the `cpm-serve` registry fingerprint, so it is
    /// invariant under field reordering and under the JSON-lines vs
    /// single-object representation. The canonical bytes are streamed
    /// straight into both FNV passes without building the document;
    /// strings and floats go through `serde_json`, so their escaping and
    /// text are the serializer's own.
    pub fn hash(&self) -> String {
        let json = |v: &Value| serde_json::to_string(v).expect("trace serializes");
        let mut h = Fnv2::new();
        let mut digits = String::new();
        // Top-level keys in sorted order: n, name, ops, trace, version.
        h.write(b"{\"n\":");
        h.write_u64(&mut digits, self.n as u64);
        h.write(b",\"name\":");
        h.write(json(&Value::Str(self.name.clone())).as_bytes());
        h.write(b",\"ops\":[");
        // Phases and op names repeat across ops: escape each text once.
        let mut escaped: HashMap<&str, String> = HashMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                h.write(b",");
            }
            let mut fields = op.fields();
            fields.sort_unstable_by_key(|(k, _)| *k);
            for (j, (k, v)) in fields.iter().enumerate() {
                h.write(if j == 0 { b"{\"" } else { b",\"" });
                h.write(k.as_bytes());
                h.write(b"\":");
                match v {
                    Field::U64(x) => h.write_u64(&mut digits, *x),
                    Field::F64(x) => h.write(json(&Value::F64(*x)).as_bytes()),
                    Field::Str(x) => h.write(
                        escaped
                            .entry(x)
                            .or_insert_with(|| json(&Value::Str(x.to_string())))
                            .as_bytes(),
                    ),
                    Field::Ranks(rs) => {
                        h.write(b"[");
                        for (r, rank) in rs.iter().enumerate() {
                            if r > 0 {
                                h.write(b",");
                            }
                            h.write_u64(&mut digits, rank.0 as u64);
                        }
                        h.write(b"]");
                    }
                }
            }
            h.write(b"}");
        }
        h.write(b"],\"trace\":");
        h.write(json(&Value::Str(TRACE_FORMAT.to_string())).as_bytes());
        h.write(b",\"version\":");
        h.write_u64(&mut digits, TRACE_VERSION);
        h.write(b"}");
        format!("{:016x}{:016x}", h.hi, h.lo)
    }

    /// Checks that the trace is executable: at least two processes, all
    /// ranks in range, no self-messages, positive message sizes, finite
    /// non-negative costs, unique op ids.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let invalid = |msg: String| Err(WorkloadError::Invalid(msg));
        if self.n < 2 {
            return invalid(format!("trace needs n >= 2 processes, got {}", self.n));
        }
        let in_range = |r: Rank| (r.idx()) < self.n;
        let mut seen = std::collections::HashSet::new();
        for op in &self.ops {
            if !seen.insert(op.id) {
                return invalid(format!("duplicate op id {}", op.id));
            }
            let ctx = |msg: String| format!("op {}: {msg}", op.id);
            match &op.kind {
                OpKind::P2p { src, dst, m } => {
                    if !in_range(*src) || !in_range(*dst) {
                        return invalid(ctx(format!("rank out of range (n={})", self.n)));
                    }
                    if src == dst {
                        return invalid(ctx("self-message".into()));
                    }
                    if *m == 0 {
                        return invalid(ctx("zero-byte message".into()));
                    }
                }
                OpKind::Scatter { root, m }
                | OpKind::Gather { root, m }
                | OpKind::Bcast { root, m } => {
                    if !in_range(*root) {
                        return invalid(ctx(format!("root out of range (n={})", self.n)));
                    }
                    if *m == 0 {
                        return invalid(ctx("zero-byte message".into()));
                    }
                }
                OpKind::Reduce { root, m, gamma } => {
                    if !in_range(*root) {
                        return invalid(ctx(format!("root out of range (n={})", self.n)));
                    }
                    if *m == 0 {
                        return invalid(ctx("zero-byte message".into()));
                    }
                    if !gamma.is_finite() || *gamma < 0.0 {
                        return invalid(ctx(format!("bad gamma {gamma}")));
                    }
                }
                OpKind::Allgather { m } | OpKind::Alltoall { m } => {
                    if *m == 0 {
                        return invalid(ctx("zero-byte message".into()));
                    }
                }
                OpKind::Compute { ranks, seconds } => {
                    if ranks.is_empty() {
                        return invalid(ctx("compute with no ranks".into()));
                    }
                    if let Some(r) = ranks.iter().find(|r| !in_range(**r)) {
                        return invalid(ctx(format!(
                            "rank {} out of range (n={})",
                            r.idx(),
                            self.n
                        )));
                    }
                    if !seconds.is_finite() || *seconds < 0.0 {
                        return invalid(ctx(format!("bad seconds {seconds}")));
                    }
                }
                OpKind::Barrier => {}
            }
        }
        Ok(())
    }

    /// Phase labels in first-appearance order.
    pub fn phases(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for op in &self.ops {
            if !out.contains(&op.phase) {
                out.push(op.phase.clone());
            }
        }
        out
    }
}

/// Two FNV-1a passes from independent offset bases (the halves of the
/// 128-bit trace hash), fed the same bytes together.
struct Fnv2 {
    lo: u64,
    hi: u64,
}

impl Fnv2 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    fn new() -> Self {
        Fnv2 {
            lo: 0xcbf2_9ce4_8422_2325,
            hi: 0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lo = (self.lo ^ b as u64).wrapping_mul(Self::PRIME);
            self.hi = (self.hi ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }

    /// Writes `x` in decimal (JSON's integer text), formatting through
    /// the reusable `buf`.
    fn write_u64(&mut self, buf: &mut String, x: u64) {
        use std::fmt::Write as _;
        buf.clear();
        write!(buf, "{x}").expect("formatting into a String cannot fail");
        self.write(buf.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            name: "sample".into(),
            n: 4,
            ops: vec![
                TraceOp {
                    id: 0,
                    phase: "a".into(),
                    kind: OpKind::Compute {
                        ranks: vec![Rank(0), Rank(1), Rank(2), Rank(3)],
                        seconds: 1e-3,
                    },
                },
                TraceOp {
                    id: 1,
                    phase: "a".into(),
                    kind: OpKind::Reduce {
                        root: Rank(0),
                        m: 4096,
                        gamma: 4e-9,
                    },
                },
                TraceOp {
                    id: 2,
                    phase: "b".into(),
                    kind: OpKind::P2p {
                        src: Rank(1),
                        dst: Rank(2),
                        m: 512,
                    },
                },
                TraceOp {
                    id: 3,
                    phase: "b".into(),
                    kind: OpKind::Barrier,
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trip_preserves_the_trace() {
        let t = sample();
        let text = t.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn object_and_jsonl_forms_hash_identically() {
        let t = sample();
        let via_lines = Trace::from_jsonl(&t.to_jsonl()).unwrap();
        let via_value = Trace::from_value(&t.to_value()).unwrap();
        assert_eq!(via_lines.hash(), via_value.hash());
        assert_eq!(t.hash(), via_lines.hash());
    }

    #[test]
    fn hash_is_sensitive_to_content() {
        let t = sample();
        let mut other = t.clone();
        other.ops[2].kind = OpKind::P2p {
            src: Rank(1),
            dst: Rank(3),
            m: 512,
        };
        assert_ne!(t.hash(), other.hash());
        let mut renamed = t.clone();
        renamed.name = "other".into();
        assert_ne!(t.hash(), renamed.hash());
    }

    #[test]
    fn hash_ignores_field_order() {
        let t = sample();
        // Rebuild op 2 with fields in a different order.
        let reordered = Value::Map(vec![
            ("m".to_string(), Value::U64(512)),
            ("op".to_string(), Value::Str("p2p".into())),
            ("dst".to_string(), Value::U64(2)),
            ("src".to_string(), Value::U64(1)),
            ("phase".to_string(), Value::Str("b".into())),
            ("id".to_string(), Value::U64(2)),
        ]);
        let op = TraceOp::from_value(&reordered).unwrap();
        let mut again = t.clone();
        again.ops[2] = op;
        assert_eq!(t.hash(), again.hash());
    }

    #[test]
    fn validation_rejects_bad_traces() {
        let mut t = sample();
        t.ops[2].kind = OpKind::P2p {
            src: Rank(1),
            dst: Rank(1),
            m: 512,
        };
        assert!(matches!(t.validate(), Err(WorkloadError::Invalid(_))));

        let mut t = sample();
        t.ops[2].kind = OpKind::P2p {
            src: Rank(1),
            dst: Rank(7),
            m: 512,
        };
        assert!(t.validate().is_err());

        let mut t = sample();
        t.ops[3].id = 0;
        assert!(t.validate().is_err());

        let mut t = sample();
        t.n = 1;
        assert!(t.validate().is_err());

        assert!(sample().validate().is_ok());
    }

    #[test]
    fn unknown_ops_and_formats_are_parse_errors() {
        assert!(Trace::from_jsonl("").is_err());
        assert!(
            Trace::from_jsonl("{\"trace\":\"other\",\"version\":1,\"name\":\"x\",\"n\":2}")
                .is_err()
        );
        let bad_op = "{\"trace\":\"cpm-workload\",\"version\":1,\"name\":\"x\",\"n\":2}\n\
                      {\"id\":0,\"phase\":\"p\",\"op\":\"warp\"}";
        let err = Trace::from_jsonl(bad_op).unwrap_err();
        assert!(err.to_string().contains("unknown op"), "{err}");
    }
}
