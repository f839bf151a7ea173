//! The NDJSON request/response protocol of `ca3dmm-serve`.
//!
//! One JSON object per line in, one per line out (`jsonlite`'s compact
//! writer never emits newlines, so every response is NDJSON-safe). Three
//! commands:
//!
//! ```json
//! {"cmd":"multiply","id":"r1","m":64,"n":64,"k":64,"dtype":"f64",
//!  "seed_a":1,"seed_b":2,"op_a":"n","op_b":"n",
//!  "layout_a":"col","layout_b":"col","layout_c":"col","report":false}
//! {"cmd":"stats","id":"s1"}
//! {"cmd":"shutdown","id":"x1"}
//! ```
//!
//! Matrices never cross the wire: inputs are generated deterministically
//! from `(seed, rect)` on the owning rank ([`dense::random::global_block`],
//! the same generator every figure in this repo uses), and the response
//! carries an order-fixed checksum of `C` (defined in [`crate::engine`])
//! instead of its elements. Equal
//! requests therefore have equal checksums — which is how the CI smoke test
//! proves a cache-hit multiply is bitwise identical to the cache-miss one.
//!
//! Parsing is total: any malformed, unknown, or oversized request maps to a
//! structured [`ProtoError`] response — never a panic, because a panic on
//! the request path would take down the daemon's shared world.

use ca3dmm::{Ca3dmmOptions, Dtype, PlanKey};
use dense::gemm::GemmOp;
use gridopt::{Grid, Problem};
use jsonlite::Json;
use layout::Layout;

/// Request-size limits enforced before anything is allocated.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum single dimension (`m`, `n`, or `k`).
    pub max_dim: usize,
    /// Maximum total elements across `A`, `B`, and `C`
    /// (`m·k + k·n + m·n`).
    pub max_total_elems: u128,
    /// Maximum request line length in bytes.
    pub max_line_bytes: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_dim: 1 << 20,
            // 16 Mi elements ≈ 128 MiB of f64 across the three operands.
            max_total_elems: 1 << 24,
            max_line_bytes: 64 * 1024,
        }
    }
}

/// A structured protocol failure: everything the daemon refuses to execute
/// surfaces as one of these, serialized into the error response.
#[derive(Clone, Debug)]
pub struct ProtoError {
    /// Stable machine-readable code: `bad_json`, `bad_request`,
    /// `too_large`, or `internal`.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    /// A `bad_request` error.
    pub fn bad(message: impl Into<String>) -> ProtoError {
        ProtoError {
            code: "bad_request",
            message: message.into(),
        }
    }

    /// The error response line for this failure (`ok:false`).
    pub fn to_response(&self, id: Option<&str>) -> Json {
        Json::obj([
            ("id", id.map_or(Json::Null, |s| Json::Str(s.to_owned()))),
            ("ok", Json::Bool(false)),
            (
                "error",
                Json::obj([
                    ("code", Json::Str(self.code.to_owned())),
                    ("message", Json::Str(self.message.clone())),
                ]),
            ),
        ])
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// How a request distributes one operand over the daemon's `p` ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutSpec {
    /// `"col"` — 1D column blocks.
    Col,
    /// `"row"` — 1D row blocks.
    Row,
    /// `"block:RxC"` — 2D blocks over an `R × C` rank grid (`R·C = p`).
    Block(usize, usize),
    /// `"cyclic:RxC:BRxBC"` — ScaLAPACK block-cyclic tiles.
    Cyclic(usize, usize, usize, usize),
}

impl LayoutSpec {
    /// Parses the wire form.
    pub fn parse(s: &str) -> Result<LayoutSpec, ProtoError> {
        let dims = |part: &str| -> Result<(usize, usize), ProtoError> {
            let (a, b) = part
                .split_once('x')
                .ok_or_else(|| ProtoError::bad(format!("expected RxC in layout, got {part:?}")))?;
            let a = a
                .parse::<usize>()
                .map_err(|_| ProtoError::bad(format!("bad layout dimension {a:?}")))?;
            let b = b
                .parse::<usize>()
                .map_err(|_| ProtoError::bad(format!("bad layout dimension {b:?}")))?;
            if a == 0 || b == 0 {
                return Err(ProtoError::bad("layout dimensions must be positive"));
            }
            Ok((a, b))
        };
        match s {
            "col" => Ok(LayoutSpec::Col),
            "row" => Ok(LayoutSpec::Row),
            _ => {
                if let Some(rest) = s.strip_prefix("block:") {
                    let (r, c) = dims(rest)?;
                    Ok(LayoutSpec::Block(r, c))
                } else if let Some(rest) = s.strip_prefix("cyclic:") {
                    let (grid, tile) = rest
                        .split_once(':')
                        .ok_or_else(|| ProtoError::bad("cyclic layout needs cyclic:RxC:BRxBC"))?;
                    let (r, c) = dims(grid)?;
                    let (br, bc) = dims(tile)?;
                    Ok(LayoutSpec::Cyclic(r, c, br, bc))
                } else {
                    Err(ProtoError::bad(format!(
                        "unknown layout {s:?} (want col, row, block:RxC, cyclic:RxC:BRxBC)"
                    )))
                }
            }
        }
    }

    /// Materializes the layout for a `rows × cols` matrix over `p` ranks.
    pub fn build(&self, rows: usize, cols: usize, p: usize) -> Result<Layout, ProtoError> {
        // `r` and `c` come straight off the wire: an unchecked `r * c` wraps
        // (2⁶²+1 × 4 == 4) and passes for the daemon's p.
        let covers = |kind: &str, r: usize, c: usize| {
            if r.checked_mul(c) == Some(p) {
                Ok(())
            } else {
                Err(ProtoError::bad(format!(
                    "{kind} layout grid {r}x{c} must cover exactly p={p} ranks"
                )))
            }
        };
        match *self {
            LayoutSpec::Col => Ok(Layout::one_d_col(rows, cols, p)),
            LayoutSpec::Row => Ok(Layout::one_d_row(rows, cols, p)),
            LayoutSpec::Block(r, c) => {
                covers("block", r, c)?;
                Ok(Layout::two_d_block(rows, cols, r, c))
            }
            LayoutSpec::Cyclic(r, c, br, bc) => {
                covers("cyclic", r, c)?;
                Ok(Layout::block_cyclic(rows, cols, r, c, br, bc))
            }
        }
    }
}

/// A validated multiply request, with its layouts materialized and its
/// [`PlanKey`] computed — everything the scheduler needs, resolved once on
/// the transport thread so nothing on the execution path can fail parsing.
#[derive(Clone, Debug)]
pub struct MultiplyRequest {
    /// Caller's correlation id, echoed in the response.
    pub id: String,
    /// The problem (`p` is the daemon's world size).
    pub prob: Problem,
    pub dtype: Dtype,
    pub op_a: GemmOp,
    pub op_b: GemmOp,
    /// Deterministic input seeds (`A = global_block(seed_a, ·)`, …).
    pub seed_a: u64,
    pub seed_b: u64,
    /// Stored-operand layouts (already shaped for the ops).
    pub a_layout: Layout,
    pub b_layout: Layout,
    pub c_layout: Layout,
    /// Algorithm options (grid override, overlap, …).
    pub opts: Ca3dmmOptions,
    /// Emit a RunReport for this request (runs traced).
    pub report: bool,
    /// The plan-cache key.
    pub key: PlanKey,
}

impl MultiplyRequest {
    /// Shape label used for per-shape latency stats: `"MxNxK/dtype"`.
    pub fn shape_label(&self) -> String {
        format!(
            "{}x{}x{}/{}",
            self.prob.m,
            self.prob.n,
            self.prob.k,
            self.dtype.as_str()
        )
    }
}

/// One parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    Multiply(Box<MultiplyRequest>),
    Stats { id: String },
    Shutdown { id: String },
}

fn get_str<'j>(obj: &'j Json, key: &str) -> Option<&'j str> {
    obj.get(key).and_then(Json::as_str)
}

/// A JSON number that must be a non-negative integer `<= max`.
fn get_uint(obj: &Json, key: &str, max: u64) -> Result<Option<u64>, ProtoError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let f = v
                .as_f64()
                .ok_or_else(|| ProtoError::bad(format!("{key} must be a number")))?;
            if !f.is_finite() || f < 0.0 || f.fract() != 0.0 {
                return Err(ProtoError::bad(format!(
                    "{key} must be a non-negative integer"
                )));
            }
            if f > max as f64 {
                return Err(ProtoError {
                    code: "too_large",
                    message: format!("{key} = {f} exceeds the limit {max}"),
                });
            }
            Ok(Some(f as u64))
        }
    }
}

fn get_bool(obj: &Json, key: &str, default: bool) -> Result<bool, ProtoError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ProtoError::bad(format!("{key} must be a boolean"))),
    }
}

fn parse_op(obj: &Json, key: &str) -> Result<GemmOp, ProtoError> {
    match get_str(obj, key) {
        None => Ok(GemmOp::NoTrans),
        Some("n") | Some("N") => Ok(GemmOp::NoTrans),
        Some("t") | Some("T") => Ok(GemmOp::Trans),
        Some(other) => Err(ProtoError::bad(format!(
            "{key} must be \"n\" or \"t\", got {other:?}"
        ))),
    }
}

fn parse_opts(obj: &Json, p: usize) -> Result<Ca3dmmOptions, ProtoError> {
    let mut opts = Ca3dmmOptions::default();
    if let Some(grid) = obj.get("grid") {
        let arr = grid
            .as_arr()
            .filter(|a| a.len() == 3)
            .ok_or_else(|| ProtoError::bad("grid must be [pm, pn, pk]"))?;
        let mut dims = [0usize; 3];
        for (slot, v) in dims.iter_mut().zip(arr) {
            let f = v
                .as_f64()
                .filter(|f| f.is_finite() && *f >= 1.0 && f.fract() == 0.0)
                .ok_or_else(|| ProtoError::bad("grid entries must be positive integers"))?;
            *slot = f as usize;
        }
        let [pm, pn, pk] = dims;
        if pm
            .checked_mul(pn)
            .and_then(|x| x.checked_mul(pk))
            .is_none_or(|prod| prod > p)
        {
            return Err(ProtoError::bad(format!(
                "grid {pm}x{pn}x{pk} exceeds p={p}"
            )));
        }
        if !pm.max(pn).is_multiple_of(pm.min(pn)) {
            return Err(ProtoError::bad(format!(
                "grid violates eq. 7: max(pm,pn) must be a multiple of min(pm,pn), got {pm}x{pn}"
            )));
        }
        opts.grid_override = Some(Grid::new(pm, pn, pk));
    }
    if let Some(o) = obj.get("opts") {
        if o.as_obj().is_none() {
            return Err(ProtoError::bad("opts must be an object"));
        }
        opts.overlap = get_bool(o, "overlap", opts.overlap)?;
    }
    Ok(opts)
}

/// Parses and fully validates one request line against the daemon's world
/// size `p` and `limits`. Every failure is a [`ProtoError`]; nothing
/// panics.
pub fn parse_request(line: &str, p: usize, limits: &Limits) -> Result<Request, ProtoError> {
    if line.len() > limits.max_line_bytes {
        return Err(ProtoError {
            code: "too_large",
            message: format!(
                "request line of {} bytes exceeds the {}-byte limit",
                line.len(),
                limits.max_line_bytes
            ),
        });
    }
    let obj = Json::parse(line).map_err(|e| ProtoError {
        code: "bad_json",
        message: e.to_string(),
    })?;
    if obj.as_obj().is_none() {
        return Err(ProtoError {
            code: "bad_json",
            message: "request must be a JSON object".to_owned(),
        });
    }
    let id = get_str(&obj, "id").unwrap_or("").to_owned();
    match get_str(&obj, "cmd") {
        Some("stats") => Ok(Request::Stats { id }),
        Some("shutdown") => Ok(Request::Shutdown { id }),
        Some("multiply") => {
            parse_multiply(&obj, id, p, limits).map(|m| Request::Multiply(Box::new(m)))
        }
        Some(other) => Err(ProtoError::bad(format!(
            "unknown cmd {other:?} (want multiply, stats, shutdown)"
        ))),
        None => Err(ProtoError::bad("missing cmd field")),
    }
}

fn parse_multiply(
    obj: &Json,
    id: String,
    p: usize,
    limits: &Limits,
) -> Result<MultiplyRequest, ProtoError> {
    let dim = |key: &str| -> Result<usize, ProtoError> {
        let v = get_uint(obj, key, limits.max_dim as u64)?
            .ok_or_else(|| ProtoError::bad(format!("missing {key}")))?;
        if v == 0 {
            return Err(ProtoError::bad(format!("{key} must be positive")));
        }
        Ok(v as usize)
    };
    let (m, n, k) = (dim("m")?, dim("n")?, dim("k")?);
    let total = m as u128 * k as u128 + k as u128 * n as u128 + m as u128 * n as u128;
    if total > limits.max_total_elems {
        return Err(ProtoError {
            code: "too_large",
            message: format!(
                "problem holds {total} elements across A/B/C, limit is {}",
                limits.max_total_elems
            ),
        });
    }
    let dtype = match get_str(obj, "dtype") {
        None => Dtype::F64,
        Some(s) => Dtype::parse(s)
            .ok_or_else(|| ProtoError::bad(format!("unknown dtype {s:?} (want f32 or f64)")))?,
    };
    let op_a = parse_op(obj, "op_a")?;
    let op_b = parse_op(obj, "op_b")?;
    let seed_a = get_uint(obj, "seed_a", u64::MAX >> 12)?.unwrap_or(1);
    let seed_b = get_uint(obj, "seed_b", u64::MAX >> 12)?.unwrap_or(2);
    let spec = |key: &str, default: LayoutSpec| -> Result<LayoutSpec, ProtoError> {
        match get_str(obj, key) {
            None => Ok(default),
            Some(s) => LayoutSpec::parse(s),
        }
    };
    let (ar, ac) = match op_a {
        GemmOp::NoTrans => (m, k),
        GemmOp::Trans => (k, m),
    };
    let (br, bc) = match op_b {
        GemmOp::NoTrans => (k, n),
        GemmOp::Trans => (n, k),
    };
    let a_layout = spec("layout_a", LayoutSpec::Col)?.build(ar, ac, p)?;
    let b_layout = spec("layout_b", LayoutSpec::Col)?.build(br, bc, p)?;
    let c_layout = spec("layout_c", LayoutSpec::Col)?.build(m, n, p)?;
    let opts = parse_opts(obj, p)?;
    let report = get_bool(obj, "report", false)?;
    let prob = Problem::new(m, n, k, p);
    let key = PlanKey::new(
        &prob, &opts, dtype, op_a, &a_layout, op_b, &b_layout, &c_layout,
    );
    Ok(MultiplyRequest {
        id,
        prob,
        dtype,
        op_a,
        op_b,
        seed_a,
        seed_b,
        a_layout,
        b_layout,
        c_layout,
        opts,
        report,
        key,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: usize = 4;

    fn lim() -> Limits {
        Limits::default()
    }

    #[test]
    fn minimal_multiply_parses_with_defaults() {
        let r = parse_request(
            r#"{"cmd":"multiply","id":"a","m":8,"n":8,"k":8}"#,
            P,
            &lim(),
        )
        .unwrap();
        let Request::Multiply(m) = r else {
            panic!("wrong variant")
        };
        assert_eq!(m.id, "a");
        assert_eq!((m.prob.m, m.prob.n, m.prob.k, m.prob.p), (8, 8, 8, P));
        assert_eq!(m.dtype, Dtype::F64);
        assert_eq!(m.seed_a, 1);
        assert!(!m.report);
        assert_eq!(m.shape_label(), "8x8x8/f64");
    }

    #[test]
    fn malformed_json_is_a_structured_error() {
        let e = parse_request("{nope", P, &lim()).unwrap_err();
        assert_eq!(e.code, "bad_json");
        let resp = e.to_response(None);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        // compact output is single-line (NDJSON-safe)
        assert!(!resp.to_string().contains('\n'));
    }

    #[test]
    fn oversized_dims_are_rejected_not_panicked() {
        let e = parse_request(
            r#"{"cmd":"multiply","id":"a","m":99999999,"n":8,"k":8}"#,
            P,
            &lim(),
        )
        .unwrap_err();
        assert_eq!(e.code, "too_large");
        let e = parse_request(
            r#"{"cmd":"multiply","id":"a","m":4096,"n":4096,"k":4096}"#,
            P,
            &lim(),
        )
        .unwrap_err();
        assert_eq!(e.code, "too_large", "total-elements cap");
    }

    #[test]
    fn oversized_line_is_rejected_before_parsing() {
        let line = format!(
            r#"{{"cmd":"multiply","id":"{}","m":8,"n":8,"k":8}}"#,
            "x".repeat(70_000)
        );
        let e = parse_request(&line, P, &lim()).unwrap_err();
        assert_eq!(e.code, "too_large");
    }

    #[test]
    fn bad_fields_are_rejected() {
        for (line, what) in [
            (r#"{"cmd":"multiply","m":0,"n":8,"k":8}"#, "zero dim"),
            (
                r#"{"cmd":"multiply","m":8.5,"n":8,"k":8}"#,
                "fractional dim",
            ),
            (
                r#"{"cmd":"multiply","m":8,"n":8,"k":8,"op_a":"x"}"#,
                "bad op",
            ),
            (
                r#"{"cmd":"multiply","m":8,"n":8,"k":8,"dtype":"f16"}"#,
                "bad dtype",
            ),
            (
                r#"{"cmd":"multiply","m":8,"n":8,"k":8,"layout_a":"diag"}"#,
                "bad layout",
            ),
            (
                r#"{"cmd":"multiply","m":8,"n":8,"k":8,"layout_a":"block:3x3"}"#,
                "block grid != p",
            ),
            (
                r#"{"cmd":"multiply","m":8,"n":8,"k":8,"grid":[3,2,1]}"#,
                "eq.7 violation",
            ),
            (
                r#"{"cmd":"multiply","m":8,"n":8,"k":8,"grid":[8,8,8]}"#,
                "grid > p",
            ),
            (r#"{"cmd":"frobnicate"}"#, "unknown cmd"),
            (r#"{"id":"q"}"#, "missing cmd"),
            (r#"[1,2]"#, "non-object"),
            // (2⁶²+1)·4 wraps to 4 = p in unchecked usize arithmetic.
            (
                r#"{"cmd":"multiply","m":8,"n":8,"k":8,"layout_a":"block:4611686018427387905x4"}"#,
                "block grid product overflows",
            ),
            (
                r#"{"cmd":"multiply","m":8,"n":8,"k":8,"layout_b":"cyclic:4x4611686018427387905:2x2"}"#,
                "cyclic grid product overflows",
            ),
        ] {
            let e = parse_request(line, P, &lim());
            assert!(e.is_err(), "{what} should be rejected: {line}");
        }
    }

    #[test]
    fn deeply_nested_line_is_bad_json_not_a_stack_overflow() {
        // Under the line limit, and deep enough to overflow the 2 MiB stack
        // of a connection thread (and stdio's 8 MiB main thread) without
        // the parser's nesting cap.
        let line = "[".repeat(60_000);
        assert!(line.len() < lim().max_line_bytes);
        let e = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse_request(&line, P, &lim()).unwrap_err())
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(e.code, "bad_json");
    }

    #[test]
    fn equal_requests_share_a_plan_key_and_unequal_do_not() {
        let parse = |line: &str| -> MultiplyRequest {
            match parse_request(line, P, &lim()).unwrap() {
                Request::Multiply(m) => *m,
                _ => panic!("wrong variant"),
            }
        };
        let a = parse(r#"{"cmd":"multiply","id":"1","m":16,"n":12,"k":8,"seed_a":5}"#);
        let b = parse(r#"{"cmd":"multiply","id":"2","m":16,"n":12,"k":8,"seed_a":9}"#);
        // different ids and seeds, same shape -> same key (seeds are data,
        // not plan identity)
        assert_eq!(a.key, b.key);
        let c = parse(r#"{"cmd":"multiply","id":"3","m":16,"n":12,"k":9}"#);
        assert_ne!(a.key, c.key);
        let d = parse(r#"{"cmd":"multiply","id":"4","m":16,"n":12,"k":8,"dtype":"f32"}"#);
        assert_ne!(a.key, d.key);
        let e = parse(r#"{"cmd":"multiply","id":"5","m":16,"n":12,"k":8,"layout_c":"row"}"#);
        assert_ne!(a.key, e.key);
        // The retired `multi_shift_min_k` is ignored like any unknown key.
        let old = parse(
            r#"{"cmd":"multiply","id":"6","m":16,"n":12,"k":8,"opts":{"multi_shift_min_k":0}}"#,
        );
        assert_eq!(a.key, old.key);
    }

    #[test]
    fn stats_and_shutdown_parse() {
        assert!(matches!(
            parse_request(r#"{"cmd":"stats","id":"s"}"#, P, &lim()).unwrap(),
            Request::Stats { .. }
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"shutdown"}"#, P, &lim()).unwrap(),
            Request::Shutdown { .. }
        ));
    }

    #[test]
    fn layout_spec_round_trip() {
        assert_eq!(LayoutSpec::parse("col").unwrap(), LayoutSpec::Col);
        assert_eq!(
            LayoutSpec::parse("block:2x2").unwrap(),
            LayoutSpec::Block(2, 2)
        );
        assert_eq!(
            LayoutSpec::parse("cyclic:2x2:3x4").unwrap(),
            LayoutSpec::Cyclic(2, 2, 3, 4)
        );
        assert!(LayoutSpec::parse("block:0x2").is_err());
        assert!(LayoutSpec::parse("cyclic:2x2").is_err());
        let l = LayoutSpec::Block(2, 2).build(8, 8, 4).unwrap();
        assert_eq!(l.nranks(), 4);
        assert!(LayoutSpec::Block(2, 2).build(8, 8, 5).is_err());
    }
}
