//! The stdin-JSONL wire protocol: one request per line in, one response
//! per line out.
//!
//! Requests are parsed *leniently* through the vendored [`serde::Value`]
//! tree — every field except `cmd` is optional with a documented
//! default, and an explicit `null` reads as absent for every field
//! type — because callers are external and a missing optional field
//! must not be a hard error. Responses are serialised *strictly*
//! through derived `Serialize` impls: every field is always present, in
//! declaration order, so identical outcomes are byte-identical lines
//! (the property the CI drill compares across worker counts and across
//! a kill-and-restart cycle).
//!
//! A malformed line still gets a structured `error` response carrying
//! its sequence number — the service never drops input silently.

use serde::{Deserialize, Serialize};
use tbpoint_workloads::Scale;

/// What a request asks the service to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Run the TBPoint sampled simulation for one benchmark.
    Simulate,
    /// Sampled simulation plus the full-simulation reference and error.
    Eval,
    /// Report the service counters (admission, deadlines, cache traffic).
    Status,
    /// Drain the current batch, answer, then exit the request loop.
    Shutdown,
}

impl Command {
    /// Wire name of the command.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Simulate => "simulate",
            Command::Eval => "eval",
            Command::Status => "status",
            Command::Shutdown => "shutdown",
        }
    }
}

/// A deliberately injected failure, for contract tests and the CI
/// drill. Fault-carrying requests bypass the result cache entirely (no
/// read, no write): an injected fault must never pollute durable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic inside the work unit — the pool contains it and the caller
    /// gets a structured `error` response.
    Panic,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Arrival sequence number within the service run (assigned by the
    /// service, not the caller; echoed in the response).
    pub seq: u64,
    /// Caller-chosen correlation id, echoed in the response. Defaults
    /// to the decimal sequence number.
    pub id: String,
    /// What to do.
    pub cmd: Command,
    /// Benchmark name (required for `simulate` / `eval`).
    pub bench: String,
    /// Workload scale (`"full"` / `"dev"` / `"tiny"`; default `tiny`).
    pub scale: Scale,
    /// Per-request simulated-cycle deadline, layered onto
    /// `TbpointConfig::cycle_budget`. Deterministic: the same request
    /// overruns at the same simulated cycle on every machine.
    pub cycle_budget: Option<u64>,
    /// Per-request warming budget override.
    pub warming_budget: Option<u32>,
    /// Run the live single-pass sampling mode (`TbpointConfig::mode =
    /// Live`): the profiling stage is skipped and the online detector
    /// samples during the one timing pass. Defaults to `false`
    /// (two-phase). The cache key includes the full config, so live and
    /// two-phase results never collide.
    pub live: bool,
    /// Injected failure (tests and drills only).
    pub fault: Option<InjectedFault>,
}

fn str_field(obj: &[(String, serde::Value)], name: &str) -> Result<Option<String>, String> {
    match obj.iter().find(|(k, _)| k == name) {
        None | Some((_, serde::Value::Null)) => Ok(None),
        Some((_, serde::Value::Str(s))) => Ok(Some(s.clone())),
        Some((_, v)) => Err(format!("field `{name}`: expected string, got {}", v.kind())),
    }
}

fn bool_field(obj: &[(String, serde::Value)], name: &str) -> Result<Option<bool>, String> {
    match obj.iter().find(|(k, _)| k == name) {
        None | Some((_, serde::Value::Null)) => Ok(None),
        Some((_, serde::Value::Bool(b))) => Ok(Some(*b)),
        Some((_, v)) => Err(format!(
            "field `{name}`: expected boolean, got {}",
            v.kind()
        )),
    }
}

fn u64_field(obj: &[(String, serde::Value)], name: &str) -> Result<Option<u64>, String> {
    match obj.iter().find(|(k, _)| k == name) {
        None | Some((_, serde::Value::Null)) => Ok(None),
        Some((_, serde::Value::U64(n))) => Ok(Some(*n)),
        Some((_, v)) => Err(format!(
            "field `{name}`: expected non-negative integer, got {}",
            v.kind()
        )),
    }
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "full" => Ok(Scale::Full),
        "dev" => Ok(Scale::Dev),
        "tiny" => Ok(Scale::Tiny),
        other => Err(format!("unknown scale `{other}` (full|dev|tiny)")),
    }
}

/// Parse one request line. `seq` is the service-assigned arrival
/// number.
///
/// # Errors
///
/// A human-readable message naming the first offending field; the
/// service turns it into a structured `error` response.
pub fn parse_request(line: &str, seq: u64) -> Result<Request, String> {
    let value: serde::Value =
        serde_json::from_str(line).map_err(|e| format!("malformed request JSON: {e}"))?;
    let obj = value
        .as_obj()
        .ok_or_else(|| format!("request must be a JSON object, got {}", value.kind()))?;

    let cmd = match str_field(obj, "cmd")? {
        Some(s) => match s.as_str() {
            "simulate" => Command::Simulate,
            "eval" => Command::Eval,
            "status" => Command::Status,
            "shutdown" => Command::Shutdown,
            other => return Err(format!("unknown cmd `{other}`")),
        },
        None => return Err("missing field `cmd`".to_string()),
    };
    let bench = str_field(obj, "bench")?.unwrap_or_default();
    if matches!(cmd, Command::Simulate | Command::Eval) && bench.is_empty() {
        return Err(format!("cmd `{}` requires field `bench`", cmd.name()));
    }
    let scale = match str_field(obj, "scale")? {
        Some(s) => parse_scale(&s)?,
        None => Scale::Tiny,
    };
    let fault = match str_field(obj, "fault")?.as_deref() {
        None => None,
        Some("panic") => Some(InjectedFault::Panic),
        Some(other) => return Err(format!("unknown fault `{other}` (panic)")),
    };
    let warming_budget = match u64_field(obj, "warming_budget")? {
        Some(n) => {
            Some(u32::try_from(n).map_err(|_| "field `warming_budget`: exceeds u32".to_string())?)
        }
        None => None,
    };
    Ok(Request {
        seq,
        id: str_field(obj, "id")?.unwrap_or_else(|| seq.to_string()),
        cmd,
        bench,
        scale,
        cycle_budget: u64_field(obj, "cycle_budget")?,
        warming_budget,
        live: bool_field(obj, "live")?.unwrap_or(false),
        fault,
    })
}

/// Compact result of one sampled simulation (the `simulate` payload and
/// the TBPoint half of the `eval` payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSummary {
    /// Predicted overall IPC.
    pub predicted_ipc: f64,
    /// Predicted total cycles.
    pub predicted_total_cycles: f64,
    /// Simulated / total warp instructions.
    pub sample_size: f64,
    /// Launches actually simulated.
    pub launches_simulated: u64,
    /// Total launches in the run.
    pub launches_total: u64,
    /// Launches that fell back to detailed simulation.
    pub degraded_launches: u64,
}

impl SimSummary {
    /// Summarise a pipeline result.
    pub fn of(r: &tbpoint_core::TbpointResult) -> Self {
        SimSummary {
            predicted_ipc: r.predicted_ipc,
            predicted_total_cycles: r.predicted_total_cycles,
            sample_size: r.sample_size(),
            launches_simulated: r.num_simulated_launches as u64,
            launches_total: r.num_launches as u64,
            degraded_launches: r.degraded_launches as u64,
        }
    }
}

/// The `eval` payload: the sampled run against its full-simulation
/// reference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalSummary {
    /// The sampled (TBPoint) half.
    pub tbpoint: SimSummary,
    /// Full-simulation overall IPC (the reference).
    pub full_ipc: f64,
    /// Absolute sampling error vs the reference, percent.
    pub error_pct: f64,
}

/// The cacheable result of one work request — what the
/// content-addressed cache persists and what a hit deserializes back
/// into.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkBody {
    /// A `simulate` result.
    Sim(SimSummary),
    /// An `eval` result.
    Eval(EvalSummary),
}

/// Snapshot of the service counters (the `status` payload). Reported
/// values reflect the end of the batch the `status` request arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StatusReport {
    /// Requests that passed admission control.
    pub admitted: u64,
    /// Requests load-shed at admission (bounded queue full).
    pub rejected: u64,
    /// Requests that overran their cycle budget.
    pub deadline_exceeded: u64,
    /// Work requests answered from the result cache.
    pub cache_hits: u64,
    /// Cache entries quarantined after failing checksum re-verification.
    pub cache_quarantined: u64,
    /// Fresh results persisted to the cache.
    pub cache_stores: u64,
    /// Work requests that completed with a result.
    pub completed_ok: u64,
    /// Work requests that ended in a structured error.
    pub failed: u64,
    /// Result-cache entries on disk at the end of the batch the
    /// `status` request arrived in (0 when caching is disabled).
    pub cache_entries: u64,
    /// Total size in bytes of those entries.
    pub cache_bytes: u64,
}

/// One response line. Every field is always serialised (empty string /
/// `null` when inapplicable) so identical outcomes are byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Echo of the request id (the decimal seq for malformed lines).
    pub id: String,
    /// Arrival sequence number.
    pub seq: u64,
    /// `"ok"`, `"error"`, `"rejected"` or `"deadline-exceeded"`.
    pub status: String,
    /// Echo of the command (`""` for malformed lines).
    pub cmd: String,
    /// Echo of the benchmark (`""` when inapplicable).
    pub bench: String,
    /// Error message (`""` on success).
    pub error: String,
    /// `simulate` result, when the request was one.
    pub simulate: Option<SimSummary>,
    /// `eval` result, when the request was one.
    pub eval: Option<EvalSummary>,
    /// `status` counters, when the request was one.
    pub service: Option<StatusReport>,
}

impl Response {
    /// Skeleton with the given identity and empty payloads.
    pub fn empty(id: String, seq: u64, status: &str, cmd: &str, bench: &str) -> Self {
        Response {
            id,
            seq,
            status: status.to_string(),
            cmd: cmd.to_string(),
            bench: bench.to_string(),
            error: String::new(),
            simulate: None,
            eval: None,
            service: None,
        }
    }

    /// Serialise as one JSONL line (no trailing newline). Derived
    /// serialization of this plain struct cannot fail; if it ever did,
    /// the wire stays alive with a minimal structured error line.
    pub fn to_line(&self) -> String {
        match serde_json::to_string(self) {
            Ok(s) => s,
            Err(e) => format!(
                "{{\"id\":{:?},\"seq\":{},\"status\":\"error\",\"error\":\"serialize: {e}\"}}",
                self.id, self.seq
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let r = parse_request(
            r#"{"id":"a1","cmd":"eval","bench":"bfs","scale":"dev","cycle_budget":5000,"fault":"panic"}"#,
            3,
        )
        .expect("parse");
        assert_eq!(r.id, "a1");
        assert_eq!(r.seq, 3);
        assert_eq!(r.cmd, Command::Eval);
        assert_eq!(r.bench, "bfs");
        assert_eq!(r.scale, Scale::Dev);
        assert_eq!(r.cycle_budget, Some(5000));
        assert_eq!(r.fault, Some(InjectedFault::Panic));
    }

    #[test]
    fn defaults_fill_optional_fields() {
        let r = parse_request(r#"{"cmd":"simulate","bench":"bfs"}"#, 9).expect("parse");
        assert_eq!(r.id, "9", "id defaults to the seq");
        assert_eq!(r.scale, Scale::Tiny);
        assert_eq!(r.cycle_budget, None);
        assert_eq!(r.fault, None);
    }

    #[test]
    fn null_reads_as_absent_for_every_optional_field() {
        let base = parse_request(r#"{"cmd":"simulate","bench":"bfs"}"#, 4).expect("parse");
        for field in [
            "id",
            "scale",
            "fault",
            "cycle_budget",
            "warming_budget",
            "live",
        ] {
            let line = format!(r#"{{"cmd":"simulate","bench":"bfs","{field}":null}}"#);
            assert_eq!(parse_request(&line, 4), Ok(base.clone()), "{field}");
        }
        // `bench` is optional for control requests only; `cmd` never is.
        assert_eq!(
            parse_request(r#"{"cmd":"status","bench":null}"#, 4),
            parse_request(r#"{"cmd":"status"}"#, 4)
        );
        for (line, expect) in [
            (r#"{"cmd":null}"#, "missing field `cmd`"),
            (
                r#"{"cmd":"simulate","bench":null}"#,
                "requires field `bench`",
            ),
        ] {
            assert!(parse_request(line, 0).expect_err(line).contains(expect));
        }
    }

    #[test]
    fn rejects_bad_shapes_with_field_names() {
        assert!(parse_request("not json", 0)
            .expect_err("err")
            .contains("malformed"));
        assert!(parse_request("[1,2]", 0)
            .expect_err("err")
            .contains("object"));
        assert!(parse_request("{}", 0).expect_err("err").contains("`cmd`"));
        assert!(parse_request(r#"{"cmd":"dance"}"#, 0)
            .expect_err("err")
            .contains("unknown cmd"));
        assert!(parse_request(r#"{"cmd":"simulate"}"#, 0)
            .expect_err("err")
            .contains("`bench`"));
        assert!(
            parse_request(r#"{"cmd":"simulate","bench":"bfs","scale":"huge"}"#, 0)
                .expect_err("err")
                .contains("unknown scale")
        );
        for fault in ["hang", "panic-once"] {
            let line = format!(r#"{{"cmd":"simulate","bench":"bfs","fault":"{fault}"}}"#);
            assert!(parse_request(&line, 0)
                .expect_err(&line)
                .contains("unknown fault"));
        }
        assert!(
            parse_request(r#"{"cmd":"simulate","bench":"bfs","cycle_budget":-4}"#, 0)
                .expect_err("err")
                .contains("cycle_budget")
        );
    }

    #[test]
    fn status_and_shutdown_need_no_bench() {
        assert_eq!(
            parse_request(r#"{"cmd":"status"}"#, 0).expect("parse").cmd,
            Command::Status
        );
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#, 1)
                .expect("parse")
                .cmd,
            Command::Shutdown
        );
    }

    #[test]
    fn responses_serialize_deterministically() {
        let a = Response::empty("7".into(), 7, "ok", "status", "");
        let b = Response::empty("7".into(), 7, "ok", "status", "");
        assert_eq!(a.to_line(), b.to_line());
        let back: Response = serde_json::from_str(&a.to_line()).expect("round trip");
        assert_eq!(back, a);
    }
}
