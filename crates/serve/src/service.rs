//! The request loop: admission control, supervised scheduling,
//! deadlines, cache, and drain-then-exit shutdown.
//!
//! # Request lifecycle
//!
//! ```text
//!            ┌──────────┐ queue full ┌──────────┐
//! parsed ──▶ │ ADMITTED │───────────▶│ REJECTED │ (structured response,
//!            └────┬─────┘            └──────────┘  never a silent drop)
//!                 │ work (simulate/eval)
//!                 ▼
//!            ┌──────────┐  hit  ┌─────────┐
//!            │  CACHE   │──────▶│ SERVED  │ (bytes identical to computed)
//!            └────┬─────┘       └─────────┘
//!   miss / quarantined
//!                 ▼
//!            ┌──────────┐  ok   ┌─────────┐
//!            │ COMPUTE  │──────▶│ SERVED  │
//!            └────┬─────┘       └─────────┘
//!                 │ TbError or contained panic
//!                 ▼
//!       ┌────────────────────┐
//!       │ FAILED / DEADLINE- │ (same round: a request runs once)
//!       │ EXCEEDED           │
//!       └────────────────────┘
//! ```
//!
//! # Determinism contract
//!
//! Responses are a pure function of the request lines: work fans out on
//! the supervised pool ([`tbpoint_pool::run_supervised`]) whose outcome
//! vector is index-canonical at every worker count; cache hits
//! deserialize exactly the bytes a fresh computation would produce; the
//! status counters are kept on the coordinator thread in arrival order.
//! Cache entry names are resolved on the coordinator before fan-out,
//! and a window runs in two waves — the first request for each entry
//! (and every request that bypasses the cache), then the repeats, which
//! hit what the first wave stored — so duplicate work is computed once
//! and the cache counters do not depend on which worker got there
//! first. The contract suite asserts
//! byte-identical responses across `--pool-workers 1/2/4` and across a
//! kill-and-restart cycle. The contract has no exception: the service
//! reads no clock.

use crate::cache::{entry_name, key_head, key_tail, Lookup, ResultCache};
use crate::proto::{
    parse_request, Command, EvalSummary, InjectedFault, Request, Response, SimSummary,
    StatusReport, WorkBody,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use tbpoint_core::{run_tbpoint, SamplingMode, TbError, TbpointConfig};
use tbpoint_emu::profile_run;
use tbpoint_obs::{fnv1a64, fnv1a64_extend, Recorder};
use tbpoint_pool::{run_supervised, ExecPlan};
use tbpoint_sim::{simulate_run, GpuConfig, NullSampling};
use tbpoint_workloads::benchmark_by_name;

/// The simulated GPU every request runs on: the paper's Fermi (Table V).
const GPU: GpuConfig = GpuConfig::fermi();

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Execution plan; work requests fan out across
    /// `plan.pool_workers`, each running serially.
    pub plan: ExecPlan,
    /// Baseline pipeline config requests override per-field. The
    /// default enables a warming budget so a destabilised region
    /// degrades instead of warming forever — a service must bound
    /// every request.
    pub config: TbpointConfig,
    /// Bounded-queue depth per batch window; arrivals beyond it are
    /// load-shed with a structured `rejected` response.
    pub max_pending: usize,
    /// Result-cache directory (`None` disables caching).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            plan: ExecPlan::serial(),
            config: TbpointConfig {
                warming_budget: Some(32),
                ..TbpointConfig::default()
            },
            max_pending: 256,
            cache_dir: None,
        }
    }
}

/// What one work unit produced, with the cache-path facts the
/// coordinator adds to its counters (in arrival order, so the counts do
/// not depend on which worker finished first).
struct WorkDone {
    body: Result<WorkBody, TbError>,
    cache_hit: bool,
    quarantined: bool,
    stored: bool,
}

impl WorkDone {
    /// A failed outcome with no cache traffic.
    fn failed(e: TbError) -> Self {
        WorkDone {
            body: Err(e),
            cache_hit: false,
            quarantined: false,
            stored: false,
        }
    }
}

/// The long-running request service.
pub struct Service {
    opts: ServeOptions,
    cache: Option<ResultCache>,
    /// FNV-1a state after the key head, per `(cmd, bench, scale
    /// divisor)`. Filled on first sight of a roster name, so it holds at
    /// most 2 × 12 × 3 entries and no client-chosen value.
    key_heads: BTreeMap<(&'static str, &'static str, u32), u64>,
    /// The key tail of a request without budget overrides, indexed by
    /// `live` (`None` if it did not serialise: such requests go uncached).
    key_tails: [Option<String>; 2],
    counters: StatusReport,
    next_seq: u64,
    shutdown: bool,
}

impl Service {
    /// Build a service, opening (and crash-sweeping) the cache
    /// directory when one is configured.
    ///
    /// # Errors
    ///
    /// I/O errors opening the cache directory.
    pub fn new(opts: ServeOptions) -> std::io::Result<Self> {
        let cache = match &opts.cache_dir {
            Some(dir) => Some(ResultCache::open(dir)?.0),
            None => None,
        };
        let key_tails =
            [false, true].map(|live| key_tail(&request_config(&opts, live, None, None), &GPU).ok());
        Ok(Service {
            opts,
            cache,
            key_heads: BTreeMap::new(),
            key_tails,
            counters: StatusReport::default(),
            next_seq: 0,
            shutdown: false,
        })
    }

    /// Counters so far (also the `status` payload).
    pub fn counters(&self) -> &StatusReport {
        &self.counters
    }

    /// Whether a `shutdown` request has been drained.
    pub fn shutting_down(&self) -> bool {
        self.shutdown
    }

    /// Committed result-cache entries on disk right now: `(count,
    /// total bytes)`. Staging (`.tmp`) and `.quarantined` files are
    /// not entries; `(0, 0)` when caching is disabled. Reported in
    /// the `status` payload so operators can watch cache growth
    /// without shelling into the cache directory.
    pub fn cache_usage(&self) -> (u64, u64) {
        let Some(cache) = &self.cache else {
            return (0, 0);
        };
        let Ok(dir) = std::fs::read_dir(cache.dir()) else {
            return (0, 0);
        };
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for e in dir.flatten() {
            if !e.file_name().to_string_lossy().ends_with(".json") {
                continue;
            }
            if let Ok(meta) = e.metadata() {
                if meta.is_file() {
                    entries += 1;
                    bytes += meta.len();
                }
            }
        }
        (entries, bytes)
    }

    /// Process one batch window of request lines and return their
    /// responses in arrival order. See the module docs for the
    /// lifecycle and determinism contract. `_rec` is unused: the status
    /// counters are the service's only telemetry.
    pub fn run_batch(&mut self, lines: &[String], _rec: &impl Recorder) -> Vec<Response> {
        self.batch(lines)
    }

    fn batch(&mut self, lines: &[String]) -> Vec<Response> {
        // Parse, assigning arrival numbers; a malformed line consumes
        // its seq and admission slot like any other arrival.
        let parsed: Vec<(u64, Result<Request, String>)> = lines
            .iter()
            .map(|line| {
                let seq = self.next_seq;
                self.next_seq += 1;
                (seq, parse_request(line, seq))
            })
            .collect();

        // Admission control: at most `max_pending` arrivals enter this
        // batch window; the overflow is load-shed, deterministically by
        // arrival order, each with a structured response.
        let mut responses: Vec<Option<Response>> = vec![None; parsed.len()];
        let mut admitted: Vec<(usize, Request)> = Vec::new();
        for (slot, (seq, result)) in parsed.into_iter().enumerate() {
            if slot >= self.opts.max_pending {
                self.counters.rejected += 1;
                let (id, cmd, bench) = match &result {
                    Ok(r) => (r.id.clone(), r.cmd.name(), r.bench.clone()),
                    Err(_) => (seq.to_string(), "", String::new()),
                };
                let mut resp = Response::empty(id, seq, "rejected", cmd, &bench);
                resp.error = format!(
                    "queue full: batch window holds {} requests",
                    self.opts.max_pending
                );
                responses[slot] = Some(resp);
                continue;
            }
            match result {
                Ok(req) => {
                    self.counters.admitted += 1;
                    if req.cmd == Command::Shutdown {
                        self.shutdown = true;
                    }
                    admitted.push((slot, req));
                }
                Err(msg) => {
                    let mut resp = Response::empty(seq.to_string(), seq, "error", "", "");
                    resp.error = msg;
                    responses[slot] = Some(resp);
                }
            }
        }

        // Schedule the work requests on the supervised pool.
        let mut work: Vec<&Request> = Vec::new();
        let mut work_slots: Vec<usize> = Vec::new();
        for (slot, req) in &admitted {
            if matches!(req.cmd, Command::Simulate | Command::Eval) {
                work.push(req);
                work_slots.push(*slot);
            }
        }
        let outcomes = self.run_work_batch(&work);
        for (k, done) in outcomes.into_iter().enumerate() {
            responses[work_slots[k]] = Some(self.finish_work(work[k], done));
        }

        // Control requests answer after the batch's work has settled,
        // so `status` reflects the end-of-batch counters.
        for (slot, req) in &admitted {
            match req.cmd {
                Command::Status => {
                    let mut resp = Response::empty(req.id.clone(), req.seq, "ok", "status", "");
                    let mut report = self.counters;
                    (report.cache_entries, report.cache_bytes) = self.cache_usage();
                    resp.service = Some(report);
                    responses[*slot] = Some(resp);
                }
                Command::Shutdown => {
                    responses[*slot] = Some(Response::empty(
                        req.id.clone(),
                        req.seq,
                        "ok",
                        "shutdown",
                        "",
                    ));
                }
                Command::Simulate | Command::Eval => {}
            }
        }

        responses
            .into_iter()
            .map(|r| match r {
                Some(r) => r,
                // Unreachable by construction: every slot is filled by
                // exactly one of the arms above.
                None => Response::empty(String::new(), 0, "error", "", ""),
            })
            .collect()
    }

    /// The cache entry name of a work request, or `None` when it runs
    /// uncached (no cache directory, an injected fault, an unknown
    /// benchmark). Equals `cache_name(.., &key_text(..))` of the same
    /// request without rendering the key head again after first sight.
    fn resolve_entry_name(&mut self, req: &Request) -> Option<String> {
        if self.cache.is_none() || req.fault.is_some() {
            return None;
        }
        let cmd = req.cmd.name();
        let scale = req.scale.divisor();
        let head = match self.key_heads.get(&(cmd, req.bench.as_str(), scale)) {
            Some(&state) => state,
            None => {
                let bench = benchmark_by_name(&req.bench, req.scale)?;
                let state = fnv1a64(key_head(cmd, &bench, req.scale).ok()?.as_bytes());
                self.key_heads.insert((cmd, bench.name, scale), state);
                state
            }
        };
        // Only the two override-free tails are kept: a budget is a
        // client-chosen integer and must not grow service state.
        let rendered;
        let tail = if req.warming_budget.is_none() && req.cycle_budget.is_none() {
            self.key_tails[usize::from(req.live)].as_deref()?
        } else {
            let cfg = request_config(&self.opts, req.live, req.warming_budget, req.cycle_budget);
            rendered = key_tail(&cfg, &GPU).ok()?;
            &rendered
        };
        let key_hash = fnv1a64_extend(head, tail.as_bytes());
        Some(entry_name(cmd, &req.bench, key_hash))
    }

    /// Run each of `work` once on the supervised pool; outcomes in
    /// `work` order. A contained panic becomes that request's failure.
    fn run_work_batch(&mut self, work: &[&Request]) -> Vec<WorkDone> {
        let names: Vec<Option<String>> = work
            .iter()
            .map(|req| self.resolve_entry_name(req))
            .collect();
        // Two waves: a repeat of an entry already named in this window
        // waits for the first request's store and then hits it, at
        // every worker count, instead of racing it to a second compute.
        let mut seen = BTreeSet::new();
        let (repeats, firsts): (Vec<usize>, Vec<usize>) = (0..work.len())
            .partition(|&i| names[i].as_deref().is_some_and(|name| !seen.insert(name)));

        let (opts, cache) = (&self.opts, self.cache.as_ref());
        let mut outcomes: Vec<(usize, WorkDone)> = Vec::with_capacity(work.len());
        for wave in [firsts, repeats] {
            let round = run_supervised(opts.plan.pool_workers, wave.len(), |k| {
                let i = wave[k];
                run_work(work[i], cache.zip(names[i].as_deref()), opts)
            });
            outcomes.extend(wave.into_iter().zip(round).map(|(i, r)| {
                let done = r.unwrap_or_else(|msg| {
                    WorkDone::failed(TbError::InvalidConfig {
                        field: "request",
                        reason: format!("unit panicked: {msg}"),
                    })
                });
                (i, done)
            }));
        }
        outcomes.sort_by_key(|&(i, _)| i);
        outcomes.into_iter().map(|(_, done)| done).collect()
    }

    /// Turn a settled work outcome into its response, counting its
    /// cache and deadline traffic in arrival order.
    fn finish_work(&mut self, req: &Request, done: WorkDone) -> Response {
        if done.quarantined {
            self.counters.cache_quarantined += 1;
        }
        if done.cache_hit {
            self.counters.cache_hits += 1;
        }
        if done.stored {
            self.counters.cache_stores += 1;
        }
        let mut resp = Response::empty(req.id.clone(), req.seq, "ok", req.cmd.name(), &req.bench);
        match done.body {
            Ok(WorkBody::Sim(s)) => {
                self.counters.completed_ok += 1;
                resp.simulate = Some(s);
            }
            Ok(WorkBody::Eval(e)) => {
                self.counters.completed_ok += 1;
                resp.eval = Some(e);
            }
            Err(e) => {
                let deadline = matches!(e, TbError::BudgetExceeded { .. });
                if deadline {
                    self.counters.deadline_exceeded += 1;
                    resp.status = "deadline-exceeded".to_string();
                } else {
                    self.counters.failed += 1;
                    resp.status = "error".to_string();
                }
                resp.error = e.to_string();
            }
        }
        resp
    }
}

/// The pipeline config a request runs under: the service baseline with
/// the request's overrides layered on.
fn request_config(
    opts: &ServeOptions,
    live: bool,
    warming_budget: Option<u32>,
    cycle_budget: Option<u64>,
) -> TbpointConfig {
    TbpointConfig {
        warming_budget: warming_budget.or(opts.config.warming_budget),
        cycle_budget: cycle_budget.or(opts.config.cycle_budget),
        mode: if live {
            SamplingMode::Live
        } else {
            opts.config.mode
        },
        ..opts.config
    }
}

/// Execute one work request (cache → fault injection → pipeline →
/// cache write-back). Runs inside a supervised pool unit: a panic here
/// is contained to this request's index.
///
/// `entry` is the cache and the entry name the coordinator resolved;
/// `None` for requests that run uncached — fault-injected ones bypass
/// the cache entirely so injected damage never pollutes durable state.
fn run_work(req: &Request, entry: Option<(&ResultCache, &str)>, opts: &ServeOptions) -> WorkDone {
    let mut done = WorkDone::failed(TbError::InvalidConfig {
        field: "bench",
        reason: String::new(),
    });

    // The lookup comes first: a hit needs neither the benchmark nor the
    // config built.
    if let Some((cache, name)) = entry {
        match cache.lookup(name) {
            Lookup::Hit(body) => {
                done.body = Ok(body);
                done.cache_hit = true;
                return done;
            }
            Lookup::Quarantined => done.quarantined = true,
            Lookup::Miss => {}
        }
    }

    let Some(bench) = benchmark_by_name(&req.bench, req.scale) else {
        done.body = Err(TbError::InvalidConfig {
            field: "bench",
            reason: format!("unknown benchmark `{}`", req.bench),
        });
        return done;
    };
    let cfg = request_config(opts, req.live, req.warming_budget, req.cycle_budget);

    if req.fault == Some(InjectedFault::Panic) {
        #[expect(
            clippy::panic,
            reason = "the injected fault the supervised pool exists to contain"
        )]
        {
            panic!("injected request panic");
        }
    }

    // Live requests skip the profiling pass entirely — the online
    // detector learns from the retire stream — which is the whole
    // point of accepting `"live": true` on a service request.
    let profile = cfg.mode.needs_profile().then(|| profile_run(&bench.run, 1));
    let tbp = run_tbpoint(&bench.run, profile.as_ref(), &cfg, &GPU, ExecPlan::serial());
    let tbp = match tbp {
        Ok(r) => r,
        Err(e) => {
            done.body = Err(e);
            return done;
        }
    };
    let body = match req.cmd {
        Command::Eval => {
            let full_ipc = simulate_run(&bench.run, &GPU, &mut NullSampling, None).overall_ipc();
            WorkBody::Eval(EvalSummary {
                full_ipc,
                error_pct: tbp.error_vs(full_ipc),
                tbpoint: SimSummary::of(&tbp),
            })
        }
        _ => WorkBody::Sim(SimSummary::of(&tbp)),
    };
    if let Some((cache, name)) = entry {
        done.stored = cache.store(name, &body).is_ok();
    }
    done.body = Ok(body);
    done
}

/// [`run_loop`] over in-memory request text: all response lines joined
/// (one per request, in arrival order, each newline-terminated). Stops
/// after the batch that drains a `shutdown` request.
pub fn process_text(svc: &mut Service, text: &str) -> String {
    let mut out = Vec::new();
    // Reading a `&str` and writing a `Vec` cannot fail, and every
    // response line is JSON text, so the conversion is lossless.
    let _ = run_loop(svc, text.as_bytes(), &mut out);
    String::from_utf8_lossy(&out).into_owned()
}

/// The interactive request loop: read JSONL from `input`, answer on
/// `output` after each blank-line-delimited batch window (or EOF),
/// exit after draining a `shutdown` request. Responses are flushed per
/// batch so a caller driving stdin sees answers as windows close.
///
/// # Errors
///
/// I/O errors reading the input or writing responses.
pub fn run_loop(
    svc: &mut Service,
    input: impl std::io::BufRead,
    output: &mut impl std::io::Write,
) -> std::io::Result<()> {
    let mut batch: Vec<String> = Vec::new();
    // EOF closes the last window like a blank line.
    for line in input.lines().chain(std::iter::once(Ok(String::new()))) {
        let line = line?;
        if !line.trim().is_empty() {
            batch.push(line);
            continue;
        }
        if !batch.is_empty() {
            for resp in svc.batch(&batch) {
                writeln!(output, "{}", resp.to_line())?;
            }
            output.flush()?;
            batch.clear();
        }
        if svc.shutting_down() {
            return Ok(());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{cache_name, key_text};
    use std::sync::atomic::{AtomicU64, Ordering};
    use tbpoint_workloads::{all_benchmarks, Scale};

    fn cached_service(tag: &str) -> (Service, PathBuf) {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tbpoint_serve_service_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions {
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        (Service::new(opts).expect("service"), dir)
    }

    #[test]
    fn resolved_names_equal_the_public_key_functions() {
        let (mut svc, dir) = cached_service("names");
        let overrides = [
            "",
            r#","live":true"#,
            r#","warming_budget":7"#,
            r#","cycle_budget":100000"#,
            r#","warming_budget":7,"cycle_budget":100000"#,
        ];
        let mut tuples = 0;
        for (scale, wire) in [
            (Scale::Tiny, "tiny"),
            (Scale::Dev, "dev"),
            (Scale::Full, "full"),
        ] {
            for bench in all_benchmarks(scale) {
                for cmd in ["simulate", "eval"] {
                    for extra in overrides {
                        let line = format!(
                            r#"{{"cmd":"{cmd}","bench":"{}","scale":"{wire}"{extra}}}"#,
                            bench.name
                        );
                        let req = parse_request(&line, 0).expect("request parses");
                        let cfg = request_config(
                            &svc.opts,
                            req.live,
                            req.warming_budget,
                            req.cycle_budget,
                        );
                        let key = key_text(cmd, &bench, scale, &cfg, &GPU).expect("key");
                        let public = cache_name(cmd, bench.name, &key);
                        // First sight of (cmd, bench, scale) on the first
                        // override, memoised from then on; ask twice so
                        // both branches meet every tail.
                        for ask in ["first", "second"] {
                            assert_eq!(
                                svc.resolve_entry_name(&req).as_deref(),
                                Some(public.as_str()),
                                "{ask} ask: {line}"
                            );
                        }
                        tuples += 1;
                    }
                }
            }
        }
        assert_eq!(tuples, 360);
        assert_eq!(svc.key_heads.len(), 72, "one head per (cmd, bench, scale)");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncached_requests_resolve_no_name_and_leave_the_memo_alone() {
        let (mut svc, dir) = cached_service("unnamed");
        for line in [
            r#"{"cmd":"simulate","bench":"no-such-bench"}"#,
            r#"{"cmd":"simulate","bench":"bfs","fault":"panic"}"#,
        ] {
            let req = parse_request(line, 0).expect("request parses");
            assert_eq!(svc.resolve_entry_name(&req), None, "{line}");
        }
        let out = process_text(
            &mut svc,
            "{\"cmd\":\"simulate\",\"bench\":\"no-such-bench\"}\n",
        );
        assert!(out.contains("unknown benchmark `no-such-bench`"), "{out}");
        assert_eq!(svc.key_heads.len(), 0, "unknown names never enter the memo");

        let mut bare = Service::new(ServeOptions::default()).expect("service");
        let req = parse_request(r#"{"cmd":"simulate","bench":"bfs"}"#, 0).expect("parses");
        assert_eq!(bare.resolve_entry_name(&req), None, "no cache directory");
        assert_eq!(bare.key_heads.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn publicly_named_entry_is_hit_then_healed_through_the_memo() {
        let (mut svc, dir) = cached_service("public");
        let line = "{\"cmd\":\"simulate\",\"bench\":\"bfs\"}\n";
        let simulate_of = |out: &str| -> SimSummary {
            let resp: Response = serde_json::from_str(out.trim_end()).expect("response parses");
            assert_eq!(resp.status, "ok", "{out}");
            resp.simulate.expect("simulate body")
        };

        // An entry this service never computed, stored under the name
        // the public functions give — with a body no simulation yields.
        let bench = benchmark_by_name("bfs", Scale::Tiny).expect("roster name");
        let key = key_text("simulate", &bench, Scale::Tiny, &svc.opts.config, &GPU).expect("key");
        let name = cache_name("simulate", "bfs", &key);
        let planted = SimSummary {
            predicted_ipc: 1.25,
            predicted_total_cycles: 4096.0,
            sample_size: 0.5,
            launches_simulated: 1,
            launches_total: 2,
            degraded_launches: 0,
        };
        let cache = svc.cache.as_ref().expect("cache configured");
        cache
            .store(&name, &WorkBody::Sim(planted.clone()))
            .expect("store");
        let path = cache.entry_path(&name);

        let first = process_text(&mut svc, line);
        assert_eq!(
            simulate_of(&first),
            planted,
            "first sight hits the planted entry"
        );
        assert_eq!(svc.counters().cache_hits, 1);

        // Damage it: the memoised path must quarantine and recompute.
        let mut bytes = std::fs::read(&path).expect("read entry");
        bytes[12] ^= 0x01;
        std::fs::write(&path, &bytes).expect("corrupt entry");
        let healed = process_text(&mut svc, line);
        let mut bare = Service::new(ServeOptions::default()).expect("service");
        let computed = simulate_of(&process_text(&mut bare, line));
        assert_eq!(
            simulate_of(&healed),
            computed,
            "recomputed, not the damaged bytes"
        );
        assert_ne!(computed, planted);
        let counters = *svc.counters();
        assert_eq!(
            (
                counters.cache_hits,
                counters.cache_quarantined,
                counters.cache_stores
            ),
            (1, 1, 1)
        );

        let again = process_text(&mut svc, line);
        assert_eq!(simulate_of(&again), computed, "the healed entry is served");
        assert_eq!(svc.counters().cache_hits, 2);
        assert_eq!(svc.key_heads.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
