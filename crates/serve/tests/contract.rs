//! The serve robustness contract: a batch containing injected panics,
//! deadline overruns and a corrupted cache entry completes with zero
//! crashes and zero silent corruption, and responses are byte-identical
//! across worker counts and across a kill-and-restart cycle.

// Helpers outside `#[test]` fns (`run_adverse`) assert by panicking too.
#![allow(clippy::expect_used)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use tbpoint_pool::ExecPlan;
use tbpoint_serve::{process_text, ServeOptions, Service};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tbpoint_serve_contract_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(pool_workers: usize, cache_dir: Option<PathBuf>) -> ServeOptions {
    ServeOptions {
        plan: ExecPlan { pool_workers },
        cache_dir,
        ..ServeOptions::default()
    }
}

/// The mixed-adversity batch: clean work, a panic, a deadline overrun,
/// an unknown benchmark and a malformed line.
const ADVERSE_BATCH: &str = r#"{"id":"clean","cmd":"simulate","bench":"bfs"}
{"id":"hopeless","cmd":"simulate","bench":"hotspot","fault":"panic"}
{"id":"deadline","cmd":"simulate","bench":"mri","cycle_budget":1}
{"id":"ghost","cmd":"simulate","bench":"no-such-bench"}
this line is not json
{"id":"finale","cmd":"eval","bench":"bfs"}
"#;

fn run_adverse(pool_workers: usize) -> String {
    let mut svc = Service::new(opts(pool_workers, None)).expect("service");
    process_text(&mut svc, ADVERSE_BATCH)
}

#[test]
fn adverse_batch_completes_with_structured_outcomes() {
    let out = run_adverse(2);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 6, "one response per input line:\n{out}");

    // Every line parses back and carries the expected status.
    let response = |id: &str| -> tbpoint_serve::Response {
        let line = lines
            .iter()
            .find(|l| l.contains(&format!("\"id\":\"{id}\"")))
            .unwrap_or_else(|| panic!("no response for {id}:\n{out}"));
        serde_json::from_str(line).expect("parse response")
    };
    assert_eq!(response("clean").status, "ok");
    let hopeless = response("hopeless");
    assert_eq!(hopeless.status, "error");
    assert!(
        hopeless.error.contains("injected request panic"),
        "{}",
        hopeless.error
    );
    assert_eq!(response("deadline").status, "deadline-exceeded");
    assert_eq!(response("ghost").status, "error");
    assert_eq!(response("finale").status, "ok");
    // The malformed line got a structured error too (id = its seq).
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"id\":\"4\"") && l.contains("malformed")),
        "malformed line answered, not dropped:\n{out}"
    );
}

#[test]
fn responses_are_byte_identical_across_worker_counts() {
    let serial = run_adverse(1);
    for workers in [2, 4] {
        assert_eq!(
            run_adverse(workers),
            serial,
            "pool_workers={workers} must not change a single byte"
        );
    }
}

#[test]
fn admission_control_sheds_load_with_structured_rejections() {
    let mut o = opts(2, None);
    o.max_pending = 2;
    let mut svc = Service::new(o).expect("service");
    let batch = "{\"id\":\"a\",\"cmd\":\"simulate\",\"bench\":\"bfs\"}\n\
                 {\"id\":\"b\",\"cmd\":\"status\"}\n\
                 {\"id\":\"c\",\"cmd\":\"simulate\",\"bench\":\"bfs\"}\n\
                 {\"id\":\"d\",\"cmd\":\"simulate\",\"bench\":\"bfs\"}\n";
    let out = process_text(&mut svc, batch);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "overflow answered, never silently dropped");
    assert!(lines[2].contains("\"status\":\"rejected\""));
    assert!(lines[3].contains("\"status\":\"rejected\""));
    assert_eq!(svc.counters().admitted, 2);
    assert_eq!(svc.counters().rejected, 2);
}

#[test]
fn deadline_traffic_is_observable() {
    let mut svc = Service::new(opts(2, None)).expect("service");
    let batch = "{\"id\":\"d\",\"cmd\":\"simulate\",\"bench\":\"mri\",\"cycle_budget\":1}\n";
    let out = process_text(&mut svc, batch);
    assert!(out.contains("\"status\":\"deadline-exceeded\""), "{out}");
    assert_eq!(svc.counters().deadline_exceeded, 1);
    assert_eq!(svc.counters().failed, 0);
}

#[test]
fn kill_and_restart_reuses_the_cache_and_answers_identically() {
    let dir = scratch("restart");
    let batch = "{\"id\":\"a\",\"cmd\":\"simulate\",\"bench\":\"bfs\"}\n\
                 {\"id\":\"b\",\"cmd\":\"eval\",\"bench\":\"stream\"}\n";

    // Reference: one uninterrupted service, no cache.
    let mut bare = Service::new(opts(2, None)).expect("service");
    let reference = process_text(&mut bare, batch);

    // First incarnation computes and persists; simulate the kill -9 by
    // dropping it mid-life (drop is not a clean shutdown path — the
    // cache is crash-consistent by construction, not by teardown).
    let mut first = Service::new(opts(2, Some(dir.clone()))).expect("service");
    let run1 = process_text(&mut first, batch);
    assert_eq!(first.counters().cache_stores, 2);
    assert_eq!(first.counters().cache_hits, 0);
    drop(first);

    // Second incarnation answers from the persisted entries.
    let mut second = Service::new(opts(2, Some(dir.clone()))).expect("service");
    let run2 = process_text(&mut second, batch);
    assert_eq!(second.counters().cache_hits, 2, "restart reuses the cache");

    assert_eq!(run1, reference, "caching changes no bytes");
    assert_eq!(run2, reference, "restart + resubmit changes no bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_requests_in_one_window_compute_once_at_every_worker_count() {
    // Two workers must not both miss, both simulate and both store: the
    // repeat waits for the first request's entry and hits it, so the
    // `status` line reads the same at every worker count.
    let window = "{\"cmd\":\"simulate\",\"bench\":\"mri\",\"scale\":\"dev\"}\n\
                  {\"cmd\":\"simulate\",\"bench\":\"mri\",\"scale\":\"dev\"}\n\
                  {\"cmd\":\"status\"}\n";
    let run = |workers: usize, cached: bool| -> (String, u64, u64) {
        let dir = scratch("dups");
        let mut svc = Service::new(opts(workers, cached.then(|| dir.clone()))).expect("service");
        let out = process_text(&mut svc, window);
        let _ = std::fs::remove_dir_all(&dir);
        (out, svc.counters().cache_stores, svc.counters().cache_hits)
    };
    let serial = run(1, true);
    assert_eq!((serial.1, serial.2), (1, 1), "one compute, one hit");
    for workers in [2, 4] {
        assert_eq!(run(workers, true), serial, "pool_workers={workers}");
    }
    // Without a cache directory there is nothing to wait for: both
    // requests compute, and the answers are the same bytes.
    let bare = run(2, false);
    assert_eq!((bare.1, bare.2), (0, 0));
    let work = |out: &str| out.lines().take(2).map(str::to_string).collect::<Vec<_>>();
    assert_eq!(work(&bare.0), work(&serial.0));
}

#[test]
fn corrupted_cache_entry_is_quarantined_recomputed_and_observable() {
    let dir = scratch("corrupt");
    let line = "{\"id\":\"a\",\"cmd\":\"simulate\",\"bench\":\"bfs\"}\n";

    let mut svc = Service::new(opts(1, Some(dir.clone()))).expect("service");
    let clean = process_text(&mut svc, line);
    drop(svc);

    // Flip one byte in the (only) persisted entry.
    let entry = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("one cache entry");
    let mut bytes = std::fs::read(&entry).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&entry, &bytes).expect("corrupt entry");

    let mut svc = Service::new(opts(1, Some(dir.clone()))).expect("service");
    let healed = process_text(&mut svc, line);
    assert_eq!(healed, clean, "recomputed answer, not the corrupt bytes");
    assert_eq!(svc.counters().cache_quarantined, 1);
    assert_eq!(svc.counters().cache_hits, 0);
    assert_eq!(
        svc.counters().cache_stores,
        1,
        "the healed entry is rewritten"
    );
    assert!(
        std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(Result::ok)
            .any(|e| e.path().to_string_lossy().ends_with(".quarantined")),
        "damaged entry kept aside for forensics"
    );

    // Third run hits the healed entry.
    let mut svc = Service::new(opts(1, Some(dir.clone()))).expect("service");
    let hit = process_text(&mut svc, line);
    assert_eq!(hit, clean);
    assert_eq!(svc.counters().cache_hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_requests_run_single_pass_and_are_deterministic_across_workers() {
    let line = "{\"id\":\"lv\",\"cmd\":\"eval\",\"bench\":\"bfs\",\"live\":true}\n";
    let mut svc = Service::new(opts(1, None)).expect("service");
    let serial = process_text(&mut svc, line);
    assert!(
        serial.contains("\"status\":\"ok\""),
        "live eval answers ok:\n{serial}"
    );
    assert!(
        serial.contains("\"eval\":"),
        "live eval carries an eval body:\n{serial}"
    );
    for workers in [2, 4] {
        let mut svc = Service::new(opts(workers, None)).expect("service");
        assert_eq!(
            process_text(&mut svc, line),
            serial,
            "pool_workers={workers} must not change a live byte"
        );
    }
}

#[test]
fn live_and_two_phase_requests_cache_under_distinct_keys() {
    let dir = scratch("livecache");
    let batch = "{\"id\":\"tp\",\"cmd\":\"simulate\",\"bench\":\"bfs\"}\n\
                 {\"id\":\"lv\",\"cmd\":\"simulate\",\"bench\":\"bfs\",\"live\":true}\n";
    let mut svc = Service::new(opts(1, Some(dir.clone()))).expect("service");
    let _ = process_text(&mut svc, batch);
    assert_eq!(
        svc.counters().cache_stores,
        2,
        "the sampling mode is part of the cache key"
    );
    let mut svc = Service::new(opts(1, Some(dir.clone()))).expect("service");
    let _ = process_text(&mut svc, batch);
    assert_eq!(svc.counters().cache_hits, 2, "both modes hit on resubmit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_reports_cache_entry_count_and_total_bytes() {
    let dir = scratch("usage");
    let mut svc = Service::new(opts(1, Some(dir.clone()))).expect("service");
    let text = "{\"id\":\"w\",\"cmd\":\"simulate\",\"bench\":\"bfs\"}\n\
                {\"id\":\"s\",\"cmd\":\"status\"}\n";
    let out = process_text(&mut svc, text);
    let status_line = out
        .lines()
        .find(|l| l.contains("\"id\":\"s\""))
        .expect("status response");
    let resp: tbpoint_serve::Response = serde_json::from_str(status_line).expect("parse status");
    let report = resp.service.expect("service payload");
    assert_eq!(
        report.cache_entries, 1,
        "status counts the entry the batch just stored"
    );
    let on_disk: u64 = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .map(|e| e.metadata().map(|m| m.len()).unwrap_or(0))
        .sum();
    assert!(on_disk > 0, "the entry really is on disk");
    assert_eq!(report.cache_bytes, on_disk);

    // With caching disabled the usage figures stay zero.
    let mut bare = Service::new(opts(1, None)).expect("service");
    let out = process_text(&mut bare, "{\"id\":\"s\",\"cmd\":\"status\"}\n");
    let resp: tbpoint_serve::Response =
        serde_json::from_str(out.lines().next().expect("line")).expect("parse status");
    let report = resp.service.expect("service payload");
    assert_eq!((report.cache_entries, report.cache_bytes), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_its_batch_then_stops_the_loop() {
    let mut svc = Service::new(opts(1, None)).expect("service");
    let text = "{\"id\":\"a\",\"cmd\":\"simulate\",\"bench\":\"bfs\"}\n\
                {\"id\":\"bye\",\"cmd\":\"shutdown\"}\n\
                \n\
                {\"id\":\"late\",\"cmd\":\"simulate\",\"bench\":\"bfs\"}\n";
    let out = process_text(&mut svc, text);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(
        lines.len(),
        2,
        "the batch drains; the post-shutdown window never runs"
    );
    assert!(lines[0].contains("\"id\":\"a\"") && lines[0].contains("\"status\":\"ok\""));
    assert!(lines[1].contains("\"id\":\"bye\"") && lines[1].contains("\"status\":\"ok\""));
    assert!(svc.shutting_down());
}

#[test]
fn run_loop_streams_batches_and_exits_on_shutdown() {
    let mut svc = Service::new(opts(1, None)).expect("service");
    let input = "{\"id\":\"a\",\"cmd\":\"status\"}\n\n{\"id\":\"z\",\"cmd\":\"shutdown\"}\n\n";
    let mut out = Vec::new();
    tbpoint_serve::run_loop(&mut svc, input.as_bytes(), &mut out).expect("loop");
    let text = String::from_utf8(out).expect("utf8");
    assert_eq!(text.lines().count(), 2);
    assert!(text.lines().next().expect("first").contains("\"service\":"));
}
