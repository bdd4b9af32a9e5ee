//! Cross-crate observability guarantees: recorders observe, they never
//! influence. The golden tests pin the bit-identity of traced vs
//! untraced runs and that a trace's counters are the result's own
//! statistics; the property tests pin that every JSON line a trace is
//! written in is exactly its record's serialised value.

mod common;

use common::Gen;
use serde::{Serialize, Value};
use tbpoint::obs::{event_line, Counter, DegradeReason, Span};
use tbpoint::prelude::*;
use tbpoint::sim::{simulate_launch_with, NullSampling, SimOptions};
use tbpoint::workloads::{all_benchmarks, benchmark_by_name, Scale};

/// Golden test: swapping the recorder must leave every simulated number
/// bit-identical, at both the single-launch and whole-pipeline level.
#[test]
fn traced_and_untraced_runs_are_bit_identical() {
    let gpu = GpuConfig::fermi();
    for name in ["spmv", "cfd", "lbm"] {
        let bench = benchmark_by_name(name, Scale::Tiny).unwrap();
        let profile = profile_run(&bench.run, 2);
        let cfg = TbpointConfig::default();

        let plain =
            run_tbpoint(&bench.run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
        let (traced, traces) =
            run_tbpoint_traced(&bench.run, Some(&profile), &cfg, &gpu, ExecPlan::serial()).unwrap();
        assert_eq!(plain, traced, "{name}: tracing changed the result");
        assert!(!traces.is_empty(), "{name}: traced run produced no traces");
        for t in &traces {
            assert!(
                !t.trace.events.is_empty(),
                "{name}: launch {} trace is empty",
                t.launch
            );
        }
    }
}

/// The same identity one level down: `simulate_launch` against
/// `simulate_launch_with` under every recorder implementation.
#[test]
fn every_recorder_leaves_the_simulation_untouched() {
    let bench = benchmark_by_name("hotspot", Scale::Tiny).unwrap();
    let gpu = GpuConfig::fermi();
    let launch = &bench.run.launches[0];
    let baseline = simulate_launch(&bench.run.kernel, launch, &gpu, &mut NullSampling, None);

    let null = simulate_launch_with(
        &bench.run.kernel,
        launch,
        &gpu,
        &mut NullSampling,
        None,
        SimOptions::default(),
        &NullRecorder,
    )
    .0;
    assert_eq!(baseline, null);

    let collect = CollectingRecorder::new();
    let collected = simulate_launch_with(
        &bench.run.kernel,
        launch,
        &gpu,
        &mut NullSampling,
        None,
        SimOptions::default(),
        &collect,
    )
    .0;
    assert_eq!(baseline, collected);
    assert!(!collect.is_empty(), "collecting recorder saw nothing");

    // The collected stream's JSON-lines text is the form every trace
    // file is written in.
    assert_lines_are_the_records(&collect.finish(), "hotspot");
}

/// The counters a launch's trace carries are the statistics its
/// `LaunchSimResult` reports: the same issued instructions, and cache
/// and DRAM counts whose ratios are the result's hit rates, bit for bit
/// (store probes included, as in the result).
#[test]
fn trace_counters_are_the_results_statistics() {
    let gpu = GpuConfig::fermi();
    for bench in all_benchmarks(Scale::Tiny) {
        for spec in &bench.run.launches {
            let what = format!("{} launch {}", bench.name, spec.launch_id.0);
            let rec = CollectingRecorder::new();
            let (r, _) = simulate_launch_with(
                &bench.run.kernel,
                spec,
                &gpu,
                &mut NullSampling,
                None,
                SimOptions::default(),
                &rec,
            );
            let counters = rec.finish().counters;
            let get = |name: &str| {
                let c = counters.iter().find(|c| c.name == name);
                c.unwrap_or_else(|| panic!("{what}: no {name} counter"))
                    .value
            };
            let rate = |hit: &str, miss: &str| {
                let (h, m) = (get(hit), get(miss));
                if h + m == 0 {
                    0.0
                } else {
                    h as f64 / (h + m) as f64
                }
            };
            assert_eq!(get("issued_warp_insts"), r.issued_warp_insts, "{what}");
            let rates = [
                (rate("l1_hit", "l1_miss"), r.l1_hit_rate),
                (rate("l2_hit", "l2_miss"), r.l2_hit_rate),
                (rate("dram_row_hit", "dram_row_miss"), r.dram_row_hit_rate),
            ];
            for (i, (got, want)) in rates.into_iter().enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: rate {i}");
            }
        }
    }
}

/// `bundle.to_jsonl()` has one line per record, in record order, and
/// each line is the record's serialised value: events as they are,
/// counters under their `counter` key.
fn assert_lines_are_the_records(bundle: &TraceBundle, what: &str) {
    let wrap = |key: &str, v: Value| Value::Obj(vec![(key.to_string(), v)]);
    let expected: Vec<Value> = (bundle.events.iter().map(Serialize::to_value))
        .chain(
            bundle
                .counters
                .iter()
                .map(|c| wrap("counter", c.to_value())),
        )
        .collect();
    let text = bundle.to_jsonl();
    let lines: Vec<Value> = text
        .lines()
        .map(|l| serde_json::parse(l).unwrap_or_else(|e| panic!("{what}: {e:?} in {l}")))
        .collect();
    assert_eq!(lines, expected, "{what}");
}

fn arbitrary_span(g: &mut Gen) -> Span {
    Span::SimulateLaunch {
        launch: g.u32(0, 1 << 20),
    }
}

fn arbitrary_kind(g: &mut Gen) -> EventKind {
    match g.u64(0, 17) {
        0 => EventKind::SpanStart {
            span: arbitrary_span(g),
        },
        1 => EventKind::SpanEnd {
            span: arbitrary_span(g),
        },
        2 => EventKind::TbDispatched {
            tb: g.u32(0, 1 << 24),
            sm: g.u32(0, 64),
        },
        3 => EventKind::TbSkipped {
            tb: g.u32(0, 1 << 24),
        },
        4 => EventKind::TbRetired {
            tb: g.u32(0, 1 << 24),
            sm: g.u32(0, 64),
        },
        5 => EventKind::IdleJump {
            cycles: g.any_u64(),
        },
        6 => EventKind::MshrStall {
            sm: g.u32(0, 64),
            cycles: g.any_u64(),
        },
        7 => EventKind::DramAccess {
            sm: g.u32(0, 64),
            row_hit: g.u64(0, 2) == 0,
        },
        8 => EventKind::RegionEntered {
            region: g.u32(0, 1 << 16),
        },
        9 => EventKind::RegionExited,
        10 => EventKind::UnitClosed {
            ipc: g.f64(0.0, 64.0),
        },
        11 => EventKind::FastForwardStarted {
            region: g.u32(0, 1 << 16),
            ipc: g.f64(0.0, 64.0),
        },
        12 => EventKind::LiveEpochDetected {
            epoch: g.u32(0, 1 << 20),
            cluster: g.u32(0, 1 << 16),
        },
        13 => EventKind::LiveDestabilised {
            cluster: g.u32(0, 1 << 16),
        },
        14 => EventKind::DegradedMode {
            reason: DegradeReason::ProfileInvalid,
        },
        15 => EventKind::DegradedMode {
            reason: DegradeReason::WarmingBudgetExceeded {
                region: g.u32(0, 1 << 16),
            },
        },
        _ => EventKind::BlockSkipped {
            tb: g.u32(0, 1 << 24),
            warp_insts: g.any_u64(),
        },
    }
}

/// Property: `event_line` writes any event as exactly its serialised
/// value.
#[test]
fn arbitrary_events_write_their_json_values() {
    for case in 0..500 {
        let mut g = Gen::new(0x0b5e_7001, case);
        let ev = Event {
            cycle: g.any_u64(),
            kind: arbitrary_kind(&mut g),
        };
        let ln = event_line(&ev);
        let back = serde_json::parse(&ln).unwrap_or_else(|e| panic!("case {case}: {e:?} in {ln}"));
        assert_eq!(back, ev.to_value(), "case {case}: line was {ln}");
    }
}

/// Property: `to_jsonl` writes any well-formed bundle (name-sorted
/// counters, as every recorder produces) as one JSON value per record.
#[test]
fn arbitrary_bundles_write_one_json_value_per_record() {
    for case in 0..100 {
        let mut g = Gen::new(0x0b5e_7002, case);
        let events = (0..g.usize(0, 40))
            .map(|_| Event {
                cycle: g.any_u64(),
                kind: arbitrary_kind(&mut g),
            })
            .collect();
        let names = ["dram_row_hit", "issued_warp_insts", "l1_hit", "l2_miss"];
        let counters = names
            .iter()
            .take(g.usize(0, names.len() + 1))
            .map(|n| Counter {
                name: (*n).to_string(),
                value: g.any_u64(),
            })
            .collect();
        let bundle = TraceBundle { events, counters };
        assert_lines_are_the_records(&bundle, &format!("case {case}"));
    }
}
