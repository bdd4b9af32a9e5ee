//! Cross-crate observability guarantees: recorders observe, they never
//! influence. The golden tests pin the bit-identity of traced vs
//! untraced runs; the property tests pin the JSON-lines encoding.

mod common;

use common::Gen;
use tbpoint::obs::{event_line, parse_event, Counter, GaugeSummary, Span};
use tbpoint::prelude::*;
use tbpoint::sim::{simulate_launch_with, NullSampling, SimOptions};
use tbpoint::workloads::{benchmark_by_name, Scale};

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

    let sink = JsonlRecorder::new();
    let sunk = simulate_launch_with(
        &bench.run.kernel,
        launch,
        &gpu,
        &mut NullSampling,
        None,
        SimOptions::default(),
        &sink,
    )
    .0;
    assert_eq!(baseline, sunk);

    // The two enabled recorders of the same (deterministic) launch must
    // have seen the same stream, and the sink's text must parse back.
    let bundle = collect.finish();
    let text = sink.finish();
    assert_eq!(bundle.to_jsonl(), text);
    assert_eq!(TraceBundle::from_jsonl(&text).unwrap(), bundle);
}

fn arbitrary_span(g: &mut Gen) -> Span {
    if g.u64(0, 2) == 0 {
        Span::ProfileLaunch {
            launch: g.u32(0, 1 << 20),
        }
    } else {
        Span::SimulateLaunch {
            launch: g.u32(0, 1 << 20),
        }
    }
}

fn arbitrary_kind(g: &mut Gen) -> EventKind {
    match g.u64(0, 16) {
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
        13 => EventKind::LiveFastForward {
            cluster: g.u32(0, 1 << 16),
            ipc: g.f64(0.0, 64.0),
        },
        14 => EventKind::LiveDestabilised {
            cluster: g.u32(0, 1 << 16),
        },
        _ => EventKind::BlockSkipped {
            tb: g.u32(0, 1 << 24),
            warp_insts: g.any_u64(),
        },
    }
}

/// Property: any event survives `event_line` -> `parse_event` exactly.
#[test]
fn arbitrary_events_round_trip_through_json_lines() {
    for case in 0..500 {
        let mut g = Gen::new(0x0b5e_7001, case);
        let ev = Event {
            cycle: g.any_u64(),
            kind: arbitrary_kind(&mut g),
        };
        let ln = event_line(&ev);
        let back = parse_event(&ln).unwrap_or_else(|e| panic!("case {case}: {e:?} in {ln}"));
        assert_eq!(back, ev, "case {case}: line was {ln}");
    }
}

/// Property: any well-formed bundle (sorted counters/gauges, as every
/// recorder produces) survives `to_jsonl` -> `from_jsonl` exactly.
#[test]
fn arbitrary_bundles_round_trip_through_json_lines() {
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
        let gauges = (0..g.u32(0, 4))
            .map(|index| {
                let last = g.any_u64();
                GaugeSummary {
                    name: "sm_resident_blocks".to_string(),
                    index,
                    last,
                    max: last.max(g.any_u64()),
                    samples: g.u64(1, 1 << 32),
                }
            })
            .collect();
        let bundle = TraceBundle {
            events,
            counters,
            gauges,
        };
        let text = bundle.to_jsonl();
        let back = TraceBundle::from_jsonl(&text).unwrap_or_else(|e| panic!("case {case}: {e:?}"));
        assert_eq!(back, bundle, "case {case}");
    }
}
