//! Seeded property tests for the checked trace parser: *any* damage to
//! a sealed JSONL bundle — truncation at every byte, random bit flips,
//! mid-record splices — must surface as `Err`. Never a panic, never a
//! silently shortened bundle.

#![allow(clippy::unwrap_used)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use tbpoint_obs::{CollectingRecorder, EventKind, Recorder, TraceBundle};
use tbpoint_resilience::{corrupt_text, Fault};
use tbpoint_stats::SplitMix64;

/// A realistic sealed bundle: events, counters and gauges.
fn sealed_bundle() -> String {
    let rec = CollectingRecorder::new();
    for i in 0..40u64 {
        #[allow(clippy::cast_possible_truncation)]
        rec.record(
            i,
            EventKind::TbDispatched {
                tb: i as u32,
                sm: (i % 4) as u32,
            },
        );
        rec.counter("issued_warp_insts", 17 + i);
        rec.gauge("resident_blocks", 0, i);
    }
    rec.finish().to_jsonl_checked()
}

#[test]
fn sealed_bundle_round_trips() {
    let sealed = sealed_bundle();
    let bundle = TraceBundle::from_jsonl_checked(&sealed).unwrap();
    assert_eq!(bundle.events.len(), 40);
    assert_eq!(bundle.to_jsonl_checked(), sealed);
}

#[test]
fn every_truncation_point_is_rejected() {
    let sealed = sealed_bundle();
    // Exhaustive over line boundaries and a seeded sample of interior
    // cuts: `from_jsonl` (lenient) accepts newline-boundary truncation
    // silently; the checked parser must not.
    let mut rng = SplitMix64::new(0xDEAD);
    let mut cuts: Vec<usize> = (0..sealed.len())
        .filter(|&i| sealed.as_bytes()[i] == b'\n')
        .collect();
    for _ in 0..200 {
        #[allow(clippy::cast_possible_truncation)] // index < len, fits usize
        cuts.push(1 + rng.next_index(sealed.len() as u64 - 1) as usize);
    }
    for cut in cuts {
        // Cutting only the final newline is lossless (body and trailer
        // both intact), so the checked parser rightly accepts it.
        if cut == 0 || cut >= sealed.len() - 1 {
            continue;
        }
        let t = &sealed[..cut];
        let r = catch_unwind(AssertUnwindSafe(|| TraceBundle::from_jsonl_checked(t)));
        match r {
            Ok(parsed) => assert!(
                parsed.is_err(),
                "truncation at byte {cut} was silently accepted"
            ),
            Err(_) => panic!("truncation at byte {cut} panicked"),
        }
    }
}

#[test]
fn random_bit_flips_are_rejected() {
    let sealed = sealed_bundle();
    for seed in 0..64u64 {
        let t = corrupt_text(&sealed, Fault::BitFlipTrace, seed);
        assert_ne!(t, sealed);
        let r = catch_unwind(AssertUnwindSafe(|| TraceBundle::from_jsonl_checked(&t)));
        match r {
            Ok(parsed) => assert!(parsed.is_err(), "bit flip seed {seed} accepted"),
            Err(_) => panic!("bit flip seed {seed} panicked"),
        }
    }
}

#[test]
fn mid_record_splices_are_rejected() {
    let sealed = sealed_bundle();
    for seed in 0..64u64 {
        let t = corrupt_text(&sealed, Fault::SpliceTrace, seed);
        assert_ne!(t, sealed);
        let r = catch_unwind(AssertUnwindSafe(|| TraceBundle::from_jsonl_checked(&t)));
        match r {
            Ok(parsed) => assert!(parsed.is_err(), "splice seed {seed} accepted"),
            Err(_) => panic!("splice seed {seed} panicked"),
        }
    }
}

#[test]
fn no_silent_record_drops() {
    // The lenient parser's known hazard, pinned: cutting at a newline
    // boundary yields a *shorter* bundle with Ok. The checked parser
    // closes exactly this gap.
    let sealed = sealed_bundle();
    let body_end = sealed[..sealed.len() - 1].rfind('\n').unwrap();
    let body = &sealed[..body_end + 1];
    let shorter_end = body[..body.len() - 1].rfind('\n').unwrap();
    let shorter = &body[..shorter_end + 1];
    let lenient = TraceBundle::from_jsonl(shorter).unwrap();
    let full = TraceBundle::from_jsonl(body).unwrap();
    assert!(
        lenient.events.len() < full.events.len()
            || lenient.counters.len() < full.counters.len()
            || lenient.gauges.len() < full.gauges.len(),
        "expected the lenient parser to drop a record"
    );
    assert!(TraceBundle::from_jsonl_checked(shorter).is_err());
}
