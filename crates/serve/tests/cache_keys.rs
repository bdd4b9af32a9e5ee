//! Seeded property tests for the content-addressed cache (satellite of
//! PR 8): distinct request inputs never collide on a cache path, and a
//! byte-flipped entry is always quarantined, never deserialized. The
//! Tiny roster's default-request names are pinned by a golden file, so
//! re-keying every entry on disk cannot happen unnoticed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use tbpoint_core::{TbpointConfig, SAMPLER_REV};
use tbpoint_serve::{
    cache_name, key_text, Lookup, ResultCache, ServeOptions, SimSummary, WorkBody,
};
use tbpoint_sim::GpuConfig;
use tbpoint_workloads::{all_benchmarks, Scale};

#[test]
fn tiny_roster_names_match_the_committed_golden() {
    // `examples/gen_goldens.rs` writes the same text.
    let golden = include_str!("../../../tests/goldens/serve_cache_names_tiny.json");
    let cfg = ServeOptions::default().config;
    let gpu = GpuConfig::fermi();
    let mut lines = Vec::new();
    for bench in all_benchmarks(Scale::Tiny) {
        for cmd in ["simulate", "eval"] {
            let key = key_text(cmd, &bench, Scale::Tiny, &cfg, &gpu).expect("key");
            lines.push(format!(
                "\"{cmd}/{}\": \"{}\"",
                bench.name,
                cache_name(cmd, bench.name, &key)
            ));
        }
    }
    assert_eq!(lines.len(), 24);
    assert_eq!(
        format!("{{\n{}\n}}\n", lines.join(",\n")),
        golden,
        "cache names moved: every entry on disk is re-keyed; if that is intended, \
         regenerate with `cargo run --release --example gen_goldens`"
    );
}

#[test]
fn distinct_inputs_never_collide_on_a_cache_path() {
    // Sweep every axis the key covers: command, benchmark (each has a
    // different kernel and therefore different TraceDeps), scale, and
    // the budget fields of the config. Every distinct input tuple must
    // produce a distinct key text AND a distinct file name.
    let gpu = GpuConfig::fermi();
    let budgets: [(Option<u32>, Option<u64>); 4] = [
        (None, None),
        (Some(32), None),
        (None, Some(100_000)),
        (Some(32), Some(100_000)),
    ];
    let mut seen: BTreeMap<String, String> = BTreeMap::new(); // name -> key
    let mut tuples = 0usize;
    for scale in [Scale::Tiny, Scale::Dev] {
        for bench in all_benchmarks(scale) {
            for cmd in ["simulate", "eval"] {
                for (warming_budget, cycle_budget) in budgets {
                    let cfg = TbpointConfig {
                        warming_budget,
                        cycle_budget,
                        ..TbpointConfig::default()
                    };
                    let key = key_text(cmd, &bench, scale, &cfg, &gpu).expect("key");
                    let name = cache_name(cmd, bench.name, &key);
                    if let Some(prev) = seen.insert(name.clone(), key.clone()) {
                        assert_eq!(
                            prev, key,
                            "two different keys collided on cache path {name}"
                        );
                        panic!("duplicate input tuple produced twice: {name}");
                    }
                    tuples += 1;
                }
            }
        }
    }
    assert_eq!(seen.len(), tuples, "every tuple landed on its own path");
    assert!(
        tuples >= 150,
        "the sweep actually covered the space ({tuples})"
    );
}

#[test]
fn trace_deps_and_config_reach_the_key_text() {
    // The key must move when the dependence summary moves (different
    // kernels) and when only a budget field moves (same kernel).
    let gpu = GpuConfig::fermi();
    let cfg = TbpointConfig::default();
    let benches = all_benchmarks(Scale::Tiny);
    let a = key_text("simulate", &benches[0], Scale::Tiny, &cfg, &gpu).expect("key");
    let b = key_text("simulate", &benches[1], Scale::Tiny, &cfg, &gpu).expect("key");
    assert_ne!(a, b, "different kernels, different keys");

    let budgeted = TbpointConfig {
        cycle_budget: Some(7),
        ..cfg
    };
    let c = key_text("simulate", &benches[0], Scale::Tiny, &budgeted, &gpu).expect("key");
    assert_ne!(a, c, "a budget override alone must re-key the entry");
    assert_ne!(
        cache_name("simulate", benches[0].name, &a),
        cache_name("simulate", benches[0].name, &c)
    );
}

#[test]
fn the_previous_sampler_revision_names_another_entry() {
    // Results computed under older sampling rules must not be served
    // from a warm cache directory or resumed by a sweep.
    let gpu = GpuConfig::fermi();
    let cfg = TbpointConfig::default();
    for bench in all_benchmarks(Scale::Tiny) {
        let key = key_text("eval", &bench, Scale::Tiny, &cfg, &gpu).expect("key");
        let line = format!("\nsampler_rev={SAMPLER_REV}\n");
        assert_eq!(key.matches(&line).count(), 1, "{key}");
        let previous = key.replace(&line, &format!("\nsampler_rev={}\n", SAMPLER_REV - 1));
        assert_ne!(
            cache_name("eval", bench.name, &key),
            cache_name("eval", bench.name, &previous),
            "{}",
            bench.name
        );
    }
}

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tbpoint_serve_keys_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn any_byte_flip_is_quarantined_never_deserialized() {
    let dir = scratch("flip");
    let (cache, _) = ResultCache::open(&dir).expect("open");
    let body = WorkBody::Sim(SimSummary {
        predicted_ipc: 2.5,
        predicted_total_cycles: 1024.0,
        sample_size: 0.25,
        launches_simulated: 1,
        launches_total: 4,
        degraded_launches: 0,
    });
    cache.store("entry.json", &body).expect("store");
    let path = cache.entry_path("entry.json");
    let pristine = std::fs::read(&path).expect("read");

    // 64 seeded positions across the sealed file (body, trailer and the
    // final newline are all fair game), plus both endpoints.
    let len = pristine.len() as u64;
    #[allow(clippy::cast_possible_truncation)] // index < len, which is a usize
    let mut positions: Vec<usize> = (0..64u64)
        .map(|i| tbpoint_stats::unit_index(&[0xF11B, i], len) as usize)
        .collect();
    positions.push(0);
    positions.push(pristine.len() - 1);

    for (round, pos) in positions.into_iter().enumerate() {
        let mut damaged = pristine.clone();
        damaged[pos] ^= 1u8 << (round % 8);
        std::fs::write(&path, &damaged).expect("plant damage");
        match cache.lookup("entry.json") {
            Lookup::Quarantined => {}
            Lookup::Hit(_) => panic!("byte flip at {pos} was served as a hit"),
            Lookup::Miss => panic!("byte flip at {pos} vanished instead of quarantining"),
        }
        // Quarantine renamed it aside; restore the pristine entry for
        // the next round.
        std::fs::write(&path, &pristine).expect("restore");
        assert_eq!(
            cache.lookup("entry.json"),
            Lookup::Hit(body.clone()),
            "pristine entry still verifies after round {round}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
