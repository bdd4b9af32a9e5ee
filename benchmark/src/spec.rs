//! What the benchmark measures: the workload table and the metric tables.
//! `BENCHMARK.json` at the repo root lists the same names; a unit test keeps
//! the two in step.

use tbpoint::workloads::Scale;

/// One named set of inputs: roster kernels at one scale.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also the `why` in `BENCHMARK.json`).
    pub why: &'static str,
    pub kernels: &'static [&'static str],
    pub scale: Scale,
    /// Rounds a run takes at least, however short `--seconds` is: three, so
    /// that the median can drop one disturbed sample, but two where a single
    /// round takes 15 s and a third would not fit the driver's time budget.
    pub min_rounds: usize,
    /// Back-to-back iterations per sample of the profile, sampled and live
    /// legs. Fixed here, never calibrated at run time: a leg that takes less
    /// than 0.25 s on the reference host gets the smallest k that lifts one
    /// sample above it, and the reported time is the sample divided by k.
    pub k_profile: u32,
    pub k_sampled: u32,
    pub k_live: u32,
}

impl Workload {
    /// The scale as the serve wire protocol spells it.
    pub fn scale_tag(&self) -> &'static str {
        match self.scale {
            Scale::Full => "full",
            Scale::Dev => "dev",
            Scale::Tiny => "tiny",
        }
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "graph-gather",
        why: "bfs, sssp, spmv at dev: thread-varying warps bypass the trace interner, gathers keep L2/DRAM busy, 112 power-law launches give inter-launch sampling real work",
        kernels: &["bfs", "sssp", "spmv"],
        scale: Scale::Dev,
        min_rounds: 3,
        k_profile: 1,
        k_sampled: 1,
        k_live: 1,
    },
    Workload {
        name: "dense-regular",
        why: "lbm, kmeans, black, conv, hotspot at full: interner hit rate near 100%, coalesced traffic, 400k thread blocks stress the issue loop and every per-block cost in core",
        kernels: &["lbm", "kmeans", "black", "conv", "hotspot"],
        scale: Scale::Full,
        min_rounds: 2,
        k_profile: 1,
        k_sampled: 1,
        k_live: 2,
    },
    Workload {
        name: "outlier-warming",
        why: "mri, mst at dev: regions keep destabilising, sample size 57-99%, sampler warming dominates and the 10% error envelope is breached today",
        kernels: &["mri", "mst"],
        scale: Scale::Dev,
        min_rounds: 3,
        k_profile: 2,
        k_sampled: 1,
        k_live: 1,
    },
    Workload {
        name: "launch-storm",
        why: "stream, cfd at full: 311 short launches, so per-launch fixed cost and the profile pass dominate while steady-state loop speed barely matters",
        kernels: &["stream", "cfd"],
        scale: Scale::Full,
        min_rounds: 3,
        k_profile: 1,
        k_sampled: 8,
        k_live: 8,
    },
];

/// `run_seconds` of `BENCHMARK.json` and the default of `--seconds`, so a run
/// by hand measures what the driver's runs measure.
pub const RUN_SECONDS: u64 = 12;

pub fn workload_by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn tag(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition. `bound` is the share of the baseline median by
/// which the metric may worsen before `compare` calls it a regression
/// (end-to-end metrics only).
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, every one emitted on every workload with tracing
/// off. The two accuracy metrics are `100 - max sampling error`: a relative
/// bound of 0.0025 on a value near 100 is the issue's "+0.25 pt", and the
/// value is never 0 even where the sampled run is exact.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("full_sim_mwips", "Mwinst/s", Higher, 0.25),
    e2e("two_phase_s", "s", Lower, 0.25),
    e2e("resample_s", "s", Lower, 0.25),
    e2e("live_s", "s", Lower, 0.25),
    e2e("two_phase_acc_pct", "%", Higher, 0.0025),
    e2e("live_acc_pct", "%", Higher, 0.0025),
    e2e("serve_cold_s", "s", Lower, 0.25),
    e2e("serve_hot_p50_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

/// The per-layer metrics of the traced pass; layer = crate. A count that a
/// speed-only change must leave bit-identical is listed as `lower`.
pub const PER_LAYER: [MetricDef; 52] = [
    layer("emu.profile_s", "s", Lower),
    layer("emu.trace_gen_s", "s", Lower),
    layer("emu.intern_hit_pct", "%", Higher),
    layer("emu.intern_uncacheable_pct", "%", Lower),
    layer("emu.traced_warp_insts", "count", Lower),
    layer("sim.full_s", "s", Lower),
    layer("sim.ns_per_warp_inst", "ns", Lower),
    layer("sim.ns_per_cycle", "ns", Lower),
    layer("sim.addr_gen_s", "s", Lower),
    layer("sim.mem_replay_s", "s", Lower),
    layer("sim.mem_ns_per_access", "ns", Lower),
    layer("sim.mem_accesses", "count", Lower),
    layer("sim.core_s", "s", Lower),
    layer("sim.idle_jumps", "count", Higher),
    layer("sim.idle_cycles_skipped_pct", "%", Higher),
    layer("sim.cycles", "count", Lower),
    layer("sim.warp_insts", "count", Lower),
    layer("sim.l1_hit_pct", "%", Higher),
    layer("sim.l2_hit_pct", "%", Higher),
    layer("sim.dram_row_hit_pct", "%", Higher),
    layer("sim.dram_avg_wait_cyc", "cyc", Lower),
    layer("sim.jobs2_speedup", "x", Higher),
    layer("core.inter_s", "s", Lower),
    layer("core.regions_s", "s", Lower),
    layer("core.sampled_sim_s", "s", Lower),
    layer("core.sampler_overhead_s", "s", Lower),
    layer("core.live_overhead_s", "s", Lower),
    layer("core.two_phase_sample_pct", "%", Lower),
    layer("core.live_sample_pct", "%", Lower),
    layer("core.inter_skipped_pct", "%", Higher),
    layer("core.intra_skipped_pct", "%", Higher),
    layer("core.simulated_launches", "count", Lower),
    layer("core.degraded_launches", "count", Lower),
    layer("core.hook_skips", "count", Higher),
    layer("core.stat_retires", "count", Lower),
    layer("core.two_phase_err_pct", "%", Lower),
    layer("core.live_err_pct", "%", Lower),
    layer("pool.handoff_us_per_unit", "us", Lower),
    layer("pool.full_sim_speedup_w2", "x", Higher),
    layer("serve.parse_us", "us", Lower),
    layer("serve.key_us", "us", Lower),
    layer("serve.cache_lookup_us", "us", Lower),
    layer("serve.encode_us", "us", Lower),
    layer("serve.cache_store_us", "us", Lower),
    layer("serve.cold_overhead_s", "s", Lower),
    layer("serve.hot_p99_us", "us", Lower),
    layer("serve.cache_hits", "count", Higher),
    layer("obs.collect_overhead_pct", "%", Lower),
    layer("obs.events", "count", Lower),
    layer("workloads.build_s", "s", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.spans", "count", Lower),
];

/// Seed-derived order of `n` items: `seed == 0` is the identity (the roster's
/// own order), any other seed a Fisher-Yates shuffle driven by splitmix64.
/// The seed decides only the order of the cache-hot serve requests. Kernel
/// inputs stay the roster's, so the work in a run, and with it every count
/// and both accuracy metrics, is the same at every seed; and the kernels run
/// in roster order, because the order they are profiled in moves the heap's
/// high-water mark (25 against 31 MiB on `dense-regular`).
pub fn seeded_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if seed == 0 {
        return order;
    }
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn seed_zero_is_the_identity_and_every_seed_is_deterministic() {
        assert_eq!(seeded_order(0, 5), vec![0, 1, 2, 3, 4]);
        for seed in 1..50 {
            let a = seeded_order(seed, 5);
            assert_eq!(a, seeded_order(seed, 5));
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                vec![0, 1, 2, 3, 4],
                "seed {seed} is not a permutation"
            );
        }
        assert!((1..50).any(|s| seeded_order(s, 5) != seeded_order(0, 5)));
    }

    fn manifest_table(text: &str, header: &str) -> Vec<String> {
        text.lines()
            .skip_while(|l| l.trim() != header)
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
            .filter(|l| !l.is_empty())
            .collect()
    }

    #[test]
    fn release_profile_matches_the_root_manifest() {
        let ours = manifest_table(include_str!("../Cargo.toml"), "[profile.release]");
        let root = manifest_table(include_str!("../../Cargo.toml"), "[profile.release]");
        assert!(!root.is_empty());
        assert_eq!(ours, root);
    }

    fn field<'a>(obj: &'a Value, name: &str) -> &'a Value {
        crate::compare::get(obj, name).unwrap_or_else(|| panic!("BENCHMARK.json: missing `{name}`"))
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected string, got {}", other.kind()),
        }
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_match_benchmark_json() {
        let doc = serde_json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");

        assert_eq!(field(&doc, "run_seconds"), &Value::U64(RUN_SECONDS));

        let workloads = field(&doc, "workloads").as_arr().expect("array");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (json, ours) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(field(json, "name")), ours.name);
            assert_eq!(text(field(json, "why")), ours.why);
            assert!(valid_name(ours.name) && ours.why.len() <= 200);
        }

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = field(&doc, key).as_arr().expect("array");
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (json, ours) in listed.iter().zip(defs) {
                assert_eq!(text(field(json, "name")), ours.name);
                assert_eq!(text(field(json, "unit")), ours.unit, "{}", ours.name);
                assert_eq!(
                    text(field(json, "better")),
                    ours.better.tag(),
                    "{}",
                    ours.name
                );
                assert!(valid_name(ours.name), "{}", ours.name);
                if key == "end_to_end" {
                    let bound = match field(json, "bound") {
                        Value::F64(b) => *b,
                        other => panic!("bound of {}: {}", ours.name, other.kind()),
                    };
                    assert_eq!(bound, ours.bound, "{}", ours.name);
                    assert!(bound > 0.0 && bound <= 0.25);
                }
            }
        }

        let mut all: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used twice");
    }
}
