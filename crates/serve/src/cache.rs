//! The self-healing content-addressed result cache.
//!
//! **Keying.** An entry's name is derived from everything that can
//! change the answer: the command, the benchmark's full kernel run (the
//! serialized program tree and launch roster), its dependence-exact
//! [`TraceDeps`] summary, the revision of the
//! sampling rules ([`tbpoint_core::SAMPLER_REV`]), the complete
//! `TbpointConfig` (so cycle/warming budgets hash differently), the GPU
//! config and the scale. The canonical key text is FNV-1a-64 hashed
//! into the file name — `<cmd>-<bench>-<fnv16hex>.json` — so *any* input
//! difference lands on a different path.
//!
//! The text is a *head* (`key_head`: everything up to the `KernelRun`
//! JSON, a pure function of `(cmd, bench, scale)`) and a *tail*
//! (`key_tail`: the two configs). FNV-1a is sequential, so the service
//! keeps the hash state after each head it has seen and continues it
//! over the tail ([`tbpoint_obs::fnv1a64_extend`]): naming a repeated
//! request costs the request, not the workload. [`key_text`] and
//! [`cache_name`] compose the same pieces, so the two cannot drift.
//! Bodies are not kept in memory: every hit reads and re-verifies.
//!
//! **Self-healing.** The cache is a [`tbpoint_obs::Store`] of
//! [`WorkBody`] entries: each is sealed, written atomically, and
//! re-verified on every read. An entry that fails verification — bit
//! rot, truncation, a torn copy — is **quarantined** (renamed to
//! `<name>.quarantined`) and reported as a miss, so the service
//! recomputes and rewrites it. Corrupt bytes are never deserialized into
//! a response.

use crate::proto::WorkBody;
use tbpoint_core::{TbpointConfig, SAMPLER_REV};
use tbpoint_emu::TraceDeps;
use tbpoint_sim::GpuConfig;
use tbpoint_workloads::{Benchmark, Scale};

/// What a cache read found.
pub type Lookup = tbpoint_obs::Lookup<WorkBody>;

/// The on-disk cache: one sealed JSON file per key under one directory.
pub type ResultCache = tbpoint_obs::Store<WorkBody>;

/// The part of the key text that depends only on `(cmd, bench, scale)`:
/// everything up to and including the `run=` line.
pub(crate) fn key_head(cmd: &str, bench: &Benchmark, scale: Scale) -> Result<String, String> {
    let deps = TraceDeps::of(&bench.run.kernel);
    let run_json = serde_json::to_string(&bench.run).map_err(|e| e.to_string())?;
    Ok(format!(
        "cmd={cmd}\nbench={}\nscale={scale:?}\nsampler_rev={SAMPLER_REV}\ntrace_deps=per_thread:{},per_block:{},phase_lens:{:?}\nrun={run_json}\n",
        bench.name, deps.per_thread, deps.per_block, deps.phase_lens
    ))
}

/// The rest of the key text: the `config=` and `gpu=` lines.
pub(crate) fn key_tail(cfg: &TbpointConfig, gpu: &GpuConfig) -> Result<String, String> {
    let cfg_json = serde_json::to_string(cfg).map_err(|e| e.to_string())?;
    let gpu_json = serde_json::to_string(gpu).map_err(|e| e.to_string())?;
    Ok(format!("config={cfg_json}\ngpu={gpu_json}\n"))
}

/// Build the canonical key text for one work request. Deterministic
/// serialization (the vendored `serde_json` emits fields in declaration
/// order) makes the hash a pure function of the inputs.
///
/// # Errors
///
/// The message of the (never expected) serialization failure.
pub fn key_text(
    cmd: &str,
    bench: &Benchmark,
    scale: Scale,
    cfg: &TbpointConfig,
    gpu: &GpuConfig,
) -> Result<String, String> {
    Ok(key_head(cmd, bench, scale)? + &key_tail(cfg, gpu)?)
}

/// Cache file name for a key: `<cmd>-<bench>-<fnv16hex>.json`. The
/// human-readable prefix is for debuggability only; collision safety
/// comes from the 64-bit content hash of the full key text.
pub fn cache_name(cmd: &str, bench_name: &str, key: &str) -> String {
    entry_name(cmd, bench_name, tbpoint_obs::fnv1a64(key.as_bytes()))
}

/// [`cache_name`] from the key text's hash.
pub(crate) fn entry_name(cmd: &str, bench_name: &str, key_hash: u64) -> String {
    let safe = tbpoint_obs::safe_name(bench_name);
    format!("{cmd}-{safe}-{key_hash:016x}.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_name_is_stable_and_sanitized() {
        assert_eq!(
            cache_name("eval", "bfs", "key"),
            format!("eval-bfs-{:016x}.json", tbpoint_obs::fnv1a64(b"key"))
        );
        assert!(cache_name("sim", "we/ird name", "k").starts_with("sim-we_ird_name-"));
    }
}
