//! The self-healing content-addressed result cache.
//!
//! **Keying.** An entry's name is derived from everything that can
//! change the answer: the command, the benchmark's full kernel run (the
//! serialized program tree and launch roster), its dependence-exact
//! [`TraceDeps`](tbpoint_emu::TraceDeps) summary, the complete
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
//! **Self-healing.** Entries are written with
//! [`tbpoint_obs::write_atomic`] and sealed with the FNV integrity
//! trailer ([`tbpoint_obs::seal`]). Every read re-verifies the
//! checksum; an entry that fails verification — bit rot, truncation, a
//! torn copy — is **quarantined** (renamed to `<name>.quarantined`) and
//! reported as a miss, so the service recomputes and rewrites it.
//! Corrupt bytes are never deserialized into a response.
//!
//! **Concurrency.** Lookups are lock-free (atomic rename means a reader
//! sees the old entry or the new one, never a torn one). Writes and
//! quarantines serialise on an internal mutex so two pool workers
//! finishing identical requests never race on the same staging file.

use crate::proto::WorkBody;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use tbpoint_core::TbpointConfig;
use tbpoint_emu::TraceDeps;
use tbpoint_sim::GpuConfig;
use tbpoint_workloads::{Benchmark, Scale};

/// What a cache read found.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// A verified entry, deserialized.
    Hit(WorkBody),
    /// No entry on disk.
    Miss,
    /// An entry was present but failed checksum re-verification (or
    /// verified yet no longer parsed); it has been renamed aside and
    /// the caller must recompute.
    Quarantined,
}

/// The part of the key text that depends only on `(cmd, bench, scale)`:
/// everything up to and including the `run=` line.
pub(crate) fn key_head(cmd: &str, bench: &Benchmark, scale: Scale) -> Result<String, String> {
    let deps = TraceDeps::of(&bench.run.kernel);
    let run_json = serde_json::to_string(&bench.run).map_err(|e| e.to_string())?;
    Ok(format!(
        "cmd={cmd}\nbench={}\nscale={scale:?}\ntrace_deps=per_thread:{},per_block:{},phase_lens:{:?}\nrun={run_json}\n",
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
    let safe: String = bench_name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{cmd}-{safe}-{key_hash:016x}.json")
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The on-disk cache: one sealed JSON file per key under one directory.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    write_lock: Mutex<()>,
}

impl ResultCache {
    /// Open (creating the directory if needed) and sweep stale
    /// `write_atomic` staging files left by a crash. Returns the cache
    /// and the swept paths.
    ///
    /// # Errors
    ///
    /// I/O errors creating or scanning the directory.
    pub fn open(dir: &Path) -> std::io::Result<(Self, Vec<PathBuf>)> {
        std::fs::create_dir_all(dir)?;
        let swept = tbpoint_obs::clean_stale_tmps(dir)?;
        Ok((
            ResultCache {
                dir: dir.to_path_buf(),
                write_lock: Mutex::new(()),
            },
            swept,
        ))
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of an entry by name.
    pub fn entry_path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Read an entry: verify the integrity trailer, then deserialize.
    /// Damage of any kind quarantines the entry instead of serving it.
    pub fn lookup(&self, name: &str) -> Lookup {
        let path = self.entry_path(name);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Miss,
            // Unreadable bytes (permission flip, invalid UTF-8) are
            // damage too: quarantine rather than retry forever.
            Err(_) => return self.quarantine(&path),
        };
        match tbpoint_obs::verify(&text) {
            Ok(body) => match serde_json::from_str::<WorkBody>(body) {
                Ok(b) => Lookup::Hit(b),
                // Checksum fine but shape unknown (schema skew): the
                // entry is useless — heal by recomputing.
                Err(_) => self.quarantine(&path),
            },
            Err(_) => self.quarantine(&path),
        }
    }

    /// Persist a verified entry: sealed, atomically written, rename
    /// made durable by the parent-directory fsync inside
    /// [`tbpoint_obs::write_atomic`].
    ///
    /// # Errors
    ///
    /// I/O errors from the atomic write.
    pub fn store(&self, name: &str, body: &WorkBody) -> std::io::Result<()> {
        // The seal checksum covers newline-terminated bodies (the
        // trailer convention all sealed artifacts share), so terminate
        // before sealing.
        let json = format!("{}\n", serde_json::to_string_pretty(body)?);
        let sealed = tbpoint_obs::seal(&json);
        let _guard = lock(&self.write_lock);
        tbpoint_obs::write_atomic(&self.entry_path(name), sealed.as_bytes())
    }

    /// Rename a damaged entry aside (`<name>.quarantined`) so the next
    /// lookup is a clean miss. Best-effort: if the rename itself fails
    /// the entry is removed instead; either way it is never served.
    fn quarantine(&self, path: &Path) -> Lookup {
        let _guard = lock(&self.write_lock);
        let aside = PathBuf::from(format!("{}.quarantined", path.display()));
        if std::fs::rename(path, &aside).is_err() {
            let _ = std::fs::remove_file(path);
        }
        Lookup::Quarantined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::SimSummary;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tbpoint_serve_cache_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn body() -> WorkBody {
        WorkBody::Sim(SimSummary {
            predicted_ipc: 1.25,
            predicted_total_cycles: 4096.0,
            sample_size: 0.3,
            launches_simulated: 2,
            launches_total: 4,
            degraded_launches: 0,
        })
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let dir = scratch("roundtrip");
        let (cache, swept) = ResultCache::open(&dir).expect("open");
        assert!(swept.is_empty());
        assert_eq!(cache.lookup("k.json"), Lookup::Miss);
        cache.store("k.json", &body()).expect("store");
        assert_eq!(cache.lookup("k.json"), Lookup::Hit(body()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_served() {
        let dir = scratch("quarantine");
        let (cache, _) = ResultCache::open(&dir).expect("open");
        cache.store("k.json", &body()).expect("store");

        // Flip one byte in the sealed entry.
        let path = cache.entry_path("k.json");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[10] ^= 0x01;
        std::fs::write(&path, &bytes).expect("corrupt");

        assert_eq!(cache.lookup("k.json"), Lookup::Quarantined);
        assert!(!path.exists(), "damaged entry renamed aside");
        assert!(
            PathBuf::from(format!("{}.quarantined", path.display())).exists(),
            "quarantine file kept for forensics"
        );
        // Next lookup is a clean miss; a recompute heals the entry.
        assert_eq!(cache.lookup("k.json"), Lookup::Miss);
        cache.store("k.json", &body()).expect("heal");
        assert_eq!(cache.lookup("k.json"), Lookup::Hit(body()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_staging_files() {
        let dir = scratch("sweep");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join(".k.json.tmp"), b"torn").expect("plant");
        let (cache, swept) = ResultCache::open(&dir).expect("open");
        assert_eq!(swept.len(), 1);
        assert_eq!(cache.lookup("k.json"), Lookup::Miss, "tmp never parsed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_name_is_stable_and_sanitized() {
        assert_eq!(
            cache_name("eval", "bfs", "key"),
            format!("eval-bfs-{:016x}.json", tbpoint_obs::fnv1a64(b"key"))
        );
        assert!(cache_name("sim", "we/ird name", "k").starts_with("sim-we_ird_name-"));
    }
}
