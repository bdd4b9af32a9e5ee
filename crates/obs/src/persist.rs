//! Crash-safe persistence: atomic tmp+fsync+rename writes, and the
//! sealed-entry [`Store`] every persisted result lives in.
//!
//! Every durable artifact in the workspace — sweep unit entries, serve
//! cache entries, final artifacts, trace files — goes through
//! [`write_atomic`]. The protocol:
//!
//! 1. create the parent directory;
//! 2. write a hidden `.<name>.tmp` sibling and `fsync` it;
//! 3. atomically `rename` it over the destination;
//! 4. `fsync` the **parent directory**, so the rename itself (a
//!    directory-entry update) is durable — without step 4 a power loss
//!    after the rename can still roll the directory back to the old
//!    entry, or to no entry at all for a fresh file.
//!
//! A crash between steps 2 and 3 leaves a stale `.<name>.tmp` behind.
//! Readers must never parse those: [`is_stale_tmp`] identifies them and
//! [`clean_stale_tmps`] sweeps a directory on startup ([`Store::open`]
//! does).
//!
//! **Sealed entries.** A [`Store`] is one directory of results that are
//! reused across runs (resumable sweep units, the serve result cache).
//! One rule decides whether a stored result is intact: an entry is
//! trusted if and only if its own seal ([`crate::seal`]) verifies.
//! [`Store::lookup`] re-verifies on every read; any damage — unreadable
//! bytes, a bad seal, or a sealed body that no longer parses — renames
//! the entry to `<name>.quarantined` and reports
//! [`Lookup::Quarantined`], so the caller recomputes and stores afresh.
//! Damaged bytes are never deserialised into a result.

use std::io::Write as _;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The hidden sibling [`write_atomic`] stages into: `.<name>.tmp`.
fn tmp_sibling(path: &Path, name: &std::ffi::OsStr) -> PathBuf {
    path.with_file_name(format!(".{}.tmp", name.to_string_lossy()))
}

/// Flush a directory's entry table to disk. Directory fds are a
/// unix-ism; elsewhere the rename is as durable as the platform makes
/// it.
#[cfg(unix)]
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> std::io::Result<()> {
    Ok(())
}

/// Write bytes crash-safely: create the parent, write a hidden
/// `.<name>.tmp` sibling, fsync it, atomically rename it over the
/// destination, then fsync the parent directory so the rename is
/// durable. A crash at any point leaves either the old file or the new
/// file — never a torn artifact — plus possibly a stale `.tmp` sibling,
/// which readers ignore (see [`is_stale_tmp`]).
///
/// # Errors
///
/// Any I/O error from the steps above; a path with no file name is
/// rejected.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let Some(name) = path.file_name() else {
        return Err(std::io::Error::other(format!(
            "cannot write {}: path has no file name",
            path.display()
        )));
    };
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => {
            std::fs::create_dir_all(p)?;
            Some(p)
        }
        _ => None,
    };
    let tmp = tmp_sibling(path, name);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = parent {
        sync_dir(parent)?;
    }
    Ok(())
}

/// Whether a file name is a staging sibling left by an interrupted
/// [`write_atomic`] (hidden, `.tmp`-suffixed). Readers that scan a
/// directory must skip these — they are possibly-torn bytes that were
/// never committed.
pub fn is_stale_tmp(name: &str) -> bool {
    name.starts_with('.') && name.ends_with(".tmp")
}

/// Remove stale [`write_atomic`] staging files from `dir`, returning
/// the removed paths (sorted, for deterministic reporting). Call on
/// startup before trusting a directory of durable artifacts. A missing
/// directory cleans nothing.
///
/// # Errors
///
/// I/O errors from listing or removing, except `NotFound` on the
/// directory itself.
pub fn clean_stale_tmps(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut removed = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        if is_stale_tmp(&name.to_string_lossy()) && entry.file_type()?.is_file() {
            std::fs::remove_file(entry.path())?;
            removed.push(entry.path());
        }
    }
    removed.sort();
    Ok(removed)
}

/// A file-name-safe form of `raw`: ASCII alphanumerics, `-` and `_`
/// stay, anything else becomes `_`. Entry names built from benchmark
/// names or sweep keys pass their variable parts through here.
pub fn safe_name(raw: &str) -> String {
    raw.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// What a [`Store::lookup`] found.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup<T> {
    /// A verified entry, deserialised.
    Hit(T),
    /// No entry on disk.
    Miss,
    /// An entry was present but failed its seal (or verified yet no
    /// longer parsed); it has been renamed aside and the caller must
    /// recompute.
    Quarantined,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One directory of sealed entries of type `T`, one JSON file per name.
///
/// Lookups are lock-free (atomic rename means a reader sees the old
/// entry or the new one, never a torn one). Stores and quarantines
/// serialise on an internal mutex, so pool workers persisting at the
/// same time never race on a staging file.
#[derive(Debug)]
pub struct Store<T> {
    dir: PathBuf,
    write_lock: Mutex<()>,
    entry: PhantomData<fn() -> T>,
}

impl<T: serde::Serialize + serde::Deserialize> Store<T> {
    /// Open (creating the directory if needed) and sweep stale
    /// [`write_atomic`] staging files left by a crash. Returns the store
    /// and the swept paths.
    ///
    /// # Errors
    ///
    /// I/O errors creating or scanning the directory.
    pub fn open(dir: &Path) -> std::io::Result<(Self, Vec<PathBuf>)> {
        std::fs::create_dir_all(dir)?;
        let swept = clean_stale_tmps(dir)?;
        Ok((
            Store {
                dir: dir.to_path_buf(),
                write_lock: Mutex::new(()),
                entry: PhantomData,
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

    /// Read an entry: verify its seal, then deserialise. Damage of any
    /// kind quarantines the entry instead of returning it.
    pub fn lookup(&self, name: &str) -> Lookup<T> {
        let path = self.entry_path(name);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Lookup::Miss,
            // Unreadable bytes (permission flip, invalid UTF-8) are
            // damage too: quarantine rather than retry forever.
            Err(_) => return self.quarantine(&path),
        };
        match crate::verify(&text).map(serde_json::from_str::<T>) {
            Ok(Ok(value)) => Lookup::Hit(value),
            // A bad seal, or a sealed body of an unknown shape (schema
            // skew): either way the entry is useless.
            _ => self.quarantine(&path),
        }
    }

    /// Persist an entry as pretty JSON plus a newline, sealed, through
    /// [`write_atomic`].
    ///
    /// # Errors
    ///
    /// Serialisation or I/O errors from the atomic write.
    pub fn store(&self, name: &str, value: &T) -> std::io::Result<()> {
        // The seal covers newline-terminated bodies (the trailer
        // convention every sealed text shares), so terminate first.
        let json = format!("{}\n", serde_json::to_string_pretty(value)?);
        let sealed = crate::seal(&json);
        let _guard = lock(&self.write_lock);
        write_atomic(&self.entry_path(name), sealed.as_bytes())
    }

    /// Rename a damaged entry aside (`<name>.quarantined`) so the next
    /// lookup is a clean miss. Best-effort: if the rename itself fails
    /// the entry is removed instead; either way it is never returned.
    fn quarantine(&self, path: &Path) -> Lookup<T> {
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
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Fresh scratch directory per test (std-only; no tempfile crate).
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tbpoint_persist_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Entry {
        ipc: f64,
        launches: u64,
    }

    fn entry() -> Entry {
        Entry {
            ipc: 1.25,
            launches: 4,
        }
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let dir = scratch("store");
        let (store, swept) = Store::<Entry>::open(&dir.join("new")).expect("open");
        assert!(swept.is_empty());
        assert_eq!(store.lookup("k.json"), Lookup::Miss);
        store.store("k.json", &entry()).expect("store");
        assert_eq!(store.lookup("k.json"), Lookup::Hit(entry()));
        let text = std::fs::read_to_string(store.entry_path("k.json")).expect("read");
        let body = crate::verify(&text).expect("sealed");
        assert_eq!(
            body,
            format!("{}\n", serde_json::to_string_pretty(&entry()).unwrap())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_entries_are_quarantined_not_returned() {
        let dir = scratch("quarantine");
        let (store, _) = Store::<Entry>::open(&dir).expect("open");
        let path = store.entry_path("k.json");
        let aside = dir.join("k.json.quarantined");
        let sealed = crate::seal("{\"other\": 1}\n");
        let unsealed = format!("{}\n", serde_json::to_string_pretty(&entry()).unwrap());
        for damage in ["flip", "unsealed", "unparseable"] {
            store.store("k.json", &entry()).expect("store");
            match damage {
                "flip" => {
                    let mut bytes = std::fs::read(&path).expect("read");
                    bytes[10] ^= 0x01;
                    std::fs::write(&path, &bytes).expect("corrupt");
                }
                "unsealed" => std::fs::write(&path, &unsealed).expect("strip seal"),
                _ => std::fs::write(&path, &sealed).expect("plant"),
            }
            assert_eq!(store.lookup("k.json"), Lookup::Quarantined, "{damage}");
            assert!(!path.exists(), "{damage}: damaged entry renamed aside");
            assert!(aside.exists(), "{damage}: quarantine file kept");
            // The next lookup is a clean miss; a store heals the entry.
            assert_eq!(store.lookup("k.json"), Lookup::Miss, "{damage}");
        }
        store.store("k.json", &entry()).expect("heal");
        assert_eq!(store.lookup("k.json"), Lookup::Hit(entry()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_staging_files() {
        let dir = scratch("open");
        std::fs::write(dir.join(".k.json.tmp"), b"torn").expect("plant");
        let (store, swept) = Store::<Entry>::open(&dir).expect("open");
        assert_eq!(swept, vec![dir.join(".k.json.tmp")]);
        assert_eq!(store.lookup("k.json"), Lookup::Miss, "tmp never parsed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_and_replaces_without_leftovers() {
        let dir = scratch("basic");
        let path = dir.join("artifact.json");
        write_atomic(&path, b"{\"v\":1}").expect("first write");
        write_atomic(&path, b"{\"v\":2}").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read back"), b"{\"v\":2}");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["artifact.json"], "no staging files remain");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn creates_missing_parents() {
        let dir = scratch("parents");
        let path = dir.join("a/b/c.txt");
        write_atomic(&path, b"deep").expect("write with missing parents");
        assert_eq!(std::fs::read(&path).expect("read back"), b"deep");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_from_pre_rename_crash_is_cleaned_not_parsed() {
        // Simulate a crash between the tmp fsync and the rename: the
        // destination never appeared, only the hidden staging sibling —
        // holding torn bytes that must never be read as an artifact.
        let dir = scratch("crash");
        let stale = dir.join(".entry.json.tmp");
        std::fs::write(&stale, b"{\"torn\":").expect("plant stale tmp");

        assert!(is_stale_tmp(".entry.json.tmp"));
        assert!(!is_stale_tmp("entry.json"));
        assert!(!is_stale_tmp(".hidden-but-not-tmp"));
        assert!(!is_stale_tmp("archive.tmp")); // not our hidden staging shape

        let removed = clean_stale_tmps(&dir).expect("clean");
        assert_eq!(removed, vec![stale.clone()]);
        assert!(!stale.exists(), "stale tmp swept");
        assert!(
            !dir.join("entry.json").exists(),
            "never promoted to artifact"
        );

        // Idempotent, and a missing dir is fine.
        assert!(clean_stale_tmps(&dir).expect("re-clean").is_empty());
        assert!(clean_stale_tmps(&dir.join("nope"))
            .expect("missing dir")
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_spares_real_artifacts() {
        let dir = scratch("spare");
        write_atomic(&dir.join("keep.json"), b"{}").expect("write artifact");
        std::fs::write(dir.join(".gone.json.tmp"), b"x").expect("plant stale tmp");
        let removed = clean_stale_tmps(&dir).expect("clean");
        assert_eq!(removed.len(), 1);
        assert!(dir.join("keep.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_path_without_file_name() {
        assert!(write_atomic(Path::new("/"), b"x").is_err());
    }
}
