//! Deterministic parallel execution of index-addressed jobs.
//!
//! The pool's contract is the *canonical-order merge*: jobs are
//! identified by their index in `0..n`, every job writes its result
//! into its own index slot, and the output vector is assembled in index
//! order after all workers join. Which worker runs which index — and
//! when — is timing-dependent and deliberately unspecified; because the
//! job closure sees only its index, the assembled output is a pure
//! function of the closure and therefore bit-identical to a serial
//! `for` loop at every worker count.
//!
//! Distribution is one atomic cursor: every worker claims the next
//! unclaimed index, in order, until the cursor passes `n`. A worker that
//! draws a cheap job simply claims again, so skewed job costs (real
//! sweeps mix tiny and enormous launches) balance without any queues.
//!
//! Failure discipline matches the serial loop exactly: the first
//! observed failure raises a stop flag, checked before each claim (no
//! *new* jobs start; in-flight jobs finish), and the lowest recorded
//! index is reported. Because indices are claimed in order, every index
//! below a recorded failure was claimed, and a claimed job always runs
//! to completion — so the lowest recorded failure is the lowest failing
//! index overall, the one the serial loop reports. The success path —
//! the one whose bytes CI compares — is always complete and canonical.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock a mutex, ignoring poisoning: every structure the pool shares is
/// written with disjoint-index or append-only updates, so a sibling
/// worker's panic cannot leave it torn; the scope re-raises the
/// original panic once the workers join.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker: claim the next index from the shared cursor until the
/// work or the run is exhausted. Results land in per-index slots —
/// workers never touch each other's output — and any failure raises the
/// stop flag after being recorded.
fn worker_loop<T, E, F>(
    cursor: &AtomicUsize,
    stop: &AtomicBool,
    slots: &[Mutex<Option<T>>],
    errors: &Mutex<Vec<(usize, E)>>,
    job: &F,
) where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    // `Relaxed` suffices: a claim is exclusive by the atomicity of
    // `fetch_add` alone, the cursor publishes no data, and slots and
    // errors are read only after the scope joins the workers.
    while !stop.load(Ordering::Relaxed) {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= slots.len() {
            return;
        }
        match job(i) {
            Ok(v) => *lock(&slots[i]) = Some(v),
            Err(e) => {
                lock(errors).push((i, e));
                stop.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Run `n` independent jobs across `workers` threads and return their
/// results **in index order** — bit-identical to the serial loop
/// `(0..n).map(job).collect()` at every worker count.
///
/// `workers` is clamped to `[1, n]`; `workers <= 1` runs the plain
/// serial loop on the calling thread (no pool setup). On failure the
/// lowest failing index and its error are returned — the serial loop's
/// answer at every worker count; jobs that had not been claimed when
/// the first failure was observed are skipped.
///
/// # Errors
///
/// Returns `(index, error)` for the lowest-indexed failure.
pub fn run_indexed<T, E, F>(workers: usize, n: usize, job: F) -> Result<Vec<T>, (usize, E)>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(job(i).map_err(|e| (i, e))?);
        }
        return Ok(out);
    }

    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let errors: Mutex<Vec<(usize, E)>> = Mutex::new(Vec::new());
    {
        let (cursor, stop, slots, errors, job) = (&cursor, &stop, &slots, &errors, &job);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(move || worker_loop(cursor, stop, slots, errors, job));
            }
        });
    }

    let mut errs = errors.into_inner().unwrap_or_else(PoisonError::into_inner);
    errs.sort_by_key(|(i, _)| *i);
    if let Some((i, e)) = errs.into_iter().next() {
        return Err((i, e));
    }
    let mut out = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(v) => out.push(v),
            // Unreachable by construction — a claimed index always runs
            // to a slot write or an error, and an unclaimed index
            // implies a recorded error, returned above. Recompute
            // inline (deterministic: the job sees only its index)
            // rather than panicking.
            None => out.push(job(i).map_err(|e| (i, e))?),
        }
    }
    Ok(out)
}

/// [`run_indexed`] for infallible jobs: map `0..n` through `job` across
/// `workers` threads, results in index order.
pub fn map_indexed<T, F>(workers: usize, n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match run_indexed::<T, std::convert::Infallible, _>(workers, n, |i| Ok(job(i))) {
        Ok(v) => v,
        Err((_, e)) => match e {},
    }
}

/// Best-effort text of a panic payload (the common `&str` / `String`
/// shapes; anything else gets a fixed label so messages stay
/// deterministic).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`map_indexed`] with worker supervision: every unit runs under
/// [`std::panic::catch_unwind`], so a panicking unit yields `Err` with
/// the panic message **for its index only** while the pool keeps
/// draining — no stop flag, no escaped panic, every index completes.
/// Results come back as one per-index `Result` in canonical order,
/// bit-identical to the serial loop at every worker count (which
/// failure *set* you see is not timing-dependent, unlike
/// [`run_indexed`]'s stop-early semantics).
///
/// The `AssertUnwindSafe` is justified by the pool's own contract: a
/// unit sees only its index and writes only its own slot, so a sibling
/// panic cannot expose torn state to the remaining units.
///
/// This is the service-layer entry point: a long-running daemon must
/// contain a poisoned request without dropping the rest of the batch.
pub fn run_supervised<T, F>(workers: usize, n: usize, job: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_indexed(workers, n, |i| {
        catch_unwind(AssertUnwindSafe(|| job(i))).map_err(panic_message)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Deliberately skewed work: low indices are ~100x heavier, so the
    /// workers that draw them fall behind while the others keep
    /// claiming.
    fn skewed(i: usize) -> u64 {
        let rounds = if i < 8 { 200_000 } else { 2_000 };
        let mut acc = i as u64;
        for k in 0..rounds {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
        }
        acc
    }

    #[test]
    fn output_is_identical_at_every_worker_count() {
        let n = 64;
        let serial: Vec<u64> = (0..n).map(skewed).collect();
        for workers in [1, 2, 3, 4, 9, 64, 200] {
            assert_eq!(map_indexed(workers, n, skewed), serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        assert_eq!(map_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(4, 1, |i| i * 10), vec![0]);
        assert_eq!(map_indexed(1, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        let _ = map_indexed(4, 50, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn single_failure_is_reported_with_its_index() {
        for workers in [1, 2, 4] {
            let r = run_indexed(workers, 20, |i| {
                if i == 13 {
                    Err(format!("boom {i}"))
                } else {
                    Ok(skewed(i))
                }
            });
            assert_eq!(r, Err((13, "boom 13".to_string())), "workers={workers}");
        }
    }

    #[test]
    fn failure_stops_scheduling_new_jobs() {
        let started = AtomicUsize::new(0);
        let r = run_indexed(2, 1000, |i| {
            started.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                Err(i)
            } else {
                Ok(skewed(i))
            }
        });
        let (idx, _) = r.expect_err("must fail");
        assert_eq!(idx, 0);
        // In-flight jobs may finish, but the stop flag prevents the
        // remaining ~998 from starting.
        assert!(started.load(Ordering::Relaxed) < 1000);
    }

    #[test]
    fn supervised_contains_a_panic_to_its_index() {
        for workers in [1, 2, 4] {
            let out = run_supervised(workers, 12, |i| {
                if i == 5 {
                    panic!("unit 5 exploded");
                }
                skewed(i)
            });
            assert_eq!(out.len(), 12, "workers={workers}");
            for (i, r) in out.iter().enumerate() {
                if i == 5 {
                    assert_eq!(r, &Err("unit 5 exploded".to_string()), "workers={workers}");
                } else {
                    assert_eq!(r, &Ok(skewed(i)), "workers={workers} index {i}");
                }
            }
        }
    }

    #[test]
    fn supervised_contains_many_panics_and_completes_every_index() {
        // Unlike run_indexed there is no stop flag, so the outcome
        // vector is a pure function of the job — identical at every
        // worker count.
        let expect: Vec<Result<usize, String>> = (0..30)
            .map(|i| {
                if i % 11 == 4 {
                    Err(format!("boom {i}"))
                } else {
                    Ok(i * 3)
                }
            })
            .collect();
        for workers in [1, 3, 8] {
            let out = run_supervised(workers, 30, |i| {
                if i % 11 == 4 {
                    panic!("boom {i}");
                }
                i * 3
            });
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn reported_failure_is_the_serial_loops_at_every_worker_count() {
        // Jobs 1 and 10 fail at once; job 0 holds its worker until job
        // 10 has run (for at most about 200 ms, so nothing can hang). A
        // pool that hands index 10 to a worker before index 1 would stop
        // on 10; in-order claiming reaches 1 first, as the serial loop
        // does.
        for workers in [1, 2, 4] {
            let (ran_10, wait_10) = std::sync::mpsc::channel::<()>();
            let wait_10 = Mutex::new(wait_10);
            let r = run_indexed(workers, 20, |i| {
                match i {
                    0 => {
                        let _ = lock(&wait_10).recv_timeout(std::time::Duration::from_millis(200));
                    }
                    1 => return Err(i),
                    10 => {
                        let _ = ran_10.send(());
                        return Err(i);
                    }
                    _ => {}
                }
                Ok(i)
            });
            assert_eq!(r, Err((1, 1)), "workers={workers}");
        }
    }

    #[test]
    fn reported_failure_is_the_lowest_recorded_index() {
        // With several failing jobs the *set* that runs before the stop
        // flag lands is timing-dependent, but the report is always the
        // lowest index among the recorded failures — and serial
        // execution pins it to the globally lowest.
        let r = run_indexed(1, 20, |i| if i % 7 == 3 { Err(i) } else { Ok(i) });
        assert_eq!(r, Err((3, 3)));
    }
}
