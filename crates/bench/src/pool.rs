//! Zero-dependency parallel worker pool for sweep fan-out.
//!
//! The reproduction's experiment matrix — `(game, resolution, design
//! variant)` cells — is embarrassingly parallel: every cell is an
//! independent simulation with no shared mutable state (the
//! [`Simulator`](pimgfx::Simulator) and
//! [`SceneTrace`](pimgfx_workloads::SceneTrace) are `Send + Sync`, and
//! scenes are shared read-only through
//! [`SceneCache`](pimgfx_workloads::SceneCache)). This module fans such
//! job lists out across [`std::thread::scope`] workers while keeping the
//! *merge deterministic*: results come back in input order regardless of
//! which worker finished first, so everything downstream (CSV rows,
//! printed tables, manifests) is byte-identical to a serial run. The
//! guarantee is enforced by the serial-vs-parallel equivalence test in
//! `crates/bench/tests/parallel_equivalence.rs` and documented in
//! `docs/PARALLELISM.md`.
//!
//! Worker count resolution: the `PIMGFX_THREADS` environment variable
//! when set to a positive integer, otherwise
//! [`std::thread::available_parallelism`], always clamped to the number
//! of jobs (a 1-job sweep never spawns idle threads). A malformed
//! override (`"abc"`, `"-1"`) is a hard configuration error — a typo'd
//! pin must not silently degrade into an unpinned machine-wide run;
//! only `"0"` (and empty/unset) falls back to auto-detection.
//!
//! # Examples
//!
//! ```
//! use pimgfx_bench::pool;
//!
//! let squares = pool::run_ordered(&[1u64, 2, 3, 4], 2, |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]); // input order, always
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use pimgfx_types::{ConfigError, Result};

/// Environment variable overriding the worker count (positive integer;
/// `1` forces a degenerate single-worker pool, useful for determinism
/// A/B checks; `0` or empty means "auto-detect"; anything else is a
/// configuration error).
pub const THREADS_ENV: &str = "PIMGFX_THREADS";

/// Environment variable overriding the per-cell replay lane count
/// (positive integer; `1` forces fully serial replay; `0` or empty
/// means "derive from the shared budget"; anything else is a
/// configuration error, same grammar as [`THREADS_ENV`]).
///
/// Replay lanes are the *intra-cell* parallelism axis: inside one
/// replay, `Simulator::render_replay_batch` precomputes per-cluster
/// fragment work on `lanes` threads, one chunk of tiles ahead of the
/// serial timing walk. The
/// pool's cell-level fan-out and the lane level share one budget (see
/// [`configured_replay_lanes`]) so `PIMGFX_THREADS=N` never
/// oversubscribes the machine.
pub const REPLAY_LANES_ENV: &str = "PIMGFX_REPLAY_LANES";

/// Interprets a [`THREADS_ENV`] value: `Ok(Some(n))` pins the pool to
/// `n` workers, `Ok(None)` means "fall back to auto-detection" (the
/// documented `> 0` filter, kept only for a literal `"0"` and for
/// empty/whitespace values, which behave like an unset variable).
///
/// # Errors
///
/// Anything that does not parse as a non-negative integer (`"abc"`,
/// `"-1"`, `"1.5"`) is rejected: a typo'd pin silently falling back to
/// a machine-wide thread count is worse than stopping the run.
pub fn parse_threads_override(raw: &str) -> Result<Option<usize>> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(ConfigError::new(
            "worker pool",
            format!("{THREADS_ENV}={trimmed:?} is not a non-negative integer worker count"),
        )),
    }
}

/// The worker count the pool would use for an unbounded job list:
/// [`THREADS_ENV`] when set to a positive integer, else
/// [`std::thread::available_parallelism`] (1 if even that is unknown).
///
/// # Errors
///
/// Rejects a malformed [`THREADS_ENV`] value (see
/// [`parse_threads_override`]).
pub fn configured_workers() -> Result<usize> {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Some(n) = parse_threads_override(&raw)? {
            return Ok(n);
        }
    }
    Ok(std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1))
}

/// [`configured_workers`] clamped to the job count (never 0; a pool for
/// an empty job list still reports 1 so rates stay well-defined).
///
/// # Errors
///
/// Rejects a malformed [`THREADS_ENV`] value (see
/// [`parse_threads_override`]).
pub fn worker_count(jobs: usize) -> Result<usize> {
    Ok(configured_workers()?.clamp(1, jobs.max(1)))
}

/// Splits a thread budget between the cell-level pool and the per-cell
/// replay lanes: with `cell_workers` cells running at once out of a
/// `budget`-thread allowance, each cell may use `budget / cell_workers`
/// lanes (never 0). A budget of 1 — `PIMGFX_THREADS=1` — therefore
/// forces fully serial replay, and a sweep wide enough to occupy the
/// whole budget with cells gets 1 lane per cell: the two levels multiply
/// to at most `budget` live threads.
pub fn replay_lanes_split(budget: usize, cell_workers: usize) -> usize {
    (budget / cell_workers.max(1)).max(1)
}

/// The replay lane count for cells running under a `cell_workers`-wide
/// pool: the [`REPLAY_LANES_ENV`] override when set to a positive
/// integer, else the shared budget ([`configured_workers`]) split by
/// [`replay_lanes_split`].
///
/// The override intentionally bypasses the budget split (it exists for
/// A/B determinism checks and for measuring the lane axis alone), so
/// setting both `PIMGFX_THREADS=N` and `PIMGFX_REPLAY_LANES=M` can run
/// up to `N × M` threads — the documented escape hatch, not the default.
///
/// # Errors
///
/// Rejects a malformed [`REPLAY_LANES_ENV`] or [`THREADS_ENV`] value
/// (same grammar as [`parse_threads_override`]).
pub fn configured_replay_lanes(cell_workers: usize) -> Result<usize> {
    if let Ok(raw) = std::env::var(REPLAY_LANES_ENV) {
        let trimmed = raw.trim();
        if !trimmed.is_empty() {
            match trimmed.parse::<usize>() {
                Ok(0) => {}
                Ok(n) => return Ok(n),
                Err(_) => {
                    return Err(ConfigError::new(
                        "worker pool",
                        format!(
                            "{REPLAY_LANES_ENV}={trimmed:?} is not a non-negative integer lane count"
                        ),
                    ));
                }
            }
        }
    }
    Ok(replay_lanes_split(configured_workers()?, cell_workers))
}

/// Runs `f` over every item on `workers` scoped threads, returning the
/// results **in input order**.
///
/// Work is distributed dynamically (an atomic cursor), so long cells —
/// e.g. 1280×1024 columns — do not serialize behind a static partition.
/// The output order is reconstructed on merge, which is what makes a
/// parallel sweep's downstream output byte-identical to a serial one.
///
/// `workers` is clamped to `[1, items.len()]`; passing
/// [`worker_count`]`(items.len())` is the usual choice. A panic on a
/// worker thread propagates to the caller once all workers have been
/// joined (the [`std::thread::scope`] contract).
pub fn run_ordered<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // The receiver outlives the scope; a send can only fail
                // if the main thread is already unwinding, in which case
                // stopping early is exactly right.
                if tx.send((i, f(&items[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
    });

    // Deterministic merge: reorder by input index.
    let mut tagged: Vec<(usize, R)> = rx.into_iter().collect();
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_width() {
        let items: Vec<u64> = (0..64).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 7, 64, 1000] {
            let got = run_ordered(&items, workers, |&x| x * 3);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u64> = run_ordered(&[] as &[u64], 8, |&x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn single_worker_is_the_degenerate_serial_pool() {
        // Record execution order: one worker must walk jobs front-to-back.
        let seen = std::sync::Mutex::new(Vec::new());
        let items: Vec<usize> = (0..16).collect();
        let got = run_ordered(&items, 1, |&x| {
            seen.lock().expect("test mutex").push(x);
            x + 1
        });
        assert_eq!(got, (1..=16).collect::<Vec<_>>());
        assert_eq!(*seen.lock().expect("test mutex"), items);
    }

    #[test]
    fn uneven_work_still_merges_in_order() {
        // Early items sleep so later items finish first on wide pools.
        let items: Vec<u64> = (0..8).collect();
        let got = run_ordered(&items, 8, |&x| {
            if x < 2 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x
        });
        assert_eq!(got, items);
    }

    #[test]
    fn worker_count_is_clamped_and_nonzero() {
        // The environment is shared across the test binary; exercise
        // the env-independent clamp through a pinned override instead
        // of whatever `PIMGFX_THREADS` happens to hold.
        let n = parse_threads_override("7").expect("valid").expect("pinned");
        // jobs = 0 and jobs = 1 both clamp to a single worker; a huge
        // job count leaves the override intact (and never yields zero).
        assert_eq!(n.clamp(1, 1), 1);
        assert_eq!(n.clamp(1, usize::MAX), n);
        assert!(n.clamp(1, usize::MAX) >= 1);
    }

    #[test]
    fn lane_budget_split_never_oversubscribes() {
        // budget 1 (PIMGFX_THREADS=1) ⇒ fully serial replay, no matter
        // how narrow the cell pool is.
        assert_eq!(replay_lanes_split(1, 1), 1);
        assert_eq!(replay_lanes_split(1, 8), 1);
        // Cells saturating the budget ⇒ 1 lane each.
        assert_eq!(replay_lanes_split(8, 8), 1);
        assert_eq!(replay_lanes_split(8, 12), 1);
        // Spare budget flows into lanes, and lanes × workers ≤ budget.
        assert_eq!(replay_lanes_split(8, 2), 4);
        assert_eq!(replay_lanes_split(8, 3), 2);
        for budget in 1..=16usize {
            for workers in 1..=16usize {
                let lanes = replay_lanes_split(budget, workers);
                assert!(lanes >= 1);
                assert!(
                    lanes == 1 || lanes * workers <= budget,
                    "budget={budget} workers={workers} lanes={lanes}"
                );
            }
        }
        // A degenerate 0-worker caller still gets a sane answer.
        assert_eq!(replay_lanes_split(4, 0), 4);
    }

    #[test]
    fn replay_lanes_env_override_is_honored() {
        // `configured_replay_lanes` reads the environment on every call;
        // restore afterwards to stay polite to later tests.
        let saved = std::env::var(REPLAY_LANES_ENV).ok();
        std::env::set_var(REPLAY_LANES_ENV, "3");
        assert_eq!(configured_replay_lanes(8).expect("valid"), 3);
        std::env::set_var(REPLAY_LANES_ENV, "1");
        assert_eq!(
            configured_replay_lanes(1).expect("valid"),
            1,
            "lanes=1 pins fully serial replay"
        );
        std::env::set_var(REPLAY_LANES_ENV, "abc");
        assert!(
            configured_replay_lanes(1).is_err(),
            "a typo'd lane override must be a hard error"
        );
        match saved {
            Some(v) => std::env::set_var(REPLAY_LANES_ENV, v),
            None => std::env::remove_var(REPLAY_LANES_ENV),
        }
    }

    #[test]
    fn threads_override_parses_all_three_shapes() {
        // Positive integer: pins the pool (whitespace tolerated).
        assert_eq!(parse_threads_override("4").expect("valid"), Some(4));
        assert_eq!(parse_threads_override(" 8 ").expect("valid"), Some(8));
        // "0" and empty: explicit fall-through to auto-detection.
        assert_eq!(parse_threads_override("0").expect("valid"), None);
        assert_eq!(parse_threads_override("").expect("valid"), None);
        assert_eq!(parse_threads_override("  ").expect("valid"), None);
        // Unparsable: hard error naming the variable and the value.
        for bad in ["abc", "-1", "1.5", "3 threads"] {
            let err = parse_threads_override(bad).expect_err("must reject");
            let msg = err.to_string();
            assert!(msg.contains(THREADS_ENV), "{msg}");
            assert!(msg.contains(bad.trim()), "{msg}");
        }
    }
}
