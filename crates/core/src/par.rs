//! Scoped worker-pool parallel map shared by the Pareto enumerator and the
//! experiment harness.
//!
//! One pattern, one place: a fixed number of scoped threads pull item
//! indices off a shared atomic counter (work stealing over a static item
//! list), results are collected over a channel and re-ordered by index, so
//! the output order always matches the input order no matter which worker
//! computed which item. The pool is deterministic in its *results* —
//! callers that need bit-identical parallel/serial output only have to make
//! each per-item computation self-contained.
//!
//! A panicking worker does not poison the pool silently: the panic payload
//! is captured when the worker is joined and re-raised on the calling
//! thread via [`std::panic::resume_unwind`], so the root cause surfaces
//! instead of a misleading secondary panic in the collector ("all slots
//! filled") that used to mask it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Map `f` over `items` on `threads` scoped workers (atomic work stealing
/// over the item indices); the output order matches `items`. With one
/// thread (or one item) the map runs inline on the caller's thread — no
/// pool is spun up, which keeps single-threaded callers allocation- and
/// synchronization-free.
///
/// # Panics
///
/// Re-raises the first worker panic on the caller's thread with its
/// original payload.
pub fn parallel_map<I, T, F>(items: &[I], threads: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let f = &f;
                let next = &next;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // The collector outlives every sender (it drains until
                    // all senders hang up), so a send can only fail after
                    // the scope is already unwinding.
                    let _ = tx.send((i, f(&items[i])));
                })
            })
            .collect();
        drop(tx);
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, v) in rx {
            out[i] = Some(v);
        }
        // Join before unwrapping: a worker that panicked dropped its
        // sender early, leaving holes in `out`. Propagating the worker's
        // own payload reports the root cause, not the hole.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        out.into_iter()
            .map(|v| v.expect("all slots filled"))
            .collect()
    })
}

/// The number of worker threads a `threads` knob with `0 = auto` resolves
/// to: `available_parallelism()`, falling back to 1 when the platform
/// cannot report it. The probe runs once per process: it re-reads cgroup
/// files on every call (tens of microseconds), and the serve engine
/// resolves its knob on every request.
pub fn resolve_threads(threads: usize) -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    if threads == 0 {
        *AUTO.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = parallel_map(&items, 8, |s| s * 2);
        assert_eq!(out, items.iter().map(|s| s * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_thread() {
        let out: Vec<u64> = parallel_map(&[], 4, |s: &u64| *s);
        assert!(out.is_empty());
        let out = parallel_map(&[7u64], 0, |s| s + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        // Regression: a panicking worker used to surface as the
        // collector's own `expect("all slots filled")`, losing the root
        // cause. The original payload must win.
        let items: Vec<u64> = (0..16).collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(&items, 4, |s| {
                if *s == 9 {
                    panic!("worker exploded on seed {s}");
                }
                *s
            })
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "wrong payload type".into());
        assert!(msg.contains("worker exploded on seed 9"), "{msg}");
    }

    #[test]
    fn resolve_threads_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
