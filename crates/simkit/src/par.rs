//! A dependency-free scoped worker pool for deterministic fan-out.
//!
//! Grown out of the bench harness's sweep runner (which now delegates
//! here): callers hand over a `Vec` of independent work items and get the
//! results back **in input order**, so downstream output is identical to
//! a sequential run no matter how many workers raced over the items. The
//! cellular simulator drives this once per epoch window with its cells
//! as the items; the experiment harness drives it once per figure with
//! sweep cells.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item on a scoped worker pool of `workers`
/// threads and returns the results in input order.
///
/// `workers == 0` asks for one worker per available core. Workers pull
/// the next unclaimed index from a shared counter, so uneven item costs
/// (a 24 h simulation next to a 6 h one, or a hot cell next to an idle
/// one) balance automatically. Falls back to a plain sequential map when
/// the pool would have one worker or there is at most one item — the
/// result is the same either way, which is what makes thread-count
/// invariance testable.
pub fn parallel_map_workers<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
    .min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= slots.len() {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("pool slot poisoned")
                        .take()
                        .expect("each slot is claimed exactly once");
                    let out = f(item);
                    *results[i].lock().expect("pool result poisoned") = Some(out);
                })
            })
            .collect();
        // Join every worker before returning. The scope alone waits only
        // for the closures and detaches the threads, so the next call's
        // workers can start before these have exited and handed their
        // malloc arenas back; each such overlap opens a fresh arena that
        // keeps its memory. A worker's panic resumes here, payload intact.
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("pool result poisoned")
                .expect("every slot was computed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_width() {
        for workers in [0usize, 1, 2, 8] {
            let out = parallel_map_workers(workers, (0..64).collect(), |i: usize| i * 2);
            assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<usize> = parallel_map_workers(4, Vec::<usize>::new(), |i| i);
        assert!(empty.is_empty());
        assert_eq!(parallel_map_workers(4, vec![7usize], |i| i + 1), vec![8]);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map_workers(2, (0..8).collect(), |i: usize| {
                assert_ne!(i, 5, "item five");
                i
            })
        });
        let payload = caught.expect_err("the panic propagates");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(msg.contains("item five"), "{msg}");
    }

    #[test]
    fn oversubscribed_pool_matches_sequential() {
        let seq = parallel_map_workers(1, (0..17).collect(), |i: u64| i * i);
        let wide = parallel_map_workers(32, (0..17).collect(), |i: u64| i * i);
        assert_eq!(seq, wide);
    }
}
