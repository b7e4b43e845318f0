//! A scoped thread pool used to sweep experiments concurrently.
//!
//! The campaign engine runs many independent (workload × configuration)
//! simulations; [`parallel_map`] fans them out over scoped threads that
//! claim the next input index from one shared atomic counter, so a long
//! scenario holds up only the thread running it while the others keep
//! claiming.  Each thread keeps its `(index, result)` pairs locally, and
//! the pairs are merged back into input order once every thread has
//! joined.  If a worker panics, the original panic payload is re-raised on
//! the calling thread (not a generic "a scoped thread panicked" message),
//! and the remaining workers stop claiming new inputs.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Records the first panic payload of a run; later ones are dropped.  The
/// slot is one `Option` written in a single step, so a poisoned lock still
/// guards a valid value.
fn record_panic(slot: &Mutex<Option<Box<dyn Any + Send>>>, payload: Box<dyn Any + Send>) {
    slot.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get_or_insert(payload);
}

/// Re-raises the recorded panic, if any, on the calling thread.
fn reraise(slot: Mutex<Option<Box<dyn Any + Send>>>) {
    if let Some(payload) = slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
}

/// Applies `f` to every item of `inputs` using up to `workers` threads and
/// returns the results in input order.
///
/// # Panics
///
/// Re-raises the first worker panic with its **original payload**, so
/// `panic!("reason")` inside `f` surfaces as `"reason"` at the call site.
pub fn parallel_map<T, R, F>(inputs: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    // `Relaxed` suffices for both atomics: the counter's read-modify-write
    // hands out each index once whatever the ordering, neither publishes
    // other data, and results reach this thread through the joins.
    let next = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let panic_payload = Mutex::new(None);

    let claimed: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while !aborted.load(Ordering::Relaxed) {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(input) = inputs.get(index) else {
                            break;
                        };
                        match catch_unwind(AssertUnwindSafe(|| f(input))) {
                            Ok(output) => done.push((index, output)),
                            Err(payload) => {
                                record_panic(&panic_payload, payload);
                                aborted.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("worker panics are caught in the loop"))
            .collect()
    });
    reraise(panic_payload);

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (index, output) in claimed.into_iter().flatten() {
        slots[index] = Some(output);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every input produced a result"))
        .collect()
}

/// Applies `f` to every item of `items` in place, fanning contiguous chunks
/// out over up to `threads` scoped threads.  With one thread (or fewer than
/// two items) this degenerates to a plain sequential loop with no thread
/// machinery at all.
///
/// This is the channel-sharding primitive: the items are per-channel shards
/// that share no state, each is mutated independently, and the caller
/// merges any outputs in item order afterwards — so the observable result
/// is identical for every thread count.  Unlike [`parallel_map`] there is
/// no shared counter: one event round's shards are few and similarly
/// sized, and the per-round latency of chunked scoped spawns is what
/// matters, not imbalance resilience.
///
/// # Panics
///
/// Re-raises the first worker panic with its **original payload**, matching
/// [`parallel_map`].
pub fn parallel_for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Send + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 {
        for item in items.iter_mut() {
            f(item);
        }
        return;
    }
    let chunk = items.len().div_ceil(threads);
    let panic_payload = Mutex::new(None);
    std::thread::scope(|scope| {
        for shard in items.chunks_mut(chunk) {
            let f = &f;
            let panic_payload = &panic_payload;
            scope.spawn(move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                    for item in shard {
                        f(item);
                    }
                })) {
                    record_panic(panic_payload, payload);
                }
            });
        }
    });
    reraise(panic_payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let out = parallel_map((0..100).collect(), 8, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_returns_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_still_completes() {
        let out = parallel_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let out = parallel_map(vec![5], 32, |x| x * x);
        assert_eq!(out, vec![25]);
    }

    #[test]
    fn uneven_task_durations_preserve_order() {
        // Long tasks land in the first worker's chunk; the rest must be
        // stolen and still come back in input order.
        let durations: Vec<u64> = (0..64).map(|i| if i < 4 { 20 } else { 1 }).collect();
        let out = parallel_map(durations.clone(), 8, |ms| {
            std::thread::sleep(std::time::Duration::from_millis(*ms));
            *ms
        });
        assert_eq!(out, durations);
    }

    #[test]
    fn propagates_the_original_panic_payload() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map((0..16).collect::<Vec<u32>>(), 4, |x| {
                assert!(*x != 11, "worker payload {x}");
                *x
            })
        })
        .expect_err("a worker panic must propagate");
        let message = caught
            .downcast_ref::<String>()
            .expect("payload should be the original formatted message");
        assert_eq!(message, "worker payload 11");
    }

    #[test]
    fn every_input_is_claimed_exactly_once() {
        // A pure `f` cannot tell a double claim from a single one, so count
        // the calls: uneven durations make the workers race for the counter.
        let calls: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        let total = AtomicUsize::new(0);
        let out = parallel_map((0..200usize).collect(), 8, |&i| {
            if i % 17 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            calls[i].fetch_add(1, Ordering::Relaxed);
            total.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..200).collect::<Vec<_>>());
        assert_eq!(total.load(Ordering::Relaxed), 200);
        for (i, count) in calls.iter().enumerate() {
            assert_eq!(count.load(Ordering::Relaxed), 1, "input {i}");
        }
    }

    #[test]
    fn for_each_mut_mutates_every_item_at_any_thread_count() {
        for threads in [1usize, 2, 3, 8, 64] {
            let mut items: Vec<u64> = (0..37).collect();
            parallel_for_each_mut(&mut items, threads, |x| *x *= 2);
            assert_eq!(
                items,
                (0..37).map(|x| x * 2).collect::<Vec<_>>(),
                "threads = {threads}"
            );
        }
        let mut empty: Vec<u64> = Vec::new();
        parallel_for_each_mut(&mut empty, 4, |_| unreachable!());
    }

    #[test]
    fn for_each_mut_propagates_the_original_panic_payload() {
        let caught = std::panic::catch_unwind(|| {
            let mut items: Vec<u32> = (0..16).collect();
            parallel_for_each_mut(&mut items, 4, |x| {
                assert!(*x != 7, "shard payload {x}");
            });
        })
        .expect_err("a shard panic must propagate");
        let message = caught
            .downcast_ref::<String>()
            .expect("payload should be the original formatted message");
        assert_eq!(message, "shard payload 7");
    }
}
