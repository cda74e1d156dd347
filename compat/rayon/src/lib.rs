//! Shim for the `rayon` API subset used in this workspace, backed by one
//! process-wide pool of worker threads. The build environment has no
//! network access and an empty cargo registry, so external crates are
//! vendored as minimal API-compatible shims under `compat/` (see the
//! workspace README).
//!
//! Supported shape: `slice.par_iter().map(f).collect::<Vec<_>>()`, the
//! one shape the workspace calls. Results are written back **in input
//! order**, so `collect` is deterministic regardless of scheduling.
//!
//! # The pool
//!
//! `threads` is read once per process from `RAYON_NUM_THREADS`, else
//! from `available_parallelism`. With one thread every map runs inline.
//! Otherwise the first map starts `threads − 1` workers, which live as
//! long as the process, as rayon's global pool does. A map publishes
//! one `Job`; the calling thread and any idle workers then claim item
//! indices one at a time from the job's atomic counter, so an expensive
//! item holds up one thread rather than a fixed chunk of its
//! neighbours. Each result goes into its input's slot.
//!
//! # Soundness
//!
//! A job borrows the caller's stack (the items, the closure, the
//! result slots), but the queue it sits in is `'static`, so the job
//! holds its task behind a lifetime-erased pointer. Three rules keep
//! every use of that pointer inside the borrow:
//!
//! - A thread dereferences it only for an index it claimed below the
//!   job's length, and every index is claimed exactly once.
//! - The caller does not return, even by unwinding, until every item
//!   has finished: an item's panic is caught on the thread that ran it,
//!   stored in the job, and re-raised on the caller after the wait.
//!   Nothing between publishing and waiting can panic (the pool's locks
//!   recover from poisoning; none is held across user code).
//! - The calling thread runs only its own job's items, never another
//!   caller's, so a lock the caller holds across its map never meets
//!   another caller's item on the same thread.

use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelIterator};
}

/// Threads a map may use, the caller included. Honors rayon's own env
/// convention so the count can be forced — e.g. `RAYON_NUM_THREADS=4`
/// on a single-core box to genuinely exercise cross-thread behavior.
/// Read once per process, as rayon sizes its pool once:
/// `available_parallelism` opens and reads cgroup files, which has no
/// place in front of every parallel map.
fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Locks `m`, recovering the guard from poisoning: no code panics while
/// holding one of the pool's locks, and a caller that panicked here,
/// between publishing its job and waiting for it, would break the
/// soundness rules above.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One published map.
struct Job {
    /// Runs item `i` and stores its result. Lifetime-erased: it points
    /// into the stack frame of the caller of `Pool::map`.
    task: *const (dyn Fn(usize) + Sync),
    len: usize,
    /// The next unclaimed index; values `>= len` claim nothing.
    next: AtomicUsize,
    progress: Mutex<Progress>,
    /// Signalled when the last item finishes.
    finished: Condvar,
}

#[derive(Default)]
struct Progress {
    done: usize,
    /// The first panic payload of an item.
    panic: Option<Box<dyn Any + Send>>,
}

// SAFETY: `task` is the only field that is not `Send` and `Sync` by
// itself. It points to a `Sync` closure, so calling it through a shared
// reference from any thread is allowed, and no thread dereferences it
// after its borrow ends (module doc, "Soundness"). The other fields are
// atomics, a `Mutex` over `Send` data and a `Condvar`.
unsafe impl Send for Job {}
// SAFETY: as for `Send` above.
unsafe impl Sync for Job {}

impl Job {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.len
    }

    /// Claims and runs items until none is left. The counter publishes
    /// no data: the task was published through the queue's mutex, and
    /// results travel through their slots' mutexes, so `Relaxed` is
    /// enough for a claim; the read-modify-write alone makes each index
    /// claimed once.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: `i < len` was claimed by this thread alone, so
                // item `i` has not finished, and the caller of
                // `Pool::map` is still inside it: it waits until `done`
                // reaches `len`, which this item's increment below is
                // part of. The task's borrow is therefore live.
                unsafe { (*self.task)(i) }
            }));
            let mut progress = lock(&self.progress);
            progress.done += 1;
            if let Err(payload) = ran {
                progress.panic.get_or_insert(payload);
            }
            if progress.done == self.len {
                self.finished.notify_all();
            }
        }
    }

    /// Blocks until every item has finished; returns the first panic.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut progress = lock(&self.progress);
        while progress.done < self.len {
            progress = self
                .finished
                .wait(progress)
                .unwrap_or_else(PoisonError::into_inner);
        }
        progress.panic.take()
    }
}

/// The process-wide pool: jobs with unclaimed items, oldest first.
struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work: Condvar,
}

/// The pool, its `threads() − 1` workers started on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    static STARTED: std::sync::Once = std::sync::Once::new();
    let pool = POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        work: Condvar::new(),
    });
    STARTED.call_once(|| {
        for n in 1..threads() {
            std::thread::Builder::new()
                .name(format!("rayon-shim-{n}"))
                .spawn(move || pool.serve())
                .expect("rayon-shim: cannot start a pool worker");
        }
    });
    pool
}

impl Pool {
    /// A worker's loop: help the oldest job that has unclaimed items,
    /// or sleep until one is published.
    fn serve(&self) -> ! {
        loop {
            let job = {
                let mut queue = lock(&self.queue);
                loop {
                    queue.retain(|job| job.has_unclaimed());
                    if let Some(job) = queue.front() {
                        break Arc::clone(job);
                    }
                    queue = self
                        .work
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            job.work();
        }
    }

    /// Order-preserving map of `f` over `items` on the calling thread
    /// and the pool's idle workers.
    fn map<'a, T: Sync, R: Send>(&self, items: &'a [T], f: impl Fn(&'a T) -> R + Sync) -> Vec<R> {
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let run = |i: usize| {
            let r = f(&items[i]);
            *lock(&slots[i]) = Some(r);
        };
        let run: &(dyn Fn(usize) + Sync + '_) = &run;
        let job = Arc::new(Job {
            // SAFETY: only the lifetime changes. The pointer is used
            // under the rules of the module doc: `work` below and the
            // workers dereference it only for a claimed index, and this
            // function does not return before `wait` sees every item
            // finished, while `run` is still alive.
            task: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync + '_),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(run)
            },
            len: items.len(),
            next: AtomicUsize::new(0),
            progress: Mutex::new(Progress::default()),
            finished: Condvar::new(),
        });
        lock(&self.queue).push_back(Arc::clone(&job));
        self.work.notify_all();
        job.work();
        if let Some(payload) = job.wait() {
            panic::resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("rayon-shim: every item ran")
            })
            .collect()
    }
}

/// Order-preserving parallel map over a slice.
fn par_map_slice<'a, T: Sync, R: Send>(items: &'a [T], f: impl Fn(&'a T) -> R + Sync) -> Vec<R> {
    if threads() <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    pool().map(items, f)
}

/// Entry point: `.par_iter()` on slices and `Vec`s.
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item: 'a;
    /// The parallel iterator.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// A borrowed parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map each element in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// Result of [`ParIter::map`].
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

/// The subset of rayon's `ParallelIterator` this workspace needs:
/// terminal `collect` on mapped parallel iterators.
pub trait ParallelIterator {
    /// Produced item type.
    type Item: Send;

    /// Evaluate in parallel, preserving input order.
    fn to_vec(self) -> Vec<Self::Item>;

    /// Collect into any `FromIterator` container (input order).
    fn collect<C: FromIterator<Self::Item>>(self) -> C
    where
        Self: Sized,
    {
        self.to_vec().into_iter().collect()
    }
}

impl<'a, T, R, F> ParallelIterator for ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    type Item = R;
    fn to_vec(self) -> Vec<R> {
        par_map_slice(self.items, self.f)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Mutex};
    use std::thread::{self, ThreadId};

    /// Whether maps run on more than one thread (`RAYON_NUM_THREADS`,
    /// else the core count). The tests that make one item wait for
    /// another need a second thread; CI runs them at four.
    fn parallel() -> bool {
        super::threads() > 1
    }

    #[test]
    fn par_map_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let v: Vec<u32> = Vec::new();
        let out: Vec<u32> = v.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn maps_reuse_the_pools_threads() {
        let v: Vec<u32> = (0..8).collect();
        let mut seen = HashSet::<ThreadId>::new();
        for _ in 0..200 {
            let ids: Vec<ThreadId> = v.par_iter().map(|_| thread::current().id()).collect();
            seen.extend(ids);
        }
        assert!(
            seen.len() <= super::threads(),
            "{} distinct threads ran items of 200 maps, {} allowed",
            seen.len(),
            super::threads()
        );
    }

    #[test]
    fn nested_maps_return_ordered_results() {
        let outer: Vec<u64> = (0..6).collect();
        let mid: Vec<u64> = (0..5).collect();
        let inner: Vec<u64> = (0..7).collect();
        let got: Vec<Vec<Vec<u64>>> = outer
            .par_iter()
            .map(|a| {
                mid.par_iter()
                    .map(|b| inner.par_iter().map(|c| a * 100 + b * 10 + c).collect())
                    .collect()
            })
            .collect();
        let want: Vec<Vec<Vec<u64>>> = outer
            .iter()
            .map(|a| {
                mid.iter()
                    .map(|b| inner.iter().map(|c| a * 100 + b * 10 + c).collect())
                    .collect()
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_panic_is_raised_after_the_other_items_finish() {
        // Item 1 starts, lets item 0 panic, and only then finishes: the
        // caller must still see it finished when the panic reaches it.
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (panicked_tx, panicked_rx) = mpsc::channel::<()>();
        let (started_rx, panicked_rx) = (Mutex::new(started_rx), Mutex::new(panicked_rx));
        let finished = AtomicBool::new(false);
        let items = [0, 1];
        let caught = std::panic::catch_unwind(|| {
            items
                .par_iter()
                .map(|&i| {
                    if i == 0 {
                        if parallel() {
                            started_rx.lock().unwrap().recv().unwrap();
                        }
                        panicked_tx.send(()).unwrap();
                        // No panic hook, so no backtrace to slow the unwind.
                        std::panic::resume_unwind(Box::new("item 0 fails"));
                    }
                    if parallel() {
                        started_tx.send(()).unwrap();
                    }
                    panicked_rx.lock().unwrap().recv().unwrap();
                    // Still busy while item 0 unwinds: a caller that
                    // re-raised at once would find `finished` unset.
                    std::hint::black_box((0..1_000_000u64).fold(0, |a, k| a ^ k.wrapping_mul(31)));
                    finished.store(true, Ordering::SeqCst);
                })
                .collect::<Vec<()>>()
        });
        let payload = caught.expect_err("the item's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 0 fails"));
        // With one thread the map runs inline and stops at the panic.
        if parallel() {
            assert!(finished.load(Ordering::SeqCst));
        }
        let v: Vec<u32> = (0..64).collect();
        let next: Vec<u32> = v.par_iter().map(|x| x + 1).collect();
        assert_eq!(next, (1..65).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_items_keep_input_order() {
        // The first item finishes last: it waits for the last item,
        // which the other threads reach after every cheap item between.
        let (last_tx, last_rx) = mpsc::channel::<()>();
        let last_rx = Mutex::new(last_rx);
        let n: u64 = 200;
        let v: Vec<u64> = (0..n).collect();
        let cost = |x: u64| if x.is_multiple_of(7) { 20_000 } else { 10 };
        let got: Vec<u64> = v
            .par_iter()
            .map(|&x| {
                if x == 0 && parallel() {
                    last_rx.lock().unwrap().recv().unwrap();
                }
                let y = (0..cost(x)).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k));
                if x == n - 1 {
                    last_tx.send(()).unwrap();
                }
                y
            })
            .collect();
        let want: Vec<u64> = v
            .iter()
            .map(|&x| (0..cost(x)).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k)))
            .collect();
        assert_eq!(got, want);
    }
}
