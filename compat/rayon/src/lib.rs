//! Shim for the `rayon` API subset used in this workspace, backed by
//! `std::thread::scope`. The build environment has no network access
//! and an empty cargo registry, so external crates are vendored as
//! minimal API-compatible shims under `compat/` (see the workspace
//! README).
//!
//! Supported shape: `slice.par_iter().map(f).collect::<Vec<_>>()`, the
//! one shape the workspace calls. Work is split into contiguous chunks —
//! one per available core, the first of them run by the calling thread —
//! and results are written back **in input order**, so `collect` is
//! deterministic regardless of scheduling.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelIterator};
}

fn worker_count(items: usize) -> usize {
    // Honor rayon's own env convention so thread count can be forced —
    // e.g. RAYON_NUM_THREADS=4 on a single-core box to genuinely
    // exercise cross-thread behavior. Read once per process, as rayon
    // sizes its pool once: `available_parallelism` opens and reads
    // cgroup files, which has no place in front of every parallel map.
    static THREADS: OnceLock<usize> = OnceLock::new();
    let threads = *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    });
    threads.min(items).max(1)
}

/// Order-preserving parallel map over a slice.
fn par_map_slice<'a, T: Sync, R: Send>(items: &'a [T], f: impl Fn(&'a T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let f = &f;
    let fill = move |src: &'a [T], dst: &mut [Option<R>]| {
        for (slot, item) in dst.iter_mut().zip(src) {
            *slot = Some(f(item));
        }
    };
    std::thread::scope(|s| {
        // The caller takes the first chunk itself, as a rayon worker
        // would: it has nothing else to do until the scope ends, and a
        // nested `par_iter` then adds one thread per level, not two.
        let mut parts = items.chunks(chunk).zip(out.chunks_mut(chunk));
        let own = parts.next();
        for (src, dst) in parts {
            s.spawn(move || fill(src, dst));
        }
        if let Some((src, dst)) = own {
            fill(src, dst);
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("rayon-shim: worker panicked"))
        .collect()
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
}
