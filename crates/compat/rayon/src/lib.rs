//! Offline stand-in for `rayon`, backed by `std::thread::scope`.
//!
//! The workspace's hot kernels (dense GEMM, CSR SpMM, batched tile GEMM)
//! parallelize over output rows / batch items.  This shim provides the small
//! rayon surface they use — `par_chunks_mut(..).enumerate().for_each(..)`
//! and `par_iter().map(..).collect()` — with *real* parallelism: work is
//! striped across scoped OS threads, one stripe per available core.
//!
//! Thread count comes from `RAYON_NUM_THREADS` when set, otherwise
//! [`std::thread::available_parallelism`].  On a single-core host (or for
//! tiny inputs) everything degenerates to the serial path with zero spawns,
//! so the kernels stay cheap when the serving worker pool already owns the
//! cores.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads the shim fans out to.
pub fn current_num_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Below this many items per stripe, spawning a thread costs more than the
/// work it would take on.
///
/// So a job runs on fewer threads than [`current_num_threads`] when it has
/// fewer than `2 x current_num_threads()` items, and runs serially on the
/// calling thread when it has fewer than 4: cutting the work into exactly
/// one chunk per thread gets no parallelism at all on two threads.
const MIN_ITEMS_PER_THREAD: usize = 2;

fn stripe_count(items: usize) -> usize {
    current_num_threads().min(items / MIN_ITEMS_PER_THREAD).max(1)
}

/// The traits user code imports via `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelSliceMut};
}

/// `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Splits the slice into chunks of `chunk_size` processed in parallel.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut { slice: self, chunk_size }
    }
}

/// Parallel mutable chunk iterator (consumed via [`ParChunksMut::enumerate`]).
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs every chunk with its index.
    pub fn enumerate(self) -> EnumerateParChunksMut<'a, T> {
        EnumerateParChunksMut { inner: self }
    }

    /// Applies `op` to every chunk in parallel.
    pub fn for_each<F>(self, op: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| op(chunk));
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct EnumerateParChunksMut<'a, T> {
    inner: ParChunksMut<'a, T>,
}

impl<T: Send> EnumerateParChunksMut<'_, T> {
    /// Applies `op` to every `(index, chunk)` pair, striped across threads.
    pub fn for_each<F>(self, op: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let chunk_size = self.inner.chunk_size;
        let mut items: Vec<(usize, &mut [T])> =
            self.inner.slice.chunks_mut(chunk_size).enumerate().collect();
        let stripes = stripe_count(items.len());
        if stripes <= 1 {
            for item in items {
                op(item);
            }
            return;
        }
        let per = items.len().div_ceil(stripes);
        let op = &op;
        std::thread::scope(|s| {
            while !items.is_empty() {
                let take = per.min(items.len());
                let stripe: Vec<(usize, &mut [T])> = items.drain(..take).collect();
                s.spawn(move || {
                    for item in stripe {
                        op(item);
                    }
                });
            }
        });
    }
}

/// `par_iter` on shared slices (and anything that derefs to one).
pub trait IntoParallelRefIterator<'a> {
    /// The element type.
    type Item: Sync + 'a;

    /// A parallel iterator over references to the elements.
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

/// Parallel shared iterator (consumed via [`ParIter::map`]).
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Lazily maps every element.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap { items: self.items, f }
    }
}

/// The result of [`ParIter::map`]; terminal operation is [`ParMap::collect`].
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    /// Evaluates the map in parallel, preserving input order.
    pub fn collect<R, C>(self) -> C
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
        C: From<Vec<R>>,
    {
        let n = self.items.len();
        let stripes = stripe_count(n);
        if stripes <= 1 {
            return C::from(self.items.iter().map(&self.f).collect::<Vec<R>>());
        }
        let per = n.div_ceil(stripes);
        let f = &self.f;
        let mut out: Vec<R> = Vec::with_capacity(n);
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(stripes);
            let mut start = 0;
            while start < n {
                let end = (start + per).min(n);
                let stripe = &self.items[start..end];
                handles.push(s.spawn(move || stripe.iter().map(f).collect::<Vec<R>>()));
                start = end;
            }
            for handle in handles {
                out.extend(handle.join().expect("parallel stripe panicked"));
            }
        });
        C::from(out)
    }
}

#[cfg(test)]
mod tests {
    use super::current_num_threads;
    use super::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn par_chunks_mut_touches_every_chunk_once() {
        let mut data = vec![0usize; 103];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for v in chunk {
                *v += i + 1;
            }
        });
        // Chunk i covers elements [10i, 10(i+1)) and writes i + 1.
        for (pos, &v) in data.iter().enumerate() {
            assert_eq!(v, pos / 10 + 1, "element {pos}");
        }
    }

    #[test]
    fn two_chunks_per_thread_run_on_several_threads() {
        let threads = current_num_threads();
        if threads < 2 {
            return;
        }
        let mut ids = vec![None; 2 * threads];
        ids.par_chunks_mut(1).for_each(|slot| slot[0] = Some(std::thread::current().id()));
        let distinct: HashSet<_> = ids.into_iter().map(Option::unwrap).collect();
        assert!(distinct.len() > 1, "{} chunks ran on one thread", 2 * threads);
    }

    #[test]
    fn par_iter_map_collect_preserves_order() {
        let input: Vec<u64> = (0..257).collect();
        let out: Vec<u64> = input.par_iter().map(|&x| x * x).collect();
        assert_eq!(out, input.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let mut one = [5u32];
        one.par_chunks_mut(4).enumerate().for_each(|(_, c)| c[0] = 7);
        assert_eq!(one[0], 7);
    }
}
