//! Offline stand-in for the `rayon` crate.
//!
//! Implements the slice/range parallel-iterator subset the numerical kernels
//! use (`par_chunks_mut`, `into_par_iter().map(..).collect()/.reduce_with()`,
//! `current_num_threads`) with real data parallelism over
//! `std::thread::scope`. Work is split into contiguous blocks, one per
//! worker, which matches the regular, equal-cost loops in the kernels; there
//! is no work stealing. Results preserve input order exactly, so kernels that
//! promise bitwise-identical parallel output keep that promise here.
//!
//! A [`ThreadPool`] is a thread budget, not a set of parked threads:
//! [`ThreadPool::install`] runs its closure on the calling thread with
//! [`current_num_threads`] reading the pool's size, so every parallel
//! iterator inside it splits over exactly that many threads (one means
//! inline, no spawn). Outside any `install`, the budget is the host's
//! cores.

use std::cell::Cell;
use std::num::NonZeroUsize;

thread_local! {
    /// The budget of the innermost [`ThreadPool::install`] on this thread.
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads a parallel operation will use: the installed
/// pool's size, else the host's cores.
pub fn current_num_threads() -> usize {
    BUDGET.with(Cell::get).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Builder of a [`ThreadPool`] (rayon's `ThreadPoolBuilder`).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder whose pool has the host's cores.
    pub fn new() -> Self {
        Self::default()
    }

    /// The pool's thread count; 0 means the host's cores.
    pub fn num_threads(self, num_threads: usize) -> Self {
        Self { num_threads }
    }

    /// The pool. The shim never fails to build one.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: match self.num_threads {
                0 => current_num_threads(),
                n => n,
            },
        })
    }
}

/// Why a pool could not be built; the shim has no such case.
#[derive(Debug)]
pub enum ThreadPoolBuildError {}

/// A thread budget for parallel operations (see the crate docs).
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Run `op` with every parallel operation in it split over this pool's
    /// threads; the previous budget comes back when `op` returns or
    /// unwinds.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                BUDGET.with(|b| b.set(self.0));
            }
        }
        let _restore = Restore(BUDGET.with(|b| b.replace(Some(self.threads))));
        op()
    }
}

/// Everything the kernels import.
pub mod prelude {
    pub use crate::iter::{
        IndexedParallelIterator, IntoParallelIterator, ParallelIterator, ParallelSliceMut,
    };
}

pub mod iter {
    use super::{current_num_threads, BUDGET};

    /// Run `f` over every item of `items` on up to [`current_num_threads`]
    /// scoped threads, splitting into contiguous blocks. Each spawned
    /// thread is one thread of the budget, so a parallel operation nested
    /// in it runs inline.
    fn run_for_each<I, F>(items: Vec<I>, f: &F)
    where
        I: Send,
        F: Fn(I) + Sync,
    {
        let workers = current_num_threads().min(items.len().max(1));
        if workers <= 1 || items.len() <= 1 {
            for item in items {
                f(item);
            }
            return;
        }
        let mut blocks: Vec<Vec<I>> = Vec::with_capacity(workers);
        let per = items.len().div_ceil(workers);
        let mut rest = items;
        while !rest.is_empty() {
            let tail = rest.split_off(per.min(rest.len()));
            blocks.push(std::mem::replace(&mut rest, tail));
        }
        std::thread::scope(|scope| {
            for block in blocks {
                scope.spawn(move || {
                    BUDGET.with(|b| b.set(Some(1)));
                    for item in block {
                        f(item);
                    }
                });
            }
        });
    }

    /// Map every item in parallel, preserving order.
    fn run_map<I, R, F>(items: Vec<I>, f: &F) -> Vec<R>
    where
        I: Send,
        R: Send,
        F: Fn(I) -> R + Sync,
    {
        let workers = current_num_threads().min(items.len().max(1));
        if workers <= 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let per = items.len().div_ceil(workers);
        let mut blocks: Vec<Vec<I>> = Vec::with_capacity(workers);
        let mut rest = items;
        while !rest.is_empty() {
            let tail = rest.split_off(per.min(rest.len()));
            blocks.push(std::mem::replace(&mut rest, tail));
        }
        let mut outputs: Vec<Vec<R>> = Vec::with_capacity(blocks.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = blocks
                .into_iter()
                .map(|block| {
                    scope.spawn(move || {
                        BUDGET.with(|b| b.set(Some(1)));
                        block.into_iter().map(f).collect::<Vec<R>>()
                    })
                })
                .collect();
            for h in handles {
                outputs.push(h.join().expect("parallel map worker panicked"));
            }
        });
        outputs.into_iter().flatten().collect()
    }

    /// A materialized parallel iterator: the items are collected up front and
    /// fanned out on demand.
    pub struct ParIter<I> {
        items: Vec<I>,
    }

    /// Conversion into a [`ParIter`] (the shim's `IntoParallelIterator`).
    pub trait IntoParallelIterator {
        /// Item type produced.
        type Item: Send;
        /// Materialize the parallel iterator.
        fn into_par_iter(self) -> ParIter<Self::Item>;
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;
        fn into_par_iter(self) -> ParIter<T> {
            ParIter { items: self }
        }
    }

    macro_rules! impl_range_into_par {
        ($($t:ty),*) => {$(
            impl IntoParallelIterator for std::ops::Range<$t> {
                type Item = $t;
                fn into_par_iter(self) -> ParIter<$t> {
                    ParIter { items: self.collect() }
                }
            }
        )*};
    }
    impl_range_into_par!(u32, u64, usize, i32, i64);

    macro_rules! impl_range_inclusive_into_par {
        ($($t:ty),*) => {$(
            impl IntoParallelIterator for std::ops::RangeInclusive<$t> {
                type Item = $t;
                fn into_par_iter(self) -> ParIter<$t> {
                    ParIter { items: self.collect() }
                }
            }
        )*};
    }
    impl_range_inclusive_into_par!(u32, u64, usize, i32, i64);

    /// The operations the kernels chain on parallel iterators.
    pub trait ParallelIterator: Sized {
        /// Item type produced.
        type Item: Send;

        /// Materialize into an ordered `Vec`.
        fn into_vec(self) -> Vec<Self::Item>;

        /// Parallel map, preserving order.
        fn map<R, F>(self, f: F) -> Map<Self, F>
        where
            R: Send,
            F: Fn(Self::Item) -> R + Sync,
        {
            Map { base: self, f }
        }

        /// Run `f` on every item in parallel.
        fn for_each<F>(self, f: F)
        where
            F: Fn(Self::Item) + Sync,
        {
            run_for_each(self.into_vec(), &f);
        }

        /// Collect into any container buildable from an ordered `Vec`.
        fn collect<C: From<Vec<Self::Item>>>(self) -> C {
            C::from(self.into_vec())
        }

        /// Fold pairs of results together; `None` on an empty iterator.
        fn reduce_with<F>(self, f: F) -> Option<Self::Item>
        where
            F: Fn(Self::Item, Self::Item) -> Self::Item + Sync,
        {
            self.into_vec().into_iter().reduce(f)
        }

        /// Pair every item with its index.
        fn enumerate(self) -> Enumerate<Self> {
            Enumerate { base: self }
        }
    }

    /// Indexed variant (the shim's iterators are all indexed; the trait
    /// exists so `use rayon::prelude::*` imports resolve as with real rayon).
    pub trait IndexedParallelIterator: ParallelIterator {}

    impl<I: Send> ParallelIterator for ParIter<I> {
        type Item = I;
        fn into_vec(self) -> Vec<I> {
            self.items
        }
    }
    impl<I: Send> IndexedParallelIterator for ParIter<I> {}

    /// Lazy parallel map adapter.
    pub struct Map<B, F> {
        base: B,
        f: F,
    }

    impl<B, R, F> ParallelIterator for Map<B, F>
    where
        B: ParallelIterator,
        R: Send,
        F: Fn(B::Item) -> R + Sync,
    {
        type Item = R;
        fn into_vec(self) -> Vec<R> {
            run_map(self.base.into_vec(), &self.f)
        }
    }
    impl<B, R, F> IndexedParallelIterator for Map<B, F>
    where
        B: ParallelIterator,
        R: Send,
        F: Fn(B::Item) -> R + Sync,
    {
    }

    /// Index-pairing adapter.
    pub struct Enumerate<B> {
        base: B,
    }

    impl<B: ParallelIterator> ParallelIterator for Enumerate<B> {
        type Item = (usize, B::Item);
        fn into_vec(self) -> Vec<(usize, B::Item)> {
            self.base.into_vec().into_iter().enumerate().collect()
        }
    }
    impl<B: ParallelIterator> IndexedParallelIterator for Enumerate<B> {}

    /// Parallel operations on mutable slices.
    pub trait ParallelSliceMut<T: Send> {
        /// Split into non-overlapping mutable chunks of `size` (last may be
        /// shorter), processable in parallel.
        fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]> {
            assert!(size > 0, "chunk size must be non-zero");
            ParIter {
                items: self.chunks_mut(size).collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<u64> = (0u64..1000).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0u64..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn reduce_with_matches_sequential() {
        let total = (1u64..=100)
            .into_par_iter()
            .map(|x| x)
            .reduce_with(|a, b| a + b);
        assert_eq!(total, Some(5050));
    }

    #[test]
    fn reduce_with_empty_is_none() {
        let total = (0u64..0)
            .into_par_iter()
            .map(|x| x)
            .reduce_with(|a, b| a + b);
        assert_eq!(total, None);
    }

    #[test]
    fn par_chunks_mut_covers_all_chunks() {
        let mut data = vec![0u32; 103];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for v in chunk {
                *v = i as u32;
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[99], 9);
        assert_eq!(data[102], 10);
    }

    #[test]
    fn threads_reported() {
        assert!(crate::current_num_threads() >= 1);
    }

    fn pool(threads: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    /// An installed pool is the budget inside it and only there, nested
    /// installs included.
    #[test]
    fn install_sets_the_budget_and_restores_it() {
        let host = crate::current_num_threads();
        let outer = pool(3).install(|| {
            let inner = pool(1).install(crate::current_num_threads);
            (crate::current_num_threads(), inner)
        });
        assert_eq!(outer, (3, 1));
        assert_eq!(crate::current_num_threads(), host);
        assert_eq!(pool(0).install(crate::current_num_threads), host);
    }

    /// A one-thread budget runs a parallel map on the calling thread; a
    /// wider one spawns exactly its size, and each of those threads runs
    /// nested work inline.
    #[test]
    fn a_parallel_map_uses_exactly_the_budget() {
        let threads = |budget: usize| {
            pool(budget).install(|| {
                let ids: Vec<(std::thread::ThreadId, usize)> = (0..64u32)
                    .into_par_iter()
                    .map(|_| (std::thread::current().id(), crate::current_num_threads()))
                    .collect();
                let distinct: std::collections::HashSet<_> =
                    ids.iter().map(|&(id, _)| id).collect();
                let nested = ids.iter().map(|&(_, n)| n).max().unwrap();
                (distinct, nested)
            })
        };
        let (one, nested) = threads(1);
        assert_eq!(one, [std::thread::current().id()].into());
        assert_eq!(nested, 1);
        let (three, nested) = threads(3);
        assert_eq!(three.len(), 3);
        assert!(!three.contains(&std::thread::current().id()));
        assert_eq!(nested, 1);
    }
}
