//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so this crate implements
//! the subset of rayon the workspace uses on top of `std::thread::scope`:
//!
//! * [`prelude`] — `par_iter()` on slices and vectors, with `map`,
//!   `enumerate`, and `collect`;
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] — a *logical* pool:
//!   `install` scopes a thread-count override rather than keeping worker
//!   threads alive (workers are scoped threads spawned per parallel call,
//!   which for batch workloads costs microseconds);
//! * [`current_num_threads`].
//!
//! Semantics guarantees relied on by `unn::batch`:
//!
//! * **Deterministic output order** — `collect` returns results in input
//!   order regardless of thread scheduling;
//! * **No cross-item state** — `map` closures receive one item at a time;
//! * **Panic propagation** — a panicking item panics the calling thread
//!   after all workers have stopped.
//!
//! Unlike real rayon there is no work stealing: items are claimed in
//! contiguous chunks from an atomic cursor, which provides the same
//! load-balancing for uniform batch workloads.

#![warn(missing_docs)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    static POOL_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of threads parallel operations on this thread will use.
pub fn current_num_threads() -> usize {
    POOL_OVERRIDE
        .with(|c| c.get())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Error building a thread pool (never produced by this stub; kept for API
/// compatibility with `rayon::ThreadPoolBuildError`).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`].
#[derive(Clone, Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default settings (thread count = hardware default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads; `0` means the hardware default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.num_threads
        };
        Ok(ThreadPool { n })
    }
}

/// A logical thread pool: a scoped thread-count policy for parallel calls.
#[derive(Clone, Debug)]
pub struct ThreadPool {
    n: usize,
}

impl ThreadPool {
    /// Number of threads parallel calls under this pool use.
    pub fn current_num_threads(&self) -> usize {
        self.n
    }

    /// Runs `op` with this pool governing every parallel operation invoked
    /// (directly) inside it on the current thread.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_OVERRIDE.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(POOL_OVERRIDE.with(|c| c.replace(Some(self.n))));
        op()
    }
}

/// Chunked parallel map over `0..len`, preserving index order in the output.
///
/// With `threads <= 1` the whole map runs inline on the caller.
fn par_map_internal<R: Send>(
    len: usize,
    threads: usize,
    f: &(dyn Fn(usize) -> R + Sync),
) -> Vec<R> {
    if len == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(len);
    if threads == 1 {
        return (0..len).map(f).collect();
    }
    // Contiguous chunks claimed from an atomic cursor: deterministic
    // content (keyed by index), balanced for uniform batch workloads.
    let chunk = len.div_ceil(threads * 8).max(1);
    let cursor = AtomicUsize::new(0);
    let worker = |_wid: usize| -> std::thread::Result<Vec<(usize, Vec<R>)>> {
        catch_unwind(AssertUnwindSafe(|| {
            let mut out = Vec::new();
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                let end = (start + chunk).min(len);
                let vals: Vec<R> = (start..end).map(f).collect();
                out.push((start, vals));
            }
            out
        }))
    };
    let mut pieces: Vec<(usize, Vec<R>)> = Vec::new();
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        for h in handles {
            // The worker body is fully wrapped in catch_unwind, so the
            // outer join error case is unreachable; fold it into the same
            // deferred-resume path as an in-closure panic.
            match h.join() {
                Ok(Ok(mut p)) => pieces.append(&mut p),
                Ok(Err(e)) | Err(e) => panic = Some(e),
            }
        }
    });
    if let Some(e) = panic {
        resume_unwind(e);
    }
    pieces.sort_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(len);
    for (_, mut vals) in pieces {
        out.append(&mut vals);
    }
    debug_assert_eq!(out.len(), len);
    out
}

/// Eagerly computed parallel-map results; `collect` finalizes the type.
pub struct Collected<R>(Vec<R>);

impl<R: Send> Collected<R> {
    /// Finalizes into any container buildable from a `Vec` (in input order).
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        C::from(self.0)
    }
}

/// Parallel iterator over `&[T]`.
pub struct SliceParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> SliceParIter<'a, T> {
    /// Parallel map.
    pub fn map<R, F>(self, f: F) -> Collected<R>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        let items = self.items;
        Collected(par_map_internal(items.len(), current_num_threads(), &|i| {
            f(&items[i])
        }))
    }

    /// Pairs each item with its index.
    pub fn enumerate(self) -> EnumParIter<'a, T> {
        EnumParIter { items: self.items }
    }
}

/// Parallel iterator over `(index, &T)` pairs.
pub struct EnumParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> EnumParIter<'a, T> {
    /// Parallel map over `(index, &item)`.
    pub fn map<R, F>(self, f: F) -> Collected<R>
    where
        R: Send,
        F: Fn((usize, &'a T)) -> R + Sync,
    {
        let items = self.items;
        Collected(par_map_internal(items.len(), current_num_threads(), &|i| {
            f((i, &items[i]))
        }))
    }
}

/// Conversion into a borrowing parallel iterator (`par_iter`).
pub trait IntoParallelRefIterator<'a> {
    /// The item type.
    type Item: 'a;
    /// The parallel-iterator type.
    type Iter;
    /// Borrows `self` as a parallel iterator.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = SliceParIter<'a, T>;
    fn par_iter(&'a self) -> SliceParIter<'a, T> {
        SliceParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = SliceParIter<'a, T>;
    fn par_iter(&'a self) -> SliceParIter<'a, T> {
        SliceParIter { items: self }
    }
}

pub mod prelude {
    //! `use rayon::prelude::*;`
    pub use crate::IntoParallelRefIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let got: Vec<u64> = items.par_iter().map(|&x| x * 2).collect();
        let want: Vec<u64> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn enumerate_pairs_items_with_input_indices() {
        let items = vec!["a", "b", "c", "d"];
        let got: Vec<(usize, &str)> = items.par_iter().enumerate().map(|(i, s)| (i, *s)).collect();
        assert_eq!(got, vec![(0, "a"), (1, "b"), (2, "c"), (3, "d")]);
    }

    #[test]
    fn install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_ne!(current_num_threads(), 0);
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let items: Vec<u64> = (0..4096).map(|i| i * 2_654_435_761 % 97).collect();
        let reference: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got: Vec<u64> = pool.install(|| items.par_iter().map(|&x| x * x + 1).collect());
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn panics_propagate() {
        let items: Vec<usize> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            let _: Vec<usize> = items
                .par_iter()
                .map(|&x| {
                    if x == 57 {
                        panic!("boom");
                    }
                    x
                })
                .collect();
        });
        assert!(result.is_err());
    }
}
