//! A deterministic scoped worker pool: `parallel_map` and
//! `parallel_map_mut` fan independent index-addressed tasks out over a
//! bounded number of scoped threads and return results **in index order**,
//! regardless of which worker ran which task or in what order tasks
//! finished.
//!
//! This is the compiler's parallelism primitive (the fleet has its own
//! long-lived work-stealing pool; the compiler wants something scoped to
//! one pass invocation with zero setup state). Determinism falls out of
//! the shape: every task writes exactly one pre-assigned output slot, so
//! the result vector is a pure function of the task function — thread
//! scheduling can only change *when* a slot is written, never *what* or
//! *where*. Callers that need bit-identical output across thread counts
//! (the pass pipeline's contract) therefore only need their per-index
//! task to be deterministic.
//!
//! With `threads <= 1` (or a single task) the map runs inline on the
//! caller's thread — no spawn, identical results — which is what a
//! one-thread compile uses.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A raw pointer that may cross thread boundaries. Safety is argued at the
/// use sites: workers claim disjoint indices from an atomic counter, so no
/// two threads ever touch the same element.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field access) so closures capture the
    /// whole wrapper — edition-2021 disjoint capture would otherwise grab
    /// the raw pointer field itself, which is neither `Send` nor `Sync`.
    fn get(&self) -> *mut T {
        self.0
    }
}

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Maps `f` over `0..n` on up to `threads` scoped workers, returning
/// results in index order. Inline (no threads spawned) when `threads <= 1`
/// or `n <= 1`.
///
/// Tasks are claimed one at a time from a shared atomic counter, so uneven
/// task costs self-balance (the cone-extraction profile: a few huge cones
/// among many small ones).
///
/// # Panics
///
/// Propagates a panic from `f` after all workers stop.
pub fn parallel_map<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let workers = threads.min(n);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let next = AtomicUsize::new(0);
    let out_ptr = SendPtr(out.as_mut_ptr());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                // SAFETY: `i` came from a fetch_add on a counter starting
                // at 0, so each index in 0..n is claimed by exactly one
                // worker; slot `i` is written exactly once, and `out`
                // outlives the scope.
                unsafe { *out_ptr.get().add(i) = Some(r) };
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("every slot written by a worker"))
        .collect()
}

/// Like [`parallel_map`], but each task gets exclusive `&mut` access to
/// its element of `items` (per-process IR rewrites) and may also return a
/// value. Results come back in index order; inline when `threads <= 1` or
/// there are fewer than two items.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers stop.
pub fn parallel_map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = threads.min(n);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let next = AtomicUsize::new(0);
    let items_ptr = SendPtr(items.as_mut_ptr());
    let out_ptr = SendPtr(out.as_mut_ptr());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: indices are claimed exactly once (atomic
                // counter), so the `&mut` borrows of `items[i]` and the
                // writes to `out[i]` are disjoint across workers; both
                // slices outlive the scope.
                let item = unsafe { &mut *items_ptr.get().add(i) };
                let r = f(i, item);
                unsafe { *out_ptr.get().add(i) = Some(r) };
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("every slot written by a worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::{parallel_map, parallel_map_mut};

    #[test]
    fn map_matches_serial_at_any_thread_count() {
        let expect: Vec<u64> = (0..257u64).map(|i| i * i + 7).collect();
        for threads in [1, 2, 3, 4, 16] {
            let got = parallel_map(257, threads, |i| (i as u64) * (i as u64) + 7);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_mut_gives_each_task_its_own_element() {
        let mut base: Vec<u32> = (0..100).collect();
        let sums = parallel_map_mut(&mut base, 4, |i, x| {
            *x += 1;
            *x as usize + i
        });
        assert_eq!(base, (1..=100).collect::<Vec<u32>>());
        assert_eq!(sums, (0..100).map(|i| 2 * i + 1).collect::<Vec<usize>>());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(parallel_map(0, 4, |i| i).is_empty());
        assert_eq!(parallel_map(1, 4, |i| i + 1), vec![1]);
        let mut one = [5u8];
        assert_eq!(parallel_map_mut(&mut one, 4, |_, x| *x), vec![5]);
    }

    #[test]
    fn uneven_task_costs_balance() {
        // A few heavy tasks among many light ones: all complete, in order.
        let got = parallel_map(64, 4, |i| {
            if i % 17 == 0 {
                (0..20_000u64).fold(i as u64, |a, b| a.wrapping_add(b * b))
            } else {
                i as u64
            }
        });
        for (i, v) in got.iter().enumerate() {
            if i % 17 != 0 {
                assert_eq!(*v, i as u64);
            }
        }
    }
}
