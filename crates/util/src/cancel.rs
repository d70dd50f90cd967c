//! Cooperative cancellation: a cheap, cloneable flag checked at safe
//! points (Vcycle boundaries, round boundaries) by long-running work.
//!
//! Cancellation here is *cooperative* and *one-way*: once a token is
//! cancelled it stays cancelled, and the work observes it only at the
//! granularity it chooses to poll. That is exactly the right contract for
//! the simulation engines — a Vcycle is the atomic unit of progress, so a
//! cancelled run always stops on a Vcycle boundary with consistent state
//! that can be checkpointed or resumed later.
//!
//! [`CancelToken::either`] merges two tokens into a token with *two*
//! parents, tripped by whichever fires first — how a fleet job
//! combines its own per-job token (e.g. "this client disconnected") with
//! the batch-wide one ("this batch was abandoned") without letting either
//! cancellation leak into the other's domain.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct CancelInner {
    flag: AtomicBool,
    parents: Box<[CancelToken]>,
}

/// A cloneable cancellation flag. All clones observe the same state;
/// a merged token ([`CancelToken::either`]) additionally observes its
/// parents.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                parents: Box::new([]),
            }),
        }
    }

    /// A token with two parents: tripped when `a`, `b`, or itself is
    /// cancelled, whichever happens first. Cancelling the merged token
    /// does not cancel either parent. This is how a fleet job watches
    /// both its own cancellation domain (a client connection) and the
    /// batch-wide one at a single poll site.
    pub fn either(a: &CancelToken, b: &CancelToken) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                parents: Box::new([a.clone(), b.clone()]),
            }),
        }
    }

    /// Trips the token (and therefore every clone and every token merged
    /// from it).
    /// Idempotent.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called on this token,
    /// any clone of it, or any parent it was merged from.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Acquire) {
            return true;
        }
        self.inner.parents.iter().any(|p| p.is_cancelled())
    }

    /// A stable identity for this token's shared state: clones report the
    /// same id, distinct tokens report distinct ids. Used by the fleet's
    /// gang grouping — jobs may share a lockstep gang only when they share
    /// one cancellation domain, which is exactly "same token identity".
    pub fn id(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::CancelToken;

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn either_trips_on_whichever_parent_fires_first() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        let merged = CancelToken::either(&a, &b);
        assert!(!merged.is_cancelled());
        b.cancel();
        assert!(merged.is_cancelled());
        assert!(!a.is_cancelled(), "merge must not leak into a parent");

        let a = CancelToken::new();
        let b = CancelToken::new();
        let merged = CancelToken::either(&a, &b);
        a.cancel();
        assert!(merged.is_cancelled());
        assert!(!b.is_cancelled());

        // Cancelling the merged token leaks into neither parent.
        let a = CancelToken::new();
        let b = CancelToken::new();
        let merged = CancelToken::either(&a, &b);
        merged.cancel();
        assert!(!a.is_cancelled() && !b.is_cancelled());
    }

    #[test]
    fn identity_is_shared_by_clones_only() {
        let t = CancelToken::new();
        let c = t.clone();
        assert_eq!(t.id(), c.id());
        assert_ne!(t.id(), CancelToken::new().id());
        assert_ne!(
            t.id(),
            CancelToken::either(&t, &t).id(),
            "a merged token is a distinct domain"
        );
    }
}
