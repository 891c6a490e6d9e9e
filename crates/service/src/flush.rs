//! Flush-at-most-once tombstone for session payloads.
//!
//! When a session leaves the manager (close, LRU eviction, TTL expiry) its
//! judgments are flushed into the shared log. Removal and flush are not one
//! atomic step, and a racing request may still hold the payload's `Arc`
//! from a lookup that preceded the removal — so exactly-once flushing and
//! expired-session visibility both hinge on one bit checked and set under
//! the payload's own lock. [`Flushable`] packages that bit with the payload
//! so the protocol is a type, not a convention: [`Flushable::close`] yields
//! the payload exactly once, and accessors return `None` afterwards, which
//! callers translate to `SessionExpired`.
//!
//! This tiny wrapper is the exact subject of the model-checked invariants
//! in `tests/model_lifecycle.rs` (exactly-once flush, no detached-session
//! mutation) — and of the seeded-bug test that compiles the guard out via
//! `--cfg lrf_seeded_bug` to prove the checker catches the double flush.

/// A payload that can be closed (taken for flushing) at most once.
#[derive(Debug)]
pub struct Flushable<T> {
    value: T,
    closed: bool,
}

impl<T> Flushable<T> {
    /// Wraps an open payload.
    pub fn new(value: T) -> Self {
        Self {
            value,
            closed: false,
        }
    }

    /// Access while open; `None` once closed. The expired-session
    /// guarantee lives here: a request that raced a close/evict and still
    /// holds the payload's `Arc` gets `None` instead of mutating a
    /// detached session whose judgments would silently miss the log.
    pub fn get_mut(&mut self) -> Option<&mut T> {
        (!self.closed).then_some(&mut self.value)
    }

    /// Closes the payload, yielding it for the flush — exactly once. The
    /// second and every later call returns `None`, which is what makes
    /// racing close/evict/expiry paths idempotent.
    pub fn close(&mut self) -> Option<&mut T> {
        // Seeded-bug hole (`--cfg lrf_seeded_bug`, never set in shipping
        // builds): compiling the guard out re-introduces the double-flush
        // race so the model checker's teeth can be demonstrated against
        // the real service code.
        #[cfg(not(lrf_seeded_bug))]
        if self.closed {
            return None;
        }
        self.closed = true;
        Some(&mut self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_yields_exactly_once() {
        let mut f = Flushable::new(7);
        assert!(!f.closed);
        assert_eq!(f.close(), Some(&mut 7));
        assert!(f.closed);
        #[cfg(not(lrf_seeded_bug))]
        assert_eq!(f.close(), None);
    }

    #[test]
    fn accessors_expire_with_the_close() {
        let mut f = Flushable::new(String::from("s"));
        f.get_mut().unwrap().push('x');
        f.close();
        assert_eq!(f.get_mut(), None);
    }
}
