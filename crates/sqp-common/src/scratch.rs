//! Per-thread scratch buffers for allocation-free hot paths.
//!
//! A request path that wants to reuse its working buffers from call to
//! call, without threading them through every signature, declares
//!
//! ```
//! use std::cell::RefCell;
//! thread_local! { static SCRATCH: RefCell<Vec<u32>> = RefCell::default(); }
//!
//! let sum = sqp_common::scratch::with(&SCRATCH, |buf| {
//!     buf.clear();
//!     buf.extend([1, 2, 3]);
//!     buf.iter().sum::<u32>()
//! });
//! assert_eq!(sum, 6);
//! ```
//!
//! and a warmed-up thread then allocates nothing for them.

use std::cell::RefCell;
use std::thread::LocalKey;

/// Run `f` with this thread's `T` from `key`. The value is **moved out**
/// for the duration (a default takes its place), so code under `f` that
/// re-enters the same path on the same thread finds fresh buffers instead
/// of a double borrow, and a panic inside `f` only costs the next call its
/// warm capacity.
pub fn with<T: Default, R>(key: &'static LocalKey<RefCell<T>>, f: impl FnOnce(&mut T) -> R) -> R {
    let mut scratch = key.with(RefCell::take);
    let out = f(&mut scratch);
    key.with(|cell| cell.replace(scratch));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! { static BUF: RefCell<Vec<u8>> = RefCell::default(); }

    #[test]
    fn capacity_survives_calls_and_reentry_sees_a_fresh_value() {
        with(&BUF, |buf| buf.extend([0u8; 100]));
        with(&BUF, |outer| {
            assert_eq!(outer.len(), 100, "the value persists per thread");
            with(&BUF, |inner| {
                assert!(inner.is_empty() && inner.capacity() == 0)
            });
            outer.clear();
        });
        with(&BUF, |buf| assert!(buf.is_empty() && buf.capacity() >= 100));
    }
}
