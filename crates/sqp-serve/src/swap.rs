//! Atomic publication cell for shared immutable values.
//!
//! The serving path needs the `arc-swap` idiom without the crate: many
//! reader threads consult the current value on every request while a
//! trainer occasionally [`store`](Swap::store)s a replacement. Publication
//! never blocks serving, and a reader never observes half of one value and
//! half of another.
//!
//! # Reads write nothing shared
//!
//! The value lives behind an `RwLock<Arc<T>>` beside a generation counter,
//! and a writer replaces the value *then* bumps the generation while it
//! still holds the write lock. A reader does not take that lock per call.
//! Each thread keeps a small table of the `Arc`s it last read, at most 16
//! entries, keyed by a process-unique cell id (never by address: a later
//! cell at a reused address must not find an earlier cell's value).
//! [`with`](Swap::with) loads the generation once and compares it with the
//! cached entry's:
//!
//! * **equal** — the cached `Arc` is moved out of the table for the call and
//!   moved back afterwards. The call writes no shared cache line: no lock
//!   word, no reference count.
//! * **absent or stale** — the call takes the read lock once, clones the
//!   current `Arc` together with its generation, and caches that pair.
//!
//! A nested call on the same cell finds its slot empty (the outer call holds
//! the `Arc`) and falls back to the lock; whichever of the two handles is
//! newer stays cached. [`load`](Swap::load) is the same lookup plus one
//! reference-count increment, for callers that keep an owned handle.
//!
//! # Where a retired value can still be held
//!
//! After a store, the previous value stays alive while an owned handle
//! exists, and in each thread's table until that thread's next call on the
//! cell, an eviction from its table, or the thread's exit: at most one
//! retired value per thread per cell. Dropping a cell frees the dropping
//! thread's entry at once.

use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Cells one thread keeps a cached handle to. A serving thread reads a few
/// cells (an engine's snapshot, or a router's membership view and its
/// replicas' snapshots); touching more only costs the evicted cells a lock
/// on their next call.
const HANDLES_PER_THREAD: usize = 16;

/// A cached value, type-erased so one table serves cells of every type.
type Handle = Arc<dyn Any + Send + Sync>;

/// Source of [`Swap`] ids; 0 is never issued.
static NEXT_CELL: AtomicU64 = AtomicU64::new(1);

/// One thread's cached handle to one cell.
struct Slot {
    /// The cell's id; 0 marks a free slot.
    cell: u64,
    /// The generation `handle` was published at.
    generation: u64,
    /// `None` while a call on this thread holds the handle.
    handle: Option<Handle>,
}

const FREE: Slot = Slot {
    cell: 0,
    generation: 0,
    handle: None,
};

/// One thread's cached handles, in place: the table never allocates. Every
/// method hands displaced handles back to the caller, which drops them
/// after the table's borrow ends: dropping the last handle runs the value's
/// destructor, and that may read a cell.
struct Handles {
    slots: [Slot; HANDLES_PER_THREAD],
    /// The slot a full table evicts next (round robin).
    next_victim: usize,
}

impl Handles {
    fn find(&mut self, cell: u64) -> Option<&mut Slot> {
        self.slots.iter_mut().find(|slot| slot.cell == cell)
    }

    /// Move `cell`'s cached handle out, with the generation it was
    /// published at.
    fn take(&mut self, cell: u64) -> Option<(u64, Handle)> {
        let slot = self.find(cell)?;
        Some((slot.generation, slot.handle.take()?))
    }

    /// Cache `handle`, published at `generation`, as `cell`'s.
    fn put(&mut self, cell: u64, generation: u64, handle: Handle) -> Option<Handle> {
        if let Some(slot) = self.find(cell) {
            // A nested call on this cell may have cached a newer handle
            // while this one was out; generations only grow, so keep that.
            if slot.handle.is_some() && slot.generation >= generation {
                return Some(handle);
            }
            slot.generation = generation;
            return slot.handle.replace(handle);
        }
        let slot = match self.find(FREE.cell) {
            Some(free) => free,
            None => {
                let victim = self.next_victim;
                self.next_victim = (victim + 1) % HANDLES_PER_THREAD;
                &mut self.slots[victim]
            }
        };
        let evicted = std::mem::replace(
            slot,
            Slot {
                cell,
                generation,
                handle: Some(handle),
            },
        );
        evicted.handle
    }

    /// Free `cell`'s slot.
    fn forget(&mut self, cell: u64) -> Option<Handle> {
        std::mem::replace(self.find(cell)?, FREE).handle
    }
}

thread_local! {
    static HANDLES: RefCell<Handles> = const {
        RefCell::new(Handles {
            slots: [FREE; HANDLES_PER_THREAD],
            next_victim: 0,
        })
    };
}

/// Run `f` on this thread's table; `None` once the thread's locals are
/// being torn down (a value's destructor may read a cell then), in which
/// case the caller goes without the cache.
fn handles<R>(f: impl FnOnce(&mut Handles) -> R) -> Option<R> {
    HANDLES.try_with(|table| f(&mut table.borrow_mut())).ok()
}

/// A hot-swappable handle to a shared immutable value.
///
/// Semantically an atomic `Arc<T>` cell with a monotonically increasing
/// generation counter. Every successful [`store`](Swap::store) bumps the
/// generation, letting callers cheaply detect "has the model changed since
/// I last looked?" without loading the value.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sqp_serve::Swap;
///
/// let cell = Swap::new(Arc::new("v1"));
/// let reader = cell.load();          // old handle stays valid…
/// cell.store(Arc::new("v2"));        // …across a publication
/// assert_eq!(*reader, "v1");
/// assert_eq!(cell.with(|v| *v), "v2");
/// assert_eq!(cell.generation(), 1);
/// ```
#[derive(Debug)]
pub struct Swap<T> {
    current: RwLock<Arc<T>>,
    generation: AtomicU64,
    /// Process-unique: the key of this cell's entry in every thread's table.
    id: u64,
}

impl<T> Swap<T> {
    /// Wrap an initial value (generation 0).
    pub fn new(value: Arc<T>) -> Self {
        Self {
            current: RwLock::new(value),
            generation: AtomicU64::new(0),
            id: NEXT_CELL.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Publish a replacement value, returning the new generation.
    ///
    /// Calls that began before the store finish on the old value; calls
    /// that begin after it see the new one. There is no intermediate state.
    pub fn store(&self, value: Arc<T>) -> u64 {
        // Poison recovery: the cell holds a bare `Arc<T>`, and both writers
        // replace it in a single assignment — there is no intermediate state
        // a panic could tear, so a poisoned lock still guards a valid value.
        let mut slot = self.current.write().unwrap_or_else(PoisonError::into_inner);
        *slot = value;
        // Replace, then bump, both under the write lock: a reader that sees
        // a generation is owed the value published at it or a later one.
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Publish a replacement and return the previous value.
    pub fn swap(&self, value: Arc<T>) -> Arc<T> {
        // Poison recovery and ordering: see `store`.
        let mut slot = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let old = std::mem::replace(&mut *slot, value);
        self.generation.fetch_add(1, Ordering::AcqRel);
        old
    }

    /// Number of publications so far (0 until the first [`store`](Swap::store)).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

impl<T: Send + Sync + 'static> Swap<T> {
    /// Run `f` on the current value through this thread's cached handle
    /// (see the module docs). The value cannot change under `f`: a store
    /// during the call is seen by the next call.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.with_handle(|handle| {
            // Invariant-impossible: a slot keyed by this cell's id only
            // ever holds this cell's values.
            f(handle
                .downcast_ref::<T>()
                .expect("a cell caches its own type"))
        })
    }

    /// Clone out a handle to the current value.
    ///
    /// The handle remains valid — and the value alive — even if a
    /// [`store`](Swap::store) replaces the cell contents immediately after.
    pub fn load(&self) -> Arc<T> {
        self.with_handle(|handle| {
            // Invariant-impossible: see `with`.
            Arc::clone(handle)
                .downcast::<T>()
                .expect("a cell caches its own type")
        })
    }

    fn with_handle<R>(&self, f: impl FnOnce(&Handle) -> R) -> R {
        // Acquire, paired with the bump's release in `store`: a call that
        // sees a store's generation also sees all its publisher did first.
        let generation = self.generation.load(Ordering::Acquire);
        let (generation, handle) = match handles(|table| table.take(self.id)).flatten() {
            Some((cached, handle)) if cached == generation => (generation, handle),
            stale => {
                drop(stale);
                self.read()
            }
        };
        let out = f(&handle);
        drop(handles(|table| table.put(self.id, generation, handle)));
        out
    }

    /// The current value and the generation it was published at, under
    /// the read lock (a store replaces and bumps under the write lock, so
    /// the pair is consistent).
    fn read(&self) -> (u64, Handle) {
        // Poison recovery: see `store`.
        let current = self.current.read().unwrap_or_else(PoisonError::into_inner);
        let generation = self.generation.load(Ordering::Acquire);
        (generation, Arc::clone(&*current) as Handle)
    }
}

impl<T> Drop for Swap<T> {
    fn drop(&mut self) {
        // Other threads' entries for this cell go at their next eviction
        // or exit; this thread's goes now.
        drop(handles(|table| table.forget(self.id)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Weak};

    #[test]
    fn load_store_roundtrip() {
        let cell = Swap::new(Arc::new(1u32));
        assert_eq!(*cell.load(), 1);
        assert_eq!(cell.generation(), 0);
        assert_eq!(cell.store(Arc::new(2)), 1);
        assert_eq!(*cell.load(), 2);
        assert_eq!(cell.generation(), 1);
    }

    #[test]
    fn swap_returns_previous() {
        let cell = Swap::new(Arc::new("a"));
        let old = cell.swap(Arc::new("b"));
        assert_eq!(*old, "a");
        assert_eq!(*cell.load(), "b");
        assert_eq!(cell.generation(), 1);
    }

    #[test]
    fn old_handles_survive_publication() {
        let cell = Swap::new(Arc::new(vec![1, 2, 3]));
        let held = cell.load();
        cell.store(Arc::new(vec![4]));
        assert_eq!(*held, vec![1, 2, 3]);
        assert_eq!(*cell.load(), vec![4]);
    }

    #[test]
    fn concurrent_loads_during_stores() {
        let cell = Arc::new(Swap::new(Arc::new(0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let v = *cell.load();
                        // Published values only move forward.
                        assert!(v >= last, "went backwards: {last} -> {v}");
                        last = v;
                    }
                });
            }
            for gen in 1..=1000u64 {
                cell.store(Arc::new(gen));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(cell.generation(), 1000);
    }

    #[test]
    fn a_store_is_seen_by_the_same_threads_next_call() {
        let cell = Swap::new(Arc::new(1u32));
        assert_eq!(cell.with(|v| *v), 1);
        assert_eq!(cell.with(|v| *v), 1, "a cached handle answers");
        cell.store(Arc::new(2));
        assert_eq!(cell.with(|v| *v), 2);
        assert_eq!(*cell.load(), 2);
        cell.swap(Arc::new(3));
        assert_eq!(*cell.load(), 3);
        assert_eq!(cell.with(|v| *v), 3);
    }

    #[test]
    fn a_reader_never_gets_a_value_older_than_the_generation_it_read() {
        // Each value is the generation it is published at, so a reader can
        // hold every answer to the generation it read before asking.
        const STORES: u64 = 2_000;
        let cell = Swap::new(Arc::new(0u64));
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut calls = 0u64;
                    while !stop.load(Ordering::Relaxed) || calls == 0 {
                        let before = cell.generation();
                        let got = cell.with(|v| *v);
                        assert!(got >= before, "generation {before} read, then value {got}");
                        let owned = *cell.load();
                        assert!(owned >= got, "went backwards: {got} -> {owned}");
                        calls += 1;
                    }
                });
            }
            for generation in 1..=STORES {
                assert_eq!(cell.store(Arc::new(generation)), generation);
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(cell.with(|v| *v), STORES);
    }

    #[test]
    fn a_retired_value_is_freed_after_each_holder_calls_once_more() {
        // The test thread never reads the cell, so the holder threads'
        // tables and the cell itself are the only owners.
        let (v1, v2) = (Arc::new(String::from("v1")), Arc::new(String::from("v2")));
        let (w1, w2): (Weak<String>, Weak<String>) = (Arc::downgrade(&v1), Arc::downgrade(&v2));
        let cell = Arc::new(Swap::new(v1));
        let (done_tx, done) = mpsc::channel::<()>();
        // A holder reads the cell once, then once per message, and
        // acknowledges every read; a closed channel ends it.
        let holder = || {
            let (tx, rx) = mpsc::channel::<()>();
            let cell = Arc::clone(&cell);
            let ack = done_tx.clone();
            let thread = std::thread::spawn(move || loop {
                cell.with(|v| assert!(!v.is_empty()));
                ack.send(()).unwrap();
                if rx.recv().is_err() {
                    break;
                }
            });
            done.recv().unwrap();
            (tx, thread)
        };
        let (a, a_thread) = holder();
        let (b, b_thread) = holder();

        cell.store(v2);
        assert!(w1.upgrade().is_some(), "both holders still cache v1");
        a.send(()).unwrap();
        done.recv().unwrap();
        assert!(w1.upgrade().is_some(), "holder b still caches v1");
        b.send(()).unwrap();
        done.recv().unwrap();
        assert!(
            w1.upgrade().is_none(),
            "v1 outlived its last holder's next call"
        );

        // A thread that exits frees what it cached.
        cell.store(Arc::new(String::from("v3")));
        assert!(w2.upgrade().is_some(), "both holders cache v2");
        drop((a, b));
        a_thread.join().unwrap();
        b_thread.join().unwrap();
        assert!(w2.upgrade().is_none(), "an exited thread kept v2 alive");
    }

    #[test]
    fn touching_more_cells_than_the_table_holds_evicts_and_leaks_nothing() {
        let values: Vec<Arc<u64>> = (0..2 * HANDLES_PER_THREAD as u64 + 1)
            .map(Arc::new)
            .collect();
        let first: Vec<Weak<u64>> = values.iter().map(Arc::downgrade).collect();
        let cells: Vec<Swap<u64>> = values.into_iter().map(Swap::new).collect();
        let alive = || first.iter().filter(|v| v.upgrade().is_some()).count();
        // Joined explicitly: a scope's implicit join can return before the
        // thread's locals are torn down.
        std::thread::scope(|scope| {
            let thread = scope.spawn(|| {
                for (i, cell) in cells.iter().enumerate() {
                    assert_eq!(cell.with(|v| *v), i as u64);
                }
                for (i, cell) in cells.iter().enumerate() {
                    cell.store(Arc::new(1_000 + i as u64));
                }
                // The table holds at most its bound: every other retired
                // value is already gone.
                assert_eq!(alive(), HANDLES_PER_THREAD);
                // An evicted cell answers through the lock and is cached
                // again, evicting another cell's retired value.
                assert_eq!(cells[0].with(|v| *v), 1_000);
                assert_eq!(alive(), HANDLES_PER_THREAD - 1);
            });
            thread.join().unwrap();
        });
        assert_eq!(alive(), 0, "an exited thread's table kept a value alive");
    }

    #[test]
    fn a_nested_call_on_the_same_cell_works() {
        let cell = Swap::new(Arc::new(1u32));
        let v1 = Arc::downgrade(&cell.load());
        let seen = cell.with(|outer| {
            let inner = cell.with(|inner| *inner);
            assert_eq!(*outer, inner);
            cell.store(Arc::new(2));
            // The outer call keeps its value; a nested one sees the store.
            assert_eq!(cell.with(|inner| *inner), 2);
            assert_eq!(*cell.load(), 2);
            *outer
        });
        assert_eq!(seen, 1);
        assert_eq!(cell.with(|v| *v), 2);
        assert!(
            v1.upgrade().is_none(),
            "the outer call's stale handle was kept"
        );
    }

    #[test]
    fn dropping_a_cell_frees_this_threads_entry() {
        let cell = Swap::new(Arc::new(7u8));
        let value = Arc::downgrade(&cell.load());
        assert_eq!(cell.with(|v| *v), 7);
        drop(cell);
        assert!(value.upgrade().is_none());
    }
}
