//! Epoch-based snapshot publication: the read side of the serving
//! layer's "queries never block on maintenance" contract.
//!
//! An [`EpochCell`] holds an immutable snapshot behind an `Arc`,
//! together with the epoch number it was published as, under one
//! mutex. Readers [`load`](EpochCell::load) the current `Arc` — one
//! brief lock to clone the pointer, after which they evaluate entirely
//! lock-free against a snapshot that can never change under them.
//! Because pointer and epoch sit behind the same lock, the pair
//! [`load_with_epoch`](EpochCell::load_with_epoch) returns is always
//! one that was published together. Maintenance (GC, reorder,
//! recompile) builds a **new** snapshot while readers continue on the
//! old one, then swings the epoch: publish-then-retire, where "retire"
//! is simply the old `Arc` dropping to zero once the last in-flight
//! reader finishes.
//!
//! Writers are serialised by a second mutex, the *writer slot*, which
//! readers never touch:
//!
//! * [`publish`](EpochCell::publish) — the caller already built the
//!   replacement; it takes the slot only for the pointer swap.
//! * [`update`](EpochCell::update) — builds *from* the current value
//!   while holding the slot for the whole rebuild, so no other writer
//!   can slip a snapshot in between the read and the swap and
//!   concurrent maintainers cannot lose each other's work. Readers keep
//!   loading the old snapshot throughout: the snapshot lock is held
//!   only for the swap itself.
//!
//! Epoch numbers are monotone and returned from every swing, so callers
//! can tell "the snapshot I read" from "the snapshot now live" — the
//! serving layer stamps every answer with the epoch it was computed
//! against.

use std::sync::{Arc, Mutex, MutexGuard};

/// An `Arc`-published snapshot cell with monotone epoch numbering.
/// See the [module docs](self) for the publication protocol.
#[derive(Debug)]
pub struct EpochCell<T> {
    /// The live snapshot and the epoch it was published as.
    current: Mutex<(Arc<T>, u64)>,
    /// The writer slot.
    writer: Mutex<()>,
}

/// Locks past poisoning. Sound for both of the cell's mutexes: the
/// writer slot guards no data, and the snapshot lock is only ever held
/// over a pointer clone or a pointer-and-counter store, which cannot
/// leave the pair half-updated. (A rebuild closure that panics inside
/// [`EpochCell::update`] poisons the slot; the cell must stay usable.)
fn lock<G>(m: &Mutex<G>) -> MutexGuard<'_, G> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T> EpochCell<T> {
    /// Creates a cell publishing `value` as epoch 0.
    pub fn new(value: T) -> Self {
        EpochCell {
            current: Mutex::new((Arc::new(value), 0)),
            writer: Mutex::new(()),
        }
    }

    /// The currently-published snapshot. The lock is held only long
    /// enough to clone the `Arc`, and no writer holds it for longer
    /// than a pointer swap.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&lock(&self.current).0)
    }

    /// The epoch number of the currently-published snapshot.
    pub fn epoch(&self) -> u64 {
        lock(&self.current).1
    }

    /// [`load`](Self::load) plus the epoch the snapshot was published
    /// as, read under one lock so a concurrent swing can never split
    /// them.
    pub fn load_with_epoch(&self) -> (Arc<T>, u64) {
        let current = lock(&self.current);
        (Arc::clone(&current.0), current.1)
    }

    /// Publishes `value` as the next epoch and returns its number. The
    /// previous snapshot retires when its last reader drops its `Arc`.
    pub fn publish(&self, value: T) -> u64 {
        self.publish_arc(Arc::new(value))
    }

    /// Publishes an already-shared snapshot (see [`publish`](Self::publish)).
    pub fn publish_arc(&self, value: Arc<T>) -> u64 {
        let _slot = lock(&self.writer);
        self.swap(value)
    }

    /// Builds the next snapshot **from** the current one and swings the
    /// epoch. `f` runs with the writer slot held — other writers queue
    /// behind it, plain readers keep loading the old snapshot for the
    /// whole rebuild. Returns the new epoch number.
    pub fn update(&self, f: impl FnOnce(&T) -> T) -> u64 {
        let _slot = lock(&self.writer);
        let next = Arc::new(f(&self.load()));
        self.swap(next)
    }

    /// The swing itself; the caller holds the writer slot.
    fn swap(&self, next: Arc<T>) -> u64 {
        let mut current = lock(&self.current);
        let retired = std::mem::replace(&mut current.0, next);
        current.1 += 1;
        let epoch = current.1;
        drop(current);
        // If this was the last reference the whole snapshot is freed
        // here — after the lock, so no reader waits on the teardown.
        drop(retired);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn load_returns_published_value_and_epoch_advances() {
        let cell = EpochCell::new(1u32);
        assert_eq!(*cell.load(), 1);
        assert_eq!(cell.epoch(), 0);
        assert_eq!(cell.publish(2), 1);
        assert_eq!(*cell.load(), 2);
        assert_eq!(cell.epoch(), 1);
        assert_eq!(cell.update(|v| v + 10), 2);
        assert_eq!(*cell.load(), 12);
        let (snap, epoch) = cell.load_with_epoch();
        assert_eq!((*snap, epoch), (12, 2));
    }

    #[test]
    fn readers_keep_old_snapshot_across_a_swing() {
        let cell = EpochCell::new(vec![1, 2, 3]);
        let before = cell.load();
        cell.publish(vec![9]);
        // The snapshot loaded before the swing is untouched
        // (publish-then-retire): maintenance never mutates in place.
        assert_eq!(*before, vec![1, 2, 3]);
        assert_eq!(*cell.load(), vec![9]);
    }

    #[test]
    fn concurrent_updates_serialize_and_lose_nothing() {
        let cell = Arc::new(EpochCell::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    for _ in 0..100 {
                        cell.update(|v| v + 1);
                    }
                });
            }
        });
        assert_eq!(*cell.load(), 800);
        assert_eq!(cell.epoch(), 800);
    }

    #[test]
    fn readers_never_block_on_a_slow_update() {
        let cell = Arc::new(EpochCell::new(0u32));
        let rebuilding = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let c = Arc::clone(&cell);
            let r = Arc::clone(&rebuilding);
            s.spawn(move || {
                c.update(|v| {
                    r.store(true, Ordering::SeqCst);
                    // A deliberately slow rebuild: readers must get the
                    // old snapshot immediately throughout.
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    v + 1
                });
            });
            while !rebuilding.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            let t0 = std::time::Instant::now();
            assert_eq!(*cell.load(), 0, "old epoch must stay readable");
            assert!(
                t0.elapsed() < std::time::Duration::from_millis(50),
                "reader blocked on maintenance: {:?}",
                t0.elapsed()
            );
        });
        assert_eq!(*cell.load(), 1);
    }

    /// Writers keep the invariant `value == epoch`; under a storm of
    /// swings every pair a reader gets must satisfy it — a snapshot
    /// paired with a neighbouring swing's number would not.
    #[test]
    fn load_with_epoch_pairs_are_the_ones_published_together() {
        let cell = EpochCell::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..5_000 {
                        cell.update(|v| v + 1);
                    }
                });
            }
            for _ in 0..3 {
                s.spawn(|| {
                    let mut last = 0;
                    for _ in 0..20_000 {
                        let (snap, epoch) = cell.load_with_epoch();
                        assert_eq!(*snap, epoch, "split pair");
                        assert!(epoch >= last, "epochs went backwards");
                        last = epoch;
                    }
                });
            }
        });
        let (snap, epoch) = cell.load_with_epoch();
        assert_eq!((*snap, epoch), (10_000, 10_000));
    }

    /// A `publish` that arrives during a slow `update` queues behind
    /// it: the rebuilt snapshot goes live first, the published one
    /// second. Were it to slip in between the rebuild's read and its
    /// swap, the swap would bury it under a snapshot not built from it.
    #[test]
    fn publish_racing_a_slow_update_loses_neither_write() {
        let cell = EpochCell::new(0u32);
        let rebuilding = AtomicBool::new(false);
        let publishing = AtomicBool::new(false);
        std::thread::scope(|s| {
            let updater = s.spawn(|| {
                cell.update(|v| {
                    rebuilding.store(true, Ordering::SeqCst);
                    while !publishing.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    // Leave a publish that does not queue time to land.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    v + 100
                })
            });
            while !rebuilding.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            publishing.store(true, Ordering::SeqCst);
            assert_eq!(cell.publish(7), 2, "the publish queued behind the update");
            assert_eq!(updater.join().unwrap(), 1);
        });
        let (snap, epoch) = cell.load_with_epoch();
        assert_eq!((*snap, epoch), (7, 2));
    }
}
