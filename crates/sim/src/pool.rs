//! The workspace's one worker pool: spread indexed work over threads
//! and merge the results back in item order.
//!
//! Every parallel caller (fleet sites, campaign waves, elastic burst
//! joins, experiment grids, service tenants, the Linpack trailing
//! update, STREAM) goes through [`map`], so the determinism argument is
//! made once, here:
//!
//! * results come back in item order, whichever worker ran an item;
//! * one worker (or at most one item) runs every item in order on the
//!   calling thread — the reference path the parallel path must match;
//! * a panic inside an item resumes on the caller with its own payload.
//!
//! Output can therefore only depend on the worker count if the items
//! themselves share state whose result depends on arrival order; each
//! caller documents why its shared state (caches keyed per item,
//! per-tenant salts, a [`Memo`] of equal results) does not.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::panic::resume_unwind;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Results that items on any number of workers share: values under a
/// hash key, told apart under one key by the caller's exact match
/// (the key may be a digest or only part of what a value depends on).
/// The lock is held only around a lookup or an insert, never while a
/// value is computed, so workers do not serialise on each other's
/// misses. Two workers that compute one value at once both compute it
/// and the first insert is kept, so a memo suits values that are equal
/// whoever computes them.
#[derive(Debug)]
pub struct Memo<K, V>(Mutex<HashMap<K, Vec<V>>>);

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo(Mutex::new(HashMap::new()))
    }
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    fn values(&self) -> MutexGuard<'_, HashMap<K, Vec<V>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value under `key` that `matches` accepts.
    pub fn get<Q>(&self, key: &Q, matches: impl Fn(&V) -> bool) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.values().get(key)?.iter().find(|v| matches(v)).cloned()
    }

    /// Store `value` under `key` unless `matches` accepts a value
    /// already there.
    pub fn insert(&self, key: K, value: V, matches: impl Fn(&V) -> bool) {
        let mut values = self.values();
        let same = values.entry(key).or_default();
        if !same.iter().any(matches) {
            same.push(value);
        }
    }

    /// How many values the memo holds, over every key.
    pub fn len(&self) -> usize {
        self.values().values().map(Vec::len).sum()
    }

    /// True when the memo holds no value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Worker count that [`map`] actually uses for `items` items: the
/// request clamped to `1..=items` (1 when there are no items).
pub fn workers(requested: usize, items: usize) -> usize {
    requested.min(items).max(1)
}

/// Apply `f` to every item on up to `workers` threads and return the
/// results in item order.
///
/// Items are owned, so they can be borrowed views (`&T`) or disjoint
/// mutable chunks (`&mut [f64]`). Workers pull the next unclaimed item
/// off a shared queue, so uneven items balance across threads. With a
/// single effective worker no thread is spawned.
///
/// # Panics
///
/// If `f` panics on any item, the panic is resumed on the caller once
/// every worker has stopped.
pub fn map<I, R, F>(workers: usize, items: impl IntoIterator<Item = I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let items: Vec<I> = items.into_iter().collect();
    let n = items.len();
    let workers = self::workers(workers, n);
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }

    // The lock is held only to claim an item, never while `f` runs, so
    // a panicking item cannot poison it.
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, item)) = next else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload))
            {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item ran before the scope ended"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Uneven per-item cost so workers finish out of order.
    fn work(x: u64) -> u64 {
        (0..(x % 7) * 500).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
    }

    proptest! {
        #[test]
        fn output_equals_sequential_map(
            items in proptest::collection::vec(0u64..1_000_000, 0..65),
            workers in 1usize..=8,
        ) {
            let sequential: Vec<u64> = items.iter().map(|&x| work(x)).collect();
            prop_assert_eq!(map(workers, items.clone(), work), sequential);
        }
    }

    #[test]
    fn zero_items_and_surplus_workers() {
        assert!(map(8, Vec::<u64>::new(), work).is_empty());
        assert_eq!(map(8, [3u64, 1], |x| x * 2), vec![6, 2]);
        assert_eq!(workers(8, 0), 1);
        assert_eq!(workers(0, 5), 1);
        assert_eq!(workers(8, 3), 3);
    }

    #[test]
    fn a_memo_keeps_the_first_of_equal_values_and_tells_keys_apart() {
        let memo: Memo<String, (u32, u32)> = Memo::default();
        assert!(memo.is_empty());
        // (value, who computed it): every item computes value k % 3
        map(4, 0..12u32, |i| {
            let k = i % 3;
            if memo.get("key", |v| v.0 == k).is_none() {
                memo.insert("key".to_string(), (k, i), |v| v.0 == k);
            }
        });
        assert_eq!(memo.len(), 3);
        for k in 0..3 {
            assert_eq!(memo.get("key", |v| v.0 == k).map(|v| v.0), Some(k));
        }
        memo.insert("key".to_string(), (0, 99), |v| v.0 == 0);
        assert_ne!(memo.get("key", |v| v.0 == 0), Some((0, 99)), "first kept");
        assert_eq!(memo.get("other", |_| true), None);
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn a_panicking_item_panics_the_caller() {
        map(4, 0..16u32, |i| {
            if i == 5 {
                panic!("item {i} failed");
            }
            i
        });
    }
}
