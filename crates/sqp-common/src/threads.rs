//! Fork-join over scoped threads, for training stages split into parts:
//! how many parts a stage is worth ([`parts`], the one reader of the host's
//! parallelism), and running them.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many parts `work` units are worth splitting into: one per thread the
/// host offers, but none smaller than `min_per_part` units (a part too small
/// does not pay for its thread's start), and at least one.
pub fn parts(work: usize, min_per_part: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(work / min_per_part)
        .max(1)
}

/// `f` of each item, in order: the first on the calling thread, every other
/// on a scoped thread of its own. A panic in `f` resumes on the caller.
pub fn map_on_threads<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let f = &f;
    let mut items = items.into_iter();
    std::thread::scope(|scope| {
        let first = items.next();
        let helpers: Vec<_> = items.map(|item| scope.spawn(move || f(item))).collect();
        let mut out = Vec::with_capacity(helpers.len() + 1);
        out.extend(first.map(f));
        out.extend(helpers.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        out
    })
}

/// `f(block)` for every block `0..n_blocks` on `threads` threads, in block
/// order. Blocks go to whichever thread asks next — for blocks whose cost
/// varies, where equal contiguous shares would not finish together. A
/// panic in `f` resumes on the caller.
pub fn map_blocks_on_threads<T: Send>(
    n_blocks: usize,
    threads: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    // Only hands out block numbers; the results travel through `join`.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let block = cursor.fetch_add(1, Ordering::Relaxed);
            if block >= n_blocks {
                return done;
            }
            done.push((block, f(block)));
        }
    };
    let mut slots: Vec<Option<T>> = (0..n_blocks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mine = work();
        for done in helpers
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .chain([mine])
        {
            for (block, result) in done {
                slots[block] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every block ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order() {
        let items: Vec<u32> = (0..5).collect();
        assert_eq!(map_on_threads(&items, |i| i * 10), [0, 10, 20, 30, 40]);
        assert!(map_on_threads(&[] as &[u32], |i| *i).is_empty());
    }

    #[test]
    fn results_keep_block_order() {
        for threads in 1..4 {
            assert_eq!(
                map_blocks_on_threads(5, threads, |b| b * 10),
                [0, 10, 20, 30, 40]
            );
        }
    }
}
