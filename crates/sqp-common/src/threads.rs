//! Fork-join over scoped threads, for training stages split into parts.

/// `f` of each item, in order: the first on the calling thread, every other
/// on a scoped thread of its own. A panic in `f` resumes on the caller.
pub fn map_on_threads<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|scope| {
        let helpers: Vec<_> = items
            .iter()
            .skip(1)
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        out.extend(items.first().map(f));
        out.extend(helpers.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        out
    })
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
}
