//! Fork–join helpers.
//!
//! The build environment carries no external crates, so instead of rayon
//! this is a minimal scoped-thread fan-out with the same data-parallel
//! shape: split a slice into per-worker chunks, run a closure on each,
//! collect results in order. On one core (or for small inputs) everything
//! runs inline on the caller's thread, so callers never need to
//! special-case.

/// Number of workers a fan-out may use.
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over disjoint chunks of `items` on scoped worker threads,
/// returning per-chunk results in input order.
///
/// `f` receives `(offset_of_chunk, chunk)` so callers can reconstruct
/// global indices. Inputs smaller than `min_per_thread` per worker shrink
/// the worker count, down to an inline call on the current thread.
pub fn par_chunk_map<T, R, F>(items: &[T], min_per_thread: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let workers = max_threads()
        .min(items.len() / min_per_thread.max(1))
        .max(1);
    if workers <= 1 {
        return vec![f(0, items)];
    }
    let chunk_len = items.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .enumerate()
            .map(|(i, chunk)| scope.spawn(move || f(i * chunk_len, chunk)))
            .collect();
        handles
            .into_iter()
            // lint:allow(panic-path, reason = "a panicked worker must propagate: swallowing it would silently corrupt the proof batch")
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Maps `f` over `items` element-wise with worker-thread fan-out,
/// preserving order.
pub fn par_map<T, R, F>(items: &[T], min_per_thread: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_chunk_map(items, min_per_thread, |_, chunk| {
        chunk.iter().map(&f).collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, 1, |x| x * 2);
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunk_map_offsets_are_global() {
        let items: Vec<u64> = (0..100).collect();
        let checks = par_chunk_map(&items, 1, |offset, chunk| {
            chunk
                .iter()
                .enumerate()
                .all(|(i, v)| *v == (offset + i) as u64)
        });
        assert!(checks.into_iter().all(|ok| ok));
    }

    #[test]
    fn small_inputs_run_inline() {
        let items = [1u64];
        assert_eq!(par_map(&items, 64, |x| x + 1), vec![2]);
        let empty: [u64; 0] = [];
        assert_eq!(par_map(&empty, 1, |x| *x), Vec::<u64>::new());
    }
}
