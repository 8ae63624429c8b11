//! Scoped-thread data parallelism for the hot kernels.
//!
//! The build environment has no registry access, so instead of `rayon` this
//! module provides the fork–join shapes the workspace needs — an indexed
//! map and a for-each over owned items (disjoint-chunk mutation is the common
//! case of it) — on top of `std::thread::scope`. The worker count defaults to
//! the machine's available parallelism and can be overridden globally
//! (benchmarks use this to compare single- and multi-threaded runs) or per
//! process via the `WINO_THREADS` environment variable.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Global override of the worker count; 0 means "auto".
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The resolved "auto" worker count (`WINO_THREADS` env var or the core
/// count), computed once — an `env::var` per kernel call takes a process
/// lock and dominates small GEMMs.
static AUTO_THREADS: OnceLock<usize> = OnceLock::new();

/// Sets the number of worker threads used by [`parallel_map`],
/// [`parallel_for_each`] and [`parallel_chunks_mut`]. `0` restores the
/// default (all available cores, or the `WINO_THREADS` environment variable
/// when set).
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// The number of worker threads the parallel helpers will use.
pub fn max_threads() -> usize {
    let forced = MAX_THREADS.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    *AUTO_THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("WINO_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// A full-detail trace span covering one fork–join worker's whole block; the
/// correlation id packs `worker << 32 | items`.
fn worker_span(w: usize, items: usize) -> Option<wino_trace::Span> {
    if !wino_trace::full_enabled() {
        return None;
    }
    static SYM: OnceLock<wino_trace::Sym> = OnceLock::new();
    let sym = *SYM.get_or_init(|| wino_trace::intern("parallel_worker"));
    let id = ((w as u64) << 32) | items as u64;
    Some(wino_trace::span_full(sym, wino_trace::Category::Kernel, id))
}

/// Computes `f(0), f(1), …, f(n - 1)` across the worker threads and returns
/// the results in index order.
///
/// Falls back to a plain sequential loop when only one worker is configured
/// (or `n <= 1`). There is no per-item work estimate: callers are expected to
/// hand this coarse-grained items (the Winograd paths pass whole batch ×
/// tile-row strips), for which the scoped-thread spawn cost is noise.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = max_threads().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // Contiguous index blocks, remainder spread over the first blocks.
    let base = n / workers;
    let extra = n % workers;
    let mut results: Vec<Vec<T>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        let mut start = 0usize;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            let range = start..start + len;
            start += len;
            let f = &f;
            handles.push(scope.spawn(move || {
                let _sp = worker_span(w, range.len());
                range.map(f).collect::<Vec<T>>()
            }));
        }
        for h in handles {
            results.push(h.join().expect("parallel_map worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// Splits `0..n` into contiguous ranges of at most `max_chunk` items, using at
/// least one range per worker thread whenever `n` allows, with the items
/// spread as evenly as possible (range lengths differ by at most one).
///
/// This is the strip scheduler of the tap-major Winograd paths: a range of
/// tile-row strips is one work item, sized so the per-group tap-major scratch
/// stays cache-resident (`max_chunk`) while still feeding every worker.
pub fn split_ranges(n: usize, max_chunk: usize) -> Vec<std::ops::Range<usize>> {
    assert!(max_chunk > 0, "split_ranges: max_chunk must be positive");
    if n == 0 {
        return Vec::new();
    }
    let by_chunk = n.div_ceil(max_chunk);
    let pieces = by_chunk.max(max_threads().min(n));
    let base = n / pieces;
    let extra = n % pieces;
    let mut ranges = Vec::with_capacity(pieces);
    let mut start = 0usize;
    for p in 0..pieces {
        let len = base + usize::from(p < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Runs `f(item)` once for every item, spread over the worker threads in
/// contiguous batches. Items typically carry disjoint `&mut` borrows, so the
/// closure can write through them without synchronisation.
///
/// With one worker configured the items are consumed straight off the
/// iterator, without allocating.
pub fn parallel_for_each<T, F>(items: impl Iterator<Item = T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    if max_threads() <= 1 {
        return items.for_each(f);
    }
    let mut items: Vec<T> = items.collect();
    let workers = max_threads().min(items.len());
    if workers <= 1 {
        return items.into_iter().for_each(f);
    }
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            // Hand each worker a contiguous batch from the tail of the list,
            // sized by the items still unassigned and the workers still to
            // come so the final worker always drains the list.
            let take = items.len().div_ceil(workers - w);
            if take == 0 {
                break;
            }
            let batch = items.split_off(items.len() - take);
            let f = &f;
            handles.push(scope.spawn(move || batch.into_iter().for_each(f)));
        }
        debug_assert!(items.is_empty(), "parallel_for_each left items unassigned");
        for h in handles {
            h.join().expect("parallel_for_each worker panicked");
        }
    });
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last may
/// be shorter) and runs `f(chunk_index, chunk)` on the worker threads, each
/// chunk exactly once.
///
/// The chunks are disjoint `&mut` borrows, so the closure can write its chunk
/// freely without synchronisation.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(
        chunk_len > 0,
        "parallel_chunks_mut: chunk_len must be positive"
    );
    parallel_for_each(data.chunks_mut(chunk_len).enumerate(), |(i, chunk)| {
        f(i, chunk)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        let out = parallel_map(1000, |i| i * i);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        assert_eq!(parallel_map(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn chunks_cover_every_element_once() {
        let mut data = vec![0u32; 997];
        parallel_chunks_mut(&mut data, 64, |_, chunk| {
            for v in chunk.iter_mut() {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn chunk_indices_match_offsets() {
        let mut data = vec![0usize; 300];
        parallel_chunks_mut(&mut data, 100, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i;
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[150], 1);
        assert_eq!(data[299], 2);
    }

    /// Serialises the tests that mutate the global worker count.
    static THREAD_OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn chunks_cover_every_element_with_forced_workers() {
        let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
        // Regression: with `take` recomputed against the *total* worker count,
        // trailing chunks were silently dropped whenever n_chunks exceeded the
        // worker count. Force several worker counts (threads really spawn even
        // on a 1-CPU host) and check full coverage each time.
        for workers in [2, 3, 4, 7] {
            set_max_threads(workers);
            for n_chunks in [1usize, 2, 5, 10, 16, 33] {
                let mut data = vec![0u8; n_chunks * 8];
                parallel_chunks_mut(&mut data, 8, |_, chunk| {
                    for v in chunk.iter_mut() {
                        *v += 1;
                    }
                });
                assert!(
                    data.iter().all(|&v| v == 1),
                    "workers={workers} n_chunks={n_chunks}: uncovered or doubled chunks"
                );
            }
        }
        set_max_threads(0);
    }

    #[test]
    fn split_ranges_covers_everything_in_order() {
        let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
        for workers in [1usize, 3] {
            set_max_threads(workers);
            for (n, max_chunk) in [(0usize, 4usize), (1, 4), (7, 3), (12, 4), (5, 100)] {
                let ranges = split_ranges(n, max_chunk);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap at {r:?}");
                    assert!(r.len() <= max_chunk, "range {r:?} exceeds {max_chunk}");
                    assert!(!r.is_empty(), "empty range");
                    next = r.end;
                }
                assert_eq!(next, n, "workers={workers} n={n}");
                if n >= workers {
                    assert!(ranges.len() >= workers, "fewer ranges than workers");
                }
            }
        }
        set_max_threads(0);
    }

    #[test]
    fn thread_override_round_trips() {
        let _guard = THREAD_OVERRIDE_LOCK.lock().unwrap();
        set_max_threads(1);
        assert_eq!(max_threads(), 1);
        let out = parallel_map(10, |i| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        set_max_threads(0);
        assert!(max_threads() >= 1);
    }
}
