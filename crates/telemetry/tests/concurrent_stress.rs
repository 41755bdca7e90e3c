//! Concurrency stress for the lock-free primitives: many writer
//! threads hammer one shared [`Histogram`]/[`Counter`]/[`Recorder`]
//! and the totals must be *exact* — relaxed atomics may
//! reorder, but they never lose an increment.

use pequod_telemetry::{Histogram, OpKind, Recorder};
use std::sync::Arc;
use std::thread;

const WRITERS: usize = 8;
const PER_WRITER: u64 = 50_000;

#[test]
fn shared_histogram_totals_are_exact_under_contention() {
    let hist = Arc::new(Histogram::new());
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let hist = Arc::clone(&hist);
            thread::spawn(move || {
                // Deterministic per-thread value stream spanning many
                // buckets (w offsets the pattern so threads collide on
                // different buckets at different times).
                for i in 0..PER_WRITER {
                    hist.observe((i.wrapping_mul(2654435761) + w as u64) % 100_000);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread panicked");
    }
    let snap = hist.snapshot();
    let expected = WRITERS as u64 * PER_WRITER;
    assert_eq!(snap.count, expected, "observations were lost");
    let bucket_total: u64 = snap.buckets.iter().sum();
    assert_eq!(bucket_total, expected, "bucket counts disagree with count");
    // The sum is the same arithmetic series from every thread, so it
    // is exactly computable.
    let one_thread: u64 = (0..PER_WRITER)
        .map(|i| (i.wrapping_mul(2654435761)) % 100_000)
        .sum();
    let skewed: u64 = (0..WRITERS as u64)
        .map(|w| {
            (0..PER_WRITER)
                .map(|i| (i.wrapping_mul(2654435761) + w) % 100_000)
                .sum::<u64>()
        })
        .sum();
    assert!(one_thread <= skewed); // sanity on the closed form
    assert_eq!(snap.sum, skewed, "summed magnitudes were lost");
}

#[test]
fn recorder_counters_are_exact_across_threads() {
    let recorder = Recorder::enabled();
    let handles: Vec<_> = (0..WRITERS)
        .map(|_| {
            let r = recorder.clone();
            thread::spawn(move || {
                for _ in 0..PER_WRITER {
                    let t = r.timer();
                    r.observe_op(OpKind::Put, &t);
                    r.lru_hit();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread panicked");
    }
    let expected = (WRITERS as u64 * PER_WRITER).to_string();
    let text = recorder.snapshot(false).to_prometheus();
    let put_line = text
        .lines()
        .find(|l| l.starts_with("pequod_op_total{op=\"put\"}"))
        .expect("put counter missing from scrape");
    assert!(
        put_line.ends_with(&expected),
        "op counter lost increments: {put_line}"
    );
    let hits_line = text
        .lines()
        .find(|l| l.starts_with("pequod_lru_hits_total"))
        .expect("lru hits counter missing from scrape");
    assert!(
        hits_line.ends_with(&expected),
        "lru counter lost increments: {hits_line}"
    );
}
