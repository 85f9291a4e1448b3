//! The counting allocator. One `#[test]` in this file, because the window
//! is process-wide: a second test thread would be counted too.

use eslev_benchmark::alloc::{calls_now, measure, uncounted};
use eslev_benchmark::feeds::{Feed, TINY};
use eslev_benchmark::run::counting_pass;
use eslev_benchmark::workloads::Workload;

#[test]
fn counts_inside_the_window_only_and_repeats_exactly() {
    // Nothing is counted outside a window.
    let before = calls_now();
    let outside: Vec<Vec<u8>> = (0..100).map(|i| Vec::with_capacity(i + 1)).collect();
    assert_eq!(calls_now(), before);
    drop(outside);

    // Inside: calls, and the high-water of what is live at once.
    // (`black_box`: an optimised build may drop an allocation nobody reads.)
    use std::hint::black_box;
    let (_, report) = measure(|| {
        let a = black_box(vec![0u8; 1000]);
        drop(a);
        let b = black_box(vec![0u8; 600]);
        let c = black_box(vec![0u8; 300]);
        (b, c)
    });
    assert_eq!((report.calls, report.peak_bytes), (3, 1000));
    // The benchmark's own clones: bytes yes, calls no.
    let (_, report) = measure(|| uncounted(|| black_box(vec![0u8; 64])));
    assert_eq!((report.calls, report.peak_bytes), (0, 64));
    // A block from before the window, freed inside it, is not growth.
    let early = black_box(vec![0u8; 4096]);
    let (_, report) = measure(move || drop(early));
    assert_eq!((report.calls, report.peak_bytes), (0, 0));

    // allocs_per_tuple repeats exactly on every single-engine workload.
    for w in Workload::ALL.into_iter().filter(|w| !w.sharded()) {
        let feed = Feed::generate(w, 5, &TINY, 1);
        let (first, failed, readings) = counting_pass(w, &feed).unwrap();
        let (second, ..) = counting_pass(w, &feed).unwrap();
        assert_eq!(failed, 0, "{}", w.name());
        assert_eq!(readings as usize, feed.rows.len());
        assert!(first.calls > 0 && first.peak_bytes > 0);
        assert_eq!(first.calls, second.calls, "{}", w.name());
    }
}
