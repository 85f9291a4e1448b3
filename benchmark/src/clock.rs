//! Timings at a reference core clock.
//!
//! The sandbox's host steps each core between its all-core clock and
//! turbo (+27 % here) depending on what its other tenants do, and holds a
//! step for tens of seconds: longer than a run, so no median inside a run
//! removes it, and ten runs in a row land in two or three crisp modes.
//! The constant-rate clock that `Instant` reads does not follow the core
//! clock, so the benchmark measures the core clock itself — a fixed chain
//! of dependent multiply-adds, a few microseconds, before each timed
//! region — and reports every CPU-bound timing as the time it would have
//! taken at [`REFERENCE`]: `elapsed × speed ÷ REFERENCE`. Wall-clock
//! quantities (the open-loop schedule and its latencies) are left alone.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// Steps of the calibration chain per nanosecond at the reference clock:
/// what this sandbox's Xeon does at its all-core clock (a 4-cycle step at
/// 3.15 GHz). Only ratios to it matter; on another CPU it is a constant
/// factor on every timing.
pub const REFERENCE: f64 = 0.788;

const STEPS: u64 = 2_000;
/// A core holds its clock far longer than this; measuring more often
/// would only add untimed work between chunks.
const KEEP: Duration = Duration::from_micros(500);

thread_local! {
    static LAST: Cell<Option<(Instant, f64)>> = const { Cell::new(None) };
}

/// Steps per nanosecond right now: the best of three, since anything that
/// interrupts a sample only makes it slower.
fn measure() -> f64 {
    let mut best = f64::MAX;
    for _ in 0..3 {
        let clock = Instant::now();
        let mut x = 1u64;
        for _ in 0..STEPS {
            // Through `black_box` each step waits for the one before: the
            // chain cannot be unrolled into independent work.
            x = std::hint::black_box(x)
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
        }
        std::hint::black_box(x);
        best = best.min(clock.elapsed().as_nanos() as f64);
    }
    STEPS as f64 / best
}

/// The core's speed as a share of [`REFERENCE`], measured now or within
/// the last [`KEEP`].
pub fn factor() -> f64 {
    LAST.with(|last| match last.get() {
        Some((at, speed)) if at.elapsed() < KEEP => speed,
        _ => {
            let speed = measure() / REFERENCE;
            last.set(Some((Instant::now(), speed)));
            speed
        }
    })
}

/// The last factor measured on this thread, without measuring again (for
/// code that runs inside a timed region); 1 before the first measurement.
pub fn last_factor() -> f64 {
    LAST.with(|last| last.get().map_or(1.0, |(_, speed)| speed))
}

/// Times a CPU-bound region and reports it at the reference clock.
pub struct Stopwatch {
    pub start: Instant,
    /// Core speed ÷ reference when the region started.
    pub factor: f64,
}

impl Stopwatch {
    /// Calibrates first if the last calibration is stale, then starts.
    pub fn start() -> Stopwatch {
        let factor = factor();
        Stopwatch {
            start: Instant::now(),
            factor,
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed().mul_f64(self.factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_faster_core_stretches_the_reported_time() {
        let watch = Stopwatch {
            start: Instant::now() - Duration::from_millis(100),
            factor: 1.25,
        };
        let scaled = watch.elapsed();
        assert!(scaled >= Duration::from_millis(125) && scaled < Duration::from_millis(135));
        let f = factor();
        assert!(f > 0.1 && f < 10.0, "a plausible core speed, got {f}");
        assert_eq!(factor(), f, "kept while fresh");
    }
}
