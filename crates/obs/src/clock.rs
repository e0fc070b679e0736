//! The monotonic trace clock and wall-clock phase timing.
//!
//! Every trace timestamp in this crate is microseconds since a
//! **process-global epoch**: the first call to [`now_micros`] lazily pins an
//! [`Instant`] and every later reading is measured against it. Monotonic by
//! construction (it inherits `Instant`'s guarantee), cheap (one `OnceLock`
//! load + one `Instant::now`), and comparable across threads of one process.
//! Cross-*process* comparability is handled at serialization time by
//! shifting with a per-process clock offset, which the socket transport
//! derives from its HELLO handshake and applies when it ships a trace batch
//! (`distger_cluster::gather_trace_events`).
//!
//! [`Stopwatch`] and [`PhaseTimes`] moved here from `distger-cluster`'s
//! `timer` module (which now deprecates and re-exports them): the paper
//! reports end-to-end time broken down into partitioning, random walks
//! (sampling), and training (§6.2, §8.1), and that breakdown belongs to the
//! observability layer, not the cluster runtime.

use std::sync::OnceLock;
use std::time::Instant;

/// The process-global trace epoch, pinned on first use.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the process-global trace epoch.
///
/// Non-decreasing across calls within one thread and between threads of the
/// same process (per the platform's `Instant` guarantee). Signed so that
/// cross-process clock-offset shifts cannot wrap.
pub fn now_micros() -> i64 {
    epoch().elapsed().as_micros() as i64
}

/// A simple wall-clock stopwatch.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts (or restarts) timing now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Restarts the stopwatch and returns the elapsed seconds before restart.
    pub fn lap(&mut self) -> f64 {
        let elapsed = self.elapsed_secs();
        self.start = Instant::now();
        elapsed
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// Per-phase wall-clock times of one end-to-end run, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    /// Graph partitioning time.
    pub partition_secs: f64,
    /// Random-walk (sampling) time.
    pub sampling_secs: f64,
    /// Embedding training time.
    pub training_secs: f64,
    /// Modelled additional communication time (from the network model).
    pub modelled_comm_secs: f64,
}

impl PhaseTimes {
    /// End-to-end wall-clock total (excluding the modelled communication
    /// component, which is reported separately because the computation here
    /// runs on one physical host).
    pub fn end_to_end_secs(&self) -> f64 {
        self.partition_secs + self.sampling_secs + self.training_secs
    }

    /// End-to-end total including the modelled cross-machine communication.
    pub fn end_to_end_with_comm_secs(&self) -> f64 {
        self.end_to_end_secs() + self.modelled_comm_secs
    }

    /// Component-wise sum of two phase breakdowns.
    pub fn add(&self, other: &PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            partition_secs: self.partition_secs + other.partition_secs,
            sampling_secs: self.sampling_secs + other.sampling_secs,
            training_secs: self.training_secs + other.training_secs,
            modelled_comm_secs: self.modelled_comm_secs + other.modelled_comm_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_time() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let t = sw.lap();
        assert!(t >= 0.004, "expected at least ~5ms, got {t}");
        assert!(sw.elapsed_secs() < t, "lap must restart the stopwatch");
    }

    #[test]
    fn phase_times_totals() {
        let a = PhaseTimes {
            partition_secs: 1.0,
            sampling_secs: 2.0,
            training_secs: 3.0,
            modelled_comm_secs: 0.5,
        };
        assert!((a.end_to_end_secs() - 6.0).abs() < 1e-12);
        assert!((a.end_to_end_with_comm_secs() - 6.5).abs() < 1e-12);
        let b = a.add(&a);
        assert!((b.training_secs - 6.0).abs() < 1e-12);
    }

    #[test]
    fn trace_clock_is_monotonic_across_threads() {
        let t0 = now_micros();
        let t1 = std::thread::spawn(now_micros).join().unwrap();
        let t2 = now_micros();
        assert!(t0 <= t1 && t1 <= t2);
    }
}
