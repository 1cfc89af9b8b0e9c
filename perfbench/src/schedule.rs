//! The open-loop schedule of the serve generator.

use std::time::{Duration, Instant};

/// Operation `k` is due at `start + k / rate`, whether or not earlier
/// operations have finished. Latency is measured from the due time, so
/// a stall that delays later sends is charged to them as well.
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
}

impl OpenLoop {
    /// A schedule of `rate` operations per second starting now.
    pub fn new(rate: f64) -> Self {
        Self {
            start: Instant::now(),
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When operation `k` is due.
    pub fn due(&self, k: usize) -> Instant {
        self.start + self.interval * k as u32
    }

    /// Sleep until operation `k` is due. Returns its due time and how
    /// late the generator reached it (zero when it had to wait).
    pub fn wait(&self, k: usize) -> (Instant, Duration) {
        let due = self.due(k);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        (due, Instant::now().saturating_duration_since(due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_shows_as_lateness_and_latency_of_later_operations() {
        let stall = Duration::from_millis(60);
        let schedule = OpenLoop::new(100.0); // due every 10 ms
        let (_, late0) = schedule.wait(0);
        assert!(late0 < Duration::from_millis(10));
        std::thread::sleep(stall); // operation 0 stalls the generator
        let (due1, late1) = schedule.wait(1);
        // Operation 1 was due 10 ms in; the stall ran to 60 ms.
        assert!(late1 >= stall - Duration::from_millis(10), "{late1:?}");
        assert!(due1.elapsed() >= late1);
        // Once the generator catches up, it waits again.
        let (_, late9) = schedule.wait(9);
        assert!(
            late9 < Duration::from_millis(10) || late9 < late1,
            "{late9:?}"
        );
    }
}
