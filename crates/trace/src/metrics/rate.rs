//! Windowed event-rate estimation over *simulated* time.
//!
//! The serving and adaptive runtimes are discrete-event simulations: time
//! is a deterministic `f64` microsecond clock, never the wall clock. A
//! [`WindowedRate`] therefore takes its timestamps from the caller, which
//! keeps every derived rate byte-reproducible — the same workload produces
//! the same windows, the same peaks, the same exposition text.

use std::collections::VecDeque;

/// Sliding-window rate estimator: events per second over the most recent
/// `window_us` of simulated time, bucketed into fixed sub-window slots.
///
/// ```
/// use rana_trace::metrics::WindowedRate;
///
/// let mut r = WindowedRate::new(1_000_000.0, 10); // 1 s window, 10 slots
/// for k in 0..100 {
///     r.record(k as f64 * 10_000.0, 1); // one event every 10 ms
/// }
/// let rate = r.rate_per_s(1_000_000.0);
/// assert!((rate - 100.0).abs() / 100.0 < 0.15, "{rate}");
/// assert_eq!(r.total(), 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedRate {
    window_us: f64,
    slots: u64,
    slot_width_us: f64,
    /// Occupied slots, ascending, as `(slot index, events)`.
    ring: VecDeque<(u64, u64)>,
    total: u64,
    peak_per_s: f64,
}

impl WindowedRate {
    /// A rate estimator over a `window_us`-wide sliding window split into
    /// `slots` sub-windows (more slots → smoother roll-off).
    ///
    /// # Panics
    ///
    /// Panics when the window is not positive or `slots` is zero.
    pub fn new(window_us: f64, slots: u64) -> Self {
        assert!(window_us > 0.0, "window must be positive");
        assert!(slots >= 1, "need at least one slot");
        Self {
            window_us,
            slots,
            slot_width_us: window_us / slots as f64,
            ring: VecDeque::new(),
            total: 0,
            peak_per_s: 0.0,
        }
    }

    /// The sliding-window width, µs.
    pub fn window_us(&self) -> f64 {
        self.window_us
    }

    fn slot_of(&self, t_us: f64) -> u64 {
        (t_us.max(0.0) / self.slot_width_us) as u64
    }

    /// Records `n` events at simulated time `t_us`. Timestamps must be
    /// non-decreasing (event order in a DES run); an out-of-order
    /// timestamp is clamped into the newest slot.
    pub fn record(&mut self, t_us: f64, n: u64) {
        let mut slot = self.slot_of(t_us);
        if let Some(&(newest, _)) = self.ring.back() {
            slot = slot.max(newest);
        }
        while self.ring.front().is_some_and(|&(s, _)| s + self.slots <= slot) {
            self.ring.pop_front();
        }
        match self.ring.back_mut() {
            Some((s, c)) if *s == slot => *c += n,
            _ => self.ring.push_back((slot, n)),
        }
        self.total += n;
        let in_window: u64 = self.ring.iter().map(|&(_, c)| c).sum();
        self.peak_per_s = self.peak_per_s.max(in_window as f64 / (self.window_us * 1e-6));
    }

    /// Events per second over the window ending at `now_us` (slots wholly
    /// older than the window are excluded; nothing is mutated).
    pub fn rate_per_s(&self, now_us: f64) -> f64 {
        let now_slot = self.slot_of(now_us).max(self.ring.back().map_or(0, |&(s, _)| s));
        let in_window: u64 =
            self.ring.iter().filter(|&&(s, _)| s + self.slots > now_slot).map(|&(_, c)| c).sum();
        in_window as f64 / (self.window_us * 1e-6)
    }

    /// Highest windowed rate observed at any record point, events/s.
    pub fn peak_per_s(&self) -> f64 {
        self.peak_per_s
    }

    /// Lifetime event count.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_stream_converges_to_true_rate() {
        let mut r = WindowedRate::new(500_000.0, 20);
        for k in 0..1000 {
            r.record(k as f64 * 1_000.0, 1); // 1000 events/s
        }
        let rate = r.rate_per_s(1_000_000.0);
        assert!((rate - 1000.0).abs() / 1000.0 < 0.1, "{rate}");
    }

    #[test]
    fn old_events_age_out() {
        let mut r = WindowedRate::new(100_000.0, 10);
        r.record(0.0, 50);
        assert!(r.rate_per_s(10_000.0) > 0.0);
        assert_eq!(r.rate_per_s(1_000_000.0), 0.0, "events far in the past must age out");
        assert_eq!(r.total(), 50);
    }

    #[test]
    fn peak_tracks_burst() {
        let mut r = WindowedRate::new(100_000.0, 10);
        for k in 0..10 {
            r.record(k as f64 * 1_000.0, 10); // burst: 100 events in 10 ms
        }
        for k in 0..10 {
            r.record(5_000_000.0 + k as f64 * 100_000.0, 1); // trickle
        }
        assert!(r.peak_per_s() >= 900.0, "{}", r.peak_per_s());
        assert!(r.rate_per_s(6_000_000.0) < 50.0);
    }

    #[test]
    fn deterministic_for_identical_streams() {
        let feed = |r: &mut WindowedRate| {
            for k in 0..257u64 {
                r.record((k * k % 911) as f64 * 733.0, k % 3 + 1);
            }
        };
        let mut a = WindowedRate::new(250_000.0, 16);
        let mut b = WindowedRate::new(250_000.0, 16);
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a, b);
        assert_eq!(a.peak_per_s().to_bits(), b.peak_per_s().to_bits());
    }
}
