//! Access-triggered refresh (RTC): refresh a word only if the schedule
//! reads it again before its next overwrite.
//!
//! Two granularities live here. [`AccessTriggered`] is the *layer-level*
//! strategy: it derives per-data-type liveness from the scheduler's
//! lifetime analysis (a data type whose retention-critical interval
//! reaches the pulse period is, by construction, written once and read
//! across pulse boundaries, so every pulse during its residency sees a
//! future read; a type below the period is overwritten or consumed before
//! any pulse catches it). [`AccessTrace`] is the *word-level* machinery
//! used to validate that shortcut: an explicit per-word read/write trace,
//! the refresh count an RTC controller pulsing on the interval grid would
//! issue over it, and a just-in-time lower-bound oracle — the property
//! suite proves the controller never refreshes fewer words than the
//! oracle demands whenever the pulse period is within the retention time.

use crate::{exposure_rate, refresh_flags_for, LayerCtx, LayerDecision, RefreshStrategy};
use rana_edram::energy::BufferTech;

/// The RTC layer-level strategy.
///
/// Word-granular: where RANA's flags round each needy data type up to
/// whole banks, RTC refreshes exactly the live words, so its refresh
/// traffic is bounded above by [`crate::Strategy::RanaFlagged`]'s and
/// below by zero once nothing is read across a pulse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessTriggered;

impl RefreshStrategy for AccessTriggered {
    fn name(&self) -> &'static str {
        "access-triggered"
    }

    fn decide(&self, ctx: &LayerCtx<'_>) -> LayerDecision {
        let refresh_flags = refresh_flags_for(ctx.sim, ctx.cfg, ctx.interval_us);
        let refresh_words = if ctx.cfg.buffer.tech == BufferTech::Sram {
            0
        } else {
            let pulses = (ctx.sim.time_us / ctx.interval_us).floor() as u64;
            let [i, o, w] = ctx.sim.lifetimes.critical_intervals();
            let capacity = ctx.cfg.buffer.capacity_words();
            // Exact live words per needy type — no bank rounding, and no
            // flag-everything fallback on buffer overflow (the trace
            // knows which words are read, banks are irrelevant).
            let live: u64 = [i, o, w]
                .iter()
                .zip([
                    ctx.sim.storage.input_words,
                    ctx.sim.storage.output_words,
                    ctx.sim.storage.weight_words,
                ])
                .filter(|(&crit, _)| crit >= ctx.interval_us)
                .map(|(_, words)| words.min(capacity))
                .sum();
            pulses * live.min(capacity)
        };
        let reason = if refresh_words == 0 { "refresh-free" } else { "access-live" };
        LayerDecision {
            skipped_words: ctx.conventional_words().saturating_sub(refresh_words),
            refresh_words,
            refresh_flags,
            interval_multiple: 1,
            failure_rate: exposure_rate(ctx, ctx.interval_us),
            reason,
        }
    }
}

/// Whether an access recharges the cell (a write) or depends on it
/// (a read).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// The word is overwritten — its previous charge state is irrelevant.
    Write,
    /// The word is read — it must have been recharged within the
    /// retention time.
    Read,
}

/// One access in a word-level trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessOp {
    /// Time of the access, µs.
    pub t_us: f64,
    /// Word index.
    pub word: usize,
    /// Read or write.
    pub kind: AccessKind,
}

/// A word-level access trace over a time horizon. Every word is treated
/// as written at `t = 0` (buffers are filled before compute starts).
///
/// # Example
///
/// ```
/// use rana_policy::{AccessKind, AccessOp, AccessTrace};
///
/// // One word, written at 0, read at 100 µs and 190 µs, then overwritten.
/// let trace = AccessTrace::new(
///     300.0,
///     vec![
///         AccessOp { t_us: 100.0, word: 0, kind: AccessKind::Read },
///         AccessOp { t_us: 190.0, word: 0, kind: AccessKind::Read },
///         AccessOp { t_us: 200.0, word: 0, kind: AccessKind::Write },
///     ],
/// );
/// // RTC pulsing every 45 µs refreshes at 45, 90, 135, 180 (future read
/// // each time) but not at 225 or 270 — the word was just overwritten
/// // and never read again.
/// assert_eq!(trace.rtc_refresh_count(45.0), 4);
/// // With 120 µs retention the just-in-time oracle needs only one
/// // recharge before the 190 µs read.
/// assert_eq!(trace.oracle_refresh_count(120.0), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccessTrace {
    horizon_us: f64,
    /// Per-word accesses, each sorted by time.
    words: Vec<(usize, Vec<(f64, AccessKind)>)>,
}

impl AccessTrace {
    /// Builds a trace from unordered ops.
    ///
    /// # Panics
    ///
    /// Panics if an op lies outside `(0, horizon_us]`.
    pub fn new(horizon_us: f64, ops: Vec<AccessOp>) -> Self {
        let mut by_word: Vec<(usize, Vec<(f64, AccessKind)>)> = Vec::new();
        for op in ops {
            assert!(
                op.t_us > 0.0 && op.t_us <= horizon_us,
                "op at {} us outside (0, {horizon_us}]",
                op.t_us
            );
            match by_word.iter_mut().find(|(w, _)| *w == op.word) {
                Some((_, v)) => v.push((op.t_us, op.kind)),
                None => by_word.push((op.word, vec![(op.t_us, op.kind)])),
            }
        }
        for (_, v) in &mut by_word {
            v.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        Self { horizon_us, words: by_word }
    }

    /// Distinct words the trace touches.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Words an RTC controller refreshes over the trace, pulsing on the
    /// global grid `k·interval_us`: at each pulse, a word is refreshed
    /// iff its next access at-or-after the pulse is a read. (A pulse
    /// coinciding with a read recharges just before the read resolves.)
    pub fn rtc_refresh_count(&self, interval_us: f64) -> u64 {
        assert!(interval_us > 0.0, "pulse period must be positive");
        let mut total = 0u64;
        for (_, ops) in &self.words {
            let mut prev = 0.0f64;
            for &(t, kind) in ops {
                if kind == AccessKind::Read {
                    // Pulses in (prev, t]: k_lo..=k_hi on the grid.
                    let k_lo = (prev / interval_us).floor() as i64 + 1;
                    let k_hi = (t / interval_us).floor() as i64;
                    total += (k_hi - k_lo + 1).max(0) as u64;
                }
                prev = t;
            }
        }
        total
    }

    /// The just-in-time lower bound: the fewest word-refreshes that keep
    /// every read within `retention_us` of the word's last recharge
    /// (write or refresh). Reads do not recharge; refreshes are placed
    /// greedily every `retention_us` after the covering recharge.
    pub fn oracle_refresh_count(&self, retention_us: f64) -> u64 {
        assert!(retention_us > 0.0, "retention must be positive");
        let mut total = 0u64;
        for (_, ops) in &self.words {
            let mut last_charge = 0.0f64;
            for &(t, kind) in ops {
                match kind {
                    AccessKind::Write => last_charge = t,
                    AccessKind::Read => {
                        let gap = t - last_charge;
                        if gap > retention_us {
                            let needed = ((gap / retention_us).ceil() - 1.0).max(0.0) as u64;
                            total += needed;
                            last_charge += needed as f64 * retention_us;
                        }
                    }
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(t_us: f64, word: usize, kind: AccessKind) -> AccessOp {
        AccessOp { t_us, word, kind }
    }

    #[test]
    fn rtc_skips_dead_words() {
        // Word 0 is read late; word 1 is overwritten immediately and
        // never read: RTC refreshes word 0 only.
        let trace = AccessTrace::new(
            1000.0,
            vec![
                op(900.0, 0, AccessKind::Read),
                op(50.0, 1, AccessKind::Write),
                op(60.0, 1, AccessKind::Write),
            ],
        );
        // Pulses at 100..900 for word 0 (9 pulses in (0, 900]).
        assert_eq!(trace.rtc_refresh_count(100.0), 9);
        assert_eq!(trace.word_count(), 2);
    }

    #[test]
    fn pulse_coinciding_with_read_counts_once() {
        let trace = AccessTrace::new(100.0, vec![op(50.0, 0, AccessKind::Read)]);
        // Pulse at exactly 50 recharges before the read; the earlier
        // pulse at 25 also sees the future read.
        assert_eq!(trace.rtc_refresh_count(25.0), 2);
        assert_eq!(trace.rtc_refresh_count(50.0), 1);
    }

    #[test]
    fn oracle_chains_across_reads_without_recharging() {
        // Reads at 150 and 290 with 100 µs retention: recharge at 100
        // (for the 150 read), then at 200 (for the 290 read).
        let trace = AccessTrace::new(
            300.0,
            vec![op(150.0, 0, AccessKind::Read), op(290.0, 0, AccessKind::Read)],
        );
        assert_eq!(trace.oracle_refresh_count(100.0), 2);
        // A write resets the charge for free.
        let trace = AccessTrace::new(
            300.0,
            vec![
                op(150.0, 0, AccessKind::Read),
                op(160.0, 0, AccessKind::Write),
                op(250.0, 0, AccessKind::Read),
            ],
        );
        assert_eq!(trace.oracle_refresh_count(100.0), 1);
    }

    #[test]
    fn rtc_covers_oracle_on_a_dense_trace() {
        let trace = AccessTrace::new(
            1000.0,
            (1..=10)
                .map(|i| op(i as f64 * 97.0, i % 3, AccessKind::Read))
                .chain((1..=5).map(|i| op(i as f64 * 181.0, i % 2, AccessKind::Write)))
                .collect(),
        );
        for (interval, retention) in [(45.0, 45.0), (45.0, 100.0), (90.0, 734.0)] {
            assert!(
                trace.rtc_refresh_count(interval) >= trace.oracle_refresh_count(retention),
                "interval {interval} retention {retention}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn ops_beyond_horizon_are_rejected() {
        AccessTrace::new(100.0, vec![op(101.0, 0, AccessKind::Read)]);
    }
}
