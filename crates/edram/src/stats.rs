//! Access counters for memory models.

use std::ops::AddAssign;

/// Counters accumulated by a memory model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Word reads.
    pub reads: u64,
    /// Word writes.
    pub writes: u64,
    /// Words refreshed.
    pub refresh_words: u64,
    /// Bits corrupted by retention failures (observed on reads/refreshes).
    pub faults: u64,
}

impl MemoryStats {
    /// Total word accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Folds these counters into the active telemetry session (if any)
    /// under `prefix` — `{prefix}.reads`, `.writes`, `.refresh_words`,
    /// `.faults`. Memory models are below the trace-worthy call
    /// granularity (a word access is nanoseconds), so stats are pushed in
    /// bulk at run boundaries instead of emitting per-access events.
    ///
    /// ```
    /// use rana_edram::stats::MemoryStats;
    ///
    /// let session = rana_trace::Session::start(rana_trace::TraceConfig::CountersOnly);
    /// let stats = MemoryStats { reads: 10, writes: 4, refresh_words: 2, faults: 1 };
    /// stats.trace_into("buffer");
    /// let report = session.finish();
    /// assert_eq!(report.counter("buffer.reads"), 10);
    /// assert_eq!(report.counter("buffer.faults"), 1);
    /// ```
    pub fn trace_into(&self, prefix: &str) {
        if !rana_trace::enabled() {
            return;
        }
        rana_trace::count(&format!("{prefix}.reads"), self.reads);
        rana_trace::count(&format!("{prefix}.writes"), self.writes);
        rana_trace::count(&format!("{prefix}.refresh_words"), self.refresh_words);
        rana_trace::count(&format!("{prefix}.faults"), self.faults);
    }
}

impl AddAssign for MemoryStats {
    fn add_assign(&mut self, rhs: Self) {
        self.reads += rhs.reads;
        self.writes += rhs.writes;
        self.refresh_words += rhs.refresh_words;
        self.faults += rhs.faults;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::EdramArray;
    use crate::buffer::UnifiedBuffer;
    use crate::retention::RetentionDistribution;

    #[test]
    fn accumulate() {
        let mut a = MemoryStats { reads: 1, writes: 2, refresh_words: 3, faults: 4 };
        a += MemoryStats { reads: 10, writes: 20, refresh_words: 30, faults: 40 };
        assert_eq!(a.reads, 11);
        assert_eq!(a.accesses(), 33);
        assert_eq!(a.refresh_words, 33);
        assert_eq!(a.faults, 44);
    }

    /// One "layer" against a bank allocation: write a word into each
    /// allocated bank, refresh the flagged banks, read the words back.
    /// Returns (writes, refreshed_words, reads) it performed.
    fn run_layer(
        mem: &mut EdramArray,
        buf: &UnifiedBuffer,
        (inw, outw, ww): (u64, u64, u64),
        t_us: f64,
    ) -> (u64, u64, u64) {
        let alloc = buf.allocate(inw, outw, ww).expect("layer fits");
        // The allocator hands out contiguous banks from 0.
        let live: Vec<usize> = (0..mem.num_banks() - alloc.unused_banks()).collect();
        for &b in &live {
            mem.write(b * mem.bank_words(), b as i16, t_us);
        }
        let flags = alloc.refresh_flags(|_| true);
        let mut refreshed = 0u64;
        for (b, &on) in flags.iter().enumerate() {
            if on {
                refreshed += mem.refresh_bank(b, t_us + 20.0) as u64;
            }
        }
        for &b in &live {
            mem.read(b * mem.bank_words(), t_us + 40.0);
        }
        (live.len() as u64, refreshed, live.len() as u64)
    }

    #[test]
    fn tallies_survive_bank_repartitioning() {
        // Two layers with different bank splits over the same array: the
        // counters must accumulate across the repartitioning, exactly as
        // the totals of the per-layer work.
        let buf = UnifiedBuffer::new(8, 128);
        let mut mem = EdramArray::new(8, 128, RetentionDistribution::kong2008(), 9);
        let (w1, r1, rd1) = run_layer(&mut mem, &buf, (200, 300, 100), 0.0);
        let mid = *mem.stats();
        assert_eq!((mid.writes, mid.refresh_words, mid.reads), (w1, r1, rd1));
        let (w2, r2, rd2) = run_layer(&mut mem, &buf, (500, 100, 150), 100.0);
        let end = *mem.stats();
        assert_eq!(end.writes, w1 + w2);
        assert_eq!(end.refresh_words, r1 + r2);
        assert_eq!(end.reads, rd1 + rd2);
        assert_eq!(end.accesses(), end.reads + end.writes);
        // The two layers allocated different bank counts, so the tallies
        // really crossed a repartitioning.
        assert_ne!((w1, r1), (w2, r2));
    }

    #[test]
    fn reset_zeroes_counters_between_runs_but_keeps_data() {
        let buf = UnifiedBuffer::new(8, 128);
        let mut mem = EdramArray::new(8, 128, RetentionDistribution::kong2008(), 9);
        run_layer(&mut mem, &buf, (200, 300, 100), 0.0);
        let first = *mem.stats();
        assert!(first.accesses() > 0 && first.refresh_words > 0);

        mem.reset_stats();
        assert_eq!(*mem.stats(), MemoryStats::default());
        // Stored data is untouched by a counter reset: bank 0's word is
        // still readable (and that read is the only thing counted now).
        assert_eq!(mem.read(0, 60.0), 0);
        assert_eq!(mem.stats().reads, 1);
        assert_eq!(mem.stats().writes, 0);

        // An identical second run over the reset counters reproduces the
        // first run's tallies exactly (the counters are deterministic).
        mem.reset_stats();
        run_layer(&mut mem, &buf, (200, 300, 100), 200.0);
        let second = *mem.stats();
        assert_eq!(
            (second.reads, second.writes, second.refresh_words),
            (first.reads, first.writes, first.refresh_words)
        );
    }
}
