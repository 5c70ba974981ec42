//! One simulated die of the fleet.
//!
//! Each die is a whole RANA accelerator with its own lumped-RC thermal
//! state, refresh-divider setting, FIFO request queue and warm-schedule
//! set. The fleet simulator owns the thermal plant and the event clock;
//! the die holds only state — every transition happens in
//! [`FleetSim`](crate::FleetSim)'s event handlers so that ordering is
//! fixed by the DES core, never by map iteration.

use rana_core::energy::EnergyBreakdown;
use rana_des::EventId;
use std::collections::VecDeque;

/// One request in flight through the fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetRequest {
    /// Tenant (mix index) the request belongs to.
    pub tenant: usize,
    /// Arrival time at the fleet front door, µs (survives rerouting, so
    /// latency always counts from first arrival).
    pub arrival_us: f64,
    /// Dispatch deadline, µs.
    pub deadline_us: f64,
}

/// Die availability state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DieState {
    /// Accepting and executing work.
    Up,
    /// Graceful drain: finishing the in-flight batch, accepting nothing;
    /// becomes [`DieState::Down`] at batch completion.
    Draining,
    /// Out of the fleet (crashed or drained) until a rejoin.
    Down,
}

/// The batch a die is currently executing, with everything needed to
/// account it at completion — or to charge the wasted share of it if the
/// die crashes mid-batch.
#[derive(Debug, Clone)]
pub struct InFlight {
    /// The batched requests (all one tenant).
    pub requests: Vec<FleetRequest>,
    /// Dispatch instant, µs.
    pub dispatch_us: f64,
    /// Total batch execution time (including any cold-schedule penalty).
    pub time_us: f64,
    /// Batch Eq. 14 energy (weight reloads amortized).
    pub energy: EnergyBreakdown,
    /// Dissipated accelerator power over the batch, W.
    pub power_w: f64,
    /// Words refreshed over the batch.
    pub refresh_words: u64,
    /// The scheduled completion event (cancelled on crash).
    pub completion: EventId,
}

/// Mutable state of one die.
#[derive(Debug)]
pub struct Die {
    /// Availability state.
    pub state: DieState,
    /// FIFO queue of admitted requests (all tenants interleaved).
    pub queue: VecDeque<FleetRequest>,
    /// Junction temperature at `last_update_us`, °C.
    pub temp_c: f64,
    /// Instant `temp_c` was last integrated to, µs.
    pub last_update_us: f64,
    /// Currently programmed refresh clock-divider ratio.
    pub divider_ratio: u64,
    /// The modeled on-die schedule cache: the distinct `(tenant, divider
    /// ratio)` pairs this die has already scheduled, in first-use order (a
    /// handful per tenant, so a scan beats hashing). A miss costs the
    /// cold-schedule penalty; a crash clears the set, a drain keeps it.
    pub warm: Vec<(usize, u64)>,
    /// The executing batch, if any.
    pub in_flight: Option<InFlight>,
    /// The last completed batch's request buffer, emptied and kept for
    /// the next dispatch so steady-state batching allocates nothing.
    pub(crate) spare_batch: Vec<FleetRequest>,
    /// Requests served to completion.
    pub served: u64,
    /// Batches completed.
    pub batches: u64,
    /// Divider retunes.
    pub retunes: u64,
    /// Batches that paid the cold-schedule penalty.
    pub cold_schedules: u64,
    /// Peak junction temperature, °C.
    pub peak_temp_c: f64,
    /// Eq. 14 energy dissipated by this die (completed work only).
    pub energy: EnergyBreakdown,
}

impl Die {
    /// A fresh die at ambient temperature with the nominal divider.
    pub fn new(ambient_c: f64, nominal_ratio: u64) -> Self {
        Self {
            state: DieState::Up,
            queue: VecDeque::new(),
            temp_c: ambient_c,
            last_update_us: 0.0,
            divider_ratio: nominal_ratio,
            warm: Vec::new(),
            in_flight: None,
            spare_batch: Vec::new(),
            served: 0,
            batches: 0,
            retunes: 0,
            cold_schedules: 0,
            peak_temp_c: ambient_c,
            energy: EnergyBreakdown::default(),
        }
    }

    /// Whether the router may queue new work here.
    pub fn accepting(&self) -> bool {
        self.state == DieState::Up
    }

    /// Router load signal: queued plus executing requests.
    pub fn load(&self) -> usize {
        self.queue.len() + self.in_flight.as_ref().map_or(0, |b| b.requests.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_die_is_idle_and_accepting() {
        let d = Die::new(45.0, 9000);
        assert!(d.accepting());
        assert_eq!(d.load(), 0);
        assert_eq!(d.temp_c, 45.0);
        assert!(d.warm.is_empty());
    }
}
