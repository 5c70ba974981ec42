//! Deterministic request-stream generation: Poisson and Markov-modulated
//! bursty arrivals over a weighted tenant mix.
//!
//! Streams are drawn lazily from a seeded PRNG: the simulators pull one
//! arrival at a time from an [`Arrivals`] iterator and keep a single
//! pending arrival event, so the event heap never holds the whole
//! horizon. [`generate`] and [`generate_per_tenant`] collect the same
//! iterator into a `Vec`. The
//! serving loop never draws randomness itself, so two runs with the same
//! seed see the same arrivals in the same order (the byte-determinism
//! contract of `results/BENCH_serve.json`).
//!
//! Two stream modes exist ([`ArrivalStreams`]):
//!
//! * [`ArrivalStreams::Shared`] — one generator draws inter-arrival times
//!   and tenant picks alternately ([`generate`]). This is the legacy
//!   mode, and [`Server`](crate::Server) always uses it because the
//!   committed `baselines/BENCH_serve.json` was recorded under it. Its
//!   flaw: adding a tenant re-deals every draw, so *every* tenant's
//!   arrival sequence shifts.
//! * [`ArrivalStreams::PerTenant`] — tenant `i` draws from its own
//!   [`rana_des::Streams`] stream with id `i` ([`generate_per_tenant`]),
//!   so a tenant's arrival process is a pure function of `(master seed,
//!   tenant index, its own weight)`. Adding, removing or re-weighting
//!   *other* tenants leaves it untouched. The fleet simulator uses this
//!   mode.

use rana_des::Streams;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// One request arrival, before admission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Index into the tenant mix.
    pub tenant: usize,
    /// Arrival time, µs since the start of the run.
    pub arrival_us: f64,
}

/// The arrival process of the offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficModel {
    /// Memoryless arrivals at a fixed mean rate.
    Poisson {
        /// Mean offered load, requests per second.
        rate_rps: f64,
    },
    /// A two-state Markov-modulated Poisson process: bursts at
    /// `burst_factor ×` the mean rate alternate with calm phases whose
    /// rate is scaled down so the long-run average stays `rate_rps`.
    Bursty {
        /// Long-run mean offered load, requests per second.
        rate_rps: f64,
        /// Burst-phase rate multiplier (`> 1`).
        burst_factor: f64,
        /// Long-run fraction of time spent bursting (`0 < f < 1`, and
        /// `f · burst_factor < 1` so the calm rate stays positive).
        burst_fraction: f64,
        /// Mean burst-phase dwell time, µs (exponentially distributed).
        mean_burst_us: f64,
    },
}

impl TrafficModel {
    /// Long-run mean offered load, requests per second.
    pub fn rate_rps(&self) -> f64 {
        match *self {
            TrafficModel::Poisson { rate_rps } | TrafficModel::Bursty { rate_rps, .. } => rate_rps,
        }
    }

    /// Stable lowercase label (used in JSON and CSV output).
    pub fn label(&self) -> &'static str {
        match self {
            TrafficModel::Poisson { .. } => "poisson",
            TrafficModel::Bursty { .. } => "bursty",
        }
    }

    /// Same process shape at a different mean rate.
    pub fn with_rate(&self, rate_rps: f64) -> TrafficModel {
        match *self {
            TrafficModel::Poisson { .. } => TrafficModel::Poisson { rate_rps },
            TrafficModel::Bursty { burst_factor, burst_fraction, mean_burst_us, .. } => {
                TrafficModel::Bursty { rate_rps, burst_factor, burst_fraction, mean_burst_us }
            }
        }
    }
}

/// How the arrival stream splits its randomness across tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalStreams {
    /// One shared generator for the whole mix (legacy; the committed
    /// serving baselines were recorded in this mode).
    Shared,
    /// Independent per-tenant streams split off the master seed by the
    /// [`rana_des::stream_seed`] rule: tenants never perturb each other.
    PerTenant,
}

/// An exponential draw with the given mean (inverse-CDF of `1 − u`).
fn exp_draw(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.random();
    -(1.0 - u).ln() * mean
}

/// Picks a tenant by cumulative weight.
fn pick_tenant(rng: &mut StdRng, weights: &[f64], total_weight: f64) -> usize {
    let u: f64 = rng.random();
    let mut acc = 0.0;
    for (i, w) in weights.iter().enumerate() {
        acc += w / total_weight;
        if u < acc {
            return i;
        }
    }
    weights.len() - 1
}

/// Panics on an empty or non-positive weight mix, a non-positive rate or
/// horizon, or bursty parameters outside their documented ranges.
fn validate(weights: &[f64], model: TrafficModel, horizon_us: f64) {
    assert!(!weights.is_empty(), "tenant mix must not be empty");
    assert!(weights.iter().all(|&w| w > 0.0), "tenant weights must be positive");
    assert!(model.rate_rps() > 0.0, "offered load must be positive");
    assert!(horizon_us > 0.0, "horizon must be positive");
    if let TrafficModel::Bursty { burst_factor, burst_fraction, mean_burst_us, .. } = model {
        assert!(burst_factor > 1.0, "burst factor must exceed 1, got {burst_factor}");
        assert!(
            burst_fraction > 0.0 && burst_fraction < 1.0,
            "burst fraction must be in (0, 1), got {burst_fraction}"
        );
        assert!(
            burst_fraction * burst_factor < 1.0,
            "burst fraction x factor must stay under 1 so the calm rate is positive"
        );
        assert!(mean_burst_us > 0.0, "mean burst dwell must be positive");
    }
}

/// The shape-specific state of a [`Process`].
#[derive(Debug, Clone)]
enum Shape {
    Poisson {
        gap_us: f64,
    },
    /// Two-state MMPP; index 0 is the calm phase, 1 the burst phase.
    Bursty {
        gap_us: [f64; 2],
        dwell_us: [f64; 2],
        bursting: bool,
        phase_end: f64,
    },
}

/// Whose request each arrival of a [`Process`] is.
#[derive(Debug, Clone)]
enum Assign {
    /// Every arrival is this tenant's (per-tenant streams).
    Fixed(usize),
    /// Each arrival draws its tenant by cumulative weight right after its
    /// gap (the shared stream).
    Pick { weights: Vec<f64>, total_weight: f64 },
}

/// One arrival process over `[0, horizon_us)`, drawn lazily from its own
/// generator — the single Poisson / MMPP-2 loop behind both stream modes.
///
/// The draw order is part of the determinism contract: a bursty process
/// draws its first calm dwell when built, then one exponential gap per
/// step and one dwell per phase switch; a shared stream draws each
/// arrival's tenant pick right after its gap.
#[derive(Debug, Clone)]
struct Process {
    rng: StdRng,
    horizon_us: f64,
    t: f64,
    shape: Shape,
    assign: Assign,
}

impl Process {
    fn new(model: TrafficModel, horizon_us: f64, mut rng: StdRng, assign: Assign) -> Self {
        let shape = match model {
            TrafficModel::Poisson { rate_rps } => Shape::Poisson { gap_us: 1e6 / rate_rps },
            TrafficModel::Bursty { rate_rps, burst_factor, burst_fraction, mean_burst_us } => {
                let burst_rate = rate_rps * burst_factor;
                let calm_rate =
                    rate_rps * (1.0 - burst_fraction * burst_factor) / (1.0 - burst_fraction);
                let mean_calm_us = mean_burst_us * (1.0 - burst_fraction) / burst_fraction;
                Shape::Bursty {
                    gap_us: [1e6 / calm_rate, 1e6 / burst_rate],
                    dwell_us: [mean_calm_us, mean_burst_us],
                    bursting: false,
                    phase_end: exp_draw(&mut rng, mean_calm_us),
                }
            }
        };
        Self { rng, horizon_us, t: 0.0, shape, assign }
    }

    /// The next arrival, or `None` once the horizon is reached.
    fn next_arrival(&mut self) -> Option<Arrival> {
        match &mut self.shape {
            Shape::Poisson { gap_us } => self.t += exp_draw(&mut self.rng, *gap_us),
            Shape::Bursty { gap_us, dwell_us, bursting, phase_end } => loop {
                let dt = exp_draw(&mut self.rng, gap_us[usize::from(*bursting)]);
                if self.t + dt < *phase_end {
                    self.t += dt;
                    break;
                }
                // No arrival in the rest of this phase (memorylessness:
                // restart the inter-arrival clock in the next phase).
                self.t = *phase_end;
                if self.t >= self.horizon_us {
                    return None;
                }
                *bursting = !*bursting;
                *phase_end = self.t + exp_draw(&mut self.rng, dwell_us[usize::from(*bursting)]);
            },
        }
        if self.t >= self.horizon_us {
            return None;
        }
        let tenant = match &self.assign {
            Assign::Fixed(tenant) => *tenant,
            Assign::Pick { weights, total_weight } => {
                pick_tenant(&mut self.rng, weights, *total_weight)
            }
        };
        Some(Arrival { tenant, arrival_us: self.t })
    }
}

/// A lazy arrival stream over `[0, horizon_us)`, in time order with ties
/// broken by tenant index. It holds one pending arrival per generator,
/// never the horizon: the simulators pull one arrival at a time, and
/// [`generate`] / [`generate_per_tenant`] collect it.
#[derive(Debug, Clone)]
pub struct Arrivals {
    /// Each generator's process and its next arrival (`None` once past the
    /// horizon): one tenant-picking process for
    /// [`ArrivalStreams::Shared`], one per tenant for
    /// [`ArrivalStreams::PerTenant`], merged by `(time, tenant)`.
    streams: Vec<(Process, Option<Arrival>)>,
}

impl Arrivals {
    /// The `mode` stream under `seed` (the master seed of per-tenant
    /// streams); [`generate`] and [`generate_per_tenant`] document what
    /// each mode draws.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-positive weight mix, a non-positive rate
    /// or horizon, or bursty parameters outside their documented ranges.
    pub fn new(
        mode: ArrivalStreams,
        weights: &[f64],
        model: TrafficModel,
        horizon_us: f64,
        seed: u64,
    ) -> Self {
        validate(weights, model, horizon_us);
        let with_head = |mut process: Process| {
            let head = process.next_arrival();
            (process, head)
        };
        let streams = match mode {
            ArrivalStreams::Shared => {
                let assign =
                    Assign::Pick { weights: weights.to_vec(), total_weight: weights.iter().sum() };
                vec![with_head(Process::new(
                    model,
                    horizon_us,
                    StdRng::seed_from_u64(seed),
                    assign,
                ))]
            }
            ArrivalStreams::PerTenant => {
                let seeds = Streams::new(seed);
                (weights.iter().enumerate())
                    .map(|(i, &w)| {
                        let tenant_model = model.with_rate(model.rate_rps() * w);
                        let rng = seeds.rng(i as u64);
                        with_head(Process::new(tenant_model, horizon_us, rng, Assign::Fixed(i)))
                    })
                    .collect()
            }
        };
        Self { streams }
    }
}

impl Iterator for Arrivals {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        // `min_by` keeps the first of equal minima: the lowest tenant.
        let (i, _) = (self.streams.iter().enumerate())
            .filter_map(|(i, (_, head))| head.map(|a| (i, a.arrival_us)))
            .min_by(|a, b| a.1.total_cmp(&b.1))?;
        let (process, head) = &mut self.streams[i];
        std::mem::replace(head, process.next_arrival())
    }
}

/// Generates the full shared-generator arrival stream over
/// `[0, horizon_us)`, in time order: one generator draws each
/// inter-arrival gap, then that arrival's tenant pick.
///
/// # Panics
///
/// Panics on an empty or non-positive weight mix, a non-positive rate or
/// horizon, or bursty parameters outside their documented ranges.
pub fn generate(weights: &[f64], model: TrafficModel, horizon_us: f64, seed: u64) -> Vec<Arrival> {
    Arrivals::new(ArrivalStreams::Shared, weights, model, horizon_us, seed).collect()
}

/// Generates the arrival stream with independent per-tenant RNG streams,
/// in time order (ties broken by tenant index).
///
/// Tenant `i` draws from stream `i` of [`rana_des::Streams`] over
/// `master_seed` and runs the process shape of `model` at rate
/// `model.rate_rps() × weights[i]` — weights act as *absolute* rate
/// multipliers here (a mix whose weights sum to 1 keeps the long-run
/// total at `rate_rps`). Because nothing about tenant `i`'s draws depends
/// on the rest of the mix, adding, dropping or re-weighting another
/// tenant reproduces `i`'s arrival sequence exactly — the isolation the
/// shared-stream [`generate`] cannot give.
///
/// # Panics
///
/// Panics on the same invalid inputs as [`generate`].
pub fn generate_per_tenant(
    weights: &[f64],
    model: TrafficModel,
    horizon_us: f64,
    master_seed: u64,
) -> Vec<Arrival> {
    Arrivals::new(ArrivalStreams::PerTenant, weights, model, horizon_us, master_seed).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_stream_is_deterministic_and_ordered() {
        let w = [0.5, 0.3, 0.2];
        let m = TrafficModel::Poisson { rate_rps: 500.0 };
        let a = generate(&w, m, 1e6, 42);
        let b = generate(&w, m, 1e6, 42);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for pair in a.windows(2) {
            assert!(pair[1].arrival_us >= pair[0].arrival_us);
        }
        let c = generate(&w, m, 1e6, 43);
        assert_ne!(a, c, "different seeds must draw different streams");
    }

    #[test]
    fn poisson_rate_is_approximately_honored() {
        let m = TrafficModel::Poisson { rate_rps: 1000.0 };
        let a = generate(&[1.0], m, 4e6, 7);
        // 4 s at 1000 rps -> ~4000 arrivals; Poisson sigma ~ 63.
        assert!((3600..=4400).contains(&a.len()), "got {}", a.len());
    }

    #[test]
    fn tenant_mix_tracks_weights() {
        let w = [0.7, 0.3];
        let a = generate(&w, TrafficModel::Poisson { rate_rps: 2000.0 }, 2e6, 11);
        let first = a.iter().filter(|r| r.tenant == 0).count() as f64 / a.len() as f64;
        assert!((first - 0.7).abs() < 0.05, "tenant-0 share {first}");
    }

    /// The satellite fix this mode exists for: a tenant's arrival
    /// sequence is a pure function of its own (stream, weight) — the rest
    /// of the mix cannot perturb it.
    #[test]
    fn per_tenant_streams_isolate_tenants_from_mix_changes() {
        let m = TrafficModel::Poisson { rate_rps: 800.0 };
        let two = generate_per_tenant(&[0.5, 0.3], m, 2e6, 9);
        let three = generate_per_tenant(&[0.5, 0.3, 0.2], m, 2e6, 9);
        for tenant in 0..2usize {
            let a: Vec<f64> =
                two.iter().filter(|r| r.tenant == tenant).map(|r| r.arrival_us).collect();
            let b: Vec<f64> =
                three.iter().filter(|r| r.tenant == tenant).map(|r| r.arrival_us).collect();
            assert_eq!(a, b, "tenant {tenant} perturbed by adding a third tenant");
            assert!(!a.is_empty());
        }
        // Re-weighting tenant 1 must not move tenant 0 either.
        let reweighted = generate_per_tenant(&[0.5, 0.9], m, 2e6, 9);
        let a: Vec<f64> = two.iter().filter(|r| r.tenant == 0).map(|r| r.arrival_us).collect();
        let b: Vec<f64> =
            reweighted.iter().filter(|r| r.tenant == 0).map(|r| r.arrival_us).collect();
        assert_eq!(a, b, "tenant 0 perturbed by re-weighting tenant 1");
        // The shared legacy mode does NOT have this property (that is the
        // bug being fixed): same mix change, different tenant-0 sequence.
        let shared_two = generate(&[0.5, 0.3], m, 2e6, 9);
        let shared_three = generate(&[0.5, 0.3, 0.2], m, 2e6, 9);
        let sa: Vec<f64> =
            shared_two.iter().filter(|r| r.tenant == 0).map(|r| r.arrival_us).collect();
        let sb: Vec<f64> =
            shared_three.iter().filter(|r| r.tenant == 0).map(|r| r.arrival_us).collect();
        assert_ne!(sa, sb, "shared mode unexpectedly isolates tenants");
    }

    #[test]
    fn per_tenant_streams_are_ordered_deterministic_and_rate_faithful() {
        let m = TrafficModel::Poisson { rate_rps: 1000.0 };
        let a = generate_per_tenant(&[0.6, 0.4], m, 4e6, 21);
        let b = generate_per_tenant(&[0.6, 0.4], m, 4e6, 21);
        assert_eq!(a, b);
        for pair in a.windows(2) {
            assert!(pair[1].arrival_us >= pair[0].arrival_us);
        }
        // Weights are absolute rate multipliers: 0.6 + 0.4 keeps 1000 rps.
        let rate = a.len() as f64 / 4.0;
        assert!((900.0..=1100.0).contains(&rate), "long-run rate {rate}");
        let first = a.iter().filter(|r| r.tenant == 0).count() as f64 / a.len() as f64;
        assert!((first - 0.6).abs() < 0.05, "tenant-0 share {first}");
        assert_ne!(a, generate_per_tenant(&[0.6, 0.4], m, 4e6, 22));
    }

    #[test]
    fn per_tenant_bursty_clumps_too() {
        let m = TrafficModel::Bursty {
            rate_rps: 1000.0,
            burst_factor: 4.0,
            burst_fraction: 0.2,
            mean_burst_us: 20_000.0,
        };
        let a = generate_per_tenant(&[0.7, 0.3], m, 8e6, 3);
        let rate = a.len() as f64 / 8.0;
        assert!((700.0..=1300.0).contains(&rate), "long-run rate {rate}");
        let mut counts = vec![0usize; 800];
        for r in &a {
            counts[(r.arrival_us / 10_000.0) as usize] += 1;
        }
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        let var =
            counts.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / counts.len() as f64;
        assert!(var > 1.5 * mean, "var {var} vs mean {mean}: not bursty");
    }

    #[test]
    fn bursty_keeps_the_long_run_rate_but_clumps() {
        let m = TrafficModel::Bursty {
            rate_rps: 1000.0,
            burst_factor: 4.0,
            burst_fraction: 0.2,
            mean_burst_us: 20_000.0,
        };
        let a = generate(&[1.0], m, 8e6, 3);
        let rate = a.len() as f64 / 8.0;
        assert!((700.0..=1300.0).contains(&rate), "long-run rate {rate}");
        // Clumping: the variance of arrivals per 10 ms window exceeds the
        // Poisson variance (= mean) substantially.
        let mut counts = vec![0usize; 800];
        for r in &a {
            counts[(r.arrival_us / 10_000.0) as usize] += 1;
        }
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        let var =
            counts.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / counts.len() as f64;
        assert!(var > 1.5 * mean, "var {var} vs mean {mean}: not bursty");
    }
}
