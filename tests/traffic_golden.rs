//! Golden digests of the arrival generators.
//!
//! `generate` (one shared generator) and `generate_per_tenant` (one
//! stream per tenant) feed every serving and fleet scenario, so a change
//! to either — draw order, float expression order, merge tie-breaking —
//! shifts every committed report. This suite pins the exact output of
//! both for Poisson and bursty (MMPP-2) traffic across three seeds and
//! two horizons: each case's arrival count and an FNV-1a digest over
//! every `(tenant, arrival_us bits)` pair.

use rana_repro::serve::traffic::{generate, generate_per_tenant, Arrival};
use rana_repro::serve::TrafficModel;

/// The tenant mix every case draws over.
const WEIGHTS: [f64; 3] = [0.5, 0.3, 0.2];

fn poisson() -> TrafficModel {
    TrafficModel::Poisson { rate_rps: 2_000.0 }
}

fn bursty() -> TrafficModel {
    TrafficModel::Bursty {
        rate_rps: 2_000.0,
        burst_factor: 4.0,
        burst_fraction: 0.2,
        mean_burst_us: 20_000.0,
    }
}

/// FNV-1a (64-bit) over each arrival's tenant index and time bits, both
/// little-endian.
fn digest(arrivals: &[Arrival]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in arrivals {
        for b in
            (a.tenant as u64).to_le_bytes().into_iter().chain(a.arrival_us.to_bits().to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// `(generator, model, seed, horizon_us, arrivals, digest)`: both
/// generators × Poisson/bursty × three seeds × two horizons, recorded from
/// the up-front generators the lazy arrival streams replaced.
const GOLDEN: [(&str, &str, u64, f64, usize, u64); 24] = [
    ("shared", "poisson", 1, 1_000_000.0, 2018, 0xf5869b03c085d6f8),
    ("shared", "poisson", 1, 3_000_000.0, 5830, 0xb4c2f5d4395223d3),
    ("shared", "poisson", 17, 1_000_000.0, 1974, 0x8db72adf013084db),
    ("shared", "poisson", 17, 3_000_000.0, 5971, 0x4df523343ae7b06c),
    ("shared", "poisson", 2024, 1_000_000.0, 1960, 0x29f95cd026b8a1d8),
    ("shared", "poisson", 2024, 3_000_000.0, 6036, 0x8e362e7ac2cf0b9b),
    ("shared", "bursty", 1, 1_000_000.0, 1929, 0x572e192c21ddf3b8),
    ("shared", "bursty", 1, 3_000_000.0, 6921, 0x947a700486ee595d),
    ("shared", "bursty", 17, 1_000_000.0, 1838, 0x2dd58468371fd6d7),
    ("shared", "bursty", 17, 3_000_000.0, 5631, 0x5f423a361f6e0891),
    ("shared", "bursty", 2024, 1_000_000.0, 1159, 0x660b729ca48c1656),
    ("shared", "bursty", 2024, 3_000_000.0, 3709, 0xab52878014ee7cca),
    ("per-tenant", "poisson", 1, 1_000_000.0, 1970, 0x1fcdb727a0da52ca),
    ("per-tenant", "poisson", 1, 3_000_000.0, 5897, 0x953dc4c3866e273d),
    ("per-tenant", "poisson", 17, 1_000_000.0, 1983, 0x992dbaec02204f04),
    ("per-tenant", "poisson", 17, 3_000_000.0, 6047, 0xf1086d9b6620b80b),
    ("per-tenant", "poisson", 2024, 1_000_000.0, 1989, 0x4f5c17cda228776f),
    ("per-tenant", "poisson", 2024, 3_000_000.0, 5941, 0x26efc064ad3f2fb0),
    ("per-tenant", "bursty", 1, 1_000_000.0, 1694, 0xc4eef86e429805e9),
    ("per-tenant", "bursty", 1, 3_000_000.0, 5207, 0x54ff4d1caec4850a),
    ("per-tenant", "bursty", 17, 1_000_000.0, 2151, 0x46dfca001bd0a7a9),
    ("per-tenant", "bursty", 17, 3_000_000.0, 6010, 0x6f844ee543555026),
    ("per-tenant", "bursty", 2024, 1_000_000.0, 1716, 0x496ec1b3ef2dd044),
    ("per-tenant", "bursty", 2024, 3_000_000.0, 5423, 0xef1ddc3f2d149038),
];

#[test]
fn generators_reproduce_their_golden_digests() {
    let mismatches: Vec<String> = GOLDEN
        .iter()
        .filter_map(|&(generator, model, seed, horizon_us, len, fnv)| {
            let model = if model == "poisson" { poisson() } else { bursty() };
            let arrivals = match generator {
                "shared" => generate(&WEIGHTS, model, horizon_us, seed),
                _ => generate_per_tenant(&WEIGHTS, model, horizon_us, seed),
            };
            let got = (arrivals.len(), digest(&arrivals));
            (got != (len, fnv)).then(|| {
                format!(
                    "(\"{generator}\", \"{}\", {seed}, {horizon_us:?}, {}, {:#018x}),",
                    model.label(),
                    got.0,
                    got.1
                )
            })
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} arrival streams changed; got:\n{}",
        mismatches.len(),
        GOLDEN.len(),
        mismatches.join("\n")
    );
}
