//! Persistence guarantees of the content-addressed schedule store:
//! randomized serialize → deserialize round trips are bit-identical, a
//! bumped energy-model version hash rejects stale stores, corruption is
//! detected by the trailing checksum, and serve and fleet runs
//! warm-started from a persistent store produce byte-identical reports to
//! cold runs.

use proptest::collection::vec;
use proptest::prelude::*;
use rana_repro::accel::{LayerSim, Lifetimes, Pattern, Storage, Tiling, Traffic};
use rana_repro::core::designs::Design;
use rana_repro::core::energy::EnergyBreakdown;
use rana_repro::core::evaluate::Evaluator;
use rana_repro::core::scheduler::LayerSchedule;
use rana_repro::core::store::{
    model_version_hash, precompile, PrecompileSpec, ScheduleStore, StoreEntry, StoreError,
};
use rana_repro::fleet::{FleetConfig, FleetSim, RouterPolicy};
use rana_repro::serve::{ServeConfig, Server, TenantSpec, TrafficModel};
use rana_repro::zoo;

/// A store precompiled for AlexNet on the paper design point (small but
/// real: base schedules plus hedged rung reschedules).
fn alexnet_store(spec: PrecompileSpec) -> ScheduleStore {
    let eval = Evaluator::paper_platform();
    let mut store = ScheduleStore::new();
    precompile(&eval, &[zoo::alexnet()], &spec, &mut store);
    assert!(!store.is_empty());
    store
}

/// Strategy for layer names that stress every `json_string` escape class:
/// quotes, backslashes, control characters, and multi-byte UTF-8.
fn layer_name() -> impl Strategy<Value = String> {
    vec(0u32..128, 0..12).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| match c % 8 {
                0 => '"',
                1 => '\\',
                2 => '\n',
                3 => '\t',
                4 => '\u{1}',
                5 => 'é',
                6 => '層',
                _ => char::from(b'a' + (c % 26) as u8),
            })
            .collect()
    })
}

/// Strategy for one synthetic store entry. Floats stay finite (entry
/// equality is `PartialEq`); byte-exactness over the full bit range is
/// separately guaranteed by writing `f64::to_bits`.
fn entry() -> impl Strategy<Value = StoreEntry> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), -1e30f64..1e30),
        (0u32..4, any::<u64>()),
        (layer_name(), 0u32..3, any::<u64>()),
        vec(-1e30f64..1e30, 10..11),
        vec(0u64..1 << 48, 21..22),
    )
        .prop_map(
            |((key, layer_fp, ctx_fp, interval_us), (sk, sp), (layer, pat, rw), f, u)| StoreEntry {
                key,
                layer_fp,
                ctx_fp,
                interval_us,
                strategy: (sk as u8, sp),
                schedule: LayerSchedule {
                    sim: LayerSim {
                        layer,
                        pattern: [Pattern::Id, Pattern::Od, Pattern::Wd][pat as usize],
                        tiling: Tiling {
                            tm: u[0] as usize,
                            tn: u[1] as usize,
                            tr: u[2] as usize,
                            tc: u[3] as usize,
                        },
                        cycles: u[4],
                        time_us: f[0],
                        macs: u[5],
                        utilization: f[1],
                        storage: Storage {
                            input_words: u[6],
                            output_words: u[7],
                            weight_words: u[8],
                        },
                        fits_buffer: u[9] % 2 == 0,
                        lifetimes: Lifetimes {
                            input_us: f[2],
                            output_us: f[3],
                            weight_us: f[4],
                            output_rewrite_us: f[5],
                            layer_us: f[6],
                        },
                        traffic: Traffic {
                            dram_input_loads: u[10],
                            dram_weight_loads: u[11],
                            dram_output_stores: u[12],
                            dram_partial_stores: u[13],
                            dram_partial_loads: u[14],
                            buf_input_reads: u[15],
                            buf_weight_reads: u[16],
                            buf_output_writes: u[17],
                            buf_output_reads: u[18],
                        },
                    },
                    refresh_words: rw,
                    energy: EnergyBreakdown {
                        computing_j: f[7],
                        buffer_j: f[8],
                        refresh_j: f[9],
                        offchip_j: 0.0,
                    },
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any collection of synthetic entries round-trips through the JSONL
    /// form to an equal store, and re-serialization is bit-identical.
    #[test]
    fn randomized_entries_round_trip_bit_identically(entries in vec(entry(), 0..8)) {
        let mut store = ScheduleStore::new();
        for e in &entries {
            store.insert(e.clone());
        }
        let bytes = store.to_bytes();
        let restored = ScheduleStore::from_bytes(&bytes)
            .map_err(|e| TestCaseError::Fail(format!("round trip failed: {e}")))?;
        prop_assert_eq!(&restored, &store);
        prop_assert_eq!(restored.to_bytes(), bytes, "re-serialization must be bit-identical");
    }

    /// Flipping any single byte of the serialized form is detected: the
    /// load reports corruption (or a version mismatch when the flip lands
    /// in the header's version/hash digits) — never a silently wrong store.
    #[test]
    fn any_single_byte_flip_is_rejected(entries in vec(entry(), 1..4), pos_frac in 0.0f64..1.0) {
        let mut store = ScheduleStore::new();
        for e in &entries {
            store.insert(e.clone());
        }
        let mut bytes = store.to_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 0x01;
        match ScheduleStore::from_bytes(&bytes) {
            Err(_) => {}
            Ok(reloaded) => {
                // A flip inside a layer-name string can survive the parse;
                // the checksum still catches it, so this arm is unreachable.
                prop_assert!(false, "flipped byte at {pos} loaded as {} entries", reloaded.len());
            }
        }
    }
}

#[test]
fn precompiled_store_round_trips_and_matches_on_disk() {
    let store = alexnet_store(PrecompileSpec {
        ladder_octaves: 1,
        ladder_steps_per_octave: 2,
        ..PrecompileSpec::default()
    });
    let bytes = store.to_bytes();
    let restored = ScheduleStore::from_bytes(&bytes).expect("round trip");
    assert_eq!(restored, store);

    let path = std::env::temp_dir().join(format!("rana_store_{}.jsonl", std::process::id()));
    store.save(&path).expect("save");
    let loaded = ScheduleStore::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, store);
    assert_eq!(loaded.to_bytes(), bytes);
}

#[test]
fn bumped_model_version_hash_rejects_stale_stores() {
    let store = alexnet_store(PrecompileSpec {
        ladder_octaves: 1,
        ladder_steps_per_octave: 1,
        ..PrecompileSpec::default()
    });
    // A store written by a build whose energy model hashed differently.
    let stale = store.to_bytes_with_hash(model_version_hash() ^ 0xdead_beef);
    match ScheduleStore::from_bytes(&stale) {
        Err(StoreError::VersionMismatch { found, expected }) => {
            assert_eq!(found, model_version_hash() ^ 0xdead_beef);
            assert_eq!(expected, model_version_hash());
        }
        other => panic!("stale store must be a version mismatch, got {other:?}"),
    }
    // Symmetric: this build's bytes against a future build's hash.
    match ScheduleStore::from_bytes_with_hash(&store.to_bytes(), model_version_hash() ^ 1) {
        Err(StoreError::VersionMismatch { .. }) => {}
        other => panic!("future build must reject, got {other:?}"),
    }
    // Truncation loses the checksum line.
    let bytes = store.to_bytes();
    assert!(matches!(
        ScheduleStore::from_bytes(&bytes[..bytes.len() - 2]),
        Err(StoreError::Corrupt(_))
    ));
}

/// Warm-starting from a persistent store must not change a single byte of
/// serving output: preloaded schedules are the same values the searches
/// would produce, so only the *cost* of producing them differs.
#[test]
fn warm_started_serve_report_is_byte_identical_to_cold() {
    let specs = || vec![TenantSpec::new(zoo::alexnet(), 0.6), TenantSpec::new(zoo::alexnet(), 0.4)];
    let cfg = || {
        let mut c = ServeConfig::paper(TrafficModel::Poisson { rate_rps: 150.0 }, 11);
        c.horizon_us = 120_000.0;
        c
    };

    let cold_eval = Evaluator::paper_platform();
    let cold = Server::new(&cold_eval, specs(), cfg()).run().to_json();

    // Warm side: both tenants' 22-bank partitions plus the full buffer
    // the isolated-latency probes use, through disk and back.
    let store = alexnet_store(PrecompileSpec {
        bank_counts: vec![22, 44],
        ladder_octaves: 5,
        ..PrecompileSpec::default()
    });
    let restored = ScheduleStore::from_bytes(&store.to_bytes()).expect("round trip");
    let warm_eval = Evaluator::paper_platform();
    let preloaded = restored.warm_start(warm_eval.cache());
    assert_eq!(preloaded, store.len());
    let warm = Server::new(&warm_eval, specs(), cfg()).run().to_json();

    assert_eq!(warm, cold, "warm-started serving must be byte-identical to cold");
    assert!(warm_eval.cache().warm_hits() > 0, "the warm run must use preloaded schedules");
    assert_eq!(warm_eval.cache().misses(), 0, "the store must cover every search of the run");
    // Same design point evaluated on a third evaluator: the preloaded
    // schedules equal freshly searched ones, value for value.
    let fresh = Evaluator::paper_platform();
    let net = zoo::alexnet();
    let a = fresh.evaluate(&net, Design::RanaStarE5);
    let b = warm_eval.evaluate(&net, Design::RanaStarE5);
    assert_eq!(a.schedule, b.schedule, "preloaded schedules must equal fresh searches");
}

/// The fleet looks its profiles up at the same ladder rungs `precompile`
/// enumerates, so a store built with the default spec covers every search
/// of a small run, and the warm report matches the cold one byte for byte.
#[test]
fn warm_started_fleet_report_is_byte_identical_to_cold() {
    let cfg = || {
        let tenants =
            vec![TenantSpec::new(zoo::alexnet(), 0.6), TenantSpec::new(zoo::googlenet(), 0.4)];
        let mut c = FleetConfig::paper(
            tenants,
            TrafficModel::Poisson { rate_rps: 240.0 },
            8,
            RouterPolicy::PowerOfTwoChoices,
            5,
        );
        c.horizon_us = 300_000.0;
        c
    };

    let cold_eval = Evaluator::paper_platform();
    let cold = FleetSim::new(&cold_eval, cfg()).run();
    assert!(cold.retunes > 0, "the run must leave the nominal rung");

    let mut store = ScheduleStore::new();
    precompile(
        &Evaluator::paper_platform(),
        &[zoo::alexnet(), zoo::googlenet()],
        &PrecompileSpec::default(),
        &mut store,
    );
    let warm_eval = Evaluator::paper_platform();
    store.warm_start(warm_eval.cache());
    let warm = FleetSim::new(&warm_eval, cfg()).run();

    assert_eq!(warm_eval.cache().misses(), 0, "the store must cover every search of the run");
    assert!(warm_eval.cache().warm_hits() > 0);
    assert_eq!(warm.to_json(), cold.to_json(), "warm-started fleet must be byte-identical to cold");
}
