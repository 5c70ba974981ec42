//! Property-based cross-validation: the closed-form analysis and the
//! tile-trace simulator must agree on cycles and traffic for arbitrary
//! layers and tilings, on both buffer sizes and both PE organizations;
//! one Stage-2 scan shared by a search group must equal every member's
//! own exhaustive scan; and the scan's per-axis tables must reproduce the
//! per-tiling formulas bit for bit.

use proptest::prelude::*;
use rana_repro::accel::{analyze, trace::trace, AcceleratorConfig, Pattern, SchedLayer, Tiling};
use rana_repro::accel::{ControllerKind, RefreshModel};
use rana_repro::accel::{LayerSim, TilingGrid};
use rana_repro::core::scheduler::Scheduler;
use rana_repro::core::trace::{Session, TraceConfig};

fn arb_layer() -> impl Strategy<Value = SchedLayer> {
    (1usize..=48, 4usize..=30, 1usize..=48, prop_oneof![Just(1usize), Just(3), Just(5)], 1usize..=2)
        .prop_map(|(n, hw, m, k, s)| SchedLayer {
            name: "prop".into(),
            n,
            h: hw,
            l: hw,
            m,
            k,
            s,
            r: (hw + 2 * (k / 2) - k) / s + 1,
            c: (hw + 2 * (k / 2) - k) / s + 1,
            pad: k / 2,
            groups: 1,
        })
}

fn arb_tiling() -> impl Strategy<Value = Tiling> {
    (1usize..=24, 1usize..=24, 1usize..=8, 1usize..=16)
        .prop_map(|(tm, tn, tr, tc)| Tiling::new(tm, tn, tr, tc))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn analysis_matches_trace(layer in arb_layer(), tiling in arb_tiling(), edram in any::<bool>(), dadiannao_org in any::<bool>()) {
        let mut cfg = if edram { AcceleratorConfig::paper_edram() } else { AcceleratorConfig::paper_sram() };
        if dadiannao_org {
            cfg.organization = rana_repro::accel::config::PeOrganization::ChannelColumns;
        }
        for pattern in Pattern::ALL {
            let a = analyze(&layer, pattern, tiling, &cfg);
            let t = trace(&layer, pattern, tiling, &cfg);
            prop_assert_eq!(a.cycles, t.cycles, "cycles {} {}", pattern, tiling);
            prop_assert_eq!(a.traffic, t.traffic, "traffic {} {}", pattern, tiling);
            prop_assert!((a.lifetimes.layer_us - t.measured.layer_us).abs() < 1e-6);
        }
    }

    /// MAC count is invariant across patterns and tilings, and utilization
    /// never exceeds 1.
    #[test]
    fn macs_invariant_and_utilization_bounded(layer in arb_layer(), tiling in arb_tiling()) {
        let cfg = AcceleratorConfig::paper_edram();
        let reference = analyze(&layer, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg).macs;
        for pattern in Pattern::ALL {
            let sim = analyze(&layer, pattern, tiling, &cfg);
            prop_assert_eq!(sim.macs, reference);
            prop_assert!(sim.utilization <= 1.0 + 1e-9, "eta {}", sim.utilization);
            prop_assert!(sim.utilization > 0.0);
        }
    }

    /// Every datum moves through DRAM at least once: traffic lower bounds.
    /// (For strided layers WD legitimately skips input pixels the kernel
    /// never touches, so the input bound drops to the touched set.)
    #[test]
    fn dram_traffic_lower_bounds(layer in arb_layer(), tiling in arb_tiling()) {
        let cfg = AcceleratorConfig::paper_edram();
        let min_inputs = if layer.s == 1 {
            layer.input_words()
        } else {
            (layer.n * layer.r * layer.c) as u64 // touched at least once per output
        };
        for pattern in Pattern::ALL {
            let sim = analyze(&layer, pattern, tiling, &cfg);
            prop_assert!(sim.traffic.dram_input_loads >= min_inputs);
            prop_assert!(sim.traffic.dram_weight_loads >= layer.weight_words());
            prop_assert!(sim.traffic.dram_output_stores >= layer.output_words());
        }
    }

    /// The paper's §IV-C3 exclusion argument holds universally: ID's input
    /// lifetime is never shorter than OD's under the same tiling.
    #[test]
    fn id_lifetime_dominates_od(layer in arb_layer(), tiling in arb_tiling()) {
        let cfg = AcceleratorConfig::paper_edram();
        let id = analyze(&layer, Pattern::Id, tiling, &cfg);
        let od = analyze(&layer, Pattern::Od, tiling, &cfg);
        prop_assert!(id.lifetimes.input_us >= od.lifetimes.input_us - 1e-9);
    }

    /// Buffer storage formulas: OD is dominated by outputs, WD by weights
    /// (whenever those sets are the largest of the three, which is what
    /// "dominant" means).
    #[test]
    fn storage_formulas(layer in arb_layer(), tiling in arb_tiling()) {
        let cfg = AcceleratorConfig::paper_edram();
        let od = analyze(&layer, Pattern::Od, tiling, &cfg);
        prop_assert_eq!(od.storage.output_words, layer.output_words());
        let wd = analyze(&layer, Pattern::Wd, tiling, &cfg);
        prop_assert_eq!(wd.storage.weight_words, layer.weight_words());
        let id = analyze(&layer, Pattern::Id, tiling, &cfg);
        prop_assert_eq!(id.storage.input_words, layer.input_words());
    }
}

/// One search-group member: refresh interval (5–3000 µs, log-uniform so
/// that the small layers' few-µs runtimes often span a pulse), whether its
/// controller is refresh-optimized, and its refresh-cost weight.
fn arb_member() -> impl Strategy<Value = (f64, bool, u32)> {
    (0.0f64..1.0, any::<bool>(), 1u32..=8)
        .prop_map(|(u, optimized, weight)| (5.0 * 600f64.powf(u), optimized, weight))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A search group (one accelerator, pattern space and tiling policy;
    /// members differing in interval, controller and refresh weight) is
    /// scanned once, and every member gets exactly its own exhaustive
    /// scan's schedule, with explored or fixed tiling, on a scaled eDRAM
    /// buffer, the refresh-free SRAM one (every member's energy is then
    /// the shared one) or DaDianNao (channel-column cycle model).
    #[test]
    fn group_scan_equals_each_exhaustive_scan(
        layer in arb_layer(),
        machine in 0usize..3,
        scale in 0.25f64..8.0,
        members in proptest::collection::vec(arb_member(), 1..9),
        patterns in 0usize..3,
        fixed_tiling in any::<bool>(),
    ) {
        let cfg = match machine {
            0 => AcceleratorConfig::paper_edram_scaled(scale),
            1 => AcceleratorConfig::paper_sram(),
            _ => AcceleratorConfig::dadiannao(),
        };
        let natural = Tiling::new(cfg.pe_rows, cfg.pe_rows, 1, cfg.pe_cols);
        let mut template = Scheduler::rana(cfg, RefreshModel::conventional_45us());
        template.patterns = [Pattern::RANA_SPACE.to_vec(), Pattern::ALL.to_vec(), vec![Pattern::Id]]
            [patterns]
            .clone();
        template.fixed_tiling = fixed_tiling.then_some(natural);
        let group: Vec<Scheduler> = members
            .iter()
            .map(|&(interval_us, optimized, weight)| {
                let mut s = template.clone();
                let kind = if optimized {
                    ControllerKind::RefreshOptimized
                } else {
                    ControllerKind::Conventional
                };
                s.refresh = RefreshModel { interval_us, kind };
                s.model.costs.edram_refresh_pj *= f64::from(weight);
                s
            })
            .collect();
        let refs: Vec<&Scheduler> = group.iter().collect();

        let session = Session::start(TraceConfig::CountersOnly);
        let scanned = Scheduler::schedule_layer_group(&refs, &layer);
        let report = session.finish();

        for (s, got) in group.iter().zip(&scanned) {
            prop_assert_eq!(got, &s.schedule_layer_exhaustive(&layer));
        }
        let tilings =
            if fixed_tiling { 1 } else { Tiling::candidates(&layer, &template.cfg).len() };
        let visited = report.counter("scheduler.candidates_evaluated")
            + report.counter("scheduler.candidates_pruned");
        prop_assert_eq!(visited, (tilings * template.patterns.len()) as u64);
        prop_assert_eq!(report.counter("scheduler.searches"), group.len() as u64);
    }
}

/// The closed-form model as it was written before the per-axis tables:
/// every term recomputed from the candidate's tiling. The reference that
/// [`TilingGrid`] and [`analyze`] must equal bit for bit.
mod reference {
    use rana_repro::accel::config::PeOrganization;
    use rana_repro::accel::{AcceleratorConfig, LayerSim, Lifetimes, Pattern, SchedLayer};
    use rana_repro::accel::{Storage, Tiling, Traffic};

    fn tile_sum(dim: usize, t: usize, f: impl Fn(usize) -> u64) -> u64 {
        let full = (dim / t) as u64;
        let rem = dim % t;
        full * f(t) + if rem > 0 { f(rem) } else { 0 }
    }

    fn ceil_div(a: usize, b: usize) -> u64 {
        a.div_ceil(b) as u64
    }

    pub fn candidates(layer: &SchedLayer, cfg: &AcceleratorConfig) -> Vec<Tiling> {
        let axis = |limit: usize| {
            let mut v: Vec<usize> = std::iter::successors(Some(1usize), |&x| Some(x * 2))
                .take_while(|&x| x < limit)
                .collect();
            v.push(limit);
            v
        };
        let tm_axis = axis(layer.m.min(cfg.local_output_words));
        let tn_axis = axis(layer.n);
        let tr_axis = axis(layer.r);
        let tc_axis = axis(layer.c);
        let mut out = Vec::new();
        for &tm in &tm_axis {
            for &tn in &tn_axis {
                if tm * tn * layer.k * layer.k > cfg.local_weight_words {
                    continue;
                }
                for &tr in &tr_axis {
                    for &tc in &tc_axis {
                        let t = Tiling::new(tm, tn, tr, tc);
                        if t.fits_core(layer, cfg) {
                            out.push(t);
                        }
                    }
                }
            }
        }
        out
    }

    fn storage_and_traffic(
        layer: &SchedLayer,
        pattern: Pattern,
        tiling: Tiling,
        cfg: &AcceleratorConfig,
    ) -> (Storage, bool, Traffic) {
        let t = tiling.clamped_to(layer);
        let g = layer.groups as u64;
        let (tm_trips, tn_trips, tr_trips, tc_trips) = t.trips(layer);
        let (tm_trips, tn_trips) = (tm_trips as u64, tn_trips as u64);
        let num_rc_tiles = (tr_trips * tc_trips) as u64;
        let k2 = (layer.k * layer.k) as u64;
        let n_hl = (layer.n * layer.h * layer.l) as u64;
        let m_rc = (layer.m * layer.r * layer.c) as u64;
        let mn_k2 = (layer.m * layer.n) as u64 * k2;
        let th = |tre: usize| layer.tile_in_h(tre) as u64;
        let tl = |tce: usize| layer.tile_in_w(tce) as u64;
        let halo_sweep = layer.n as u64 * tile_sum(layer.r, t.tr, th) * tile_sum(layer.c, t.tc, tl);
        let storage = match pattern {
            Pattern::Id => Storage {
                input_words: n_hl,
                output_words: (t.tm * t.tr * t.tc) as u64,
                weight_words: (layer.n * t.tm) as u64 * k2,
            },
            Pattern::Od => Storage {
                input_words: (t.tn * layer.h * layer.l) as u64,
                output_words: m_rc,
                weight_words: (t.tn * t.tm) as u64 * k2,
            },
            Pattern::Wd => Storage {
                input_words: layer.n as u64 * th(t.tr) * tl(t.tc),
                output_words: (t.tm * t.tr * t.tc) as u64,
                weight_words: mn_k2,
            },
        };
        let fits_buffer = storage.total() <= cfg.buffer.capacity_words();
        let buf_input_reads = tm_trips * halo_sweep;
        let buf_weight_reads = match pattern {
            Pattern::Od => mn_k2,
            Pattern::Id | Pattern::Wd => num_rc_tiles * mn_k2,
        };
        let (buf_output_writes, buf_output_reads) = match pattern {
            Pattern::Od => (tn_trips * m_rc, (tn_trips - 1) * m_rc),
            Pattern::Id | Pattern::Wd => (m_rc, 0),
        };
        let mut dram_input_loads = n_hl;
        let mut dram_weight_loads = mn_k2;
        let dram_output_stores = m_rc;
        let mut dram_partial_stores = 0;
        let mut dram_partial_loads = 0;
        match pattern {
            Pattern::Id => {
                if !fits_buffer {
                    dram_input_loads = tm_trips * n_hl;
                }
            }
            Pattern::Od => {
                if !fits_buffer {
                    dram_partial_stores = (tn_trips - 1) * m_rc;
                    dram_partial_loads = (tn_trips - 1) * m_rc;
                }
            }
            Pattern::Wd => {
                dram_input_loads = halo_sweep;
                if !fits_buffer {
                    dram_weight_loads = num_rc_tiles * mn_k2;
                }
            }
        }
        let traffic = Traffic {
            dram_input_loads: dram_input_loads * g,
            dram_weight_loads: dram_weight_loads * g,
            dram_output_stores: dram_output_stores * g,
            dram_partial_stores: dram_partial_stores * g,
            dram_partial_loads: dram_partial_loads * g,
            buf_input_reads: buf_input_reads * g,
            buf_weight_reads: buf_weight_reads * g,
            buf_output_writes: buf_output_writes * g,
            buf_output_reads: buf_output_reads * g,
        };
        (storage, fits_buffer, traffic)
    }

    pub fn analyze(
        layer: &SchedLayer,
        pattern: Pattern,
        tiling: Tiling,
        cfg: &AcceleratorConfig,
    ) -> LayerSim {
        let (storage, fits_buffer, traffic) = storage_and_traffic(layer, pattern, tiling, cfg);
        let t = tiling.clamped_to(layer);
        let g = layer.groups as u64;
        let k2 = (layer.k * layer.k) as u64;
        let sm = tile_sum(layer.m, t.tm, |tme| ceil_div(tme, cfg.pe_rows));
        let sm_full = ceil_div(t.tm.min(layer.m), cfg.pe_rows);
        let (sn, sn_full, src, src_full) = match cfg.organization {
            PeOrganization::PixelColumns => (
                layer.n as u64,
                t.tn.min(layer.n) as u64,
                tile_sum(layer.r, t.tr, |tre| {
                    tile_sum(layer.c, t.tc, |tce| ceil_div(tre * tce, cfg.pe_cols))
                }),
                ceil_div(t.tr.min(layer.r) * t.tc.min(layer.c), cfg.pe_cols),
            ),
            PeOrganization::ChannelColumns => (
                tile_sum(layer.n, t.tn, |tne| ceil_div(tne, cfg.pe_cols)),
                ceil_div(t.tn.min(layer.n), cfg.pe_cols),
                (layer.r * layer.c) as u64,
                (t.tr.min(layer.r) * t.tc.min(layer.c)) as u64,
            ),
        };
        let cycles_group = k2 * sn * sm * src;
        let cycles = cycles_group * g;
        let time_us = cfg.cycles_to_us(cycles);
        let macs = layer.total_macs();
        let utilization = macs as f64 / (cycles as f64 * cfg.mac_count() as f64);
        let t3 = cycles_group;
        let us = |c: u64| cfg.cycles_to_us(c);
        let lifetimes = match pattern {
            Pattern::Id => {
                let t2 = k2 * sn * sm_full * src;
                Lifetimes {
                    input_us: us(t3),
                    output_us: 0.0,
                    weight_us: us(t2),
                    output_rewrite_us: 0.0,
                    layer_us: time_us,
                }
            }
            Pattern::Od => {
                let t2 = k2 * sn_full * sm * src;
                let t1 = k2 * sn_full * sm_full * src;
                Lifetimes {
                    input_us: us(t2),
                    output_us: us(t3),
                    weight_us: us(t1),
                    output_rewrite_us: us(t2),
                    layer_us: time_us,
                }
            }
            Pattern::Wd => {
                let t2 = k2 * sn * sm * src_full;
                let t1 = k2 * sn * sm_full * src_full;
                Lifetimes {
                    input_us: us(t2),
                    output_us: us(t1),
                    weight_us: us(t3),
                    output_rewrite_us: us(t1),
                    layer_us: time_us,
                }
            }
        };
        LayerSim {
            layer: layer.name.clone(),
            pattern,
            tiling: t,
            cycles,
            time_us,
            macs,
            utilization,
            storage,
            fits_buffer,
            lifetimes,
            traffic,
        }
    }
}

/// A CONV layer of 1–300 channels per group (1–4 groups) and a 1–300
/// pixel map, with K 1–11, stride 1–4 and padding up to `K/2`; the map is
/// widened where the kernel would not fit it.
fn arb_wide_layer() -> impl Strategy<Value = SchedLayer> {
    (
        (1usize..=300, 1usize..=300, 1usize..=4),
        (1usize..=300, 1usize..=300),
        (1usize..=11, 1usize..=4, 0usize..=5),
    )
        .prop_map(|((n, m, groups), (h, l), (k, s, pad))| {
            let pad = pad.min(k / 2);
            let (h, l) = (h.max(k - 2 * pad), l.max(k - 2 * pad));
            SchedLayer {
                name: "wide".into(),
                n,
                h,
                l,
                m,
                k,
                s,
                r: (h + 2 * pad - k) / s + 1,
                c: (l + 2 * pad - k) / s + 1,
                pad,
                groups,
            }
        })
}

/// Every `f64` field of a [`LayerSim`] as its bits.
fn f64_bits(sim: &LayerSim) -> [u64; 7] {
    let l = &sim.lifetimes;
    [
        sim.time_us,
        sim.utilization,
        l.input_us,
        l.output_us,
        l.weight_us,
        l.output_rewrite_us,
        l.layer_us,
    ]
    .map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The per-axis tables change no number: on both PE organizations, a
    /// buffer from one bank to 4096 (so candidates both fit and spill) and
    /// every pattern, each grid candidate's analysis equals the
    /// per-tiling reference in every field (f64 fields bit for bit), the
    /// grid lists the reference's candidates in its order, and `analyze`
    /// (the one-tiling case) agrees on tilings larger than the layer.
    #[test]
    fn grid_equals_the_per_tiling_formulas(
        layer in arb_wide_layer(),
        dadiannao in any::<bool>(),
        banks_log2 in 0u32..=12,
        off_grid in proptest::collection::vec(
            (1usize..=600, 1usize..=600, 1usize..=600, 1usize..=600),
            4..5,
        ),
    ) {
        let mut cfg =
            if dadiannao { AcceleratorConfig::dadiannao() } else { AcceleratorConfig::paper_edram() };
        cfg.buffer.num_banks = 1 << banks_log2;
        let grid = TilingGrid::new(&layer, &cfg, None);
        let tilings: Vec<Tiling> = (0..grid.len()).map(|i| grid.tiling(i)).collect();
        prop_assert_eq!(&tilings, &reference::candidates(&layer, &cfg));
        prop_assert_eq!(&tilings, &Tiling::candidates(&layer, &cfg));
        for pattern in Pattern::ALL {
            for (i, &tiling) in tilings.iter().enumerate() {
                let got = grid.sim(pattern, i, grid.parts(pattern, i));
                let want = reference::analyze(&layer, pattern, tiling, &cfg);
                prop_assert_eq!(f64_bits(&got), f64_bits(&want), "{} {}", pattern, tiling);
                prop_assert_eq!(got, want);
            }
            for &(tm, tn, tr, tc) in &off_grid {
                let tiling = Tiling::new(tm, tn, tr, tc);
                let want = reference::analyze(&layer, pattern, tiling, &cfg);
                let got = analyze(&layer, pattern, tiling, &cfg);
                prop_assert_eq!(f64_bits(&got), f64_bits(&want), "{} {}", pattern, tiling);
                prop_assert_eq!(&got, &want);
                let fixed = TilingGrid::new(&layer, &cfg, Some(tiling));
                prop_assert_eq!(fixed.len(), 1);
                prop_assert_eq!(fixed.sim(pattern, 0, fixed.parts(pattern, 0)), want);
            }
        }
    }
}
