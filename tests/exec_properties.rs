//! Property-based validation of the functional execution engine: for any
//! layer shape, pattern and tiling, the accelerator's arithmetic on an
//! ideal buffer must equal a direct convolution, and its cycle count must
//! equal the trace simulator's.

use proptest::prelude::*;
use rana_repro::accel::exec::{execute_layer_grouped_with, BufferModel, Engine, Formats};
use rana_repro::accel::{trace::trace, AcceleratorConfig, Pattern, SchedLayer, Tiling};

fn arb_layer() -> impl Strategy<Value = SchedLayer> {
    (1usize..=5, 4usize..=10, 1usize..=6, prop_oneof![Just(1usize), Just(3)], 1usize..=2).prop_map(
        |(n, hw, m, k, s)| SchedLayer {
            name: "exec-prop".into(),
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
        },
    )
}

fn reference_conv(layer: &SchedLayer, inputs: &[i16], weights: &[i16], f: Formats) -> Vec<i16> {
    let shift = i32::from(f.input_frac) + i32::from(f.weight_frac) - i32::from(f.output_frac);
    let mut out = vec![0i16; layer.m * layer.r * layer.c];
    for m in 0..layer.m {
        for oi in 0..layer.r {
            for oj in 0..layer.c {
                let mut acc: i64 = 0;
                for ch in 0..layer.n {
                    for u in 0..layer.k {
                        let iy = (oi * layer.s + u) as isize - layer.pad as isize;
                        if iy < 0 || iy >= layer.h as isize {
                            continue;
                        }
                        for v in 0..layer.k {
                            let ix = (oj * layer.s + v) as isize - layer.pad as isize;
                            if ix < 0 || ix >= layer.l as isize {
                                continue;
                            }
                            let x = i64::from(
                                inputs[(ch * layer.h + iy as usize) * layer.l + ix as usize],
                            );
                            let w = i64::from(
                                weights[((m * layer.n + ch) * layer.k + u) * layer.k + v],
                            );
                            let prod = x * w;
                            acc +=
                                if shift > 0 { (prod + (1 << (shift - 1))) >> shift } else { prod };
                        }
                    }
                }
                out[(m * layer.r + oi) * layer.c + oj] =
                    acc.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16;
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn functional_matches_reference_and_trace(
        layer in arb_layer(),
        tm in 1usize..=8,
        tn in 1usize..=6,
        tr in 1usize..=4,
        tc in 1usize..=6,
        pattern_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let pattern = Pattern::ALL[pattern_idx];
        let tiling = Tiling::new(tm, tn, tr, tc);
        let cfg = AcceleratorConfig::paper_edram();
        let f = Formats::default();
        // Small operand magnitudes keep every partial within i16 (the
        // PE-writeback granularity of mid-accumulation stashes).
        let inputs: Vec<i16> = (0..layer.n * layer.h * layer.l)
            .map(|i| (((i as u64).wrapping_mul(seed | 1) >> 5) % 61) as i16 - 30)
            .collect();
        let weights: Vec<i16> = (0..layer.m * layer.n * layer.k * layer.k)
            .map(|i| (((i as u64).wrapping_mul((seed >> 3) | 1) >> 7) % 41) as i16 - 20)
            .collect();

        let golden = reference_conv(&layer, &inputs, &weights, f);
        let run = execute_layer_grouped_with(
            Engine::Blocked, &layer, pattern, tiling, &cfg, &inputs, &weights, f, &BufferModel::Ideal);
        prop_assert_eq!(&run.outputs, &golden, "{} {}", pattern, tiling);
        prop_assert_eq!(run.faults, 0);

        let traced = trace(&layer, pattern, tiling, &cfg);
        prop_assert_eq!(run.cycles, traced.cycles, "{} {}", pattern, tiling);
    }
}
