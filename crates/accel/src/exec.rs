//! Functional execution engine: real 16-bit data through the accelerator.
//!
//! Runs a CONV layer's actual arithmetic through the same tile loop nest
//! the trace simulator walks, but with the unified buffer backed by the
//! *charge-level* eDRAM model of `rana-edram`: every buffer word carries a
//! write timestamp, ages with the cycle clock, and reads back corrupted
//! bits once its cell retention is exceeded — unless a refresh pulse (or
//! an OD accumulation rewrite, the paper's self-refresh) recharges it
//! first.
//!
//! This closes the loop the analytic models open: the refresh flags RANA
//! generates can be *executed*, and the output feature maps show exactly
//! what retention failures do to real inferences (§IV-B's error model, in
//! situ).
//!
//! Two [`Engine`]s run the tile compute and produce identical results —
//! outputs, cycles, and access statistics:
//!
//! * [`Engine::Scalar`] — the straight-line reference: one buffer read
//!   per operand, one MAC at a time. Kept as the golden model.
//! * [`Engine::Blocked`] — the default: resolves charge decay once per
//!   buffer *row* (with per-word access multiplicities so read/fault
//!   accounting matches the scalar engine exactly), then runs the MAC
//!   nest over contiguous scratch rows with rounded products accumulated
//!   in 32-bit lanes the compiler autovectorizes. All reads in a tile
//!   resolve at the same timestamp and resolution is pure, so hoisting
//!   them is observationally equivalent.
//!
//! Both engines resolve decay through `EdramArray`. Its weakest-cell
//! filter returns a word as stored whenever the failure rate of the word's
//! age is at or below a power-of-two floor under its weakest cell's
//! retention quantile. That is exact, since no bit of such a word can
//! fail, so only the rare words with a failing cell pay for the 16 per-bit
//! retention hashes. Each word computes its floor once, on its first
//! decayed resolution. Refresh pulses resolve a bank in runs of words
//! that share a write timestamp.
//!
//! Scope: the resident sets must fit the buffer (no spill modeling here —
//! use small layers or a big buffer; the analytic engines cover spills).

use crate::config::AcceleratorConfig;
use crate::kernel;
use crate::layer::SchedLayer;
use crate::pattern::{LoopDim, Pattern, TileAxis, Tiling};
use rana_edram::{EdramArray, RefreshConfig, RetentionDistribution};

/// Memory behaviour of the functional buffer.
#[derive(Debug, Clone)]
pub enum BufferModel {
    /// Ideal storage (SRAM): no decay, no refresh.
    Ideal,
    /// Charge-based eDRAM with the given retention distribution, cell
    /// seed, and refresh configuration.
    Edram {
        /// Cell retention distribution.
        dist: RetentionDistribution,
        /// Deterministic per-cell retention seed.
        seed: u64,
        /// Refresh pulses; `None` disables refresh entirely.
        refresh: Option<RefreshConfig>,
    },
}

/// Result of a functional layer execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalResult {
    /// Output feature maps, `m × r × c` raw 16-bit words (times `groups`
    /// when run through [`execute_layer_grouped`]).
    pub outputs: Vec<i16>,
    /// Execution cycles.
    pub cycles: u64,
    /// Words refreshed by the controller during execution.
    pub refresh_words: u64,
    /// Bit faults injected over the run — on buffer reads, and on late
    /// refreshes that lock corrupted bits in (each decayed bit counted
    /// once, at the access that first resolves it).
    pub faults: u64,
    /// Buffer words read by the compute (refresh resolutions excluded).
    /// `faults / (reads × 16)` is the realized per-bit failure rate the
    /// thermal-adaptive validation path checks against the Stage-1 target.
    pub reads: u64,
}

/// Fixed-point formats of the three operand arrays.
///
/// Each product is shifted right by [`Formats::prod_shift`] bits with
/// round-half-up before accumulation, converting the
/// `input_frac + weight_frac` fractional bits of a raw product to the
/// output format.
///
/// ```
/// use rana_accel::exec::Formats;
///
/// let f = Formats::default(); // Q7.8 inputs/outputs, Q3.12 weights
/// assert_eq!(f.prod_shift(), 12);
/// assert_eq!(Formats { input_frac: 4, weight_frac: 2, output_frac: 8 }.prod_shift(), -2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Formats {
    /// Fractional bits of the input words.
    pub input_frac: u8,
    /// Fractional bits of the weight words.
    pub weight_frac: u8,
    /// Fractional bits of the output words.
    pub output_frac: u8,
}

impl Default for Formats {
    fn default() -> Self {
        Self { input_frac: 8, weight_frac: 12, output_frac: 8 }
    }
}

impl Formats {
    /// Right-shift applied to every raw product before accumulation
    /// (negative = left shift): `input_frac + weight_frac − output_frac`.
    pub fn prod_shift(&self) -> i32 {
        i32::from(self.input_frac) + i32::from(self.weight_frac) - i32::from(self.output_frac)
    }
}

/// Tile-compute engine of the functional simulator.
///
/// Both engines produce bit-identical [`FunctionalResult`]s (outputs
/// *and* statistics); `Blocked` is the fast default, `Scalar` the
/// reference implementation equivalence tests compare against.
///
/// ```
/// use rana_accel::exec::Engine;
///
/// assert_eq!(Engine::default(), Engine::Blocked);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// One buffer read per operand, one MAC at a time (golden model).
    Scalar,
    /// Row-granular decay resolution + lane-parallel MAC kernels.
    #[default]
    Blocked,
}

/// Executes one (single-group) CONV layer functionally with the default
/// [`Engine::Blocked`].
///
/// `inputs` is `n × h × l` row-major, `weights` is `m × n × k × k`.
/// Returns the `m × r × c` outputs along with execution statistics.
///
/// # Example
///
/// ```
/// use rana_accel::exec::{execute_layer, BufferModel, Formats};
/// use rana_accel::{AcceleratorConfig, Pattern, SchedLayer, Tiling};
///
/// let layer = SchedLayer {
///     name: "tiny".into(), n: 1, h: 4, l: 4, m: 1, k: 1, s: 1,
///     r: 4, c: 4, pad: 0, groups: 1,
/// };
/// let cfg = AcceleratorConfig::paper_edram();
/// // A 1x1 identity kernel in Q3.12 (raw 4096 = 1.0) copies the input.
/// let inputs: Vec<i16> = (0..16).collect();
/// let f = Formats { input_frac: 8, weight_frac: 12, output_frac: 8 };
/// let r = execute_layer(&layer, Pattern::Od, Tiling::new(16, 16, 1, 16),
///     &cfg, &inputs, &[4096], f, &BufferModel::Ideal);
/// assert_eq!(r.outputs, inputs);
/// ```
///
/// # Panics
///
/// Panics if the operand lengths do not match the layer shape, if
/// `layer.groups != 1`, or if the resident sets overflow the buffer.
#[allow(clippy::too_many_arguments)] // mirrors the hardware interface: layer, mapping, machine, operands
pub fn execute_layer(
    layer: &SchedLayer,
    pattern: Pattern,
    tiling: Tiling,
    cfg: &AcceleratorConfig,
    inputs: &[i16],
    weights: &[i16],
    formats: Formats,
    model: &BufferModel,
) -> FunctionalResult {
    execute_layer_with(
        Engine::default(),
        layer,
        pattern,
        tiling,
        cfg,
        inputs,
        weights,
        formats,
        model,
    )
}

/// [`execute_layer`] with an explicit tile-compute [`Engine`].
///
/// ```
/// use rana_accel::exec::{execute_layer_with, BufferModel, Engine, Formats};
/// use rana_accel::{AcceleratorConfig, Pattern, SchedLayer, Tiling};
///
/// let layer = SchedLayer {
///     name: "tiny".into(), n: 1, h: 4, l: 4, m: 1, k: 1, s: 1,
///     r: 4, c: 4, pad: 0, groups: 1,
/// };
/// let cfg = AcceleratorConfig::paper_edram();
/// let inputs: Vec<i16> = (0..16).collect();
/// let f = Formats::default();
/// let args = (&layer, Pattern::Wd, Tiling::new(4, 4, 2, 2), &cfg);
/// let scalar = execute_layer_with(Engine::Scalar, args.0, args.1, args.2, args.3,
///     &inputs, &[4096], f, &BufferModel::Ideal);
/// let blocked = execute_layer_with(Engine::Blocked, args.0, args.1, args.2, args.3,
///     &inputs, &[4096], f, &BufferModel::Ideal);
/// assert_eq!(scalar, blocked);
/// ```
///
/// # Panics
///
/// Same contract as [`execute_layer`].
#[allow(clippy::too_many_arguments)]
pub fn execute_layer_with(
    engine: Engine,
    layer: &SchedLayer,
    pattern: Pattern,
    tiling: Tiling,
    cfg: &AcceleratorConfig,
    inputs: &[i16],
    weights: &[i16],
    formats: Formats,
    model: &BufferModel,
) -> FunctionalResult {
    assert_eq!(layer.groups, 1, "the functional engine runs one channel group");
    assert_eq!(inputs.len(), (layer.n * layer.h * layer.l), "input length mismatch");
    assert_eq!(weights.len(), layer.m * layer.n * layer.k * layer.k, "weight length mismatch");

    let t = tiling.clamped_to(layer);
    let (n_words, w_words, o_words) = (inputs.len(), weights.len(), layer.m * layer.r * layer.c);
    let capacity = cfg.buffer.num_banks * cfg.buffer.bank_words;
    assert!(
        n_words + w_words + o_words <= capacity,
        "functional engine needs all residents to fit: {} words > {capacity}",
        n_words + w_words + o_words
    );

    // Region base addresses in the unified buffer.
    let in_base = 0usize;
    let w_base = n_words;
    let o_base = n_words + w_words;

    let (dist, seed, refresh) = match model {
        BufferModel::Ideal => (ideal_distribution(), 0, None),
        BufferModel::Edram { dist, seed, refresh } => (dist.clone(), *seed, refresh.clone()),
    };
    let mut mem = EdramArray::new(cfg.buffer.num_banks, cfg.buffer.bank_words, dist, seed);
    let mut refresh_words = 0u64;
    let mut last_pulse_idx: i64 = 0;

    let mut clock_cycles = 0u64;
    let us = |c: u64| cfg.cycles_to_us(c);
    let k = layer.k;
    let k2 = (k * k) as u64;

    // Tile axes, walked in the pattern's loop order exactly like trace.rs
    // (arithmetic decomposition; the RC axis flattens rows × columns with
    // the column tile innermost).
    let m_axis = TileAxis::new(layer.m, t.tm);
    let n_axis = TileAxis::new(layer.n, t.tn);
    let r_axis = TileAxis::new(layer.r, t.tr);
    let c_axis = TileAxis::new(layer.c, t.tc);

    // Residency keys for lazy loads: inputs/weights are (re)written to the
    // buffer when their tile first appears (fresh from DRAM, which does
    // not decay).
    let mut input_loaded_for: Option<u64> = None;
    let mut weights_loaded_for: Option<u64> = None;

    let mut outputs = vec![0i16; o_words];
    let mut arena = ExecArena::default();
    let prod_shift = formats.prod_shift();
    // 32-bit lane plan: per-term magnitude after the rounded shift is
    // bounded by t_max, so max_terms partial sums always fit an i32 lane.
    // Shifts outside 1..=30 (or too few safe terms to be worth draining)
    // fall back to the shared i64 product path.
    let i32_path = if (1..=30).contains(&prod_shift) {
        let half = 1i32 << (prod_shift - 1);
        let t_max = ((1i64 << 30) + i64::from(half)) >> prod_shift;
        let max_terms = (i64::from(i32::MAX) / t_max) as usize;
        (max_terms >= 16).then_some(I32Path { shift: prod_shift as u32, half, max_terms })
    } else {
        None
    };

    let order = pattern.loop_order();
    let axis_len = |d: LoopDim| match d {
        LoopDim::M => m_axis.len(),
        LoopDim::N => n_axis.len(),
        LoopDim::Rc => r_axis.len() * c_axis.len(),
    };
    for i3 in 0..axis_len(order[0]) {
        for i2 in 0..axis_len(order[1]) {
            for i1 in 0..axis_len(order[2]) {
                let mut mi = 0;
                let mut ni = 0;
                let mut rci = 0;
                for (dim, idx) in order.iter().zip([i3, i2, i1]) {
                    match dim {
                        LoopDim::M => mi = idx,
                        LoopDim::N => ni = idx,
                        LoopDim::Rc => rci = idx,
                    }
                }
                let (m0, tm_e) = m_axis.get(mi);
                let (n0, tn_e) = n_axis.get(ni);
                let (r0, tr_e) = r_axis.get(rci / c_axis.len());
                let (c0, tc_e) = c_axis.get(rci % c_axis.len());
                let now = us(clock_cycles);

                // Lazy DRAM -> buffer loads at residency boundaries,
                // following each pattern's reuse scope: ID keeps all
                // inputs resident for the whole layer, OD streams an
                // n-tile's channels per residency, WD restreams the input
                // set at every rc-tile (fresh data arrives recharged; the
                // region's lifetime restarts, exactly the lifetime
                // analysis' assumption).
                let input_key = match pattern {
                    Pattern::Id => 0,
                    Pattern::Od => 1 + ni as u64,
                    Pattern::Wd => 1 + rci as u64,
                };
                if input_loaded_for != Some(input_key) {
                    input_loaded_for = Some(input_key);
                    let (lo, hi) = match pattern {
                        Pattern::Od => (n0, n0 + tn_e),
                        Pattern::Id | Pattern::Wd => (0, layer.n),
                    };
                    for ch in lo..hi {
                        let off = ch * layer.h * layer.l;
                        mem.write_slice(in_base + off, &inputs[off..off + layer.h * layer.l], now);
                    }
                }
                // Weights: ID holds an m-tile's weights across its RC
                // sweep, OD a (m, n) tile across RC, WD everything for the
                // whole layer.
                let weight_key = match pattern {
                    Pattern::Id => 1 + mi as u64,
                    Pattern::Od => 1 + (mi * n_axis.len() + ni) as u64,
                    Pattern::Wd => 0,
                };
                if weights_loaded_for != Some(weight_key) {
                    weights_loaded_for = Some(weight_key);
                    let (nlo, nhi, mlo, mhi) = match pattern {
                        Pattern::Id => (0, layer.n, m0, m0 + tm_e),
                        Pattern::Od => (n0, n0 + tn_e, m0, m0 + tm_e),
                        Pattern::Wd => (0, layer.n, 0, layer.m),
                    };
                    for m in mlo..mhi {
                        let off = (m * layer.n + nlo) * k * k;
                        mem.write_slice(
                            w_base + off,
                            &weights[off..off + (nhi - nlo) * k * k],
                            now,
                        );
                    }
                }

                // Core compute for this tile: accumulate in 32 bits, read
                // operands from the (possibly decayed) buffer.
                let iter_cycles = iteration_cycles(cfg, tn_e, k2, tm_e, tr_e, tc_e);
                let end = us(clock_cycles + iter_cycles);

                // Refresh runs concurrently with compute: issue every pulse
                // due by the end of this iteration before its reads resolve.
                if let Some(rc) = &refresh {
                    let due = (end / rc.interval_us).floor() as i64;
                    while last_pulse_idx < due {
                        last_pulse_idx += 1;
                        let pulse_t = last_pulse_idx as f64 * rc.interval_us;
                        for bank in 0..mem.num_banks() {
                            if rc.pattern.refreshes(bank) {
                                refresh_words += mem.refresh_bank(bank, pulse_t) as u64;
                            }
                        }
                    }
                }
                let ctx = TileCtx {
                    layer,
                    pattern,
                    prod_shift,
                    i32_path,
                    in_base,
                    w_base,
                    o_base,
                    last_n: ni == n_axis.len() - 1,
                    first_n: ni == 0,
                    end,
                    m0,
                    tm_e,
                    n0,
                    tn_e,
                    r0,
                    tr_e,
                    c0,
                    tc_e,
                };
                match engine {
                    Engine::Scalar => scalar_tile(&ctx, &mut mem, &mut outputs),
                    Engine::Blocked => blocked_tile(&ctx, &mut mem, &mut outputs, &mut arena),
                }
                clock_cycles += iter_cycles;
            }
        }
    }

    // Fault/read accounting comes from the memory model itself: reads are
    // the compute-side accesses (refresh resolutions don't count reads),
    // faults include bits a late refresh locked in — counted once, at the
    // refresh — so the realized rate reflects end-to-end corruption.
    let stats = mem.stats();
    if rana_trace::enabled() {
        rana_trace::emit(|| rana_trace::Event::ExecCompleted {
            layer: layer.name.clone(),
            cycles: clock_cycles,
            reads: stats.reads,
            refresh_words,
            faults: stats.faults,
        });
        rana_trace::count("exec.layers", 1);
        stats.trace_into("exec.buffer");
    }
    FunctionalResult {
        outputs,
        cycles: clock_cycles,
        refresh_words,
        faults: stats.faults,
        reads: stats.reads,
    }
}

/// Executes a CONV layer functionally, handling grouped convolutions.
///
/// Channel groups are independent sub-convolutions (AlexNet conv2/4/5,
/// depthwise layers): each group runs through [`execute_layer`] with its
/// own buffer residency, outputs are concatenated in group order, and
/// cycles/statistics sum across groups. With `layer.groups == 1` this is
/// exactly [`execute_layer`].
///
/// `inputs` is `groups × n × h × l` row-major, `weights` is
/// `groups × m × n × k × k` (per-group channel counts, as
/// [`SchedLayer`] carries them); outputs are `groups × m × r × c`.
///
/// # Example
///
/// ```
/// use rana_accel::exec::{execute_layer_grouped, BufferModel, Formats};
/// use rana_accel::{AcceleratorConfig, Pattern, SchedLayer, Tiling};
///
/// let layer = SchedLayer {
///     name: "grouped".into(), n: 1, h: 2, l: 2, m: 1, k: 1, s: 1,
///     r: 2, c: 2, pad: 0, groups: 2,
/// };
/// let cfg = AcceleratorConfig::paper_edram();
/// let inputs: Vec<i16> = (0..8).collect(); // two groups of 1x2x2
/// // Group 0 multiplies by 1.0 (Q3.12 raw 4096), group 1 by 2.0.
/// let r = execute_layer_grouped(&layer, Pattern::Od, Tiling::new(16, 16, 1, 16),
///     &cfg, &inputs, &[4096, 8192], Formats::default(), &BufferModel::Ideal);
/// assert_eq!(r.outputs, vec![0, 1, 2, 3, 8, 10, 12, 14]);
/// ```
///
/// # Panics
///
/// Panics if the operand lengths do not match the grouped layer shape or
/// a group's resident set overflows the buffer.
#[allow(clippy::too_many_arguments)]
pub fn execute_layer_grouped(
    layer: &SchedLayer,
    pattern: Pattern,
    tiling: Tiling,
    cfg: &AcceleratorConfig,
    inputs: &[i16],
    weights: &[i16],
    formats: Formats,
    model: &BufferModel,
) -> FunctionalResult {
    execute_layer_grouped_with(
        Engine::default(),
        layer,
        pattern,
        tiling,
        cfg,
        inputs,
        weights,
        formats,
        model,
    )
}

/// [`execute_layer_grouped`] with an explicit tile-compute [`Engine`].
///
/// # Panics
///
/// Same contract as [`execute_layer_grouped`].
#[allow(clippy::too_many_arguments)]
pub fn execute_layer_grouped_with(
    engine: Engine,
    layer: &SchedLayer,
    pattern: Pattern,
    tiling: Tiling,
    cfg: &AcceleratorConfig,
    inputs: &[i16],
    weights: &[i16],
    formats: Formats,
    model: &BufferModel,
) -> FunctionalResult {
    let g = layer.groups;
    if g == 1 {
        return execute_layer_with(
            engine, layer, pattern, tiling, cfg, inputs, weights, formats, model,
        );
    }
    let in_g = layer.n * layer.h * layer.l;
    let w_g = layer.m * layer.n * layer.k * layer.k;
    let o_g = layer.m * layer.r * layer.c;
    assert_eq!(inputs.len(), g * in_g, "grouped input length mismatch");
    assert_eq!(weights.len(), g * w_g, "grouped weight length mismatch");

    let sub = SchedLayer { groups: 1, ..layer.clone() };
    let mut total = FunctionalResult {
        outputs: Vec::with_capacity(g * o_g),
        cycles: 0,
        refresh_words: 0,
        faults: 0,
        reads: 0,
    };
    for gi in 0..g {
        let r = execute_layer_with(
            engine,
            &sub,
            pattern,
            tiling,
            cfg,
            &inputs[gi * in_g..(gi + 1) * in_g],
            &weights[gi * w_g..(gi + 1) * w_g],
            formats,
            model,
        );
        total.outputs.extend_from_slice(&r.outputs);
        total.cycles += r.cycles;
        total.refresh_words += r.refresh_words;
        total.faults += r.faults;
        total.reads += r.reads;
    }
    total
}

/// Applies the fixed-point product shift with round-half-up, exactly as
/// both engines accumulate: `(prod + half) >> shift` for positive shifts,
/// `prod << -shift` for negative ones.
#[inline]
fn shift_product(prod: i64, prod_shift: i32) -> i64 {
    if prod_shift >= 0 {
        let half = 1i64 << (prod_shift - 1).max(0);
        (prod + if prod_shift > 0 { half } else { 0 }) >> prod_shift
    } else {
        prod << (-prod_shift)
    }
}

/// Parameters of the 32-bit lane accumulation (None = i64 fallback).
#[derive(Debug, Clone, Copy)]
struct I32Path {
    shift: u32,
    half: i32,
    max_terms: usize,
}

/// Everything a tile compute needs besides the buffer and outputs.
struct TileCtx<'a> {
    layer: &'a SchedLayer,
    pattern: Pattern,
    prod_shift: i32,
    i32_path: Option<I32Path>,
    in_base: usize,
    w_base: usize,
    o_base: usize,
    /// This is the last n-tile: outputs are final.
    last_n: bool,
    /// This is the first n-tile: accumulators start from zero.
    first_n: bool,
    /// Timestamp (µs) at which all of this tile's accesses resolve.
    end: f64,
    m0: usize,
    tm_e: usize,
    n0: usize,
    tn_e: usize,
    r0: usize,
    tr_e: usize,
    c0: usize,
    tc_e: usize,
}

/// Reusable per-layer scratch: every buffer here is grown on demand and
/// reused across tiles, so the steady-state tile loop allocates nothing.
#[derive(Default)]
struct ExecArena {
    /// A(iy): valid (oi, u) pairs hitting input row iy.
    a_cnt: Vec<u64>,
    /// B(ix): valid (oj, v) pairs hitting input column ix.
    b_mult: Vec<u64>,
    /// U(u): valid oi count per kernel row.
    u_cnt: Vec<u64>,
    /// V(v): valid oj count per kernel column.
    v_cnt: Vec<u64>,
    /// U(u)·V(v) per weight word of a k×k block.
    w_mult: Vec<u64>,
    /// Decay-resolved input rows of the tile footprint.
    in_rows: Vec<i16>,
    /// Decay-resolved k×k weight blocks of the tile.
    w_block: Vec<i16>,
    /// 32-bit accumulator lanes (one per output column of the tile).
    acc32: Vec<i32>,
    /// 64-bit accumulators the lanes drain into.
    acc64: Vec<i64>,
    /// Output-partial row scratch.
    part_row: Vec<i16>,
    /// Clamped writeback row scratch.
    clamp_row: Vec<i16>,
}

/// Grows `v` to at least `n` elements and returns the `n`-sized prefix.
fn grown<T: Clone + Default>(v: &mut Vec<T>, n: usize) -> &mut [T] {
    if v.len() < n {
        v.resize(n, T::default());
    }
    &mut v[..n]
}

/// The reference tile compute: per-word buffer reads, one MAC at a time.
fn scalar_tile(ctx: &TileCtx<'_>, mem: &mut EdramArray, outputs: &mut [i16]) {
    let ly = ctx.layer;
    let k = ly.k;
    let end = ctx.end;
    for m in ctx.m0..ctx.m0 + ctx.tm_e {
        for oi in ctx.r0..ctx.r0 + ctx.tr_e {
            for oj in ctx.c0..ctx.c0 + ctx.tc_e {
                let out_addr = (m * ly.r + oi) * ly.c + oj;
                // Running partial: OD reads it back from the buffer (the
                // self-refreshing reread); ID/WD keep it in the PE
                // accumulators across their innermost N loop — modeled by
                // the stash in `outputs` (16-bit writeback granularity).
                let mut acc: i64 = if ctx.first_n {
                    0
                } else {
                    match ctx.pattern {
                        Pattern::Od => i64::from(mem.read(ctx.o_base + out_addr, end)),
                        Pattern::Id | Pattern::Wd => i64::from(outputs[out_addr]),
                    }
                };
                for ch in ctx.n0..ctx.n0 + ctx.tn_e {
                    for u in 0..k {
                        let iy = (oi * ly.s + u) as isize - ly.pad as isize;
                        if iy < 0 || iy >= ly.h as isize {
                            continue;
                        }
                        for v in 0..k {
                            let ix = (oj * ly.s + v) as isize - ly.pad as isize;
                            if ix < 0 || ix >= ly.l as isize {
                                continue;
                            }
                            let in_addr = (ch * ly.h + iy as usize) * ly.l + ix as usize;
                            let w_addr = ((m * ly.n + ch) * k + u) * k + v;
                            let x = i64::from(mem.read(ctx.in_base + in_addr, end));
                            let w = i64::from(mem.read(ctx.w_base + w_addr, end));
                            acc += shift_product(x * w, ctx.prod_shift);
                        }
                    }
                }
                let clamped = acc.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16;
                match ctx.pattern {
                    Pattern::Od => {
                        // Partial written back every pass (the
                        // accumulation that self-refreshes).
                        mem.write(ctx.o_base + out_addr, clamped, end);
                        if ctx.last_n {
                            outputs[out_addr] = mem.read(ctx.o_base + out_addr, end);
                        }
                    }
                    Pattern::Id | Pattern::Wd => {
                        if ctx.last_n {
                            mem.write(ctx.o_base + out_addr, clamped, end);
                        }
                        outputs[out_addr] = clamped;
                    }
                }
            }
        }
    }
}

/// The blocked tile compute: charge decay resolved once per buffer row
/// into arena scratch (with exact access multiplicities), then a
/// lane-parallel MAC nest over contiguous rows.
///
/// Equivalence to [`scalar_tile`] rests on two facts: every read of this
/// tile resolves at the same timestamp `end`, and resolution is a pure
/// function of `(address, timestamp)` — so reading a word once and
/// reusing the value is indistinguishable from re-reading it, as long as
/// reads/faults are accounted with the scalar engine's multiplicities:
/// input word (ch, iy, ix) is read `tm_e · A(iy) · B(ix)` times, weight
/// word (m, ch, u, v) `U(u) · V(v)` times.
fn blocked_tile(
    ctx: &TileCtx<'_>,
    mem: &mut EdramArray,
    outputs: &mut [i16],
    arena: &mut ExecArena,
) {
    let ly = ctx.layer;
    let (k, s, pad) = (ly.k, ly.s, ly.pad as isize);
    let k2 = k * k;
    let end = ctx.end;

    // Tile input footprint, clipped to the feature map.
    let iy_min = (ctx.r0 * s) as isize - pad;
    let iy_max = ((ctx.r0 + ctx.tr_e - 1) * s + k - 1) as isize - pad;
    let iy_lo = iy_min.max(0) as usize;
    let n_iy = (iy_max.min(ly.h as isize - 1) + 1 - iy_lo as isize).max(0) as usize;
    let ix_min = (ctx.c0 * s) as isize - pad;
    let ix_max = ((ctx.c0 + ctx.tc_e - 1) * s + k - 1) as isize - pad;
    let ix_lo = ix_min.max(0) as usize;
    let n_ix = (ix_max.min(ly.l as isize - 1) + 1 - ix_lo as isize).max(0) as usize;
    let row_w = n_ix;

    let ExecArena {
        a_cnt,
        b_mult,
        u_cnt,
        v_cnt,
        w_mult,
        in_rows,
        w_block,
        acc32,
        acc64,
        part_row,
        clamp_row,
    } = arena;

    // Access multiplicities of the scalar loop nest over this tile.
    let a_cnt = grown(a_cnt, n_iy);
    let u_cnt = grown(u_cnt, k);
    a_cnt.fill(0);
    u_cnt.fill(0);
    for oi_ in 0..ctx.tr_e {
        for (u, uc) in u_cnt.iter_mut().enumerate() {
            let iy = ((ctx.r0 + oi_) * s + u) as isize - pad;
            if (0..ly.h as isize).contains(&iy) {
                a_cnt[iy as usize - iy_lo] += 1;
                *uc += 1;
            }
        }
    }
    let b_mult = grown(b_mult, n_ix);
    let v_cnt = grown(v_cnt, k);
    b_mult.fill(0);
    v_cnt.fill(0);
    for oj_ in 0..ctx.tc_e {
        for (v, vc) in v_cnt.iter_mut().enumerate() {
            let ix = ((ctx.c0 + oj_) * s + v) as isize - pad;
            if (0..ly.l as isize).contains(&ix) {
                b_mult[ix as usize - ix_lo] += 1;
                *vc += 1;
            }
        }
    }
    let w_mult = grown(w_mult, k2);
    for u in 0..k {
        for v in 0..k {
            w_mult[u * k + v] = u_cnt[u] * v_cnt[v];
        }
    }

    // Resolve the tile's input rows and weight blocks once each, with the
    // multiplicities above charged to the access statistics.
    let in_rows = grown(in_rows, ctx.tn_e * n_iy * row_w);
    for ci in 0..ctx.tn_e {
        let ch = ctx.n0 + ci;
        for (yi, &a) in a_cnt.iter().enumerate() {
            if a == 0 {
                continue; // row never touched by this tile (stride gap)
            }
            let addr = ctx.in_base + (ch * ly.h + iy_lo + yi) * ly.l + ix_lo;
            let dst = &mut in_rows[(ci * n_iy + yi) * row_w..][..row_w];
            mem.read_row_weighted(addr, end, dst, b_mult, ctx.tm_e as u64 * a);
        }
    }
    let w_block = grown(w_block, ctx.tm_e * ctx.tn_e * k2);
    for mi_ in 0..ctx.tm_e {
        for ci in 0..ctx.tn_e {
            let addr = ctx.w_base + ((ctx.m0 + mi_) * ly.n + ctx.n0 + ci) * k2;
            let dst = &mut w_block[(mi_ * ctx.tn_e + ci) * k2..][..k2];
            mem.read_row_weighted(addr, end, dst, w_mult, 1);
        }
    }

    let acc32 = grown(acc32, ctx.tc_e);
    let acc64 = grown(acc64, ctx.tc_e);
    let part_row = grown(part_row, ctx.tc_e);
    let clamp_row = grown(clamp_row, ctx.tc_e);

    for mi_ in 0..ctx.tm_e {
        let m = ctx.m0 + mi_;
        for oi_ in 0..ctx.tr_e {
            let oi = ctx.r0 + oi_;
            let out_row = (m * ly.r + oi) * ly.c + ctx.c0;
            if ctx.first_n {
                acc64.fill(0);
            } else {
                match ctx.pattern {
                    Pattern::Od => {
                        mem.read_row_into(ctx.o_base + out_row, end, part_row);
                        for (a, &p) in acc64.iter_mut().zip(part_row.iter()) {
                            *a = i64::from(p);
                        }
                    }
                    Pattern::Id | Pattern::Wd => {
                        for (a, &p) in acc64.iter_mut().zip(&outputs[out_row..out_row + ctx.tc_e]) {
                            *a = i64::from(p);
                        }
                    }
                }
            }
            acc32.fill(0);
            let mut terms = 0usize;
            for ci in 0..ctx.tn_e {
                for u in 0..k {
                    let iy = (oi * s + u) as isize - pad;
                    if !(0..ly.h as isize).contains(&iy) {
                        continue;
                    }
                    let x_row = &in_rows[(ci * n_iy + (iy as usize - iy_lo)) * row_w..][..row_w];
                    for v in 0..k {
                        let w = w_block[(mi_ * ctx.tn_e + ci) * k2 + u * k + v];
                        // Output-column lanes whose input column is in
                        // bounds: ix = base_ix + lane·s ∈ [0, l).
                        let base_ix = (ctx.c0 * s + v) as isize - pad;
                        let lane_lo =
                            if base_ix >= 0 { 0 } else { ((-base_ix) as usize).div_ceil(s) };
                        let lane_hi = if base_ix >= ly.l as isize {
                            0
                        } else {
                            ((ly.l as isize - base_ix) as usize).div_ceil(s).min(ctx.tc_e)
                        };
                        if lane_lo >= lane_hi {
                            continue;
                        }
                        let off0 = (base_ix + (lane_lo * s) as isize) as usize - ix_lo;
                        match ctx.i32_path {
                            Some(p) => {
                                let lanes = &mut acc32[lane_lo..lane_hi];
                                if s == 1 {
                                    kernel::mac_row_s1(
                                        lanes,
                                        &x_row[off0..off0 + (lane_hi - lane_lo)],
                                        w,
                                        p.shift,
                                        p.half,
                                    );
                                } else {
                                    kernel::mac_row_strided(
                                        lanes,
                                        &x_row[off0..],
                                        s,
                                        w,
                                        p.shift,
                                        p.half,
                                    );
                                }
                                // Lanes gain at most one term per kernel
                                // call: drain before an i32 could overflow.
                                terms += 1;
                                if terms == p.max_terms {
                                    terms = 0;
                                    for (a64, a32) in acc64.iter_mut().zip(acc32.iter_mut()) {
                                        *a64 += i64::from(*a32);
                                        *a32 = 0;
                                    }
                                }
                            }
                            None => {
                                let wv = i64::from(w);
                                for (j, a64) in acc64[lane_lo..lane_hi].iter_mut().enumerate() {
                                    let x = i64::from(x_row[off0 + j * s]);
                                    *a64 += shift_product(x * wv, ctx.prod_shift);
                                }
                            }
                        }
                    }
                }
            }
            for (a64, a32) in acc64.iter_mut().zip(acc32.iter_mut()) {
                *a64 += i64::from(*a32);
                *a32 = 0;
            }
            for (c, &a) in clamp_row.iter_mut().zip(acc64.iter()) {
                *c = a.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16;
            }
            match ctx.pattern {
                Pattern::Od => {
                    mem.write_slice(ctx.o_base + out_row, clamp_row, end);
                    if ctx.last_n {
                        mem.read_row_into(ctx.o_base + out_row, end, part_row);
                        outputs[out_row..out_row + ctx.tc_e].copy_from_slice(part_row);
                    }
                }
                Pattern::Id | Pattern::Wd => {
                    if ctx.last_n {
                        mem.write_slice(ctx.o_base + out_row, clamp_row, end);
                    }
                    outputs[out_row..out_row + ctx.tc_e].copy_from_slice(clamp_row);
                }
            }
        }
    }
}

fn iteration_cycles(
    cfg: &AcceleratorConfig,
    tn_e: usize,
    k2: u64,
    tm_e: usize,
    tr_e: usize,
    tc_e: usize,
) -> u64 {
    use crate::config::PeOrganization;
    let rows = (tm_e.div_ceil(cfg.pe_rows)) as u64;
    match cfg.organization {
        PeOrganization::PixelColumns => {
            tn_e as u64 * k2 * rows * ((tr_e * tc_e).div_ceil(cfg.pe_cols)) as u64
        }
        PeOrganization::ChannelColumns => {
            (tn_e.div_ceil(cfg.pe_cols)) as u64 * k2 * rows * (tr_e * tc_e) as u64
        }
    }
}

/// A retention distribution whose weakest cell outlives any simulation:
/// models ideal (SRAM) storage through the same code path.
fn ideal_distribution() -> RetentionDistribution {
    RetentionDistribution::from_anchors(vec![(1e15, 0.5), (2e15, 1.0)]).expect("valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rana_edram::RetentionDistribution;

    /// A small layer plus golden-model reference convolution.
    fn small_layer() -> (SchedLayer, Vec<i16>, Vec<i16>) {
        let layer = SchedLayer {
            name: "small".into(),
            n: 4,
            h: 8,
            l: 8,
            m: 6,
            k: 3,
            s: 1,
            r: 8,
            c: 8,
            pad: 1,
            groups: 1,
        };
        let inputs: Vec<i16> = (0..4 * 8 * 8).map(|i| ((i * 37 + 11) % 251) as i16 - 125).collect();
        let weights: Vec<i16> = (0..6 * 4 * 9).map(|i| ((i * 53 + 7) % 127) as i16 - 63).collect();
        (layer, inputs, weights)
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
                                acc += if shift > 0 {
                                    (prod + (1 << (shift - 1))) >> shift
                                } else {
                                    prod
                                };
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

    #[test]
    fn ideal_buffer_matches_reference_all_patterns() {
        let (layer, inputs, weights) = small_layer();
        let cfg = AcceleratorConfig::paper_edram();
        let f = Formats::default();
        let golden = reference_conv(&layer, &inputs, &weights, f);
        for pattern in Pattern::ALL {
            for tiling in [Tiling::new(16, 16, 1, 16), Tiling::new(4, 2, 3, 5)] {
                let r = execute_layer(
                    &layer,
                    pattern,
                    tiling,
                    &cfg,
                    &inputs,
                    &weights,
                    f,
                    &BufferModel::Ideal,
                );
                // Tiled accumulation order can differ by rounding of the
                // per-product shift; with our integer shift applied per
                // product identically, results are exact.
                assert_eq!(r.outputs, golden, "{pattern} {tiling}");
                assert_eq!(r.faults, 0);
            }
        }
    }

    #[test]
    fn engines_agree_exactly_on_everything() {
        // Not just outputs: cycles, reads, faults, refresh_words — the
        // thermal-validation path consumes the statistics, so the blocked
        // engine must reproduce the scalar engine's accounting bit for
        // bit, decayed buffers and refresh included.
        let (layer, inputs, weights) = small_layer();
        let cfg = slow_cfg(1e6);
        let f = Formats::default();
        let models = [
            BufferModel::Ideal,
            BufferModel::Edram { dist: sharp_dist(), seed: 7, refresh: None },
            BufferModel::Edram {
                dist: sharp_dist(),
                seed: 7,
                refresh: Some(RefreshConfig::conventional(45.0)),
            },
        ];
        for model in &models {
            for pattern in Pattern::ALL {
                for tiling in [Tiling::new(16, 16, 1, 16), Tiling::new(4, 2, 3, 5)] {
                    let scalar = execute_layer_with(
                        Engine::Scalar,
                        &layer,
                        pattern,
                        tiling,
                        &cfg,
                        &inputs,
                        &weights,
                        f,
                        model,
                    );
                    let blocked = execute_layer_with(
                        Engine::Blocked,
                        &layer,
                        pattern,
                        tiling,
                        &cfg,
                        &inputs,
                        &weights,
                        f,
                        model,
                    );
                    assert_eq!(scalar, blocked, "{pattern} {tiling}");
                }
            }
        }
    }

    #[test]
    fn engines_agree_on_strided_layer() {
        // Stride 2 with k=3 exercises the strided kernel and the
        // stride-gap rows the blocked fetch must skip.
        let layer = SchedLayer {
            name: "strided".into(),
            n: 3,
            h: 9,
            l: 9,
            m: 4,
            k: 3,
            s: 2,
            r: 5,
            c: 5,
            pad: 1,
            groups: 1,
        };
        let inputs: Vec<i16> = (0..3 * 81).map(|i| ((i * 91 + 5) % 211) as i16 - 105).collect();
        let weights: Vec<i16> = (0..4 * 3 * 9).map(|i| ((i * 43 + 3) % 97) as i16 - 48).collect();
        let cfg = AcceleratorConfig::paper_edram();
        let f = Formats::default();
        for pattern in Pattern::ALL {
            let scalar = execute_layer_with(
                Engine::Scalar,
                &layer,
                pattern,
                Tiling::new(3, 2, 2, 3),
                &cfg,
                &inputs,
                &weights,
                f,
                &BufferModel::Ideal,
            );
            let blocked = execute_layer_with(
                Engine::Blocked,
                &layer,
                pattern,
                Tiling::new(3, 2, 2, 3),
                &cfg,
                &inputs,
                &weights,
                f,
                &BufferModel::Ideal,
            );
            assert_eq!(scalar, blocked, "{pattern}");
        }
    }

    #[test]
    fn engines_agree_on_i64_fallback_formats() {
        // prod_shift = 0 and negative shifts bypass the i32 lane path;
        // the fallback must still match the scalar engine exactly.
        let (layer, inputs, weights) = small_layer();
        let cfg = AcceleratorConfig::paper_edram();
        for f in [
            Formats { input_frac: 4, weight_frac: 4, output_frac: 8 }, // shift 0
            Formats { input_frac: 2, weight_frac: 2, output_frac: 6 }, // shift -2
        ] {
            // Small operands keep the unshifted accumulation in range.
            let small_in: Vec<i16> = inputs.iter().map(|&x| x % 8).collect();
            let small_w: Vec<i16> = weights.iter().map(|&x| x % 4).collect();
            let scalar = execute_layer_with(
                Engine::Scalar,
                &layer,
                Pattern::Od,
                Tiling::new(4, 2, 3, 5),
                &cfg,
                &small_in,
                &small_w,
                f,
                &BufferModel::Ideal,
            );
            let blocked = execute_layer_with(
                Engine::Blocked,
                &layer,
                Pattern::Od,
                Tiling::new(4, 2, 3, 5),
                &cfg,
                &small_in,
                &small_w,
                f,
                &BufferModel::Ideal,
            );
            assert_eq!(scalar, blocked, "shift {}", f.prod_shift());
        }
    }

    #[test]
    fn grouped_execution_concatenates_groups() {
        let (sub, inputs, weights) = small_layer();
        let g = 2;
        let layer = SchedLayer { groups: g, ..sub.clone() };
        let mut inputs2 = inputs.clone();
        inputs2.extend(inputs.iter().map(|&x| x.wrapping_add(3)));
        let mut weights2 = weights.clone();
        weights2.extend(weights.iter().rev());
        let cfg = AcceleratorConfig::paper_edram();
        let f = Formats::default();
        let r = execute_layer_grouped(
            &layer,
            Pattern::Od,
            Tiling::new(4, 2, 3, 5),
            &cfg,
            &inputs2,
            &weights2,
            f,
            &BufferModel::Ideal,
        );
        let in_g = sub.n * sub.h * sub.l;
        let w_g = sub.m * sub.n * sub.k * sub.k;
        let mut want = Vec::new();
        let mut cycles = 0;
        for gi in 0..g {
            let rg = execute_layer(
                &sub,
                Pattern::Od,
                Tiling::new(4, 2, 3, 5),
                &cfg,
                &inputs2[gi * in_g..(gi + 1) * in_g],
                &weights2[gi * w_g..(gi + 1) * w_g],
                f,
                &BufferModel::Ideal,
            );
            want.extend(rg.outputs);
            cycles += rg.cycles;
        }
        assert_eq!(r.outputs, want);
        assert_eq!(r.cycles, cycles);
        // groups == 1 passes straight through.
        let direct = execute_layer(
            &sub,
            Pattern::Od,
            Tiling::new(4, 2, 3, 5),
            &cfg,
            &inputs,
            &weights,
            f,
            &BufferModel::Ideal,
        );
        let via_grouped = execute_layer_grouped(
            &sub,
            Pattern::Od,
            Tiling::new(4, 2, 3, 5),
            &cfg,
            &inputs,
            &weights,
            f,
            &BufferModel::Ideal,
        );
        assert_eq!(direct, via_grouped);
    }

    #[test]
    fn functional_cycles_match_trace() {
        let (layer, inputs, weights) = small_layer();
        let cfg = AcceleratorConfig::paper_edram();
        for pattern in Pattern::ALL {
            let tiling = Tiling::new(4, 2, 2, 4);
            let r = execute_layer(
                &layer,
                pattern,
                tiling,
                &cfg,
                &inputs,
                &weights,
                Formats::default(),
                &BufferModel::Ideal,
            );
            let t = crate::trace::trace(&layer, pattern, tiling, &cfg);
            assert_eq!(r.cycles, t.cycles, "{pattern}");
        }
    }

    #[test]
    fn refreshed_edram_matches_reference() {
        let (layer, inputs, weights) = small_layer();
        let cfg = AcceleratorConfig::paper_edram();
        let f = Formats::default();
        let golden = reference_conv(&layer, &inputs, &weights, f);
        let model = BufferModel::Edram {
            dist: RetentionDistribution::kong2008(),
            seed: 7,
            refresh: Some(RefreshConfig::conventional(45.0)),
        };
        let r = execute_layer(
            &layer,
            Pattern::Od,
            Tiling::new(16, 16, 1, 16),
            &cfg,
            &inputs,
            &weights,
            f,
            &model,
        );
        assert_eq!(r.outputs, golden, "45 us refresh must keep everything intact");
    }

    #[test]
    fn unrefreshed_edram_still_correct_when_lifetimes_are_short() {
        // The whole point of RANA: this small layer executes in far less
        // than the tolerable retention time, so NO refresh is needed.
        let (layer, inputs, weights) = small_layer();
        let cfg = AcceleratorConfig::paper_edram();
        let f = Formats::default();
        let golden = reference_conv(&layer, &inputs, &weights, f);
        let model =
            BufferModel::Edram { dist: RetentionDistribution::kong2008(), seed: 7, refresh: None };
        let r = execute_layer(
            &layer,
            Pattern::Od,
            Tiling::new(16, 16, 1, 16),
            &cfg,
            &inputs,
            &weights,
            f,
            &model,
        );
        // Layer time: well under 45 us.
        assert!(cfg.cycles_to_us(r.cycles) < 45.0);
        assert_eq!(r.outputs, golden);
        assert_eq!(r.refresh_words, 0);
    }

    /// A slow-clock test machine with a tiny buffer (keeps the per-pulse
    /// refresh resolution cheap). Iteration time stays far below the 45 µs
    /// pulse interval, as the pulse-between-iterations model requires.
    fn slow_cfg(frequency_hz: f64) -> AcceleratorConfig {
        let mut cfg = AcceleratorConfig::paper_edram();
        cfg.frequency_hz = frequency_hz;
        cfg.buffer.num_banks = 2;
        cfg.buffer.bank_words = 2048;
        cfg
    }

    /// A sharp-knee retention curve: essentially fault-free below 100 µs,
    /// fully decayed beyond 1 ms. Makes corruption/rescue deterministic.
    fn sharp_dist() -> RetentionDistribution {
        RetentionDistribution::from_anchors(vec![(100.0, 1e-7), (150.0, 1e-2), (1000.0, 1.0)])
            .unwrap()
    }

    #[test]
    fn slow_clock_without_refresh_corrupts() {
        // On a 1 MHz clock the layer takes ~1.2 ms — past the sharp
        // distribution's 1 ms tail — while each tile iteration stays under
        // the 45 µs pulse interval.
        let (layer, inputs, weights) = small_layer();
        let cfg = slow_cfg(1e6);
        let f = Formats::default();
        let golden = reference_conv(&layer, &inputs, &weights, f);
        let model = BufferModel::Edram { dist: sharp_dist(), seed: 7, refresh: None };
        let r = execute_layer(
            &layer,
            Pattern::Id,
            Tiling::new(4, 4, 2, 2),
            &cfg,
            &inputs,
            &weights,
            f,
            &model,
        );
        assert!(cfg.cycles_to_us(r.cycles) > 1000.0, "layer should outlive the retention tail");
        assert!(r.faults > 0, "expected retention faults on a ms-long run");
        assert_ne!(r.outputs, golden);

        // And conventional refresh at 45 us rescues it (max unrefreshed
        // age ~81 us, well below the 100 us knee).
        let model = BufferModel::Edram {
            dist: sharp_dist(),
            seed: 7,
            refresh: Some(RefreshConfig::conventional(45.0)),
        };
        let r = execute_layer(
            &layer,
            Pattern::Id,
            Tiling::new(4, 4, 2, 2),
            &cfg,
            &inputs,
            &weights,
            f,
            &model,
        );
        assert_eq!(r.outputs, golden);
        assert!(r.refresh_words > 0);
    }

    #[test]
    fn od_self_refresh_property() {
        // Retention knee at 30 ms, full decay at 60 ms. At 1.8 kHz one
        // n-tile pass takes ~20 ms (< 30 ms) but the whole layer ~80 ms
        // (> 60 ms): OD's accumulation rewrites keep the outputs alive
        // with zero refresh, while ID — whose inputs sit untouched for
        // the whole layer — corrupts.
        let (layer, inputs, weights) = small_layer();
        let cfg = slow_cfg(1800.0);
        let f = Formats::default();
        let dist =
            RetentionDistribution::from_anchors(vec![(30_000.0, 1e-7), (60_000.0, 1.0)]).unwrap();
        let golden = reference_conv(&layer, &inputs, &weights, f);

        let model = BufferModel::Edram { dist: dist.clone(), seed: 7, refresh: None };
        let od = execute_layer(
            &layer,
            Pattern::Od,
            Tiling::new(6, 1, 8, 8),
            &cfg,
            &inputs,
            &weights,
            f,
            &model,
        );
        assert!(cfg.cycles_to_us(od.cycles) > 60_000.0, "layer must exceed the retention tail");
        assert_eq!(od.outputs, golden, "accumulation rewrites must act as refresh");
        assert_eq!(od.refresh_words, 0);

        let model = BufferModel::Edram { dist, seed: 7, refresh: None };
        let id = execute_layer(
            &layer,
            Pattern::Id,
            Tiling::new(6, 1, 8, 8),
            &cfg,
            &inputs,
            &weights,
            f,
            &model,
        );
        assert_ne!(id.outputs, golden, "ID's whole-layer input lifetime must corrupt");
    }
}
