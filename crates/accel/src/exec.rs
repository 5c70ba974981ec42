//! Functional execution engine: real 16-bit data through the accelerator.
//!
//! Runs a CONV layer's actual arithmetic through the tile walk the trace
//! simulator runs too (one loop order, one set of reuse scopes and one
//! cycle count per tile for both), but with the unified buffer backed by
//! the *charge-level* eDRAM model of `rana-edram`: every buffer word
//! carries a write timestamp, ages with the cycle clock, and reads back
//! corrupted bits once its cell retention is exceeded — unless a refresh
//! pulse (or an OD accumulation rewrite, the paper's self-refresh)
//! recharges it first.
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
//!   buffer word, reading each of a tile's operand boxes (inputs, weights,
//!   output partials) in as few contiguous pieces as it allows, with
//!   per-word access multiplicities so read/fault accounting matches the
//!   scalar engine exactly. All reads in a tile resolve at the same
//!   timestamp and resolution is pure, so hoisting them is observationally
//!   equivalent. It then runs register-blocked micro-kernels: each output
//!   keeps its rounded products' 32-bit sums in a local block of 16 lanes
//!   for its whole (input channel, u, v) reduction, which the compiler
//!   autovectorizes, and adds the block to its partial once. The lanes are
//!   the tile's output channels, the axis the PE array's rows compute in
//!   parallel, over weights transposed once per tile — unless the tile's
//!   output columns need fewer 16-lane blocks and are not strided, as in a
//!   depthwise group (one channel) or a 1×1 layer on a wide map; then the
//!   columns are the lanes. Each product is rounded before it is summed and
//!   the sums are exact, so the summation order cannot change a bit. A
//!   layer call whose longest reduction (`Tn·K²` steps) does not fit one
//!   32-bit run at its product shift, or whose shift is off the 32-bit
//!   path, runs every tile on the scalar engine's reference tile instead,
//!   which by the engines' contract gives the same outputs, reads, faults
//!   and cycles. At the default shift of 12 a run holds 8,191 steps.
//!
//! The geometry of a tile — how many times each operand word is read, and
//! which kernel taps of each output fall inside the feature map — depends
//! only on the tile's extent and on how far the map clips its input
//! footprint. A layer call plans it once per clip class of its row tiles
//! and of its column tiles (the interior tiles form one class), and every
//! tile and channel group looks its plan up.
//!
//! Both engines resolve decay through `EdramArray`. Its weakest-cell
//! filter returns a word as stored whenever the failure rate of the word's
//! age is at or below a power-of-two floor under its weakest cell's
//! retention quantile. That is exact, since no bit of such a word can
//! fail, so only the rare words with a failing cell pay for the 16 per-bit
//! retention hashes. The floors live in a [`WeakestCellMap`] with one
//! floor per word and one per block of 64 words; row reads and refresh
//! pulses, which work on runs of words that share a write timestamp, copy
//! or skip a whole block whose weakest cell outlives the run's failure
//! rate. One call builds one map and every channel group's buffer shares
//! it, as do the images of a `rana_core::execute_layer_batch` call. A
//! single-image call fills a block (all 64 floors in one kernel) when a
//! decayed read first needs it; in a batch on eDRAM the first image on
//! each worker fills an equal share of one group's [`resident_words`]
//! before it runs, so each block is filled about once per batch, even
//! where the data never decays.
//!
//! Refresh comes from the one pulse driver, `rana-edram`'s
//! `RefreshIssuer`: each channel group's buffer gets a fresh issuer at
//! time zero, which fires pulse `k` at `k·interval` and is advanced to the
//! end of every tile before the tile's reads resolve, so a group refreshes
//! `⌊t / interval⌋` times by time `t`.
//!
//! A refresh pulse costs the buffer what it holds: `EdramArray` stamps a
//! pulse on the bank, not on each word, and resolves only the blocks of
//! the bank's written words whose weakest cell may fail at the age of the
//! bank's oldest charge. The channel groups of a call run one after
//! another on one scratch arena, and each group's buffer is built on the
//! storage the previous buffer dropped (cleaned over what it wrote), so a
//! layer neither allocates nor clears a buffer per group.
//!
//! Scope: the resident sets must fit the buffer (no spill modeling here —
//! use small layers or a big buffer; the analytic engines cover spills).

use crate::config::AcceleratorConfig;
use crate::kernel::{self, LANES};
use crate::layer::SchedLayer;
use crate::pattern::{tiles, Pattern, Tile, TileAxis, Tiling};
use rana_edram::controller::RefreshIssuer;
use rana_edram::{EdramArray, RefreshConfig, RetentionDistribution, WeakestCellMap};
use std::ops::Range;
use std::sync::Arc;

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

impl BufferModel {
    /// A fresh weakest-cell map of this model's cells on `cfg`'s buffer:
    /// what the buffer simulations of one functional call share (see
    /// [`execute_layer_grouped_on`]).
    pub fn cell_map(&self, cfg: &AcceleratorConfig) -> Arc<WeakestCellMap> {
        let words = cfg.buffer.num_banks * cfg.buffer.bank_words;
        Arc::new(WeakestCellMap::new(self.cell_seed(), words))
    }

    /// The per-cell retention seed (0 for ideal storage, whose cells never
    /// fail).
    fn cell_seed(&self) -> u64 {
        match self {
            BufferModel::Ideal => 0,
            BufferModel::Edram { seed, .. } => *seed,
        }
    }
}

/// Result of a functional layer execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalResult {
    /// Output feature maps, `groups × m × r × c` raw 16-bit words.
    pub outputs: Vec<i16>,
    /// Execution cycles.
    pub cycles: u64,
    /// Words refreshed by the controller during execution.
    pub refresh_words: u64,
    /// Bit faults injected over the run, counted per access: every buffer
    /// read counts the flipped bits of the word it returns, so a decayed
    /// word read twice counts them twice, and a late refresh counts the
    /// bits it locks in. Per-access counting is what makes
    /// `faults / (reads × 16)` a per-bit rate.
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
/// output format. Every field is a count of fractional bits of a 16-bit
/// word, so at most 15 (as `rana_fixq::QFormat` allows); the functional
/// engines panic on more, which keeps the shift in −15..=30.
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

/// Executes a CONV layer functionally on `engine`.
///
/// Channel groups are independent sub-convolutions (AlexNet conv2/4/5,
/// depthwise layers): each group runs the tile loop on a buffer of its
/// own (the groups share one weakest-cell map, see
/// [`execute_layer_grouped_on`]), outputs are concatenated in group
/// order, and cycles/statistics sum across groups. A layer of one group
/// is a plain convolution.
///
/// `inputs` is `groups × n × h × l` row-major, `weights` is
/// `groups × m × n × k × k` (per-group channel counts, as
/// [`SchedLayer`] carries them); outputs are `groups × m × r × c`.
///
/// # Example
///
/// ```
/// use rana_accel::exec::{execute_layer_grouped_with, BufferModel, Engine, Formats};
/// use rana_accel::{AcceleratorConfig, Pattern, SchedLayer, Tiling};
///
/// let layer = SchedLayer {
///     name: "grouped".into(), n: 1, h: 2, l: 2, m: 1, k: 1, s: 1,
///     r: 2, c: 2, pad: 0, groups: 2,
/// };
/// let cfg = AcceleratorConfig::paper_edram();
/// let inputs: Vec<i16> = (0..8).collect(); // two groups of 1x2x2
/// // Group 0 multiplies by 1.0 (Q3.12 raw 4096), group 1 by 2.0.
/// let run = |engine| {
///     execute_layer_grouped_with(engine, &layer, Pattern::Od, Tiling::new(16, 16, 1, 16),
///         &cfg, &inputs, &[4096, 8192], Formats::default(), &BufferModel::Ideal)
/// };
/// let r = run(Engine::Blocked);
/// assert_eq!(r.outputs, vec![0, 1, 2, 3, 8, 10, 12, 14]);
/// assert_eq!(run(Engine::Scalar), r);
/// ```
///
/// # Panics
///
/// Panics if the operand lengths do not match the grouped layer shape, if
/// a group's resident set overflows the buffer, if a [`Formats`] field
/// exceeds the 15 fractional bits of a 16-bit word, or if the model's
/// refresh interval is not finite and positive.
#[allow(clippy::too_many_arguments)] // mirrors the hardware interface: layer, mapping, machine, operands
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
    execute_layer_grouped_on(
        &model.cell_map(cfg),
        engine,
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

/// [`execute_layer_grouped_with`] on a caller-built weakest-cell map: the
/// one entry every functional run goes through.
///
/// Every channel group's buffer simulation resolves decay through `cells`,
/// so a block of cells is filled once per map rather than once per group.
/// A caller that runs several images of one layer builds one map with
/// [`BufferModel::cell_map`] and passes it to every image, as
/// `rana_core::execute_layer_batch` does. The map holds only pure
/// functions of the cell seed and address, so the result is the one a
/// fresh map gives.
///
/// ```
/// use rana_accel::exec::{execute_layer_grouped_on, execute_layer_grouped_with};
/// use rana_accel::exec::{BufferModel, Engine, Formats};
/// use rana_accel::{AcceleratorConfig, Pattern, SchedLayer, Tiling};
/// use rana_edram::{RefreshConfig, RetentionDistribution};
///
/// let layer = SchedLayer {
///     name: "tiny".into(), n: 1, h: 4, l: 4, m: 1, k: 1, s: 1,
///     r: 4, c: 4, pad: 0, groups: 1,
/// };
/// let cfg = AcceleratorConfig::paper_edram();
/// let model = BufferModel::Edram {
///     dist: RetentionDistribution::kong2008(),
///     seed: 7,
///     refresh: Some(RefreshConfig::conventional(45.0)),
/// };
/// let cells = model.cell_map(&cfg);
/// let args = (&layer, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
/// for image in [[3i16; 16], [-5; 16]] {
///     let shared = execute_layer_grouped_on(&cells, Engine::Blocked, args.0, args.1,
///         args.2, args.3, &image, &[4096], Formats::default(), &model);
///     let fresh = execute_layer_grouped_with(Engine::Blocked, args.0, args.1, args.2,
///         args.3, &image, &[4096], Formats::default(), &model);
///     assert_eq!(shared, fresh);
/// }
/// ```
///
/// # Panics
///
/// Same contract as [`execute_layer_grouped_with`]; also panics if `cells` is
/// on another cell seed than the model or covers fewer words than the
/// buffer holds.
#[allow(clippy::too_many_arguments)]
pub fn execute_layer_grouped_on(
    cells: &Arc<WeakestCellMap>,
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
    // Each channel group's buffer starts at time zero under a fresh copy
    // of this issuer.
    let issuer = match model {
        BufferModel::Edram { refresh: Some(rc), .. } => Some(RefreshIssuer::new(rc.clone())),
        _ => None,
    };
    // A 16-bit word has 15 fractional bits at most, which keeps the
    // product shift in −15..=30, inside both engines' shift arithmetic.
    for (operand, frac) in [
        ("input", formats.input_frac),
        ("weight", formats.weight_frac),
        ("output", formats.output_frac),
    ] {
        assert!(
            frac <= 15,
            "{operand} format has {frac} fractional bits; a 16-bit word has at most 15"
        );
    }
    assert_eq!(cells.seed(), model.cell_seed(), "weakest-cell map built for another cell seed");
    let g = layer.groups;
    let in_g = layer.n * layer.h * layer.l;
    let w_g = layer.m * layer.n * layer.k * layer.k;
    let o_g = layer.m * layer.r * layer.c;
    assert_eq!(inputs.len(), g * in_g, "input length mismatch");
    assert_eq!(weights.len(), g * w_g, "weight length mismatch");

    let sub = SchedLayer { groups: 1, ..layer.clone() };
    let tiling = tiling.clamped_to(&sub);
    let mut outputs = vec![0; g * o_g];
    let mut total =
        FunctionalResult { outputs: Vec::new(), cycles: 0, refresh_words: 0, faults: 0, reads: 0 };
    // The groups share one shape, so they share one set of tile plans; they
    // run one after another on one scratch arena, and each group's buffer
    // takes the storage the previous one dropped.
    let plans = TilePlans::new(&sub, tiling);
    let mut arena = ExecArena::default();
    // The blocked nests hold a whole reduction in one 32-bit run; a call
    // whose longest reduction does not fit one runs the reference tile.
    let lanes = match engine {
        Engine::Blocked => I32Path::for_steps(formats.prod_shift(), tiling.tn * sub.k * sub.k),
        Engine::Scalar => None,
    };
    for gi in 0..g {
        run_group(
            cells,
            issuer.clone(),
            lanes,
            &sub,
            pattern,
            tiling,
            &plans,
            cfg,
            &inputs[gi * in_g..(gi + 1) * in_g],
            &weights[gi * w_g..(gi + 1) * w_g],
            formats,
            model,
            &mut arena,
            &mut outputs[gi * o_g..(gi + 1) * o_g],
            &mut total,
        );
    }
    total.outputs = outputs;
    total
}

/// Buffer words one channel group of `layer` keeps resident in the
/// functional engine: its inputs, weights and outputs, which fill the
/// buffer from address 0 in that order. A group must fit the buffer.
///
/// ```
/// use rana_accel::exec::resident_words;
/// use rana_accel::SchedLayer;
///
/// let layer = SchedLayer {
///     name: "dw".into(), n: 1, h: 6, l: 6, m: 1, k: 3, s: 1,
///     r: 4, c: 4, pad: 0, groups: 8,
/// };
/// assert_eq!(resident_words(&layer), 36 + 9 + 16);
/// ```
pub fn resident_words(layer: &SchedLayer) -> usize {
    layer.n * layer.h * layer.l
        + layer.m * layer.n * layer.k * layer.k
        + layer.m * layer.r * layer.c
}

/// One channel group through the tile walk of the clamped tiling `t`, on
/// a buffer whose cells decay through `cells` and which `issuer` (if any)
/// refreshes, with tile geometry from `plans` and scratch space from
/// `arena`: the blocked tile on `lanes`' arithmetic, or the reference tile
/// where there is none. Writes the group's outputs into `outputs` and adds
/// its cycles and statistics to `total`.
#[allow(clippy::too_many_arguments)]
fn run_group(
    cells: &Arc<WeakestCellMap>,
    mut issuer: Option<RefreshIssuer>,
    lanes: Option<I32Path>,
    layer: &SchedLayer,
    pattern: Pattern,
    t: Tiling,
    plans: &TilePlans,
    cfg: &AcceleratorConfig,
    inputs: &[i16],
    weights: &[i16],
    formats: Formats,
    model: &BufferModel,
    arena: &mut ExecArena,
    outputs: &mut [i16],
    total: &mut FunctionalResult,
) {
    let (n_words, w_words) = (inputs.len(), weights.len());
    let capacity = cfg.buffer.num_banks * cfg.buffer.bank_words;
    let resident = resident_words(layer);
    assert!(
        resident <= capacity,
        "functional engine needs all residents to fit: {resident} words > {capacity}"
    );

    // Region base addresses in the unified buffer.
    let in_base = 0usize;
    let w_base = n_words;
    let o_base = n_words + w_words;

    let dist = match model {
        BufferModel::Ideal => ideal_distribution(),
        BufferModel::Edram { dist, .. } => dist.clone(),
    };
    let mut mem = EdramArray::with_cells(
        cfg.buffer.num_banks,
        cfg.buffer.bank_words,
        dist,
        Arc::clone(cells),
    );

    let mut clock_cycles = 0u64;
    let us = |c: u64| cfg.cycles_to_us(c);
    let k = layer.k;
    let prod_shift = formats.prod_shift();

    // The reuse scopes whose operands the buffer holds. A tile opening a
    // new scope (re)writes them, fresh from DRAM, which does not decay: the
    // data arrives recharged and its lifetime restarts, exactly the
    // lifetime analysis' assumption.
    let (mut input_scope, mut weight_scope) = (None, None);
    for tile in tiles(layer, pattern, t, cfg) {
        let ((m0, tm_e), (n0, tn_e)) = (tile.m, tile.n);
        let now = us(clock_cycles);
        if input_scope != Some(tile.input_scope) {
            input_scope = Some(tile.input_scope);
            let (lo, hi) = match pattern {
                Pattern::Od => (n0, n0 + tn_e),
                Pattern::Id | Pattern::Wd => (0, layer.n),
            };
            for ch in lo..hi {
                let off = ch * layer.h * layer.l;
                mem.write_slice(in_base + off, &inputs[off..off + layer.h * layer.l], now);
            }
        }
        if weight_scope != Some(tile.weight_scope) {
            weight_scope = Some(tile.weight_scope);
            let (nlo, nhi, mlo, mhi) = match pattern {
                Pattern::Id => (0, layer.n, m0, m0 + tm_e),
                Pattern::Od => (n0, n0 + tn_e, m0, m0 + tm_e),
                Pattern::Wd => (0, layer.n, 0, layer.m),
            };
            for m in mlo..mhi {
                let off = (m * layer.n + nlo) * k * k;
                mem.write_slice(w_base + off, &weights[off..off + (nhi - nlo) * k * k], now);
            }
        }

        // All of the tile's accesses resolve when its compute ends.
        let end = us(clock_cycles + tile.cycles);

        // Refresh runs concurrently with compute: issue every pulse due by
        // the end of this iteration before its reads resolve.
        if let Some(issuer) = &mut issuer {
            issuer.advance(&mut mem, end);
        }
        let ctx = TileCtx {
            layer,
            pattern,
            prod_shift,
            in_base,
            w_base,
            o_base,
            end,
            tile,
            plan: plans.get(tile.rci),
        };
        match lanes {
            Some(p) => blocked_tile(&ctx, p, &mut mem, outputs, arena),
            None => scalar_tile(&ctx, &mut mem, outputs),
        }
        clock_cycles += tile.cycles;
    }

    // Fault/read accounting comes from the memory model itself: reads are
    // the compute-side accesses (refresh resolutions don't count reads);
    // faults count a decayed word's flipped bits at every access that
    // resolves them, each read again and a late refresh once, so
    // `faults / (reads × 16)` is a per-bit rate of end-to-end corruption.
    let stats = mem.stats();
    let refresh_words = issuer.map_or(0, |issuer| issuer.issued_words());
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
    total.cycles += clock_cycles;
    total.refresh_words += refresh_words;
    total.faults += stats.faults;
    total.reads += stats.reads;
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

/// The 32-bit lane arithmetic of the blocked nests: each rounded product
/// is `(x·w + half) >> shift`.
#[derive(Debug, Clone, Copy)]
struct I32Path {
    shift: u32,
    half: i32,
}

impl I32Path {
    /// The lane arithmetic for reductions of up to `steps` products at
    /// `prod_shift`, if one 32-bit run holds them. A rounded product is at
    /// most `t_max = (2³⁰ + half) >> shift` in magnitude, so `i32::MAX /
    /// t_max` of them always fit; shifts outside 1..=30 have no lane
    /// arithmetic.
    fn for_steps(prod_shift: i32, steps: usize) -> Option<Self> {
        if !(1..=30).contains(&prod_shift) {
            return None;
        }
        let half = 1i32 << (prod_shift - 1);
        let t_max = ((1i64 << 30) + i64::from(half)) >> prod_shift;
        let max_terms = (i64::from(i32::MAX) / t_max) as usize;
        (steps <= max_terms).then_some(Self { shift: prod_shift as u32, half })
    }
}

/// Everything a tile compute needs besides the buffer and outputs.
struct TileCtx<'a> {
    layer: &'a SchedLayer,
    pattern: Pattern,
    prod_shift: i32,
    in_base: usize,
    w_base: usize,
    o_base: usize,
    /// Timestamp (µs) at which all of this tile's accesses resolve.
    end: f64,
    /// The tile's extents and place in the loop nest.
    tile: Tile,
    /// The tile's geometry (the blocked engine reads it; the scalar engine
    /// works everything out per access).
    plan: TilePlan<'a>,
}

/// One spatial axis of a tile (its output rows, or its output columns)
/// against the input footprint it reads, relative to the footprint's
/// unclipped start. It depends only on the tile's extent and on how much of
/// the footprint the feature map clips off, so every tile of one clip class
/// shares it; the interior tiles form one class. Described for rows.
#[derive(Debug)]
struct AxisPlan {
    /// Footprint rows the map clips off before the first visible one.
    skip: usize,
    /// Visible footprint rows.
    len: usize,
    /// A(iy): the (output row, kernel row u) pairs that read each visible
    /// footprint row.
    hits: Vec<u64>,
    /// U(u): the output rows whose kernel row u reads a visible row.
    taps: Vec<u64>,
    /// Per output row: the kernel rows lo..hi that read a visible row, and
    /// the visible row that kernel row lo reads (lo == hi: none).
    outs: Vec<(usize, usize, usize)>,
    /// Per kernel row: the output rows lo..hi it reads a visible row for,
    /// and the visible row that output row lo reads (lo == hi: none).
    lanes: Vec<(usize, usize, usize)>,
}

impl AxisPlan {
    /// The axis of `ext` outputs whose footprint has `skip` rows clipped
    /// off before `len` visible ones, at stride `s` with a `k`-row kernel.
    fn new(ext: usize, skip: usize, len: usize, s: usize, k: usize) -> Self {
        let (mut hits, mut taps) = (vec![0; len], vec![0; k]);
        let outs = (0..ext)
            .map(|o| {
                // Kernel rows u with o·s + u in [skip, skip + len).
                let lo = skip.saturating_sub(o * s).min(k);
                let hi = (skip + len).saturating_sub(o * s).min(k);
                for u in lo..hi {
                    hits[o * s + u - skip] += 1;
                    taps[u] += 1;
                }
                if lo < hi {
                    (lo, hi, o * s + lo - skip)
                } else {
                    (0, 0, 0)
                }
            })
            .collect();
        let lanes = (0..k)
            .map(|u| {
                // Output rows o with o·s + u in [skip, skip + len).
                let lo = skip.saturating_sub(u).div_ceil(s);
                let hi = (skip + len).saturating_sub(u).div_ceil(s).min(ext);
                if lo < hi {
                    (lo, hi, lo * s + u - skip)
                } else {
                    (0, 0, 0)
                }
            })
            .collect();
        Self { skip, len, hits, taps, outs, lanes }
    }

    /// The clip classes of the tiles of `t` outputs over `outs` output rows
    /// read from `dim` input rows: each class's plan, and each tile's class.
    fn classes(outs: usize, t: usize, dim: usize, layer: &SchedLayer) -> (Vec<Self>, Vec<usize>) {
        let (s, k, pad) = (layer.s, layer.k, layer.pad as isize);
        let mut keys = Vec::new();
        let class_of = TileAxis::new(outs, t)
            .iter()
            .map(|(o0, ext)| {
                // The footprint [lo, hi) and the map's part of it.
                let lo = (o0 * s) as isize - pad;
                let hi = ((o0 + ext - 1) * s + k) as isize - pad;
                let (vis_lo, vis_hi) = (lo.max(0), hi.min(dim as isize));
                let key = if vis_lo < vis_hi {
                    (ext, (vis_lo - lo) as usize, (vis_hi - vis_lo) as usize)
                } else {
                    (ext, 0, 0)
                };
                keys.iter().position(|&seen| seen == key).unwrap_or_else(|| {
                    keys.push(key);
                    keys.len() - 1
                })
            })
            .collect();
        let plans = keys.into_iter().map(|(ext, skip, len)| Self::new(ext, skip, len, s, k));
        (plans.collect(), class_of)
    }
}

/// The tile geometry of one layer call, planned once: an [`AxisPlan`] per
/// clip class of the row tiles and of the column tiles, and the operand
/// multiplicities per pair of classes. The channel groups of a call share
/// one shape, so they share the plans.
struct TilePlans {
    rows: Vec<AxisPlan>,
    /// The class of each row tile.
    row_of: Vec<usize>,
    cols: Vec<AxisPlan>,
    /// The class of each column tile.
    col_of: Vec<usize>,
    /// Per (row class, column class), row class major: A(iy)·B(ix) per
    /// word of the longest contiguous input piece, and U(u)·V(v) per word
    /// of the longest contiguous weight piece.
    mults: Vec<(Vec<u64>, Vec<u64>)>,
}

impl TilePlans {
    /// The plans of `layer` (one group) under the clamped tiling `t`.
    fn new(layer: &SchedLayer, t: Tiling) -> Self {
        let (rows, row_of) = AxisPlan::classes(layer.r, t.tr, layer.h, layer);
        let (cols, col_of) = AxisPlan::classes(layer.c, t.tc, layer.l, layer);
        let outer = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter().flat_map(|&x| b.iter().map(move |&y| x * y)).collect()
        };
        // An input piece stays inside one channel plane unless the
        // footprint covers whole planes (see `box_spans`); a weight piece
        // holds one output channel's k×k blocks unless the tile takes every
        // input channel.
        let w_blocks = if t.tn < layer.n { t.tn } else { t.tm * t.tn };
        let mults = rows
            .iter()
            .flat_map(|r| cols.iter().map(move |c| (r, c)))
            .map(|(r, c)| {
                let planes = if (r.len, c.len) == (layer.h, layer.l) { t.tn } else { 1 };
                (outer(&r.hits, &c.hits).repeat(planes), outer(&r.taps, &c.taps).repeat(w_blocks))
            })
            .collect();
        Self { rows, row_of, cols, col_of, mults }
    }

    /// The plan of the tile at index `rci` on the RC axis (row tile major,
    /// column tile minor).
    fn get(&self, rci: usize) -> TilePlan<'_> {
        let col_tiles = self.col_of.len();
        let (r, c) = (self.row_of[rci / col_tiles], self.col_of[rci % col_tiles]);
        let (in_mult, w_mult) = &self.mults[r * self.cols.len() + c];
        TilePlan { rows: &self.rows[r], cols: &self.cols[c], in_mult, w_mult }
    }
}

/// One tile's geometry, looked up in [`TilePlans`].
#[derive(Clone, Copy)]
struct TilePlan<'a> {
    rows: &'a AxisPlan,
    cols: &'a AxisPlan,
    /// A(iy)·B(ix) per footprint word of a channel plane (of `Tn` planes
    /// when the footprint covers whole planes).
    in_mult: &'a [u64],
    /// U(u)·V(v) per weight word, whole k×k blocks.
    w_mult: &'a [u64],
}

/// Reusable per-call scratch: every buffer here is grown on demand and
/// reused across tiles and groups, so the steady-state tile loop allocates
/// nothing.
#[derive(Default)]
struct ExecArena {
    /// Decay-resolved input footprint (channel, row, column).
    in_box: Vec<i16>,
    /// Decay-resolved weights (output channel, input channel, u, v).
    w_box: Vec<i16>,
    /// The weights transposed: one row of `tm_e` output channels per
    /// (input channel, u, v) step.
    w_cols: Vec<i16>,
    /// Output partials of the tile (channel, row, column).
    part: Vec<i16>,
    /// Clamped writeback values of the tile (same layout).
    clamp: Vec<i16>,
}

/// Grows `v` to at least `n` elements and returns the `n`-sized prefix.
fn grown<T: Clone + Default>(v: &mut Vec<T>, n: usize) -> &mut [T] {
    if v.len() < n {
        v.resize(n, T::default());
    }
    &mut v[..n]
}

/// The contiguous pieces of the box `lo + [0, ext)` of a row-major array
/// shaped `[_, h, l]`, as `(array offset, dense range)` pairs in the
/// box's own row-major order: rows spanning all `l` columns merge into
/// one piece per plane, and planes spanning all `h` rows into one piece.
fn box_spans(
    [h, l]: [usize; 2],
    lo: [usize; 3],
    ext: [usize; 3],
) -> impl Iterator<Item = (usize, Range<usize>)> {
    // Pieces per plane, and planes holding a piece of their own.
    let (rows, planes) = match (ext[2] < l, ext[1] < h) {
        (true, _) => (ext[1], ext[0]),
        (false, true) => (1, ext[0]),
        (false, false) => (1, 1),
    };
    let planes = if ext.contains(&0) { 0 } else { planes };
    let run = ext[0] * ext[1] * ext[2] / (rows * planes).max(1);
    (0..planes).flat_map(move |plane| {
        (0..rows).map(move |row| {
            let o = (plane * rows + row) * run;
            (((lo[0] + plane) * h + lo[1] + row) * l + lo[2], o..o + run)
        })
    })
}

/// The reference tile compute: per-word buffer reads, one MAC at a time.
fn scalar_tile(ctx: &TileCtx<'_>, mem: &mut EdramArray, outputs: &mut [i16]) {
    let ly = ctx.layer;
    let k = ly.k;
    let end = ctx.end;
    let Tile { m: (m0, tm_e), n: (n0, tn_e), r: (r0, tr_e), c: (c0, tc_e), .. } = ctx.tile;
    for m in m0..m0 + tm_e {
        for oi in r0..r0 + tr_e {
            for oj in c0..c0 + tc_e {
                let out_addr = (m * ly.r + oi) * ly.c + oj;
                // Running partial: OD reads it back from the buffer (the
                // self-refreshing reread); ID/WD keep it in the PE
                // accumulators across their innermost N loop — modeled by
                // the stash in `outputs` (16-bit writeback granularity).
                let mut acc: i64 = if ctx.tile.ni == 0 {
                    0
                } else {
                    match ctx.pattern {
                        Pattern::Od => i64::from(mem.read(ctx.o_base + out_addr, end)),
                        Pattern::Id | Pattern::Wd => i64::from(outputs[out_addr]),
                    }
                };
                for ch in n0..n0 + tn_e {
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
                        if ctx.tile.last_n {
                            outputs[out_addr] = mem.read(ctx.o_base + out_addr, end);
                        }
                    }
                    Pattern::Id | Pattern::Wd => {
                        if ctx.tile.last_n {
                            mem.write(ctx.o_base + out_addr, clamped, end);
                        }
                        outputs[out_addr] = clamped;
                    }
                }
            }
        }
    }
}

/// The blocked tile compute: charge decay resolved once per buffer word
/// into arena scratch (with exact access multiplicities), then a MAC nest
/// that keeps each output's accumulators in registers for its whole
/// (input channel, u, v) reduction.
///
/// Equivalence to [`scalar_tile`] rests on two facts: every read of this
/// tile resolves at the same timestamp `end`, and resolution is a pure
/// function of `(address, timestamp)` — so reading a word once and
/// reusing the value is indistinguishable from re-reading it, as long as
/// reads/faults are accounted with the scalar engine's multiplicities:
/// input word (ch, iy, ix) is read `tm_e · A(iy) · B(ix)` times, weight
/// word (m, ch, u, v) `U(u) · V(v)` times. The multiplicities, like the
/// valid kernel taps of each output, come from the tile's plan. Distinct
/// words never interact, so the tile reads each operand box, and reads and
/// writes its output partials, in as few contiguous pieces as the boxes
/// allow. Each product is rounded before it is summed and the sums are
/// exact, so any summation order gives the same bits.
///
/// The vector lanes are the tile's output channels, the axis the PE
/// array's rows compute in parallel: each output (row, column) adds one
/// input value times a row of `tm_e` transposed weights per step. When the
/// output columns need fewer blocks of 16 lanes and are unit-stride, as in
/// a depthwise group (one channel) or a 1×1 layer on a wide map with few
/// channels, they are the lanes instead: each (channel, row) adds one
/// weight times a row of input values per step. Full blocks of 16 lanes
/// (the PE array's rows) run the fixed-width micro-kernel, narrower ones
/// and strided columns the generic one; the axis and the body come from
/// the tile's shape alone. The caller passes the lane arithmetic `p` only
/// when its longest reduction fits one 32-bit run.
fn blocked_tile(
    ctx: &TileCtx<'_>,
    p: I32Path,
    mem: &mut EdramArray,
    outputs: &mut [i16],
    arena: &mut ExecArena,
) {
    let ly = ctx.layer;
    let k2 = ly.k * ly.k;
    let end = ctx.end;
    let Tile { m: (m0, tm_e), n: (n0, tn_e), r: (r0, tr_e), c: (c0, tc_e), .. } = ctx.tile;
    let TilePlan { rows, cols, in_mult, w_mult } = ctx.plan;
    // The map's part of the footprint: rows.len rows of cols.len columns
    // from (iy_lo, ix_lo).
    let first = |o0: usize, skip: usize| ((o0 * ly.s + skip) as isize - ly.pad as isize).max(0);
    let (iy_lo, ix_lo) = (first(r0, rows.skip) as usize, first(c0, cols.skip) as usize);
    let ExecArena { in_box, w_box, w_cols, part, clamp } = arena;

    // Resolve the tile's input footprint and weights once each, with the
    // plan's multiplicities charged to the access statistics. (Stride-gap
    // rows no output reads carry multiplicity 0: resolved, not counted.)
    let plane = rows.len * cols.len;
    let in_box = grown(in_box, tn_e * plane);
    let in_spans = box_spans([ly.h, ly.l], [n0, iy_lo, ix_lo], [tn_e, rows.len, cols.len]);
    for (addr, words) in in_spans {
        // The multiplicities repeat every plane.
        let mult = &in_mult[words.start % plane..][..words.len()];
        mem.read_row_weighted(ctx.in_base + addr, end, &mut in_box[words], mult, tm_e as u64);
    }
    let w_box = grown(w_box, tm_e * tn_e * k2);
    for (addr, words) in box_spans([ly.n, k2], [m0, n0, 0], [tm_e, tn_e, k2]) {
        let mult = &w_mult[..words.len()];
        mem.read_row_weighted(ctx.w_base + addr, end, &mut w_box[words], mult, 1);
    }

    // Running partials: OD reads them back from the buffer (the
    // self-refreshing reread), ID/WD from the stash in `outputs`; the
    // first n-tile starts from zero.
    let out_spans = || box_spans([ly.r, ly.c], [m0, r0, c0], [tm_e, tr_e, tc_e]);
    let tile_words = tm_e * tr_e * tc_e;
    let part = grown(part, tile_words);
    if ctx.tile.ni == 0 {
        part.fill(0);
    } else {
        for (addr, words) in out_spans() {
            match ctx.pattern {
                Pattern::Od => mem.read_row_into(ctx.o_base + addr, end, &mut part[words]),
                Pattern::Id | Pattern::Wd => {
                    part[words.clone()].copy_from_slice(&outputs[addr..addr + words.len()]);
                }
            }
        }
    }

    // The lanes run along the tile's output channels or its output columns,
    // whichever needs fewer 16-lane blocks, except that strided columns,
    // which do not vectorize, never beat two or more channels.
    let blocks = |lanes: usize, other: usize| lanes.div_ceil(LANES) * other;
    let column_lanes = tm_e == 1 || (ly.s == 1 && blocks(tc_e, tm_e) < blocks(tm_e, tc_e));
    // Transposed, step (ci, u, v) owns one row of tm_e lanes, gathered
    // with the 16-lane rows unrolled.
    let w_cols = grown(w_cols, if column_lanes { 0 } else { w_box.len() });
    let gather = |lanes: &mut [i16], step: usize| {
        for (mi, w) in lanes.iter_mut().enumerate() {
            *w = w_box[mi * tn_e * k2 + step];
        }
    };
    for (step, lanes) in w_cols.chunks_exact_mut(tm_e).enumerate() {
        match <&mut [i16; LANES]>::try_from(&mut *lanes) {
            Ok(lanes) => gather(lanes, step),
            Err(_) => gather(lanes, step),
        }
    }
    let ops = Operands { inputs: in_box, weights: w_box, w_cols, part };
    let clamp = grown(clamp, tile_words);
    if column_lanes {
        column_lane_nest(ctx, p, &ops, clamp);
    } else {
        channel_lane_nest(ctx, p, &ops, clamp);
    }

    for (addr, words) in out_spans() {
        let (clamped, out) = (&clamp[words.clone()], &mut outputs[addr..addr + words.len()]);
        match ctx.pattern {
            Pattern::Od => {
                // Partials written back every pass (the accumulation that
                // self-refreshes).
                mem.write_slice(ctx.o_base + addr, clamped, end);
                if ctx.tile.last_n {
                    mem.read_row_into(ctx.o_base + addr, end, out);
                }
            }
            Pattern::Id | Pattern::Wd => {
                if ctx.tile.last_n {
                    mem.write_slice(ctx.o_base + addr, clamped, end);
                }
                out.copy_from_slice(clamped);
            }
        }
    }
}

/// The decay-resolved operands of one tile.
struct Operands<'a> {
    /// The map's part of the input footprint (channel, row, column).
    inputs: &'a [i16],
    /// Weights (output channel, input channel, u, v).
    weights: &'a [i16],
    /// The weights transposed: one row of `tm_e` output channels per
    /// (input channel, u, v) step (empty on output-column lanes).
    w_cols: &'a [i16],
    /// Running partials (output channel, row, column).
    part: &'a [i16],
}

/// The clamped sum of a running partial and a reduction.
fn saturate(partial: i16, sum: i64) -> i16 {
    (i64::from(partial) + sum).clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16
}

/// Register-blocked nest over output-channel lanes: each output (row,
/// column) runs its whole reduction, one (u, v) tap at a time over the
/// tile's input channels, on local blocks of 16 channels.
fn channel_lane_nest(ctx: &TileCtx<'_>, p: I32Path, ops: &Operands<'_>, clamp: &mut [i16]) {
    let TilePlan { rows, cols, .. } = ctx.plan;
    let Tile { m: (_, tm_e), n: (_, tn_e), r: (_, tr_e), c: (_, tc_e), .. } = ctx.tile;
    let k = ctx.layer.k;
    // A tap's steps (its input channels) lie k²·tm_e transposed weights and
    // one footprint plane apart.
    let (w_step, x_step) = (k * k * tm_e, rows.len * cols.len);
    for (oi_, &(u_lo, u_hi, fy)) in rows.outs.iter().enumerate() {
        for (oj, &(v_lo, v_hi, fx)) in cols.outs.iter().enumerate() {
            // The first step of each valid tap: its weight row and input.
            let taps = || {
                (u_lo..u_hi).flat_map(move |u| {
                    let x_row = (fy + u - u_lo) * cols.len + fx;
                    (v_lo..v_hi).map(move |v| ((u * k + v) * tm_e, x_row + v - v_lo))
                })
            };
            for c in (0..tm_e).step_by(LANES) {
                let width = LANES.min(tm_e - c);
                let mut acc = [0i32; LANES];
                for (w, x) in taps() {
                    let (ws, xs) = (&ops.w_cols[w + c..], &ops.inputs[x..]);
                    if width == LANES {
                        kernel::mac_lanes16(
                            &mut acc, ws, w_step, xs, x_step, tn_e, p.shift, p.half,
                        );
                    } else {
                        let acc = &mut acc[..width];
                        kernel::mac_lanes(acc, ws, 1, w_step, xs, x_step, tn_e, p.shift, p.half);
                    }
                }
                for (mi, &sum) in (c..c + width).zip(&acc) {
                    let at = (mi * tr_e + oi_) * tc_e + oj;
                    clamp[at] = saturate(ops.part[at], i64::from(sum));
                }
            }
        }
    }
}

/// Register-blocked nest over output-column lanes: each (output channel,
/// output row) runs its whole reduction, one (u, v) tap at a time over the
/// tile's input channels, on local blocks of 16 columns.
fn column_lane_nest(ctx: &TileCtx<'_>, p: I32Path, ops: &Operands<'_>, clamp: &mut [i16]) {
    let TilePlan { rows, cols, .. } = ctx.plan;
    let Tile { m: (_, tm_e), n: (_, tn_e), r: (_, tr_e), c: (_, tc_e), .. } = ctx.tile;
    let (k, s) = (ctx.layer.k, ctx.layer.s);
    // A tap's steps (its input channels) lie one footprint plane and k²
    // weights apart.
    let (x_step, w_step) = (rows.len * cols.len, k * k);
    for (oi_, &(u_lo, u_hi, fy)) in rows.outs.iter().enumerate() {
        for mi in 0..tm_e {
            let at = (mi * tr_e + oi_) * tc_e;
            let weights = &ops.weights[mi * tn_e * w_step..];
            for c in (0..tc_e).step_by(LANES) {
                let width = LANES.min(tc_e - c);
                let mut acc = [0i32; LANES];
                for u in u_lo..u_hi {
                    let x_row = (fy + u - u_lo) * cols.len;
                    for (v, &(lo, hi, off)) in cols.lanes.iter().enumerate() {
                        // The lanes of this block that tap kernel column v.
                        let (a, b) = (lo.max(c), hi.min(c + width));
                        if a >= b {
                            continue;
                        }
                        let xs = &ops.inputs[x_row + off + (a - lo) * s..];
                        let ws = &weights[u * k + v..];
                        if b - a == LANES && s == 1 {
                            kernel::mac_lanes16(
                                &mut acc, xs, x_step, ws, w_step, tn_e, p.shift, p.half,
                            );
                        } else {
                            let acc = &mut acc[a - c..b - c];
                            kernel::mac_lanes(
                                acc, xs, s, x_step, ws, w_step, tn_e, p.shift, p.half,
                            );
                        }
                    }
                }
                for (j, &sum) in acc[..width].iter().enumerate() {
                    clamp[at + c + j] = saturate(ops.part[at + c + j], i64::from(sum));
                }
            }
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
                let r = execute_layer_grouped_with(
                    Engine::Blocked,
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
                    let scalar = execute_layer_grouped_with(
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
                    let blocked = execute_layer_grouped_with(
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
            let scalar = execute_layer_grouped_with(
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
            let blocked = execute_layer_grouped_with(
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
        // prod_shift = 0 and negative shifts are off the i32 lane path: the
        // blocked engine runs such calls on the reference tile.
        let (layer, inputs, weights) = small_layer();
        let cfg = AcceleratorConfig::paper_edram();
        for f in [
            Formats { input_frac: 4, weight_frac: 4, output_frac: 8 }, // shift 0
            Formats { input_frac: 2, weight_frac: 2, output_frac: 6 }, // shift -2
        ] {
            // Small operands keep the unshifted accumulation in range.
            let small_in: Vec<i16> = inputs.iter().map(|&x| x % 8).collect();
            let small_w: Vec<i16> = weights.iter().map(|&x| x % 4).collect();
            let scalar = execute_layer_grouped_with(
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
            let blocked = execute_layer_grouped_with(
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
        let r = execute_layer_grouped_with(
            Engine::Blocked,
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
            let rg = execute_layer_grouped_with(
                Engine::Blocked,
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
    }

    #[test]
    fn functional_cycles_match_trace() {
        let (layer, inputs, weights) = small_layer();
        let cfg = AcceleratorConfig::paper_edram();
        for pattern in Pattern::ALL {
            let tiling = Tiling::new(4, 2, 2, 4);
            let r = execute_layer_grouped_with(
                Engine::Blocked,
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
        let r = execute_layer_grouped_with(
            Engine::Blocked,
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
        let r = execute_layer_grouped_with(
            Engine::Blocked,
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
        let r = execute_layer_grouped_with(
            Engine::Blocked,
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
        let r = execute_layer_grouped_with(
            Engine::Blocked,
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
        let od = execute_layer_grouped_with(
            Engine::Blocked,
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
        let id = execute_layer_grouped_with(
            Engine::Blocked,
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

    /// The small layer under conventional refresh every `interval_us`.
    fn run_with_refresh_interval(interval_us: f64) -> FunctionalResult {
        let (layer, inputs, weights) = small_layer();
        let model = BufferModel::Edram {
            dist: RetentionDistribution::kong2008(),
            seed: 7,
            refresh: Some(RefreshConfig::conventional(interval_us)),
        };
        execute_layer_grouped_with(
            Engine::Blocked,
            &layer,
            Pattern::Od,
            Tiling::new(16, 16, 1, 16),
            &AcceleratorConfig::paper_edram(),
            &inputs,
            &weights,
            Formats::default(),
            &model,
        )
    }

    #[test]
    #[should_panic(expected = "refresh interval must be finite and positive")]
    fn zero_refresh_interval_panics() {
        // Would otherwise issue pulses forever.
        run_with_refresh_interval(0.0);
    }

    #[test]
    #[should_panic(expected = "refresh interval must be finite and positive")]
    fn negative_refresh_interval_panics() {
        // Would otherwise issue no pulse and report zero refresh words.
        run_with_refresh_interval(-45.0);
    }

    #[test]
    #[should_panic(expected = "refresh interval must be finite and positive")]
    fn nan_refresh_interval_panics() {
        run_with_refresh_interval(f64::NAN);
    }

    /// A 1×1 layer of inputs 1.0, −1.0, 3.9 and 0.03 in Q7.8 times the
    /// raw weight 4096 (1.0 in Q3.12) on `engine` under `formats`.
    fn identity_run(engine: Engine, formats: Formats) -> FunctionalResult {
        let layer = SchedLayer {
            name: "identity".into(),
            n: 1,
            h: 2,
            l: 2,
            m: 1,
            k: 1,
            s: 1,
            r: 2,
            c: 2,
            pad: 0,
            groups: 1,
        };
        execute_layer_grouped_with(
            engine,
            &layer,
            Pattern::Od,
            Tiling::new(1, 1, 2, 2),
            &AcceleratorConfig::paper_edram(),
            &[256, -256, 1000, 7],
            &[4096],
            formats,
            &BufferModel::Ideal,
        )
    }

    /// Product shift 70, where every output is 0: before the bound, release
    /// builds masked the shift to 6 bits and returned [16384, −16384, 32767,
    /// 448], and debug builds panicked on the shift overflow.
    const PAST_THE_WORD: Formats = Formats { input_frac: 40, weight_frac: 30, output_frac: 0 };

    #[test]
    #[should_panic(expected = "input format has 40 fractional bits; a 16-bit word has at most 15")]
    fn fractional_bits_past_the_word_panic_on_the_blocked_engine() {
        identity_run(Engine::Blocked, PAST_THE_WORD);
    }

    #[test]
    #[should_panic(expected = "input format has 40 fractional bits; a 16-bit word has at most 15")]
    fn fractional_bits_past_the_word_panic_on_the_scalar_engine() {
        identity_run(Engine::Scalar, PAST_THE_WORD);
    }

    #[test]
    #[should_panic(expected = "output format has 16 fractional bits")]
    fn each_format_field_is_bounded() {
        identity_run(Engine::Blocked, Formats { input_frac: 0, weight_frac: 0, output_frac: 16 });
    }

    #[test]
    fn fifteen_fractional_bits_run_on_both_engines() {
        // The extreme shifts the bound allows: 30 (the widest the 32-bit
        // lanes take) and −15.
        for (f, want) in [
            (Formats { input_frac: 15, weight_frac: 15, output_frac: 0 }, [0, 0, 0, 0]),
            (
                Formats { input_frac: 0, weight_frac: 0, output_frac: 15 },
                [32767, -32768, 32767, 32767],
            ),
        ] {
            let scalar = identity_run(Engine::Scalar, f);
            assert_eq!(scalar.outputs, want, "shift {}", f.prod_shift());
            assert_eq!(identity_run(Engine::Blocked, f), scalar, "shift {}", f.prod_shift());
        }
    }

    #[test]
    fn one_run_bound_holds_at_its_edge() {
        // At shift 4 every rounded product of i16::MIN operands is 2²⁶, and
        // a 32-bit run holds 31 of them (2,080,374,784), not 32. Reductions
        // of 31 steps run the blocked nests, of 32 the reference tile; with
        // a bound one larger, the 32-step lanes would overflow.
        let f = Formats { input_frac: 2, weight_frac: 2, output_frac: 0 };
        assert!(I32Path::for_steps(f.prod_shift(), 31).is_some());
        assert!(I32Path::for_steps(f.prod_shift(), 32).is_none());
        assert!(I32Path::for_steps(Formats::default().prod_shift(), 8_191).is_some());
        assert!(I32Path::for_steps(Formats::default().prod_shift(), 8_192).is_none());
        for n in [31, 32] {
            // Full 16-lane blocks of channels and of columns, and a generic
            // block of three channels.
            for (m, hw) in [(16, 1), (1, 16), (3, 2)] {
                let layer = SchedLayer {
                    name: "edge".into(),
                    n,
                    h: hw,
                    l: hw,
                    m,
                    k: 1,
                    s: 1,
                    r: hw,
                    c: hw,
                    pad: 0,
                    groups: 1,
                };
                let (inputs, weights) = (vec![i16::MIN; n * hw * hw], vec![i16::MIN; m * n]);
                let run = |engine| {
                    execute_layer_grouped_with(
                        engine,
                        &layer,
                        Pattern::Od,
                        Tiling::new(16, n, 16, 16),
                        &AcceleratorConfig::paper_edram(),
                        &inputs,
                        &weights,
                        f,
                        &BufferModel::Ideal,
                    )
                };
                let scalar = run(Engine::Scalar);
                assert!(scalar.outputs.iter().all(|&o| o == i16::MAX), "n {n} m {m} hw {hw}");
                assert_eq!(run(Engine::Blocked), scalar, "n {n} m {m} hw {hw}");
            }
        }
    }

    #[test]
    fn grouped_run_on_one_map_equals_groups_on_fresh_maps() {
        // The slow clock ages the buffer past the sharp knee, so faults
        // occur both on reads and at the 400 µs refresh pulses: the shared
        // map's buckets decide real decay.
        let (sub, inputs, weights) = small_layer();
        let g = 3;
        let layer = SchedLayer { groups: g, ..sub.clone() };
        let grouped_inputs: Vec<i16> = (0..g as i16)
            .flat_map(|gi| inputs.iter().map(move |&x| x.wrapping_add(5 * gi)))
            .collect();
        let grouped_weights: Vec<i16> =
            (0..g as i16).flat_map(|gi| weights.iter().map(move |&w| w.wrapping_sub(gi))).collect();
        let cfg = slow_cfg(1e6);
        let model = BufferModel::Edram {
            dist: sharp_dist(),
            seed: 11,
            refresh: Some(RefreshConfig::conventional(400.0)),
        };
        let tiling = Tiling::new(4, 2, 3, 5);
        for pattern in Pattern::ALL {
            let grouped = execute_layer_grouped_with(
                Engine::Blocked,
                &layer,
                pattern,
                tiling,
                &cfg,
                &grouped_inputs,
                &grouped_weights,
                Formats::default(),
                &model,
            );
            assert!(grouped.faults > 0, "{pattern}: the run must decay");
            let (in_g, w_g) = (inputs.len(), weights.len());
            let mut want = FunctionalResult {
                outputs: Vec::new(),
                cycles: 0,
                refresh_words: 0,
                faults: 0,
                reads: 0,
            };
            for gi in 0..g {
                let r = execute_layer_grouped_with(
                    Engine::Blocked,
                    &sub,
                    pattern,
                    tiling,
                    &cfg,
                    &grouped_inputs[gi * in_g..(gi + 1) * in_g],
                    &grouped_weights[gi * w_g..(gi + 1) * w_g],
                    Formats::default(),
                    &model,
                );
                want.outputs.extend(r.outputs);
                want.cycles += r.cycles;
                want.refresh_words += r.refresh_words;
                want.faults += r.faults;
                want.reads += r.reads;
            }
            assert_eq!(grouped, want, "{pattern}");
        }
    }
}
