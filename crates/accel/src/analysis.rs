//! Closed-form reuse analysis of a CONV layer under a computation pattern.
//!
//! Generalizes the paper's equations to edge tiles and buffer overflows:
//!
//! * buffer storage requirements — Eq. (1)-(3) for ID, (6)-(8) for OD,
//!   (11)-(13) for WD;
//! * data lifetimes — Eq. (4)-(5) for ID, (9)-(10) for OD, and the
//!   analogous level times for WD (Figure 10(d)-(f));
//! * off-chip and on-chip traffic, with the reload/spill penalties each
//!   pattern pays when its resident data type exceeds the buffer.
//!
//! Cycle model: the `pe_rows × pe_cols` array computes one
//! `(tm, tn, tr, tc)` tile in `tn·K²·⌈tm/rows⌉·⌈tr·tc/cols⌉` cycles (16 PE
//! rows share inputs to produce 16 output channels in parallel, §III-A).
//! PE utilization η *emerges* from the ceiling terms; with this model the
//! paper's measured lifetimes are reproduced exactly (Layer-A: LTi =
//! 2294 µs under ID, LTo = 72 µs under OD; Layer-B: 1290 µs / 40 µs).
//!
//! Every integer term reads a single tiling axis (or the `(Tr, Tc)`
//! pair), so the formulas are written once, over per-axis terms, and serve
//! two entry points: [`analyze`] for one `(pattern, tiling)`, and
//! [`TilingGrid`] for a Stage-2 scan, which computes each term once per
//! axis value and lists the candidate tilings in the canonical scan order.

use crate::config::{AcceleratorConfig, PeOrganization};
use crate::layer::SchedLayer;
use crate::pattern::{Pattern, Tiling};

/// Resident buffer-storage requirement per data type, in 16-bit words
/// (per channel group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Storage {
    /// `BSi` — input words that must stay on chip.
    pub input_words: u64,
    /// `BSo` — output words that must stay on chip.
    pub output_words: u64,
    /// `BSw` — weight words that must stay on chip.
    pub weight_words: u64,
}

impl Storage {
    /// Total resident requirement.
    pub fn total(&self) -> u64 {
        self.input_words + self.output_words + self.weight_words
    }
}

/// Data lifetimes in the on-chip buffer, in µs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Lifetimes {
    /// Residency of input data (`LTi`).
    pub input_us: f64,
    /// Residency of output data (`LTo` as residency; 0 for ID where
    /// outputs leave immediately).
    pub output_us: f64,
    /// Residency of weight data (`LTw`).
    pub weight_us: f64,
    /// Interval between recharges of an output word: the accumulation
    /// rewrite period under OD (its self-refresh period), equal to
    /// `output_us` for write-once patterns.
    pub output_rewrite_us: f64,
    /// Whole-layer execution time (`T3`), all groups.
    pub layer_us: f64,
}

impl Lifetimes {
    /// The retention-critical interval of each data type: the longest time
    /// a stored word goes without a recharge (write) while still live.
    /// Refresh is unnecessary for a type iff this is below the tolerable
    /// retention time.
    pub fn critical_intervals(&self) -> [f64; 3] {
        [self.input_us, self.output_rewrite_us, self.weight_us]
    }
}

/// Word-traffic counts (totals over all channel groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// DRAM → buffer input loads.
    pub dram_input_loads: u64,
    /// DRAM → buffer weight loads.
    pub dram_weight_loads: u64,
    /// Buffer → DRAM final output stores.
    pub dram_output_stores: u64,
    /// Buffer → DRAM partial-sum spills (OD overflow).
    pub dram_partial_stores: u64,
    /// DRAM → buffer partial-sum reloads (OD overflow).
    pub dram_partial_loads: u64,
    /// Buffer → core input-tile reads.
    pub buf_input_reads: u64,
    /// Buffer → core weight-tile reads.
    pub buf_weight_reads: u64,
    /// Core → buffer output writes.
    pub buf_output_writes: u64,
    /// Buffer → core output read-backs (OD accumulation).
    pub buf_output_reads: u64,
}

impl Traffic {
    /// Total off-chip words moved.
    pub fn dram_total(&self) -> u64 {
        self.dram_input_loads
            + self.dram_weight_loads
            + self.dram_output_stores
            + self.dram_partial_stores
            + self.dram_partial_loads
    }

    /// Total on-chip buffer word accesses: the core-side accesses plus one
    /// buffer access per DRAM word transferred (fill on load, drain on
    /// store).
    pub fn buffer_total(&self) -> u64 {
        self.buf_input_reads
            + self.buf_weight_reads
            + self.buf_output_writes
            + self.buf_output_reads
            + self.dram_total()
    }
}

/// Result of analyzing one layer under one `(pattern, tiling)` choice.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSim {
    /// Layer name.
    pub layer: String,
    /// The pattern analyzed.
    pub pattern: Pattern,
    /// The tiling, clamped to the layer dimensions.
    pub tiling: Tiling,
    /// Execution cycles (all groups).
    pub cycles: u64,
    /// Execution time in µs.
    pub time_us: f64,
    /// MAC operations (all groups).
    pub macs: u64,
    /// PE utilization η = macs / (cycles × MAC units).
    pub utilization: f64,
    /// Resident buffer storage requirement (per group).
    pub storage: Storage,
    /// Whether the resident requirement fits the unified buffer.
    pub fits_buffer: bool,
    /// Lifetimes in the buffer.
    pub lifetimes: Lifetimes,
    /// Word traffic.
    pub traffic: Traffic,
}

/// Sums `f(tile_size)` over the tiles covering `dim` with tile `t`
/// (`dim/t` full tiles plus one remainder tile).
fn tile_sum(dim: usize, t: usize, f: impl Fn(usize) -> u64) -> u64 {
    let full = (dim / t) as u64;
    let rem = dim % t;
    full * f(t) + if rem > 0 { f(rem) } else { 0 }
}

fn ceil_div(a: usize, b: usize) -> u64 {
    a.div_ceil(b) as u64
}

/// The terms that read one `Tm` value: the trip count `TM` and the
/// PE-row work sums over all m-tiles (`Sm`) and over one full m-tile
/// (`Sm_full`).
#[derive(Debug, Clone, Copy)]
struct MTerms {
    tm: usize,
    trips: u64,
    sm: u64,
    sm_full: u64,
}

/// The terms that read one `Tn` value: the trip count `TN` and the
/// input-channel work sums `Sn` and `Sn_full` (`N` and `Tn` when the PE
/// columns hold pixels, PE-column ceilings when they hold channels).
#[derive(Debug, Clone, Copy)]
struct NTerms {
    tn: usize,
    trips: u64,
    sn: u64,
    sn_full: u64,
}

/// The terms that read one `Tr` (or `Tc`) value: the trip count, the
/// input rows (columns) `Σ th` (`Σ tl`) its tiles read including halos,
/// and one full tile's `th(Tr)` (`tl(Tc)`).
#[derive(Debug, Clone, Copy)]
struct PixelTerms {
    t: usize,
    trips: u64,
    halo_sum: u64,
    halo: u64,
}

/// The terms that read one `(Tr, Tc)` pair: the output-pixel work sums
/// over all rc-tiles (`Src`) and over one full rc-tile (`Src_full`).
#[derive(Debug, Clone, Copy)]
struct RcTerms {
    src: u64,
    src_full: u64,
}

/// One candidate tiling as its entries of the axis tables.
#[derive(Debug, Clone, Copy)]
struct Cell<'t> {
    m: &'t MTerms,
    n: &'t NTerms,
    r: &'t PixelTerms,
    c: &'t PixelTerms,
    rc: &'t RcTerms,
}

impl Cell<'_> {
    /// The (clamped) tiling these entries describe.
    fn tiling(&self) -> Tiling {
        Tiling { tm: self.m.tm, tn: self.n.tn, tr: self.r.t, tc: self.c.t }
    }
}

/// One layer on one accelerator: the layer-wide constants and the one
/// site of the model's formulas — the axis terms, and per candidate the
/// products of them that [`TilingGrid`] and [`analyze`] both evaluate.
#[derive(Debug, Clone, Copy)]
struct Model<'a> {
    layer: &'a SchedLayer,
    cfg: &'a AcceleratorConfig,
    k2: u64,
    /// `N·H·L`, `M·R·C` and `M·N·K²` (per group).
    n_hl: u64,
    m_rc: u64,
    mn_k2: u64,
    capacity: u64,
}

impl<'a> Model<'a> {
    fn new(layer: &'a SchedLayer, cfg: &'a AcceleratorConfig) -> Self {
        let k2 = (layer.k * layer.k) as u64;
        Self {
            layer,
            cfg,
            k2,
            n_hl: (layer.n * layer.h * layer.l) as u64,
            m_rc: (layer.m * layer.r * layer.c) as u64,
            mn_k2: (layer.m * layer.n) as u64 * k2,
            capacity: cfg.buffer.capacity_words(),
        }
    }

    fn m_terms(&self, tm: usize) -> MTerms {
        let (m, rows) = (self.layer.m, self.cfg.pe_rows);
        MTerms {
            tm,
            trips: ceil_div(m, tm),
            sm: tile_sum(m, tm, |tme| ceil_div(tme, rows)),
            sm_full: ceil_div(tm, rows),
        }
    }

    fn n_terms(&self, tn: usize) -> NTerms {
        let (n, cols) = (self.layer.n, self.cfg.pe_cols);
        let (sn, sn_full) = match self.cfg.organization {
            PeOrganization::PixelColumns => (n as u64, tn as u64),
            PeOrganization::ChannelColumns => {
                (tile_sum(n, tn, |tne| ceil_div(tne, cols)), ceil_div(tn, cols))
            }
        };
        NTerms { tn, trips: ceil_div(n, tn), sn, sn_full }
    }

    fn r_terms(&self, tr: usize) -> PixelTerms {
        let th = |tre: usize| self.layer.tile_in_h(tre) as u64;
        let r = self.layer.r;
        PixelTerms { t: tr, trips: ceil_div(r, tr), halo_sum: tile_sum(r, tr, th), halo: th(tr) }
    }

    fn c_terms(&self, tc: usize) -> PixelTerms {
        let tl = |tce: usize| self.layer.tile_in_w(tce) as u64;
        let c = self.layer.c;
        PixelTerms { t: tc, trips: ceil_div(c, tc), halo_sum: tile_sum(c, tc, tl), halo: tl(tc) }
    }

    fn rc_terms(&self, tr: usize, tc: usize) -> RcTerms {
        let (r, c, cols) = (self.layer.r, self.layer.c, self.cfg.pe_cols);
        match self.cfg.organization {
            PeOrganization::PixelColumns => RcTerms {
                src: tile_sum(r, tr, |tre| tile_sum(c, tc, |tce| ceil_div(tre * tce, cols))),
                src_full: ceil_div(tr * tc, cols),
            },
            PeOrganization::ChannelColumns => {
                RcTerms { src: (r * c) as u64, src_full: (tr * tc) as u64 }
            }
        }
    }

    /// Storage requirement, buffer fit and word traffic of `cell` under
    /// `pattern`.
    #[inline]
    fn parts(&self, pattern: Pattern, cell: Cell<'_>) -> (Storage, bool, Traffic) {
        let (layer, k2, n_hl, m_rc, mn_k2) =
            (self.layer, self.k2, self.n_hl, self.m_rc, self.mn_k2);
        let Cell { m, n, r, c, .. } = cell;
        let g = layer.groups as u64;
        let (tm_trips, tn_trips) = (m.trips, n.trips);
        let num_rc_tiles = r.trips * c.trips;
        // Input words swept per full pass over all (r,c) tiles including halos.
        let halo_sweep = layer.n as u64 * r.halo_sum * c.halo_sum;

        let storage = match pattern {
            Pattern::Id => Storage {
                input_words: n_hl,
                output_words: (m.tm * r.t * c.t) as u64,
                weight_words: (layer.n * m.tm) as u64 * k2,
            },
            Pattern::Od => Storage {
                input_words: (n.tn * layer.h * layer.l) as u64,
                output_words: m_rc,
                weight_words: (n.tn * m.tm) as u64 * k2,
            },
            Pattern::Wd => Storage {
                input_words: layer.n as u64 * r.halo * c.halo,
                output_words: (m.tm * r.t * c.t) as u64,
                weight_words: mn_k2,
            },
        };
        let fits_buffer = storage.total() <= self.capacity;

        // Core-side reads are pattern-independent for inputs (a tile is
        // fetched for every (m, n, rc) iteration) and pattern-dependent for
        // weights (OD holds a weight tile across the whole RC inner loop).
        // Channel tiles partition n exactly, so the sweep over all (n, rc)
        // tiles sums to one halo sweep; each of the TM m-tiles repeats it.
        let buf_input_reads = tm_trips * halo_sweep;
        let buf_weight_reads = match pattern {
            Pattern::Od => mn_k2,
            Pattern::Id | Pattern::Wd => num_rc_tiles * mn_k2,
        };
        let (buf_output_writes, buf_output_reads) = match pattern {
            Pattern::Od => (tn_trips * m_rc, (tn_trips - 1) * m_rc),
            Pattern::Id | Pattern::Wd => (m_rc, 0),
        };

        // Off-chip traffic: each datum once when its resident set fits the
        // buffer, otherwise the pattern pays its reload/spill penalty. A type
        // only counts as resident if it fits *together with* the sets that
        // must already be there (smaller sets get priority, mirroring the
        // unified-buffer allocator).
        let mut dram_input_loads = n_hl;
        let mut dram_weight_loads = mn_k2;
        let dram_output_stores = m_rc;
        let mut dram_partial_stores = 0;
        let mut dram_partial_loads = 0;
        match pattern {
            Pattern::Id => {
                // Overflow: the Figure 3(b) loop nest reloads "the whole
                // N×H×L input maps ... into the core" once per Loop-RC sweep,
                // i.e. once per m-tile, when they cannot all stay resident
                // (§II-B / §III-B1).
                if !fits_buffer {
                    dram_input_loads = tm_trips * n_hl;
                }
            }
            Pattern::Od => {
                // Outputs cannot all stay resident -> partial sums spill and
                // reload once per extra n-tile pass.
                if !fits_buffer {
                    dram_partial_stores = (tn_trips - 1) * m_rc;
                    dram_partial_loads = (tn_trips - 1) * m_rc;
                }
            }
            Pattern::Wd => {
                // Inputs always stream per rc-tile with halo overlap; weights
                // reload per rc-tile when they cannot all stay resident.
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

    /// The analysis of `cell` under `pattern` from its [`Self::parts`]:
    /// adds the cycles and lifetimes.
    #[inline]
    fn sim(&self, pattern: Pattern, cell: Cell<'_>, parts: (Storage, bool, Traffic)) -> LayerSim {
        let (storage, fits_buffer, traffic) = parts;
        let (cfg, k2) = (self.cfg, self.k2);
        let (sm, sm_full) = (cell.m.sm, cell.m.sm_full);
        let (sn, sn_full) = (cell.n.sn, cell.n.sn_full);
        let (src, src_full) = (cell.rc.src, cell.rc.src_full);

        // --- cycles ---------------------------------------------------------
        // The PE rows always parallelize output channels; the columns
        // parallelize output pixels (test accelerator) or input channels
        // (DaDianNao). Per-loop "work sums" account for ceiling waste on edge
        // tiles; cycles = K² × Sm × Sn × Src.
        let cycles_group = k2 * sn * sm * src;
        let cycles = cycles_group * self.layer.groups as u64;
        let time_us = cfg.cycles_to_us(cycles);
        let macs = self.layer.total_macs();
        let utilization = macs as f64 / (cycles as f64 * cfg.mac_count() as f64);

        // --- level times (full-tile residencies, per group, in cycles) ------
        let t3 = cycles_group;
        let us = |c: u64| cfg.cycles_to_us(c);

        let lifetimes = match pattern {
            Pattern::Id => {
                // Weights of one m-tile live through the whole RC sweep.
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
                // T2: one n-tile across all M and RC; T1: one (n,m) tile across RC.
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
                // T2: one rc-tile across all M and N; T1: one (rc,m) tile across N.
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
            layer: self.layer.name.clone(),
            pattern,
            tiling: cell.tiling(),
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

/// The values of one explored tiling axis: the powers of two below
/// `limit`, then `limit` itself.
fn axis_values(limit: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(1usize), |&x| x.checked_mul(2))
        .take_while(move |&x| x < limit)
        .chain(std::iter::once(limit))
}

/// The Stage-2 candidate tilings of one layer on one accelerator, with
/// every axis term of the model computed once per axis value.
///
/// Each integer term of Eqs. (1)–(13) and of the cycle model reads a
/// single tiling axis or the `(Tr, Tc)` pair: the trip counts and the
/// work sums `Sm`/`Sn` read `Tm` or `Tn`, the halo sums `Σ th`/`Σ tl` and
/// one tile's `th`/`tl` read `Tr` or `Tc`, and `Src` reads `(Tr, Tc)`. An
/// axis has a dozen values or so, against hundreds of candidates, so the
/// grid tabulates each term once per value and a candidate costs only
/// products of table entries. The float expressions (µs conversion,
/// utilization, lifetimes) are evaluated per candidate exactly as
/// [`analyze`] evaluates them, by the same code, so the grid's analysis
/// of candidate `i` equals `analyze` of [`Self::tiling`]`(i)` bit for bit.
///
/// Candidates are listed in the canonical scan order: `Tm`, then `Tn`
/// (skipping pairs with `Tm·Tn·K² > Rw`), then `Tr`, then `Tc`, filtered
/// by [`Tiling::fits_core`] — the order of [`Tiling::candidates`]. A fixed
/// tiling is the one candidate, clamped and unfiltered. The grid holds no
/// pattern: a scan runs each pattern over the same list.
///
/// ```
/// use rana_accel::{analyze, AcceleratorConfig, Pattern, SchedLayer, TilingGrid};
/// use rana_zoo::resnet50;
///
/// let cfg = AcceleratorConfig::paper_edram();
/// let layer = SchedLayer::from_conv(resnet50().conv("res4a_branch1").unwrap());
/// let grid = TilingGrid::new(&layer, &cfg, None);
/// let parts = grid.parts(Pattern::Od, 0);
/// let sim = grid.sim(Pattern::Od, 0, parts);
/// assert_eq!(sim, analyze(&layer, Pattern::Od, grid.tiling(0), &cfg));
/// ```
#[derive(Debug)]
pub struct TilingGrid<'a> {
    model: Model<'a>,
    m: Vec<MTerms>,
    n: Vec<NTerms>,
    r: Vec<PixelTerms>,
    c: Vec<PixelTerms>,
    /// The `(Tr, Tc)` terms, row-major: `rc[ir · c.len() + ic]`.
    rc: Vec<RcTerms>,
    /// Each candidate's axis indices `[im, in, ir, ic]`, in scan order (an
    /// axis has at most 65 values).
    cells: Vec<[u8; 4]>,
}

impl<'a> TilingGrid<'a> {
    /// The candidates of `layer` on `cfg`: the explored space, or the one
    /// `fixed` tiling.
    pub fn new(layer: &'a SchedLayer, cfg: &'a AcceleratorConfig, fixed: Option<Tiling>) -> Self {
        let model = Model::new(layer, cfg);
        if let Some(t) = fixed.map(|t| t.clamped_to(layer)) {
            return Self {
                model,
                m: vec![model.m_terms(t.tm)],
                n: vec![model.n_terms(t.tn)],
                r: vec![model.r_terms(t.tr)],
                c: vec![model.c_terms(t.tc)],
                rc: vec![model.rc_terms(t.tr, t.tc)],
                cells: vec![[0; 4]],
            };
        }
        let m: Vec<_> =
            axis_values(layer.m.min(cfg.local_output_words)).map(|tm| model.m_terms(tm)).collect();
        let n: Vec<_> = axis_values(layer.n).map(|tn| model.n_terms(tn)).collect();
        let r: Vec<_> = axis_values(layer.r).map(|tr| model.r_terms(tr)).collect();
        let c: Vec<_> = axis_values(layer.c).map(|tc| model.c_terms(tc)).collect();
        let rc = r.iter().flat_map(|r| c.iter().map(|c| model.rc_terms(r.t, c.t))).collect();
        let k2 = layer.k * layer.k;
        let mut cells = Vec::new();
        for (im, mt) in m.iter().enumerate() {
            for (i_n, nt) in n.iter().enumerate() {
                if mt.tm * nt.tn * k2 > cfg.local_weight_words {
                    continue;
                }
                for (ir, rt) in r.iter().enumerate() {
                    for (ic, ct) in c.iter().enumerate() {
                        // `Tiling::fits_core`'s other two constraints, from
                        // the tables (calling it per cell doubled the grid
                        // build's cost). Both left sides grow with `Tc`:
                        // once a `Tc` misfits, every larger one does.
                        let fits = nt.tn as u64 * rt.halo * ct.halo <= cfg.local_input_words as u64
                            && mt.tm * rt.t * ct.t <= cfg.local_output_words;
                        if !fits {
                            break;
                        }
                        cells.push([im, i_n, ir, ic].map(|i| i as u8));
                    }
                }
            }
        }
        Self { model, m, n, r, c, rc, cells }
    }

    /// Number of candidate tilings.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no tiling fits the core.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Candidate `i`'s tiling (clamped to the layer).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (as do [`Self::parts`] and
    /// [`Self::sim`]).
    pub fn tiling(&self, i: usize) -> Tiling {
        self.cell(i).tiling()
    }

    /// Storage requirement, buffer fit and word traffic of candidate `i`
    /// under `pattern`: everything a candidate's refresh-free energy reads,
    /// so a scan can price (and skip) it before the cycle and lifetime
    /// analysis, which [`Self::sim`] then finishes from these parts.
    #[inline]
    pub fn parts(&self, pattern: Pattern, i: usize) -> (Storage, bool, Traffic) {
        self.model.parts(pattern, self.cell(i))
    }

    /// The analysis of candidate `i` under `pattern` from its
    /// [`Self::parts`]: adds the cycles and lifetimes.
    #[inline]
    pub fn sim(&self, pattern: Pattern, i: usize, parts: (Storage, bool, Traffic)) -> LayerSim {
        self.model.sim(pattern, self.cell(i), parts)
    }

    #[inline]
    fn cell(&self, i: usize) -> Cell<'_> {
        let [im, i_n, ir, ic] = self.cells[i].map(usize::from);
        Cell {
            m: &self.m[im],
            n: &self.n[i_n],
            r: &self.r[ir],
            c: &self.c[ic],
            rc: &self.rc[ir * self.c.len() + ic],
        }
    }
}

/// Analyzes `layer` under `pattern` with `tiling` on `cfg`: the
/// one-tiling case of [`TilingGrid`]'s formulas, with the axis terms of
/// that tiling alone (no allocation).
///
/// The tiling is clamped to the layer's dimensions; it is the caller's
/// responsibility to pass a tiling satisfying
/// [`Tiling::fits_core`] — the analysis itself only checks the *buffer*
/// capacity (overflow switches on the pattern's reload/spill traffic, it
/// does not make the configuration invalid).
pub fn analyze(
    layer: &SchedLayer,
    pattern: Pattern,
    tiling: Tiling,
    cfg: &AcceleratorConfig,
) -> LayerSim {
    let model = Model::new(layer, cfg);
    let t = tiling.clamped_to(layer);
    let (m, n) = (model.m_terms(t.tm), model.n_terms(t.tn));
    let (r, c, rc) = (model.r_terms(t.tr), model.c_terms(t.tc), model.rc_terms(t.tr, t.tc));
    let cell = Cell { m: &m, n: &n, r: &r, c: &c, rc: &rc };
    model.sim(pattern, cell, model.parts(pattern, cell))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rana_zoo::{resnet50, vgg16};

    fn layer_a() -> SchedLayer {
        SchedLayer::from_conv(resnet50().conv("res4a_branch1").unwrap())
    }

    fn layer_b() -> SchedLayer {
        SchedLayer::from_conv(vgg16().conv("conv4_2").unwrap())
    }

    #[test]
    fn layer_a_id_lifetime_matches_paper() {
        // §III-B2: LTo < LTw < LTi = 2294 µs under ID.
        let cfg = AcceleratorConfig::paper_edram();
        let sim = analyze(&layer_a(), Pattern::Id, Tiling::new(16, 16, 1, 16), &cfg);
        assert!((sim.lifetimes.input_us - 2293.76).abs() < 0.5, "LTi {}", sim.lifetimes.input_us);
        assert_eq!(sim.lifetimes.output_us, 0.0);
        assert!(sim.lifetimes.weight_us < sim.lifetimes.input_us);
    }

    #[test]
    fn layer_a_od_lifetime_matches_paper() {
        // §IV-C1: OD with Tm,Tn,Tc = 16, Tr = 1 gives LTo = 72 µs.
        let cfg = AcceleratorConfig::paper_edram();
        let sim = analyze(&layer_a(), Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        assert!(
            (sim.lifetimes.output_rewrite_us - 71.68).abs() < 0.5,
            "LTo {}",
            sim.lifetimes.output_rewrite_us
        );
        assert_eq!(sim.lifetimes.input_us, sim.lifetimes.output_rewrite_us);
    }

    #[test]
    fn layer_b_od_lifetimes_match_paper() {
        // §IV-D2: Layer-B at Tn = 16: LTi = LTo = 1290 µs, LTw = 40 µs.
        let cfg = AcceleratorConfig::paper_edram();
        let sim = analyze(&layer_b(), Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        assert!((sim.lifetimes.input_us - 1290.24).abs() < 1.0, "LTi {}", sim.lifetimes.input_us);
        assert!((sim.lifetimes.weight_us - 40.32).abs() < 0.5, "LTw {}", sim.lifetimes.weight_us);
    }

    #[test]
    fn layer_b_halving_tn_halves_lifetime() {
        // §IV-C1: reducing Tn from 16 to 8 drops the lifetime from 1290 µs
        // to 645 µs.
        let cfg = AcceleratorConfig::paper_edram();
        let sim = analyze(&layer_b(), Pattern::Od, Tiling::new(16, 8, 1, 16), &cfg);
        assert!(
            (sim.lifetimes.output_rewrite_us - 645.12).abs() < 1.0,
            "LTo {}",
            sim.lifetimes.output_rewrite_us
        );
    }

    #[test]
    fn layer_a_storage_matches_785kb() {
        // §III-B1: ID at Tm=Tn=Tr=Tc=1 needs 785 KB.
        let cfg = AcceleratorConfig::paper_sram();
        let sim = analyze(&layer_a(), Pattern::Id, Tiling::new(1, 1, 1, 1), &cfg);
        let kb = sim.storage.total() as f64 * 2.0 / 1024.0;
        assert!((kb - 785.0).abs() < 1.0, "storage {kb} KB");
        assert!(!sim.fits_buffer, "785 KB cannot fit 384 KB SRAM");
    }

    #[test]
    fn od_storage_formulas() {
        let cfg = AcceleratorConfig::paper_edram();
        let sim = analyze(&layer_b(), Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        assert_eq!(sim.storage.input_words, 16 * 28 * 28); // Tn·H·L
        assert_eq!(sim.storage.output_words, 512 * 28 * 28); // M·R·C
        assert_eq!(sim.storage.weight_words, 16 * 16 * 9); // Tn·Tm·K²
    }

    #[test]
    fn wd_storage_formulas() {
        let cfg = AcceleratorConfig::paper_edram();
        let sim = analyze(&layer_b(), Pattern::Wd, Tiling::new(16, 16, 4, 16), &cfg);
        assert_eq!(sim.storage.weight_words, 512 * 512 * 9); // N·M·K²
        assert_eq!(sim.storage.input_words, 512 * 6 * 18); // N·Th·Tl
        assert_eq!(sim.storage.output_words, 16 * 4 * 16); // Tm·Tr·Tc
    }

    #[test]
    fn utilization_emerges_from_ceilings() {
        // Layer-A with Tc=16 but C=14: columns 14/16 busy -> eta = 0.875.
        let cfg = AcceleratorConfig::paper_edram();
        let sim = analyze(&layer_a(), Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        assert!((sim.utilization - 0.875).abs() < 1e-9, "eta {}", sim.utilization);
    }

    #[test]
    fn od_traffic_no_spill_when_fits() {
        let cfg = AcceleratorConfig::paper_edram();
        let a = layer_a();
        let sim = analyze(&a, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        assert!(sim.fits_buffer);
        assert_eq!(sim.traffic.dram_input_loads, a.input_words());
        assert_eq!(sim.traffic.dram_weight_loads, a.weight_words());
        assert_eq!(sim.traffic.dram_output_stores, a.output_words());
        assert_eq!(sim.traffic.dram_partial_stores, 0);
    }

    #[test]
    fn od_spills_partials_when_outputs_do_not_fit() {
        // VGG conv1_2 outputs (64·224·224 words = 6.4 MB) exceed 1.44 MB.
        let cfg = AcceleratorConfig::paper_edram();
        let l = SchedLayer::from_conv(vgg16().conv("conv1_2").unwrap());
        let sim = analyze(&l, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        assert!(!sim.fits_buffer);
        assert!(sim.traffic.dram_partial_stores > 0);
        assert_eq!(sim.traffic.dram_partial_stores, sim.traffic.dram_partial_loads);
    }

    #[test]
    fn wd_fits_where_od_does_not() {
        // §IV-C2: WD shrinks the requirement of wide shallow layers.
        let cfg = AcceleratorConfig::paper_edram();
        let l = SchedLayer::from_conv(vgg16().conv("conv1_2").unwrap());
        let od = analyze(&l, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        let wd = analyze(&l, Pattern::Wd, Tiling::new(16, 16, 4, 16), &cfg);
        assert!(!od.fits_buffer);
        assert!(wd.fits_buffer);
        assert!(wd.traffic.dram_total() < od.traffic.dram_total());
    }

    #[test]
    fn od_saves_weight_buffer_reads_vs_wd() {
        // The DaDianNao §V-C effect: WD refetches weight tiles per rc-tile.
        let cfg = AcceleratorConfig::dadiannao();
        let l = layer_b();
        let od = analyze(&l, Pattern::Od, Tiling::new(64, 64, 1, 1), &cfg);
        let wd = analyze(&l, Pattern::Wd, Tiling::new(64, 64, 1, 1), &cfg);
        assert_eq!(od.traffic.buf_weight_reads, l.weight_words());
        assert_eq!(wd.traffic.buf_weight_reads, 28 * 28 * l.weight_words());
    }

    #[test]
    fn grouped_layers_scale_counts() {
        let cfg = AcceleratorConfig::paper_edram();
        let net = rana_zoo::alexnet();
        let c2 = SchedLayer::from_conv(net.conv("conv2").unwrap());
        let sim = analyze(&c2, Pattern::Od, Tiling::new(16, 16, 1, 16), &cfg);
        assert_eq!(sim.macs, net.conv("conv2").unwrap().macs());
        assert_eq!(sim.traffic.dram_weight_loads, net.conv("conv2").unwrap().weight_words());
    }

    #[test]
    fn id_lifetime_always_exceeds_od() {
        // §IV-C3's reason for excluding ID from the exploration space.
        let cfg = AcceleratorConfig::paper_edram();
        for net in rana_zoo::benchmarks() {
            for conv in net.conv_layers() {
                let l = SchedLayer::from_conv(conv);
                let t = Tiling::new(16, 16, 1, 16);
                let id = analyze(&l, Pattern::Id, t, &cfg);
                let od = analyze(&l, Pattern::Od, t, &cfg);
                assert!(
                    id.lifetimes.input_us >= od.lifetimes.input_us - 1e-9,
                    "{}: ID {} < OD {}",
                    l.name,
                    id.lifetimes.input_us,
                    od.lifetimes.input_us
                );
            }
        }
    }

    #[test]
    fn cycles_are_tiling_invariant_modulo_ceilings() {
        // Perfectly divisible tilings of the same layer give identical
        // cycle counts (only ceiling effects differ).
        let cfg = AcceleratorConfig::paper_edram();
        let l = layer_b(); // 512/512/28/28: all powers of 2 and 28 divide evenly
        let a = analyze(&l, Pattern::Od, Tiling::new(16, 16, 1, 14), &cfg);
        let b = analyze(&l, Pattern::Wd, Tiling::new(16, 8, 2, 7), &cfg);
        assert_eq!(a.cycles, b.cycles);
    }
}
