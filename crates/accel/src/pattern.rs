//! Computation patterns and tilings (paper Figure 10).
//!
//! A pattern is an ordering of the memory-control loops `M`, `RC`, `N`
//! around the fixed core-computing part. The three orderings the paper
//! analyzes:
//!
//! | pattern | 3rd (outer) | 2nd | 1st (inner) | resident data |
//! |---------|-------------|-----|-------------|----------------|
//! | ID      | `M`         | `RC`| `N`         | all inputs     |
//! | OD      | `N`         | `M` | `RC`        | all outputs    |
//! | WD      | `RC`        | `M` | `N`         | all weights    |

use crate::analysis::TilingGrid;
use crate::config::{AcceleratorConfig, PeOrganization};
use crate::layer::SchedLayer;
use std::fmt;

/// Loop dimensions of the memory-control part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopDim {
    /// Output-channel loop.
    M,
    /// Output-pixel loop (rows × columns, one level).
    Rc,
    /// Input-channel loop.
    N,
}

/// A computation pattern: the loop order of the memory-control part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Input dominant: `M` outermost (the typical pattern, Figure 3(b)).
    Id,
    /// Output dominant: `N` outermost, outputs self-refresh by accumulation.
    Od,
    /// Weight dominant: `RC` outermost, all weights resident.
    Wd,
}

impl Pattern {
    /// All three patterns.
    pub const ALL: [Pattern; 3] = [Pattern::Id, Pattern::Od, Pattern::Wd];

    /// The patterns RANA's scheduler explores (§IV-C3 excludes ID: its
    /// lifetime is always longer than OD's and its storage similar).
    pub const RANA_SPACE: [Pattern; 2] = [Pattern::Od, Pattern::Wd];

    /// Loop order outermost → innermost.
    pub fn loop_order(&self) -> [LoopDim; 3] {
        match self {
            Pattern::Id => [LoopDim::M, LoopDim::Rc, LoopDim::N],
            Pattern::Od => [LoopDim::N, LoopDim::M, LoopDim::Rc],
            Pattern::Wd => [LoopDim::Rc, LoopDim::M, LoopDim::N],
        }
    }

    /// Loop level (1 = innermost … 3 = outermost) of a dimension.
    pub fn level_of(&self, dim: LoopDim) -> usize {
        let order = self.loop_order();
        3 - order.iter().position(|&d| d == dim).expect("all dims present")
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Id => write!(f, "ID"),
            Pattern::Od => write!(f, "OD"),
            Pattern::Wd => write!(f, "WD"),
        }
    }
}

/// Tiling parameters `⟨Tm, Tn, Tr, Tc⟩` of the core computing part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tiling {
    /// Output channels per tile.
    pub tm: usize,
    /// Input channels per tile.
    pub tn: usize,
    /// Output rows per tile.
    pub tr: usize,
    /// Output columns per tile.
    pub tc: usize,
}

impl Tiling {
    /// Creates a tiling.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(tm: usize, tn: usize, tr: usize, tc: usize) -> Self {
        assert!(tm > 0 && tn > 0 && tr > 0 && tc > 0, "tiling parameters must be positive");
        Self { tm, tn, tr, tc }
    }

    /// Clamps the tiling to a layer's dimensions.
    pub fn clamped_to(&self, layer: &SchedLayer) -> Self {
        Self {
            tm: self.tm.min(layer.m),
            tn: self.tn.min(layer.n),
            tr: self.tr.min(layer.r),
            tc: self.tc.min(layer.c),
        }
    }

    /// Whether the tiling satisfies the core-local storage constraints of
    /// §IV-C3: `Tn·Th·Tl ≤ Ri`, `Tm·Tr·Tc ≤ Ro`, `Tm·Tn·K² ≤ Rw`.
    pub fn fits_core(&self, layer: &SchedLayer, cfg: &AcceleratorConfig) -> bool {
        let t = self.clamped_to(layer);
        let th = layer.tile_in_h(t.tr);
        let tl = layer.tile_in_w(t.tc);
        t.tn * th * tl <= cfg.local_input_words
            && t.tm * t.tr * t.tc <= cfg.local_output_words
            && t.tm * t.tn * layer.k * layer.k <= cfg.local_weight_words
    }

    /// Trip counts `(TM, TN, TR, TC)` for a layer (ceiling division).
    pub fn trips(&self, layer: &SchedLayer) -> (usize, usize, usize, usize) {
        let t = self.clamped_to(layer);
        (
            layer.m.div_ceil(t.tm),
            layer.n.div_ceil(t.tn),
            layer.r.div_ceil(t.tr),
            layer.c.div_ceil(t.tc),
        )
    }

    /// Candidate tilings for a layer on an accelerator: powers of two (plus
    /// the exact dimension) per axis, filtered by the core-local storage
    /// constraints, in the canonical scan order of [`TilingGrid`].
    pub fn candidates(layer: &SchedLayer, cfg: &AcceleratorConfig) -> Vec<Tiling> {
        let grid = TilingGrid::new(layer, cfg, None);
        (0..grid.len()).map(|i| grid.tiling(i)).collect()
    }
}

impl fmt::Display for Tiling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<Tm={},Tn={},Tr={},Tc={}>", self.tm, self.tn, self.tr, self.tc)
    }
}

/// One tiled dimension, decomposed arithmetically: tile `i` covers
/// `[i·t, i·t + len(i))` where every tile is `t` wide except a possibly
/// shorter last one. Replaces the per-call `Vec<(start, len)>` lists the
/// tile walks used to allocate — a `TileAxis` is two words and `get` is
/// two arithmetic ops.
///
/// ```
/// use rana_accel::TileAxis;
///
/// let axis = TileAxis::new(10, 4); // dim 10 in tiles of 4: 4 + 4 + 2
/// assert_eq!(axis.len(), 3);
/// assert_eq!(axis.get(0), (0, 4));
/// assert_eq!(axis.get(2), (8, 2));
/// assert_eq!(axis.iter().map(|(_, l)| l).sum::<usize>(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileAxis {
    dim: usize,
    t: usize,
}

impl TileAxis {
    /// Decomposes a dimension of size `dim` into tiles of width `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is zero.
    pub fn new(dim: usize, t: usize) -> Self {
        assert!(t > 0, "tile width must be positive");
        Self { dim, t }
    }

    /// Number of tiles (`ceil(dim / t)`; zero for an empty dimension).
    pub fn len(&self) -> usize {
        self.dim.div_ceil(self.t)
    }

    /// Whether the dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.dim == 0
    }

    /// `(start, len)` of tile `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> (usize, usize) {
        assert!(i < self.len(), "tile index {i} out of range (len {})", self.len());
        let start = i * self.t;
        (start, self.t.min(self.dim - start))
    }

    /// Iterates the `(start, len)` tile bounds in order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// One tile iteration of a channel group's loop nest, as [`tiles`] yields
/// it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tile {
    /// Tile index on the `M` axis.
    pub mi: usize,
    /// Tile index on the `N` axis.
    pub ni: usize,
    /// Tile index on the `RC` axis, which flattens rows × columns with the
    /// column tile innermost.
    pub rci: usize,
    /// `(start, extent)` on the output channels.
    pub m: (usize, usize),
    /// `(start, extent)` on the input channels.
    pub n: (usize, usize),
    /// `(start, extent)` on the output rows.
    pub r: (usize, usize),
    /// `(start, extent)` on the output columns.
    pub c: (usize, usize),
    /// This is the last n-tile: the tile's outputs are final.
    pub last_n: bool,
    /// The input reuse scope: consecutive tiles with one key share a
    /// resident input set. ID keeps every input for the whole layer, OD an
    /// n-tile's channels, and WD restreams the inputs at every rc-tile.
    pub input_scope: usize,
    /// The weight reuse scope: ID holds an m-tile's weights across its RC
    /// sweep, OD an (m, n) tile's across RC, and WD every weight for the
    /// whole layer.
    pub weight_scope: usize,
    /// PE-array cycles of the tile's core computation.
    pub cycles: u64,
}

/// The tiles of one channel group of `layer` under the clamped tiling `t`,
/// in `pattern`'s loop order on `cfg`'s PE array: the walk both the trace
/// simulator and the functional engine run.
pub(crate) fn tiles(
    layer: &SchedLayer,
    pattern: Pattern,
    t: Tiling,
    cfg: &AcceleratorConfig,
) -> impl Iterator<Item = Tile> {
    let [m, n, r, c] = [(layer.m, t.tm), (layer.n, t.tn), (layer.r, t.tr), (layer.c, t.tc)]
        .map(|(dim, t)| TileAxis::new(dim, t));
    let order = pattern.loop_order();
    let [outer, mid, inner] = order.map(|d| match d {
        LoopDim::M => m.len(),
        LoopDim::N => n.len(),
        LoopDim::Rc => r.len() * c.len(),
    });
    let k2 = (layer.k * layer.k) as u64;
    let (pe_rows, pe_cols, organization) = (cfg.pe_rows, cfg.pe_cols, cfg.organization);
    (0..outer * mid * inner).map(move |i| {
        let (mut mi, mut ni, mut rci) = (0, 0, 0);
        for (d, idx) in order.into_iter().zip([i / (mid * inner), i / inner % mid, i % inner]) {
            *match d {
                LoopDim::M => &mut mi,
                LoopDim::N => &mut ni,
                LoopDim::Rc => &mut rci,
            } = idx;
        }
        let (tile_m, tile_n) = (m.get(mi), n.get(ni));
        let (tile_r, tile_c) = (r.get(rci / c.len()), c.get(rci % c.len()));
        let (input_scope, weight_scope) = match pattern {
            Pattern::Id => (0, mi),
            Pattern::Od => (ni, mi * n.len() + ni),
            Pattern::Wd => (rci, 0),
        };
        let (tn_e, pixels) = (tile_n.1, tile_r.1 * tile_c.1);
        let steps = match organization {
            PeOrganization::PixelColumns => tn_e as u64 * pixels.div_ceil(pe_cols) as u64,
            PeOrganization::ChannelColumns => tn_e.div_ceil(pe_cols) as u64 * pixels as u64,
        };
        Tile {
            mi,
            ni,
            rci,
            m: tile_m,
            n: tile_n,
            r: tile_r,
            c: tile_c,
            last_n: ni == n.len() - 1,
            input_scope,
            weight_scope,
            cycles: steps * k2 * tile_m.1.div_ceil(pe_rows) as u64,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rana_zoo::resnet50;

    fn layer_a() -> SchedLayer {
        SchedLayer::from_conv(resnet50().conv("res4a_branch1").unwrap())
    }

    #[test]
    fn loop_orders_match_figure_10() {
        assert_eq!(Pattern::Id.loop_order(), [LoopDim::M, LoopDim::Rc, LoopDim::N]);
        assert_eq!(Pattern::Od.loop_order(), [LoopDim::N, LoopDim::M, LoopDim::Rc]);
        assert_eq!(Pattern::Wd.loop_order(), [LoopDim::Rc, LoopDim::M, LoopDim::N]);
        assert_eq!(Pattern::Od.level_of(LoopDim::N), 3);
        assert_eq!(Pattern::Od.level_of(LoopDim::Rc), 1);
    }

    #[test]
    fn clamping() {
        let t = Tiling::new(64, 64, 64, 64).clamped_to(&layer_a());
        assert_eq!((t.tm, t.tn, t.tr, t.tc), (64, 64, 14, 14));
    }

    #[test]
    fn trips_use_ceiling() {
        let (tm, tn, tr, tc) = Tiling::new(16, 16, 1, 16).trips(&layer_a());
        assert_eq!((tm, tn, tr, tc), (64, 32, 14, 1));
        let b = SchedLayer::from_conv(rana_zoo::vgg16().conv("conv4_2").unwrap());
        let (_, _, _, tc) = Tiling::new(16, 16, 1, 16).trips(&b);
        assert_eq!(tc, 2); // 28 / 16 -> 2 tiles (16 + 12)
    }

    #[test]
    fn core_constraints_filter() {
        let cfg = AcceleratorConfig::paper_sram();
        let l = layer_a();
        assert!(Tiling::new(16, 16, 1, 16).fits_core(&l, &cfg));
        // Tm·Tr·Tc = 16·14·14 = 3136 > Ro (2048).
        assert!(!Tiling::new(16, 16, 14, 14).fits_core(&l, &cfg));
        // Tm·Tn·K² = 128·64·1 = 8192 = Rw: fits exactly.
        assert!(Tiling::new(128, 64, 1, 16).fits_core(&l, &cfg));
    }

    #[test]
    fn candidates_nonempty_and_valid() {
        let cfg = AcceleratorConfig::paper_sram();
        for net in rana_zoo::benchmarks() {
            for conv in net.conv_layers() {
                let l = SchedLayer::from_conv(conv);
                let cands = Tiling::candidates(&l, &cfg);
                assert!(!cands.is_empty(), "no candidates for {}", l.name);
                for t in &cands {
                    assert!(t.fits_core(&l, &cfg), "invalid candidate {t} for {}", l.name);
                }
            }
        }
    }

    #[test]
    fn tile_axis_covers_dimension_exactly() {
        for dim in 0..40usize {
            for t in 1..10usize {
                let axis = TileAxis::new(dim, t);
                assert_eq!(axis.len(), dim.div_ceil(t));
                let mut next = 0usize;
                for (start, len) in axis.iter() {
                    assert_eq!(start, next, "tiles contiguous for dim={dim} t={t}");
                    assert!(len >= 1 && len <= t);
                    next = start + len;
                }
                assert_eq!(next, dim, "tiles cover dim={dim} t={t}");
                assert_eq!(axis.is_empty(), dim == 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_axis_get_out_of_range_panics() {
        TileAxis::new(10, 4).get(3);
    }

    #[test]
    fn pattern_display() {
        assert_eq!(Pattern::Od.to_string(), "OD");
        assert_eq!(Tiling::new(16, 8, 1, 16).to_string(), "<Tm=16,Tn=8,Tr=1,Tc=16>");
    }
}
