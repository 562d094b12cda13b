//! Cache-conscious SoA estimate/build kernels (DESIGN.md §16).
//!
//! The histogram structs store their per-cell statistics as one dense
//! vector per statistic, in the exact fixed-point form merges and
//! persistence need. Estimation wants something else: the `f64` values
//! of the occupied cells only, contiguous, with Table 1's averages
//! already derived. This module provides that **resident view** — one
//! per histogram, decoded lazily on the first estimate and held in the
//! histogram's [`ViewCache`] until a `&mut` path clears it:
//!
//! * [`PhView`] — PH `Cont`/`Isect` groups (Table 1) with the averages
//!   `Xavg`/`Yavg` pre-derived, plus the scalar `AvgSpan` statistic;
//! * [`GhView`] — the four-statistic GH records, revised `{C, O, H, V}`
//!   (Table 2, Eq. 5) or basic `{C, I, V, H}` (Eq. 4).
//!
//! Both store only occupied cells, as one row-major `[f64; K]` record
//! per cell in ascending flat-index order ([`CellRecords`]); a record is
//! found by rank over a per-row occupancy bitmap ([`RowMask`]). The
//! Eq. 3/4/5 loops AND the two operands' bitmaps word by word, so empty
//! 64-cell runs are skipped without touching any record.
//!
//! # Bit-identity with the scalar paths
//!
//! `estimate` on the structs dispatches through these kernels, and the
//! result is **bit-identical** to the retained scalar reference loops
//! ([`crate::PhHistogram::estimate_scalar`] and friends): the views
//! pre-compute exactly the `f64` values the scalar loop derives per
//! cell, cells are visited in the same ascending flat-index order, and
//! the only cells skipped are those whose contribution is exactly
//! `+0.0` (adding `+0.0` to the non-negative accumulator cannot change
//! its bits). DESIGN.md §16 spells the argument out; the
//! `kernel_agreement` and `resident_views` integration tests pin it on
//! both the decoding and the cached call.
//!
//! The build side is served by the crate-internal `BinGrid`, a
//! flattened view of the grid geometry (hoisted cell sizes, row-base
//! flat indices) used by the `bin_*` binning loops that
//! `build`/`build_parallel` delegate to. Those loops stay under lint
//! rule r2: they accumulate only integers and `Mass` (quantizing once
//! via `Mass::from_f64`), which is what keeps shard merges bit-exact.

use crate::grid::ix;
use crate::grid::Grid;
use crate::mass::Mass;
use crate::{GhBasicHistogram, GhHistogram, HistogramError, PhHistogram, SelectivityEstimate};
use sj_geo::{HEdge, Rect, VEdge};
use std::sync::OnceLock;

// ---------------------------------------------------------------------
// Occupancy bitmaps and rank-addressed records
// ---------------------------------------------------------------------

/// Per-row occupancy bitmap over the grid cells of a view.
///
/// Each grid row is encoded as `ceil(cols / 64)` little-endian `u64`
/// words (bit `c % 64` of word `c / 64` covers column `c`); rows are
/// concatenated in ascending order, so for grids of 64+ columns the
/// encoding coincides with a flat row-major bitmap. Word order and bit
/// order both follow flat-index order, which is what makes a cell's
/// rank among the set bits its record index.
pub(crate) struct RowMask {
    words_per_row: usize,
    words: Vec<u64>,
}

impl RowMask {
    /// An all-empty mask for a `rows × cols` grid.
    pub(crate) fn empty(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        Self {
            words_per_row,
            words: vec![0u64; rows * words_per_row],
        }
    }

    /// Marks cell `(row, col)` occupied.
    pub(crate) fn set(&mut self, row: usize, col: usize) {
        self.words[row * self.words_per_row + col / 64] |= 1u64 << (col % 64);
    }

    /// Set bits before each word: the rank of the word's first set bit.
    fn rank_prefix(&self) -> Vec<u32> {
        let mut before = 0u32;
        self.words
            .iter()
            .map(|w| {
                let rank = before;
                before += w.count_ones();
                rank
            })
            .collect()
    }
}

/// The occupied cells of one histogram, compactly: one `[f64; K]`
/// record per occupied cell in ascending flat-index order, addressed by
/// rank — `prefix[w] + popcount(word & below)` for the bit below-masked
/// in mask word `w`.
///
/// Memory is `8·K` bytes per occupied cell plus 12 bytes per mask word
/// (the `u64` bitmap and its `u32` rank prefix); empty cells cost only
/// their bitmap bit.
pub(crate) struct CellRecords<const K: usize> {
    occ: RowMask,
    prefix: Vec<u32>,
    records: Vec<[f64; K]>,
}

impl<const K: usize> CellRecords<K> {
    /// Decodes the `rows × cols` cells in ascending flat-index order,
    /// keeping the record of every cell with a non-zero value.
    fn decode(rows: usize, cols: usize, mut cell: impl FnMut(usize) -> [f64; K]) -> Self {
        let mut occ = RowMask::empty(rows, cols);
        let mut records = Vec::new();
        for idx in 0..rows * cols {
            let record = cell(idx);
            if record.iter().any(|&x| x != 0.0) {
                occ.set(idx / cols, idx % cols);
                records.push(record);
            }
        }
        records.shrink_to_fit();
        let prefix = occ.rank_prefix();
        Self {
            occ,
            prefix,
            records,
        }
    }

    /// Number of occupied cells.
    fn len(&self) -> usize {
        self.records.len()
    }

    /// Calls `f` with both sides' records of every cell occupied in
    /// **both**, in ascending flat-index order.
    ///
    /// This is the shared sweep of all estimate kernels: zero words
    /// (empty 64-cell runs) are skipped without touching any record,
    /// and a word full on both sides pairs 64 consecutive records.
    fn for_each_joint(&self, other: &Self, mut f: impl FnMut(&[f64; K], &[f64; K])) {
        debug_assert_eq!(self.occ.words_per_row, other.occ.words_per_row);
        debug_assert_eq!(self.occ.words.len(), other.occ.words.len());
        let words = self.occ.words.iter().zip(&other.occ.words);
        for (w, (&wa, &wb)) in words.enumerate() {
            let mut bits = wa & wb;
            if bits == 0 {
                continue;
            }
            let (ra, rb) = (ix(self.prefix[w]), ix(other.prefix[w]));
            if bits == u64::MAX {
                let run_a = &self.records[ra..ra + 64];
                let run_b = &other.records[rb..rb + 64];
                for (a, b) in run_a.iter().zip(run_b) {
                    f(a, b);
                }
                continue;
            }
            while bits != 0 {
                let below = (bits & bits.wrapping_neg()) - 1;
                let a = &self.records[ra + ix((wa & below).count_ones())];
                let b = &other.records[rb + ix((wb & below).count_ones())];
                f(a, b);
                bits &= bits - 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// The per-histogram cache
// ---------------------------------------------------------------------

/// A histogram's resident view, decoded lazily on the first estimate
/// and then shared by every later one (concurrent first estimates race
/// benignly: one decodes, the rest wait for it).
///
/// The cache is invisible to the rest of the system: equality ignores
/// it, a clone starts empty, `Debug` prints no contents, and
/// persistence never reads it. Its one rule is that **every `&mut`
/// path of the owning histogram calls [`Self::clear`]** (merges and
/// delta application today), so no estimate is ever served from a view
/// of older statistics.
pub(crate) struct ViewCache<V>(OnceLock<V>);

impl<V> ViewCache<V> {
    /// The resident view, decoding it with `decode` if none is held.
    pub(crate) fn get_or_init(&self, decode: impl FnOnce() -> V) -> &V {
        self.0.get_or_init(decode)
    }

    /// Drops the resident view; the next estimate decodes afresh.
    pub(crate) fn clear(&mut self) {
        self.0.take();
    }
}

impl<V> Default for ViewCache<V> {
    fn default() -> Self {
        Self(OnceLock::new())
    }
}

impl<V> Clone for ViewCache<V> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<V> PartialEq for ViewCache<V> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<V> std::fmt::Debug for ViewCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ViewCache")
    }
}

fn grid_check(a: Grid, b: Grid) -> Result<(), HistogramError> {
    if a.compatible(&b) {
        Ok(())
    } else {
        Err(HistogramError::GridMismatch {
            left_level: a.level(),
            right_level: b.level(),
        })
    }
}

/// Table 1 averages, derived on the fly from the stored sums — the
/// exact expression of the scalar estimate loop.
fn avg(sum: Mass, count: u32) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum.to_f64() / f64::from(count)
    }
}

/// `IP / 4 / (N₁·N₂)` — the GH estimate tail, shared by the kernel and
/// the scalar oracles.
#[allow(clippy::cast_precision_loss)]
pub(crate) fn ip_estimate(ip: f64, n1: u64, n2: u64) -> SelectivityEstimate {
    let denom = (n1 as f64) * (n2 as f64);
    let raw = if denom == 0.0 { 0.0 } else { ip / 4.0 / denom };
    SelectivityEstimate::from_selectivity(
        raw,
        usize::try_from(n1).unwrap_or(usize::MAX),
        usize::try_from(n2).unwrap_or(usize::MAX),
    )
}

// ---------------------------------------------------------------------
// PH view (Table 1 / Eq. 3)
// ---------------------------------------------------------------------

/// Resident view of a [`PhHistogram`]: per occupied cell, the record
/// `[N, C, Xavg, Yavg, N', C', Xavg', Yavg']` of the `Cont` and `Isect`
/// groups with the averages pre-derived, plus the dataset scalars.
pub(crate) struct PhView {
    grid: Grid,
    n: u64,
    avg_span: f64,
    cells: CellRecords<8>,
}

impl PhView {
    /// Decodes `hist` into the compact record form.
    pub(crate) fn new(hist: &PhHistogram) -> Self {
        let grid = hist.grid();
        let cpa = ix(grid.cells_per_axis());
        let cells = CellRecords::decode(cpa, cpa, |idx| {
            [
                f64::from(hist.num[idx]),
                hist.cov[idx].to_f64(),
                avg(hist.xsum[idx], hist.num[idx]),
                avg(hist.ysum[idx], hist.num[idx]),
                f64::from(hist.num_x[idx]),
                hist.cov_x[idx].to_f64(),
                avg(hist.xsum_x[idx], hist.num_x[idx]),
                avg(hist.ysum_x[idx], hist.num_x[idx]),
            ]
        });
        Self {
            grid,
            n: hist.n,
            avg_span: hist.avg_span(),
            cells,
        }
    }

    /// Occupied cells (any non-zero `Cont`/`Isect` statistic).
    pub(crate) fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// Paper Eq. 3, with the `AvgSpan` correction when `correct_spans`.
    pub(crate) fn estimate(
        &self,
        other: &PhView,
        correct_spans: bool,
    ) -> Result<SelectivityEstimate, HistogramError> {
        grid_check(self.grid, other.grid)?;
        let cell_area = self.grid.cell_area();
        // The parametric kernel of Eq. 1 — identical expression (and
        // therefore rounding) to the scalar reference loop.
        let kernel = |n1: f64, c1: f64, w1: f64, h1: f64, n2: f64, c2: f64, w2: f64, h2: f64| {
            n1 * c2 + c1 * n2 + n1 * n2 * (w1 * h2 + w2 * h1) / cell_area
        };
        let mut sum_abc = 0.0f64;
        let mut sum_d = 0.0f64;
        self.cells.for_each_joint(&other.cells, |a, b| {
            let [n1, c1, w1, h1, n1x, c1x, w1x, h1x] = *a;
            let [n2, c2, w2, h2, n2x, c2x, w2x, h2x] = *b;
            // Sa: Cont1 × Cont2; Sb: Cont1 × Isect2; Sc: Isect1 × Cont2.
            sum_abc += kernel(n1, c1, w1, h1, n2, c2, w2, h2);
            sum_abc += kernel(n1, c1, w1, h1, n2x, c2x, w2x, h2x);
            sum_abc += kernel(n1x, c1x, w1x, h1x, n2, c2, w2, h2);
            // Sd: Isect1 × Isect2 — the only multi-counted case.
            sum_d += kernel(n1x, c1x, w1x, h1x, n2x, c2x, w2x, h2x);
        });
        let span_correction = if correct_spans {
            (self.avg_span + other.avg_span) / 2.0
        } else {
            1.0
        };
        let size = sum_abc + sum_d / span_correction;
        #[allow(clippy::cast_precision_loss)]
        let denom = (self.n as f64) * (other.n as f64);
        let raw = if denom == 0.0 { 0.0 } else { size / denom };
        Ok(SelectivityEstimate::from_selectivity(
            raw,
            usize::try_from(self.n).unwrap_or(usize::MAX),
            usize::try_from(other.n).unwrap_or(usize::MAX),
        ))
    }
}

// ---------------------------------------------------------------------
// GH view (Eq. 4 and Eq. 5)
// ---------------------------------------------------------------------

/// Resident view of a [`GhHistogram`] or [`GhBasicHistogram`]: per
/// occupied cell, the record `[C, O, H, V]` (revised, Table 2) or
/// `[C, I, V, H]` (basic). With `a`/`b` the two operands' records, both
/// Eq. 4 and Eq. 5 read `Σ a₀·b₁ + b₀·a₁ + a₂·b₃ + b₂·a₃` over these
/// layouts — `f64` multiplication commutes exactly, so the one kernel
/// is bit-identical to both scalar loops.
pub(crate) struct GhView {
    grid: Grid,
    n: u64,
    cells: CellRecords<4>,
}

impl GhView {
    /// Decodes a revised GH histogram.
    pub(crate) fn revised(hist: &GhHistogram) -> Self {
        let cpa = ix(hist.grid().cells_per_axis());
        let cells = CellRecords::decode(cpa, cpa, |idx| {
            [
                f64::from(hist.c[idx]),
                hist.o[idx].to_f64(),
                hist.h[idx].to_f64(),
                hist.v[idx].to_f64(),
            ]
        });
        Self {
            grid: hist.grid(),
            n: hist.n,
            cells,
        }
    }

    /// Decodes a basic GH histogram.
    pub(crate) fn basic(hist: &GhBasicHistogram) -> Self {
        let cpa = ix(hist.grid().cells_per_axis());
        let cells = CellRecords::decode(cpa, cpa, |idx| {
            [
                f64::from(hist.c[idx]),
                f64::from(hist.i[idx]),
                f64::from(hist.v[idx]),
                f64::from(hist.h[idx]),
            ]
        });
        Self {
            grid: hist.grid(),
            n: hist.n,
            cells,
        }
    }

    /// Occupied cells (any non-zero statistic).
    pub(crate) fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// Eq. 4/5 intersection-point total.
    pub(crate) fn intersection_points(&self, other: &GhView) -> Result<f64, HistogramError> {
        grid_check(self.grid, other.grid)?;
        let mut total = 0.0f64;
        self.cells.for_each_joint(&other.cells, |a, b| {
            total += a[0] * b[1] + b[0] * a[1] + a[2] * b[3] + b[2] * a[3];
        });
        Ok(total)
    }

    /// The GH estimate: `IP / 4 / (N₁·N₂)`.
    pub(crate) fn estimate(&self, other: &GhView) -> Result<SelectivityEstimate, HistogramError> {
        Ok(ip_estimate(
            self.intersection_points(other)?,
            self.n,
            other.n,
        ))
    }
}

// ---------------------------------------------------------------------
// Build-side binning view
// ---------------------------------------------------------------------

/// Flattened grid geometry for the binning loops: cell sizes hoisted
/// out of the per-cell iteration, flat indices derived from a per-row
/// base instead of re-multiplying per cell. Every derived value is the
/// same expression [`Grid`] evaluates, so the quantized `Mass`
/// contributions — and therefore the built histograms — are
/// bit-identical to binning through [`Grid`] directly.
pub(crate) struct BinGrid {
    cpa: usize,
    xlo: f64,
    ylo: f64,
    cell_w: f64,
    cell_h: f64,
    cell_area: f64,
}

impl BinGrid {
    pub(crate) fn new(grid: &Grid) -> Self {
        let r = grid.extent().rect();
        Self {
            cpa: ix(grid.cells_per_axis()),
            xlo: r.xlo,
            ylo: r.ylo,
            cell_w: grid.cell_width(),
            cell_h: grid.cell_height(),
            cell_area: grid.cell_area(),
        }
    }

    /// Flat index of the first cell of `row` (row-major).
    pub(crate) fn row_base(&self, row: u32) -> usize {
        ix(row) * self.cpa
    }

    /// World-space rectangle of cell `(col, row)` — the same expression
    /// as [`Grid::cell_rect`], with the division hoisted.
    pub(crate) fn cell_rect(&self, col: u32, row: u32) -> Rect {
        let x0 = self.xlo + f64::from(col) * self.cell_w;
        let y0 = self.ylo + f64::from(row) * self.cell_h;
        Rect::new(x0, y0, x0 + self.cell_w, y0 + self.cell_h)
    }

    /// `r.area()` as a fraction of one cell's area.
    pub(crate) fn area_ratio(&self, r: &Rect) -> f64 {
        r.area() / self.cell_area
    }

    /// Clipped overlap of `r` with cell `(col, row)` as an area ratio
    /// (revised GH `O`).
    pub(crate) fn overlap_ratio(&self, r: &Rect, col: u32, row: u32) -> f64 {
        r.intersection_area(&self.cell_rect(col, row)) / self.cell_area
    }

    /// Clipped horizontal-edge length over cell width (revised GH `H`).
    pub(crate) fn h_ratio(&self, edge: &HEdge, col: u32, row: u32) -> f64 {
        edge.clipped_len(&self.cell_rect(col, row)) / self.cell_w
    }

    /// Clipped vertical-edge length over cell height (revised GH `V`).
    pub(crate) fn v_ratio(&self, edge: &VEdge, col: u32, row: u32) -> f64 {
        edge.clipped_len(&self.cell_rect(col, row)) / self.cell_h
    }
}

/// PH `Cont` binning of one fully-contained rect into cell `(col, row)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bin_ph_cont(
    bg: &BinGrid,
    r: &Rect,
    col: u32,
    row: u32,
    num: &mut [u32],
    cov: &mut [Mass],
    xsum: &mut [Mass],
    ysum: &mut [Mass],
) {
    let idx = bg.row_base(row) + ix(col);
    num[idx] += 1;
    cov[idx] += Mass::from_f64(bg.area_ratio(r));
    xsum[idx] += Mass::from_f64(r.width());
    ysum[idx] += Mass::from_f64(r.height());
}

/// PH `Isect` binning of one boundary-crossing rect over the banded
/// cell block `(c0..=c1) × (row_lo..=row_hi)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bin_ph_isect(
    bg: &BinGrid,
    r: &Rect,
    (c0, c1): (u32, u32),
    (row_lo, row_hi): (u32, u32),
    num_x: &mut [u32],
    cov_x: &mut [Mass],
    xsum_x: &mut [Mass],
    ysum_x: &mut [Mass],
) {
    for row in row_lo..=row_hi {
        let base = bg.row_base(row);
        for col in c0..=c1 {
            let idx = base + ix(col);
            let cell = bg.cell_rect(col, row);
            // The cell range guarantees a (possibly degenerate) closed
            // intersection exists.
            let clip = r
                .intersection(&cell)
                .unwrap_or_else(|| Rect::from_point(cell.center()));
            num_x[idx] += 1;
            cov_x[idx] += Mass::from_f64(bg.area_ratio(&clip));
            xsum_x[idx] += Mass::from_f64(clip.width());
            ysum_x[idx] += Mass::from_f64(clip.height());
        }
    }
}

/// Revised-GH overlap-mass binning of one rect over a banded block.
pub(crate) fn bin_gh_overlap(
    bg: &BinGrid,
    r: &Rect,
    (c0, c1): (u32, u32),
    (row_lo, row_hi): (u32, u32),
    o: &mut [Mass],
) {
    for row in row_lo..=row_hi {
        let base = bg.row_base(row);
        for col in c0..=c1 {
            o[base + ix(col)] += Mass::from_f64(bg.overlap_ratio(r, col, row));
        }
    }
}

/// Revised-GH horizontal-edge binning along one row.
pub(crate) fn bin_gh_hedge(
    bg: &BinGrid,
    edge: &HEdge,
    (c0, c1): (u32, u32),
    row: u32,
    h: &mut [Mass],
) {
    let base = bg.row_base(row);
    for col in c0..=c1 {
        h[base + ix(col)] += Mass::from_f64(bg.h_ratio(edge, col, row));
    }
}

/// Revised-GH vertical-edge binning along one banded column.
pub(crate) fn bin_gh_vedge(
    bg: &BinGrid,
    edge: &VEdge,
    col: u32,
    (row_lo, row_hi): (u32, u32),
    v: &mut [Mass],
) {
    for row in row_lo..=row_hi {
        v[bg.row_base(row) + ix(col)] += Mass::from_f64(bg.v_ratio(edge, col, row));
    }
}

/// Counter binning over a banded block (basic GH `I`).
pub(crate) fn bin_count_block(
    bg: &BinGrid,
    (c0, c1): (u32, u32),
    (row_lo, row_hi): (u32, u32),
    out: &mut [u32],
) {
    for row in row_lo..=row_hi {
        let base = bg.row_base(row);
        for col in c0..=c1 {
            out[base + ix(col)] += 1;
        }
    }
}

/// Counter binning along one row (basic GH `H`).
pub(crate) fn bin_count_row(bg: &BinGrid, (c0, c1): (u32, u32), row: u32, out: &mut [u32]) {
    let base = bg.row_base(row);
    for col in c0..=c1 {
        out[base + ix(col)] += 1;
    }
}

/// Counter binning along one banded column (basic GH `V`).
pub(crate) fn bin_count_col(bg: &BinGrid, col: u32, (row_lo, row_hi): (u32, u32), out: &mut [u32]) {
    for row in row_lo..=row_hi {
        out[bg.row_base(row) + ix(col)] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geo::Extent;

    #[test]
    fn row_mask_set_and_count() {
        let mut m = RowMask::empty(8, 8);
        assert_eq!(m.rank_prefix(), vec![0; 8]);
        m.set(0, 0);
        m.set(3, 7);
        m.set(3, 2);
        m.set(7, 7);
        // One word per row: each word's rank counts the rows above it.
        assert_eq!(m.rank_prefix(), vec![0, 1, 1, 1, 3, 3, 3, 3]);
    }

    /// Records carrying their own flat index (+1, so that no record is
    /// all-zero) for the cells of a `rows × cols` grid listed in `set`.
    fn indexed(rows: usize, cols: usize, set: &[usize]) -> CellRecords<1> {
        #[allow(clippy::cast_precision_loss)]
        CellRecords::decode(rows, cols, |idx| {
            [if set.contains(&idx) {
                idx as f64 + 1.0
            } else {
                0.0
            }]
        })
    }

    fn joint(a: &CellRecords<1>, b: &CellRecords<1>) -> Vec<f64> {
        let mut seen = Vec::new();
        a.for_each_joint(b, |ra, rb| {
            assert_eq!(ra, rb, "both sides must address the same cell");
            seen.push(ra[0] - 1.0);
        });
        seen
    }

    #[test]
    fn joint_iteration_is_ascending_and_intersects() {
        // Two words per row; row 1 starts at flat index 70.
        let a = indexed(3, 70, &[5, 70, 71, 133, 134, 139]);
        let b = indexed(3, 70, &[71, 133, 134, 135, 145]);
        assert_eq!((a.len(), b.len()), (6, 5));
        assert_eq!(joint(&a, &b), vec![71.0, 133.0, 134.0]);
    }

    #[test]
    fn joint_iteration_dense_word_fast_path() {
        let a = indexed(2, 64, &(0..64).collect::<Vec<_>>());
        let b = indexed(2, 64, &(0..64).chain([100]).collect::<Vec<_>>());
        let expected: Vec<f64> = (0..64u32).map(f64::from).collect();
        assert_eq!(joint(&a, &b), expected);
        // A full word preceded by sparse ones addresses records by rank.
        let c = indexed(2, 64, &[3, 9]);
        let d = indexed(2, 64, &[9, 64, 65]);
        assert_eq!(joint(&c, &d), vec![9.0]);
        let e = indexed(
            2,
            64,
            &[3, 9].into_iter().chain(64..128).collect::<Vec<_>>(),
        );
        let f = indexed(2, 64, &[9].into_iter().chain(64..128).collect::<Vec<_>>());
        let tail: Vec<f64> = [9u32].into_iter().chain(64..128).map(f64::from).collect();
        assert_eq!(joint(&e, &f), tail);
    }

    #[test]
    fn bin_grid_matches_grid_geometry() {
        let e = Extent::new(Rect::new(-10.0, 20.0, 30.0, 40.0));
        let grid = Grid::new(3, e).unwrap();
        let bg = BinGrid::new(&grid);
        for row in 0..8 {
            for col in 0..8 {
                assert_eq!(bg.cell_rect(col, row), grid.cell_rect(col, row));
                assert_eq!(bg.row_base(row) + ix(col), grid.flat_index(col, row));
            }
        }
    }

    #[test]
    fn view_occupancy_matches_histogram() {
        let grid = Grid::new(4, Extent::unit()).unwrap();
        let rects = vec![
            Rect::new(0.1, 0.1, 0.11, 0.11),
            Rect::new(0.5, 0.5, 0.8, 0.8),
        ];
        let gh = GhHistogram::build(grid, &rects);
        let view = GhView::revised(&gh);
        assert_eq!(view.occupied_cells(), gh.occupied_cells());
        assert!(view.occupied_cells() < grid.num_cells());
    }
}
