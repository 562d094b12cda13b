//! The Parametric Histogram (PH) scheme — paper Section 3.1.2.
//!
//! PH grids the extent and keeps, per cell, the parametric-model
//! statistics of Table 1, split into two groups:
//!
//! * `Cont(i,j)` — MBRs fully contained in the cell: count `Num`,
//!   coverage `Cov`, average width/height `Xavg`/`Yavg`;
//! * `Isect(i,j)` — MBRs intersecting the cell but crossing its boundary:
//!   count `Num'`, clipped coverage `Cov'`, and the average width/height
//!   of the *intersections* with the cell, `Xavg'`/`Yavg'`.
//!
//! Estimation evaluates the four cases `Sa..Sd` per cell (Cont×Cont,
//! Cont×Isect, Isect×Cont, Isect×Isect) with the parametric formula and
//! divides the summed `Sd` by the mean `AvgSpan` of the two datasets to
//! correct the multiple counting of boundary-crossing × boundary-crossing
//! intersections (paper Eq. 3 and Figure 1).

use crate::band::RowBanded;
use crate::grid::Grid;
use crate::kernel::{PhView, ViewCache};
use crate::mass::Mass;
use crate::{CorruptSection, HistogramError, SelectivityEstimate};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use sj_geo::Rect;

/// Histogram-file magic for PH.
const MAGIC: u32 = 0x534a_5048; // "SJPH"

/// Per-dataset Parametric Histogram.
///
/// All statistics are stored as mergeable *sums* (exact fixed point for
/// fractional masses); Table 1's averages `Xavg`/`Yavg` and the scalar
/// `AvgSpan` are derived when the histogram's resident estimate view is
/// decoded. This is what makes PH a mergeable sketch like the other
/// families.
///
/// The view is decoded once, on the first estimate, and reused until a
/// merge or delta changes the statistics (DESIGN.md §16), so repeated
/// estimates against warm statistics skip the fixed-point decode. Every
/// estimate is bit-identical to the scalar reference loop:
///
/// ```
/// use sj_geo::{Extent, Rect};
/// use sj_histogram::{Grid, PhHistogram, SpatialHistogram};
///
/// let grid = Grid::new(3, Extent::unit())?;
/// let a: Vec<Rect> = (0..40)
///     .map(|i| {
///         let t = f64::from(i) * 0.02;
///         Rect::new(t, t, t + 0.06, t + 0.05)
///     })
///     .collect();
/// let b: Vec<Rect> = (0..30)
///     .map(|i| {
///         let t = f64::from(i) * 0.03;
///         Rect::new(t, 0.9 - t, t + 0.05, 0.97 - t)
///     })
///     .collect();
/// let (mut ha, hb) = (PhHistogram::build(grid, &a), PhHistogram::build(grid, &b));
///
/// // The first estimate decodes both views; the second reuses them.
/// let scalar = ha.estimate_scalar(&hb)?;
/// for _ in 0..2 {
///     let est = ha.estimate_join(&hb)?;
///     assert_eq!(est.selectivity.to_bits(), scalar.selectivity.to_bits());
///     assert_eq!(est.pairs.to_bits(), scalar.pairs.to_bits());
/// }
///
/// // A merge clears the resident view: the next estimate sees the new
/// // statistics.
/// ha.merge(&hb)?;
/// let after = ha.estimate(&hb)?;
/// assert_eq!(after.pairs.to_bits(), ha.estimate_scalar(&hb)?.pairs.to_bits());
/// # Ok::<(), sj_histogram::HistogramError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhHistogram {
    grid: Grid,
    /// Dataset cardinality (read by the resident view's decoder).
    pub(crate) n: u64,
    /// Total cells spanned by boundary-crossing MBRs (`AvgSpan`
    /// numerator).
    span_total: u64,
    /// Number of boundary-crossing MBRs (`AvgSpan` denominator).
    span_rects: u64,
    // Cont group, per cell: count, coverage sum, width/height sums.
    // `pub(crate)` so the resident view can decode them into records.
    pub(crate) num: Vec<u32>,
    pub(crate) cov: Vec<Mass>,
    pub(crate) xsum: Vec<Mass>,
    pub(crate) ysum: Vec<Mass>,
    // Isect group, per cell, over clipped intersections.
    pub(crate) num_x: Vec<u32>,
    pub(crate) cov_x: Vec<Mass>,
    pub(crate) xsum_x: Vec<Mass>,
    pub(crate) ysum_x: Vec<Mass>,
    /// The resident estimate view; cleared by every `&mut` path.
    view: ViewCache<PhView>,
}

impl PhHistogram {
    /// Builds the PH histogram of `rects` on `grid`.
    #[must_use]
    pub fn build(grid: Grid, rects: &[Rect]) -> Self {
        Self::build_parallel(grid, rects, 1)
    }

    /// Builds like [`Self::build`] with grid rows banded across `threads`
    /// scoped worker threads and the band histograms merged; bit-identical
    /// to the serial build for every thread count.
    #[must_use]
    pub fn build_parallel(grid: Grid, rects: &[Rect], threads: usize) -> Self {
        crate::band::build_shard_merge(grid, rects, threads)
    }

    /// The grid the histogram was built on.
    #[must_use]
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Cardinality of the summarized dataset.
    #[must_use]
    pub fn dataset_len(&self) -> usize {
        usize::try_from(self.n).unwrap_or(usize::MAX)
    }

    /// `AvgSpan`: mean number of cells spanned by boundary-crossing MBRs;
    /// `1.0` when no MBR crosses a cell boundary.
    #[must_use]
    pub fn avg_span(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if self.span_rects == 0 {
            1.0
        } else {
            self.span_total as f64 / self.span_rects as f64
        }
    }

    /// Estimates the join selectivity between the datasets summarized by
    /// `self` and `other` (paper Eq. 3, with the `AvgSpan` correction).
    ///
    /// Runs over both histograms' resident views (DESIGN.md §16);
    /// bit-identical to [`Self::estimate_scalar`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] when the histograms were
    /// built on different grids.
    pub fn estimate(&self, other: &PhHistogram) -> Result<SelectivityEstimate, HistogramError> {
        self.view().estimate(other.view(), true)
    }

    /// Estimates *without* dividing the `Sd` sum by the mean `AvgSpan` —
    /// the naive per-cell parametric sum that multiple-counts
    /// boundary-crossing × boundary-crossing intersections (paper
    /// Figure 1). Exposed for the ablation harness; always at least as
    /// large as [`Self::estimate`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] when the histograms were
    /// built on different grids.
    pub fn estimate_uncorrected(
        &self,
        other: &PhHistogram,
    ) -> Result<SelectivityEstimate, HistogramError> {
        self.view().estimate(other.view(), false)
    }

    /// The resident view, decoded on first use.
    fn view(&self) -> &PhView {
        self.view.get_or_init(|| PhView::new(self))
    }

    /// Number of cells the estimate reads: those with any non-zero
    /// `Cont`/`Isect` statistic.
    #[must_use]
    pub fn occupied_cells(&self) -> usize {
        self.view().occupied_cells()
    }

    /// The retained scalar reference loop of [`Self::estimate`]: iterates
    /// every cell of the dense per-statistic vectors directly. Kept (and
    /// exercised by the `kernel_agreement` test) as the oracle the kernel
    /// path must match bit-for-bit.
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] when the histograms were
    /// built on different grids.
    pub fn estimate_scalar(
        &self,
        other: &PhHistogram,
    ) -> Result<SelectivityEstimate, HistogramError> {
        self.estimate_inner(other, true)
    }

    /// Scalar reference loop of [`Self::estimate_uncorrected`]; see
    /// [`Self::estimate_scalar`].
    ///
    /// # Errors
    /// Returns [`HistogramError::GridMismatch`] when the histograms were
    /// built on different grids.
    pub fn estimate_uncorrected_scalar(
        &self,
        other: &PhHistogram,
    ) -> Result<SelectivityEstimate, HistogramError> {
        self.estimate_inner(other, false)
    }

    fn estimate_inner(
        &self,
        other: &PhHistogram,
        correct_spans: bool,
    ) -> Result<SelectivityEstimate, HistogramError> {
        if !self.grid.compatible(&other.grid) {
            return Err(HistogramError::GridMismatch {
                left_level: self.grid.level(),
                right_level: other.grid.level(),
            });
        }
        let cell_area = self.grid.cell_area();
        // The parametric kernel of Eq. 1 evaluated on per-cell statistics:
        // n1*c2 + c1*n2 + n1*n2*(w1*h2 + w2*h1)/cell_area.
        let kernel = |n1: f64, c1: f64, w1: f64, h1: f64, n2: f64, c2: f64, w2: f64, h2: f64| {
            n1 * c2 + c1 * n2 + n1 * n2 * (w1 * h2 + w2 * h1) / cell_area
        };

        // Table 1 averages, derived on the fly from the stored sums.
        let avg = |sum: Mass, count: u32| {
            if count == 0 {
                0.0
            } else {
                sum.to_f64() / f64::from(count)
            }
        };
        let mut sum_abc = 0.0f64;
        let mut sum_d = 0.0f64;
        for idx in 0..self.grid.num_cells() {
            let (n1, c1, w1, h1) = (
                f64::from(self.num[idx]),
                self.cov[idx].to_f64(),
                avg(self.xsum[idx], self.num[idx]),
                avg(self.ysum[idx], self.num[idx]),
            );
            let (n1x, c1x, w1x, h1x) = (
                f64::from(self.num_x[idx]),
                self.cov_x[idx].to_f64(),
                avg(self.xsum_x[idx], self.num_x[idx]),
                avg(self.ysum_x[idx], self.num_x[idx]),
            );
            let (n2, c2, w2, h2) = (
                f64::from(other.num[idx]),
                other.cov[idx].to_f64(),
                avg(other.xsum[idx], other.num[idx]),
                avg(other.ysum[idx], other.num[idx]),
            );
            let (n2x, c2x, w2x, h2x) = (
                f64::from(other.num_x[idx]),
                other.cov_x[idx].to_f64(),
                avg(other.xsum_x[idx], other.num_x[idx]),
                avg(other.ysum_x[idx], other.num_x[idx]),
            );
            // Sa: Cont1 × Cont2; Sb: Cont1 × Isect2; Sc: Isect1 × Cont2.
            sum_abc += kernel(n1, c1, w1, h1, n2, c2, w2, h2);
            sum_abc += kernel(n1, c1, w1, h1, n2x, c2x, w2x, h2x);
            sum_abc += kernel(n1x, c1x, w1x, h1x, n2, c2, w2, h2);
            // Sd: Isect1 × Isect2 — the only multi-counted case.
            sum_d += kernel(n1x, c1x, w1x, h1x, n2x, c2x, w2x, h2x);
        }
        let span_correction = if correct_spans {
            (self.avg_span() + other.avg_span()) / 2.0
        } else {
            1.0
        };
        let size = sum_abc + sum_d / span_correction;
        #[allow(clippy::cast_precision_loss)]
        let denom = (self.n as f64) * (other.n as f64);
        let raw = if denom == 0.0 { 0.0 } else { size / denom };
        Ok(SelectivityEstimate::from_selectivity(
            raw,
            self.dataset_len(),
            other.dataset_len(),
        ))
    }

    /// Serializes the histogram file.
    #[must_use]
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.size_bytes());
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(self.grid.level());
        let e = self.grid.extent().rect();
        for v in [e.xlo, e.ylo, e.xhi, e.yhi] {
            buf.put_f64_le(v);
        }
        buf.put_u64_le(self.n);
        buf.put_u64_le(self.span_total);
        buf.put_u64_le(self.span_rects);
        for v in &self.num {
            buf.put_u32_le(*v);
        }
        for v in &self.num_x {
            buf.put_u32_le(*v);
        }
        for arr in [
            &self.cov,
            &self.xsum,
            &self.ysum,
            &self.cov_x,
            &self.xsum_x,
            &self.ysum_x,
        ] {
            for v in arr.iter() {
                v.put_le(&mut buf);
            }
        }
        buf.freeze()
    }

    /// Deserializes a histogram file produced by [`Self::to_bytes`].
    ///
    /// # Errors
    /// Returns [`HistogramError::Corrupt`] on malformed input.
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, HistogramError> {
        let corrupt = |s: CorruptSection, msg: &str| HistogramError::corrupt(s, msg);
        if data.remaining() < 4 + 4 + 32 + 8 + 8 + 8 {
            return Err(corrupt(CorruptSection::Header, "truncated header"));
        }
        if data.get_u32_le() != MAGIC {
            return Err(corrupt(CorruptSection::Header, "bad magic"));
        }
        let level = data.get_u32_le();
        let coords = (
            data.get_f64_le(),
            data.get_f64_le(),
            data.get_f64_le(),
            data.get_f64_le(),
        );
        let grid = crate::grid::grid_from_header(level, coords)?;
        let n = data.get_u64_le();
        let span_total = data.get_u64_le();
        let span_rects = data.get_u64_le();
        let cells = grid.num_cells();
        let need = cells * (2 * 4 + 6 * 16);
        if data.remaining() != need {
            return Err(corrupt(CorruptSection::Payload, "payload size mismatch"));
        }
        let read_u32s =
            |data: &mut &[u8]| -> Vec<u32> { (0..cells).map(|_| data.get_u32_le()).collect() };
        let num = read_u32s(&mut data);
        let num_x = read_u32s(&mut data);
        let read_masses =
            |data: &mut &[u8]| -> Vec<Mass> { (0..cells).map(|_| Mass::get_le(data)).collect() };
        let cov = read_masses(&mut data);
        let xsum = read_masses(&mut data);
        let ysum = read_masses(&mut data);
        let cov_x = read_masses(&mut data);
        let xsum_x = read_masses(&mut data);
        let ysum_x = read_masses(&mut data);
        Ok(Self {
            grid,
            n,
            span_total,
            span_rects,
            num,
            cov,
            xsum,
            ysum,
            num_x,
            cov_x,
            xsum_x,
            ysum_x,
            view: ViewCache::default(),
        })
    }

    /// Size of the histogram file in bytes — the paper's space-cost
    /// numerator. Depends only on the grid level.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        4 + 4 + 32 + 8 + 8 + 8 + self.grid.num_cells() * (2 * 4 + 6 * 16)
    }

    #[cfg(test)]
    pub(crate) fn cont_count(&self, col: u32, row: u32) -> u32 {
        self.num[self.grid.flat_index(col, row)]
    }

    #[cfg(test)]
    pub(crate) fn isect_count(&self, col: u32, row: u32) -> u32 {
        self.num_x[self.grid.flat_index(col, row)]
    }
}

impl RowBanded for PhHistogram {
    fn build_rows(grid: Grid, rects: &[Rect], lo: u32, hi: u32) -> Self {
        let cells = grid.num_cells();
        // Flattened grid geometry: cell sizes and row bases hoisted out of
        // the per-cell binning loops (same expressions, so bit-identical).
        let bg = crate::kernel::BinGrid::new(&grid);
        let mut n = 0u64;
        let mut span_total = 0u64;
        let mut span_rects = 0u64;
        let mut num = vec![0u32; cells];
        let mut cov = vec![Mass::ZERO; cells];
        let mut xsum = vec![Mass::ZERO; cells];
        let mut ysum = vec![Mass::ZERO; cells];
        let mut num_x = vec![0u32; cells];
        let mut cov_x = vec![Mass::ZERO; cells];
        let mut xsum_x = vec![Mass::ZERO; cells];
        let mut ysum_x = vec![Mass::ZERO; cells];
        for r in rects {
            let (c0, c1, r0, r1) = grid.cell_range(r);
            if r1 < lo || r0 >= hi {
                continue;
            }
            // Scalar statistics go to the band owning the bottom row, so
            // band builds partition them exactly.
            if (lo..hi).contains(&r0) {
                n += 1;
                if !(c0 == c1 && r0 == r1) {
                    span_total += u64::from(c1 - c0 + 1) * u64::from(r1 - r0 + 1);
                    span_rects += 1;
                }
            }
            if c0 == c1 && r0 == r1 {
                if (lo..hi).contains(&r0) {
                    crate::kernel::bin_ph_cont(
                        &bg, r, c0, r0, &mut num, &mut cov, &mut xsum, &mut ysum,
                    );
                }
            } else {
                crate::kernel::bin_ph_isect(
                    &bg,
                    r,
                    (c0, c1),
                    (r0.max(lo), r1.min(hi - 1)),
                    &mut num_x,
                    &mut cov_x,
                    &mut xsum_x,
                    &mut ysum_x,
                );
            }
        }
        Self {
            grid,
            n,
            span_total,
            span_rects,
            num,
            cov,
            xsum,
            ysum,
            num_x,
            cov_x,
            xsum_x,
            ysum_x,
            view: ViewCache::default(),
        }
    }

    fn merge_same_grid(&mut self, other: &Self) {
        self.view.clear();
        self.n += other.n;
        self.span_total += other.span_total;
        self.span_rects += other.span_rects;
        for (into, from) in [(&mut self.num, &other.num), (&mut self.num_x, &other.num_x)] {
            for (a, b) in into.iter_mut().zip(from) {
                *a += *b;
            }
        }
        for (into, from) in [
            (&mut self.cov, &other.cov),
            (&mut self.xsum, &other.xsum),
            (&mut self.ysum, &other.ysum),
            (&mut self.cov_x, &other.cov_x),
            (&mut self.xsum_x, &other.xsum_x),
            (&mut self.ysum_x, &other.ysum_x),
        ] {
            for (a, b) in into.iter_mut().zip(from) {
                *a += *b;
            }
        }
    }
}

impl crate::diff::StatInspect for PhHistogram {
    fn scalar_stats(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("n", self.n),
            ("span_total", self.span_total),
            ("span_rects", self.span_rects),
        ]
    }

    fn cell_stats(&self) -> Vec<crate::diff::StatArray<'_>> {
        use crate::diff::{CellValues, StatArray};
        let width = crate::grid::ix(self.grid.cells_per_axis());
        let counts = |name, data| StatArray {
            name,
            width,
            values: CellValues::Counts(data),
        };
        let masses = |name, data| StatArray {
            name,
            width,
            values: CellValues::Masses(data),
        };
        vec![
            counts("num", &self.num),
            counts("num_x", &self.num_x),
            masses("cov", &self.cov),
            masses("xsum", &self.xsum),
            masses("ysum", &self.ysum),
            masses("cov_x", &self.cov_x),
            masses("xsum_x", &self.xsum_x),
            masses("ysum_x", &self.ysum_x),
        ]
    }
}

impl crate::delta::StatInspectMut for PhHistogram {
    fn scalar_stats_mut(&mut self) -> Vec<(&'static str, &mut u64)> {
        self.view.clear();
        vec![
            ("n", &mut self.n),
            ("span_total", &mut self.span_total),
            ("span_rects", &mut self.span_rects),
        ]
    }

    fn cell_stats_mut(&mut self) -> Vec<crate::delta::StatArrayMut<'_>> {
        use crate::delta::{CellValuesMut, StatArrayMut};
        self.view.clear();
        let counts = |name, data| StatArrayMut {
            name,
            values: CellValuesMut::Counts(data),
        };
        let masses = |name, data| StatArrayMut {
            name,
            values: CellValuesMut::Masses(data),
        };
        vec![
            counts("num", &mut self.num),
            counts("num_x", &mut self.num_x),
            masses("cov", &mut self.cov),
            masses("xsum", &mut self.xsum),
            masses("ysum", &mut self.ysum),
            masses("cov_x", &mut self.cov_x),
            masses("xsum_x", &mut self.xsum_x),
            masses("ysum_x", &mut self.ysum_x),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parametric::{parametric_selectivity, ParametricInputs};
    use sj_geo::Extent;

    fn unit_grid(level: u32) -> Grid {
        Grid::new(level, Extent::unit()).unwrap()
    }

    fn stats_of(rects: &[Rect]) -> ParametricInputs {
        #[allow(clippy::cast_precision_loss)]
        let n = rects.len() as f64;
        ParametricInputs {
            count: rects.len(),
            coverage: rects.iter().map(Rect::area).sum::<f64>(),
            avg_width: rects.iter().map(Rect::width).sum::<f64>() / n,
            avg_height: rects.iter().map(Rect::height).sum::<f64>() / n,
        }
    }

    fn uniform(n: usize, seed: u64, side: f64) -> Vec<Rect> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.random_range(0.0..1.0 - side);
                let y = rng.random_range(0.0..1.0 - side);
                Rect::new(
                    x,
                    y,
                    x + rng.random_range(0.0..side),
                    y + rng.random_range(0.0..side),
                )
            })
            .collect()
    }

    #[test]
    fn level_zero_reduces_to_parametric_model() {
        let a = uniform(500, 1, 0.04);
        let b = uniform(700, 2, 0.03);
        let ha = PhHistogram::build(unit_grid(0), &a);
        let hb = PhHistogram::build(unit_grid(0), &b);
        let est = ha.estimate(&hb).unwrap();
        let expected = parametric_selectivity(&stats_of(&a), &stats_of(&b), 1.0);
        assert!(
            (est.selectivity - expected).abs() < 1e-12,
            "PH level 0 must equal Eq. 1/2: {} vs {expected}",
            est.selectivity
        );
    }

    #[test]
    fn contained_vs_spanning_accounting() {
        let g = unit_grid(1); // 2×2 cells of side 0.5
        let rects = vec![
            Rect::new(0.1, 0.1, 0.2, 0.2), // contained in (0,0)
            Rect::new(0.4, 0.1, 0.6, 0.2), // spans (0,0)-(1,0)
            Rect::new(0.6, 0.6, 0.9, 0.9), // contained in (1,1)
        ];
        let h = PhHistogram::build(g, &rects);
        assert_eq!(h.cont_count(0, 0), 1);
        assert_eq!(h.cont_count(1, 1), 1);
        assert_eq!(h.isect_count(0, 0), 1);
        assert_eq!(h.isect_count(1, 0), 1);
        assert_eq!(h.isect_count(0, 1), 0);
        assert!(
            (h.avg_span() - 2.0).abs() < 1e-12,
            "one spanner over 2 cells"
        );
    }

    #[test]
    fn avg_span_defaults_to_one() {
        let h = PhHistogram::build(unit_grid(2), &[Rect::new(0.1, 0.1, 0.12, 0.12)]);
        assert!((h.avg_span() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn estimate_accuracy_on_uniform_data_improves_then_degrades_mildly() {
        // On uniform data PH is already decent at level 0; the estimate
        // must stay sane (within 2× of truth) across levels.
        let a = uniform(3000, 3, 0.02);
        let b = uniform(3000, 4, 0.02);
        let actual = sj_sweep::sweep_join_selectivity(&a, &b);
        for level in 0..=6 {
            let ha = PhHistogram::build(unit_grid(level), &a);
            let hb = PhHistogram::build(unit_grid(level), &b);
            let est = ha.estimate(&hb).unwrap().selectivity;
            let ratio = est / actual;
            assert!(
                (0.5..2.0).contains(&ratio),
                "level {level}: est {est:.3e} vs actual {actual:.3e}"
            );
        }
    }

    #[test]
    fn estimate_on_clustered_data_beats_level_zero() {
        // The motivating case: clustered data breaks the global uniformity
        // assumption; gridding must improve the estimate.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        // Minimal Box–Muller so this fixture needs no sj-datagen dep.
        fn normal(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
            let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            mu + sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        }
        let clustered = |rng: &mut StdRng, cx: f64, cy: f64, n: usize| -> Vec<Rect> {
            (0..n)
                .map(|_| {
                    let x = (cx + normal(rng, 0.0, 0.05)).clamp(0.0, 0.99);
                    let y = (cy + normal(rng, 0.0, 0.05)).clamp(0.0, 0.99);
                    let w = rng.random_range(0.0..0.01);
                    let h = rng.random_range(0.0..0.01);
                    Rect::new(x, y, (x + w).min(1.0), (y + h).min(1.0))
                })
                .collect()
        };
        let a = clustered(&mut rng, 0.3, 0.3, 2000);
        let b = clustered(&mut rng, 0.32, 0.32, 2000);
        let actual = sj_sweep::sweep_join_selectivity(&a, &b);
        let err = |level: u32| {
            let ha = PhHistogram::build(unit_grid(level), &a);
            let hb = PhHistogram::build(unit_grid(level), &b);
            let est = ha.estimate(&hb).unwrap().selectivity;
            (est - actual).abs() / actual
        };
        let e0 = err(0);
        let e4 = err(4);
        assert!(
            e4 < e0,
            "gridding should beat the uniform assumption on clustered data: \
             level0 err {e0:.3}, level4 err {e4:.3}"
        );
        assert!(
            e4 < 0.5,
            "level-4 PH error too high on clustered data: {e4:.3}"
        );
    }

    #[test]
    fn grid_mismatch_is_an_error() {
        let a = PhHistogram::build(unit_grid(2), &uniform(10, 5, 0.1));
        let b = PhHistogram::build(unit_grid(3), &uniform(10, 6, 0.1));
        assert!(matches!(
            a.estimate(&b),
            Err(HistogramError::GridMismatch { .. })
        ));
    }

    #[test]
    fn empty_dataset_estimates_zero() {
        let a = PhHistogram::build(unit_grid(2), &[]);
        let b = PhHistogram::build(unit_grid(2), &uniform(100, 7, 0.05));
        let est = a.estimate(&b).unwrap();
        assert_eq!(est.selectivity, 0.0);
        assert_eq!(est.pairs, 0.0);
    }

    #[test]
    fn bytes_roundtrip() {
        let h = PhHistogram::build(unit_grid(3), &uniform(500, 8, 0.05));
        let bytes = h.to_bytes();
        assert_eq!(bytes.len(), h.size_bytes());
        let back = PhHistogram::from_bytes(&bytes).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let h = PhHistogram::build(unit_grid(1), &uniform(50, 9, 0.05));
        let bytes = h.to_bytes();
        assert!(PhHistogram::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(PhHistogram::from_bytes(&bytes[1..]).is_err());
        assert!(PhHistogram::from_bytes(&[]).is_err());
        let mut garbled = bytes.to_vec();
        garbled[0] ^= 0xFF;
        assert!(PhHistogram::from_bytes(&garbled).is_err());
    }

    #[test]
    fn size_depends_only_on_level() {
        let small = PhHistogram::build(unit_grid(4), &uniform(10, 10, 0.01));
        let large = PhHistogram::build(unit_grid(4), &uniform(5000, 11, 0.01));
        assert_eq!(small.size_bytes(), large.size_bytes());
        let finer = PhHistogram::build(unit_grid(5), &uniform(10, 12, 0.01));
        // 4× the cells at the next level ⇒ 4× the payload (64-byte header).
        assert_eq!(finer.size_bytes() - 64, (small.size_bytes() - 64) * 4);
    }
}

#[cfg(test)]
mod correction_tests {
    use super::*;
    use sj_geo::Extent;

    fn unit_grid(level: u32) -> Grid {
        Grid::new(level, Extent::unit()).unwrap()
    }

    fn uniform(n: usize, seed: u64, side: f64) -> Vec<Rect> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.random_range(0.0..1.0 - side);
                let y = rng.random_range(0.0..1.0 - side);
                Rect::new(
                    x,
                    y,
                    x + rng.random_range(0.0..side),
                    y + rng.random_range(0.0..side),
                )
            })
            .collect()
    }

    /// The AvgSpan correction only ever shrinks the estimate (it divides
    /// the non-negative Sd sum by a value >= 1).
    #[test]
    fn corrected_never_exceeds_uncorrected() {
        let a = uniform(1500, 70, 0.08);
        let b = uniform(1500, 71, 0.08);
        for level in 1..=6 {
            let g = unit_grid(level);
            let (ha, hb) = (PhHistogram::build(g, &a), PhHistogram::build(g, &b));
            let corrected = ha.estimate(&hb).unwrap().selectivity;
            let uncorrected = ha.estimate_uncorrected(&hb).unwrap().selectivity;
            assert!(
                corrected <= uncorrected + 1e-15,
                "level {level}: corrected {corrected:e} > uncorrected {uncorrected:e}"
            );
        }
    }

    /// At fine grids where most MBRs span cell boundaries, the correction
    /// is what keeps PH from drifting into gross overestimation
    /// (paper Figure 1's multiple-counting problem).
    #[test]
    fn correction_improves_accuracy_at_fine_grids() {
        // Large rects relative to cells => heavy spanning at level 6.
        let a = uniform(1200, 72, 0.1);
        let b = uniform(1200, 73, 0.1);
        let actual = sj_sweep::sweep_join_selectivity(&a, &b);
        let g = unit_grid(6);
        let (ha, hb) = (PhHistogram::build(g, &a), PhHistogram::build(g, &b));
        let corrected = ha.estimate(&hb).unwrap().selectivity;
        let uncorrected = ha.estimate_uncorrected(&hb).unwrap().selectivity;
        let err_c = (corrected - actual).abs() / actual;
        let err_u = (uncorrected - actual).abs() / actual;
        assert!(
            err_c < err_u,
            "correction should help on spanning-heavy data: corrected {err_c:.3} vs \
             uncorrected {err_u:.3}"
        );
        assert!(
            uncorrected / actual > 1.5,
            "without the correction the estimate should overshoot: {:.2}x",
            uncorrected / actual
        );
    }

    /// When nothing spans a boundary (AvgSpan = 1), the two estimates
    /// coincide.
    #[test]
    fn correction_is_identity_without_spanners() {
        // Tiny rects placed strictly inside level-2 cells.
        let rects: Vec<Rect> = (0..4)
            .flat_map(|i| {
                (0..4).map(move |j| {
                    let x = f64::from(i) * 0.25 + 0.1;
                    let y = f64::from(j) * 0.25 + 0.1;
                    Rect::new(x, y, x + 0.05, y + 0.05)
                })
            })
            .collect();
        let g = unit_grid(2);
        let h = PhHistogram::build(g, &rects);
        assert!((h.avg_span() - 1.0).abs() < f64::EPSILON);
        let c = h.estimate(&h).unwrap().selectivity;
        let u = h.estimate_uncorrected(&h).unwrap().selectivity;
        assert_eq!(c, u);
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use proptest::prelude::*;
    use sj_geo::Extent;

    proptest! {
        /// Decoding must never panic: arbitrary bytes either decode or
        /// return a Corrupt/LevelTooLarge error.
        #[test]
        fn from_bytes_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = PhHistogram::from_bytes(&data);
            let _ = crate::GhHistogram::from_bytes(&data);
            let _ = crate::GhBasicHistogram::from_bytes(&data);
        }

        /// Truncating a valid file at any point must error, not panic or
        /// mis-decode.
        #[test]
        fn truncated_files_error(cut in 0usize..1000) {
            let grid = Grid::new(2, Extent::unit()).unwrap();
            let h = PhHistogram::build(grid, &[Rect::new(0.1, 0.1, 0.4, 0.6)]);
            let bytes = h.to_bytes();
            let cut = cut.min(bytes.len().saturating_sub(1));
            prop_assert!(PhHistogram::from_bytes(&bytes[..cut]).is_err());
        }

        /// Flipping any single byte of the header is detected (payload
        /// flips may legitimately decode to different-but-valid stats).
        #[test]
        fn header_bitflips_detected_or_roundtrip(pos in 0usize..4) {
            let grid = Grid::new(1, Extent::unit()).unwrap();
            let h = PhHistogram::build(grid, &[Rect::new(0.1, 0.1, 0.2, 0.2)]);
            let mut bytes = h.to_bytes().to_vec();
            bytes[pos] ^= 0xA5;
            // Magic bytes: must be rejected.
            prop_assert!(PhHistogram::from_bytes(&bytes).is_err());
        }
    }
}
