//! Plane-sweep rectangle intersection join (Preparata & Shamos, 1985 —
//! the paper's ref \[21\]).
//!
//! This crate implements the classic *forward plane sweep* over two sets
//! of axis-parallel rectangles sorted by their left edge: the rectangle
//! whose left edge comes first scans forward in the *other* set for
//! rectangles whose left edge falls inside its x-span, testing the y
//! intervals directly. Every intersecting pair is reported exactly once.
//!
//! It serves two roles in the workspace:
//!
//! * **Ground truth oracle** — an R-tree-free implementation against which
//!   the R-tree join is validated (the two must agree bit-for-bit on pair
//!   counts).
//! * **Alternative join backend** — Section 2 of the paper notes one could
//!   "directly perform a plane sweep algorithm on the two samples"; this
//!   backend makes that variant available to the sampling estimator.
//!
//! [`tile_sweep`] is the partition-based parallel form: a tile grid sized
//! from the inputs (never from a thread count), one flat replica vector
//! per input, and the same sweep loop run per tile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sj_geo::Rect;

/// Counts intersecting pairs between `a` and `b` with a forward plane
/// sweep. Complexity `O(n log n + m log m + S)` where `S` is the number of
/// x-overlapping pairs scanned.
///
/// ```
/// use sj_geo::Rect;
/// let a = vec![Rect::new(0.0, 0.0, 1.0, 1.0)];
/// let b = vec![Rect::new(0.5, 0.5, 2.0, 2.0), Rect::new(3.0, 3.0, 4.0, 4.0)];
/// assert_eq!(sj_sweep::sweep_join_count(&a, &b), 1);
/// ```
#[must_use]
pub fn sweep_join_count(a: &[Rect], b: &[Rect]) -> u64 {
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    sort_by_xlo(&mut a);
    sort_by_xlo(&mut b);
    let mut n = 0u64;
    sweep_sorted(&a, &b, |_, _| n += 1);
    n
}

/// Counts intersecting pairs like [`sweep_join_count`], splitting `a`
/// into contiguous chunks swept against all of `b` on `threads` scoped
/// worker threads. Pair counts are integers, so the result is exactly
/// equal to the serial count for every thread count.
///
/// `threads <= 1` (or a small input) runs the serial [`sweep_join_count`]
/// on the caller's thread.
#[must_use]
pub fn sweep_join_count_parallel(a: &[Rect], b: &[Rect], threads: usize) -> u64 {
    let threads = threads.max(1).min(a.len().max(1));
    if threads == 1 || a.len() < 2 * threads {
        return sweep_join_count(a, b);
    }
    let chunk_len = a.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = a
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || sweep_join_count(chunk, b)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .sum()
    })
}

/// Visits every intersecting pair `(index_in_a, index_in_b)` exactly once.
pub fn sweep_join_pairs<F: FnMut(usize, usize)>(a: &[Rect], b: &[Rect], mut emit: F) {
    // Sort (rect, original index) records so the sweep reads contiguous
    // rectangles and still reports input positions. The sort is stable,
    // so ties keep their input order.
    let tagged = |rects: &[Rect]| {
        let mut v: Vec<(Rect, usize)> = rects.iter().copied().zip(0..).collect();
        v.sort_by(|p, q| p.0.xlo.total_cmp(&q.0.xlo));
        v
    };
    let (a, b) = (tagged(a), tagged(b));
    sweep_sorted(&a, &b, |p, q| emit(p.1, q.1));
}

/// A record the forward sweep can read a rectangle from: a bare [`Rect`],
/// or a rectangle tagged with its input position.
trait Swept {
    fn rect(&self) -> &Rect;
}

impl Swept for Rect {
    fn rect(&self) -> &Rect {
        self
    }
}

impl Swept for (Rect, usize) {
    fn rect(&self) -> &Rect {
        &self.0
    }
}

fn sort_by_xlo(rects: &mut [Rect]) {
    rects.sort_unstable_by(|p, q| p.xlo.total_cmp(&q.xlo));
}

/// The forward plane sweep over two slices already sorted by `xlo`;
/// calls `emit(from_a, from_b)` once per intersecting pair. Every sweep
/// in this crate — serial, chunked and tiled — runs this one loop.
fn sweep_sorted<T: Swept, F: FnMut(&T, &T)>(a: &[T], b: &[T], mut emit: F) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let ra = a[i].rect();
        let rb = b[j].rect();
        if ra.xlo <= rb.xlo {
            // `ra` opens first; every b opening within ra's x-span
            // x-overlaps it (consumed b's all opened strictly earlier).
            for item in &b[j..] {
                let rb2 = item.rect();
                if rb2.xlo > ra.xhi {
                    break;
                }
                if ra.ylo <= rb2.yhi && rb2.ylo <= ra.yhi {
                    emit(&a[i], item);
                }
            }
            i += 1;
        } else {
            for item in &a[i..] {
                let ra2 = item.rect();
                if ra2.xlo > rb.xhi {
                    break;
                }
                if rb.ylo <= ra2.yhi && ra2.ylo <= rb.yhi {
                    emit(item, &b[j]);
                }
            }
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Partition-based parallel plane sweep (Tsitsigkos & Mamoulis)
// ---------------------------------------------------------------------

/// Average number of rectangles of the smaller input per tile the grid
/// side aims for: `t ≈ sqrt(min(|a|, |b|) / TARGET_PER_TILE)`.
const TARGET_PER_TILE: f64 = 100.0;

/// Upper bound on the grid side, whatever the input size.
const MAX_SIDE: u32 = 1024;

/// The tile grid geometry of a [`TiledSweep`] plan: a `t × t` grid over
/// the joint bounding box of both inputs.
#[derive(Debug, Clone, Copy)]
struct TileGrid {
    xmin: f64,
    ymin: f64,
    /// Tiles per unit length along each axis (`t / extent`).
    sx: f64,
    sy: f64,
    t: u32,
}

impl TileGrid {
    /// A `t × t` grid over the joint bounding box of `a` and `b`.
    fn over(a: &[Rect], b: &[Rect], t: u32) -> Self {
        let mut xmin = f64::INFINITY;
        let mut ymin = f64::INFINITY;
        let mut xmax = f64::NEG_INFINITY;
        let mut ymax = f64::NEG_INFINITY;
        for r in a.iter().chain(b) {
            xmin = xmin.min(r.xlo);
            ymin = ymin.min(r.ylo);
            xmax = xmax.max(r.xhi);
            ymax = ymax.max(r.yhi);
        }
        let tf = f64::from(t);
        Self {
            xmin,
            ymin,
            sx: tf / (xmax - xmin),
            sy: tf / (ymax - ymin),
            t,
        }
    }

    /// Tile index along one axis, clamped into `0..t`. The map is
    /// monotone in `v`, so a point inside a rectangle always lands in a
    /// tile the rectangle was replicated into. A degenerate axis (zero or
    /// non-finite extent) makes the product NaN or zero, which maps
    /// everything to tile 0 and keeps the partition total (every point
    /// owned by exactly one tile).
    fn axis_tile(v: f64, min: f64, s: f64, t: u32) -> u32 {
        // The saturating cast is `floor` clamped below at 0 (NaN and
        // negatives give 0, +inf gives u32::MAX), so this is
        // `floor(u).clamp(0, t-1)` without a libm call.
        // sj-lint: allow(cast, saturating float-to-int, then clamped to t-1)
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let i = (((v - min) * s) as u32).min(t - 1);
        i
    }

    fn tile_of(&self, x: f64, y: f64) -> (u32, u32) {
        (
            Self::axis_tile(x, self.xmin, self.sx, self.t),
            Self::axis_tile(y, self.ymin, self.sy, self.t),
        )
    }

    /// The tile columns `i0..=i1` and rows `j0..=j1` a rectangle covers.
    fn span(&self, r: &Rect) -> (u32, u32, u32, u32) {
        let (i0, j0) = self.tile_of(r.xlo, r.ylo);
        let (i1, j1) = self.tile_of(r.xhi, r.yhi);
        (i0, i1, j0, j1)
    }

    /// Calls `f` with the row-major index of every tile `r` covers.
    fn each_tile(&self, r: &Rect, mut f: impl FnMut(usize)) {
        let t = self.t as usize;
        let (i0, i1, j0, j1) = self.span(r);
        for tj in j0 as usize..=j1 as usize {
            for ti in i0 as usize..=i1 as usize {
                f(tj * t + ti);
            }
        }
    }

    /// Whether replicating `a` and `b` into this grid makes at most
    /// `budget` copies in total; stops counting once over.
    fn replicates_within(&self, a: &[Rect], b: &[Rect], budget: usize) -> bool {
        let mut total = 0usize;
        for r in a.iter().chain(b) {
            let (i0, i1, j0, j1) = self.span(r);
            total += (i1 - i0 + 1) as usize * (j1 - j0 + 1) as usize;
            if total > budget {
                return false;
            }
        }
        true
    }

    /// Replicates `rects` into one flat vector grouped by tile
    /// (row-major), in a count pass then a fill pass. Returns the vector
    /// and the `t² + 1` tile offsets into it.
    fn scatter(&self, rects: &[Rect]) -> (Vec<Rect>, Vec<usize>) {
        let t = self.t as usize;
        let mut offsets = vec![0usize; t * t + 1];
        for r in rects {
            self.each_tile(r, |k| offsets[k + 1] += 1);
        }
        for k in 0..t * t {
            offsets[k + 1] += offsets[k];
        }
        let mut cursor = offsets.clone();
        let mut flat = vec![Rect::new(0.0, 0.0, 0.0, 0.0); offsets[t * t]];
        for r in rects {
            self.each_tile(r, |k| {
                flat[cursor[k]] = *r;
                cursor[k] += 1;
            });
        }
        (flat, offsets)
    }
}

/// One tile of a [`TiledSweep`] plan: mutable views of both inputs'
/// rectangles replicated into this tile, plus the tile's own grid
/// coordinates for reference-point deduplication.
#[derive(Debug)]
pub struct SweepTile<'p> {
    grid: TileGrid,
    ti: u32,
    tj: u32,
    a: &'p mut [Rect],
    b: &'p mut [Rect],
}

impl SweepTile<'_> {
    /// Counts the intersecting pairs owned by this tile: sorts the tile's
    /// slices in place by `xlo` and sweeps them, counting a pair only
    /// when its *reference point* — the bottom-left corner of the
    /// pairwise intersection, `(max(xlo), max(ylo))` — falls in this
    /// tile. The reference point lies inside both rectangles, so exactly
    /// one tile across the plan counts each pair; summing tile counts
    /// equals the serial [`sweep_join_count`] exactly (integer counts, no
    /// rounding to argue about).
    #[must_use]
    pub fn count(self) -> u64 {
        sort_by_xlo(self.a);
        sort_by_xlo(self.b);
        let mut n = 0u64;
        sweep_sorted(self.a, self.b, |ra: &Rect, rb: &Rect| {
            let rx = ra.xlo.max(rb.xlo);
            let ry = ra.ylo.max(rb.ylo);
            if self.grid.tile_of(rx, ry) == (self.ti, self.tj) {
                n += 1;
            }
        });
        n
    }
}

/// A partition-based parallel plane-sweep plan (Tsitsigkos & Mamoulis,
/// "Parallel In-Memory Evaluation of Spatial Joins"): the joint bounding
/// box is tiled, every rectangle is replicated into each tile it
/// overlaps, and each tile is swept *independently* — no shared state —
/// with duplicates suppressed by the reference-point rule (see
/// [`SweepTile::count`]). The replicas live in one flat vector per input,
/// grouped by tile, so each tile sorts and sweeps contiguous memory.
///
/// The plan depends on the inputs only, never on a thread count: callers
/// map [`SweepTile::count`] over [`TiledSweep::tiles`] with whatever
/// executor they own (sj-core feeds it through its `Parallelism` layer)
/// and sum.
#[derive(Debug, Clone)]
pub struct TiledSweep {
    grid: TileGrid,
    a: Vec<Rect>,
    a_offsets: Vec<usize>,
    b: Vec<Rect>,
    b_offsets: Vec<usize>,
}

impl TiledSweep {
    /// The per-tile work items, in row-major tile order. Tiles with
    /// either side empty are pruned (they cannot own a pair).
    #[must_use]
    pub fn tiles(&mut self) -> Vec<SweepTile<'_>> {
        let t = self.grid.t;
        let row_major = (0..t).flat_map(|tj| (0..t).map(move |ti| (ti, tj)));
        let sizes = self.a_offsets.windows(2).zip(self.b_offsets.windows(2));
        let mut rest_a = self.a.as_mut_slice();
        let mut rest_b = self.b.as_mut_slice();
        let mut tiles = Vec::new();
        for ((ti, tj), (wa, wb)) in row_major.zip(sizes) {
            let (a, tail_a) = std::mem::take(&mut rest_a).split_at_mut(wa[1] - wa[0]);
            let (b, tail_b) = std::mem::take(&mut rest_b).split_at_mut(wb[1] - wb[0]);
            (rest_a, rest_b) = (tail_a, tail_b);
            if !a.is_empty() && !b.is_empty() {
                let grid = self.grid;
                tiles.push(SweepTile { grid, ti, tj, a, b });
            }
        }
        tiles
    }

    /// Number of (non-empty) tiles in the plan.
    #[must_use]
    pub fn num_tiles(&self) -> usize {
        self.a_offsets
            .windows(2)
            .zip(self.b_offsets.windows(2))
            .filter(|(wa, wb)| wa[1] > wa[0] && wb[1] > wb[0])
            .count()
    }

    /// Sums [`SweepTile::count`] serially — the single-threaded reference
    /// evaluation of the plan.
    #[must_use]
    pub fn count_serial(&mut self) -> u64 {
        self.tiles().into_iter().map(SweepTile::count).sum()
    }
}

/// Builds a [`TiledSweep`] plan over `a` and `b`, sizing the `t × t` grid
/// from the inputs alone. The side starts at
/// `ceil(sqrt(min(|a|, |b|) / 100))` (t = 32 at 100k × 100k) and shrinks
/// until the replicated-rectangle count `Σ (i1−i0+1)(j1−j0+1)` is at
/// most `2 × (|a| + |b|)`; `t = 1` always qualifies.
///
/// ```
/// use sj_geo::Rect;
/// let a = vec![Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(2.0, 2.0, 3.0, 3.0)];
/// let b = vec![Rect::new(0.5, 0.5, 2.5, 2.5)];
/// let mut plan = sj_sweep::tile_sweep(&a, &b);
/// let total: u64 = plan.tiles().into_iter().map(|t| t.count()).sum();
/// assert_eq!(total, sj_sweep::sweep_join_count(&a, &b));
/// ```
#[must_use]
pub fn tile_sweep(a: &[Rect], b: &[Rect]) -> TiledSweep {
    plan_with_side(a, b, grid_side(a, b))
}

/// The grid side [`tile_sweep`] uses for `a` and `b`.
fn grid_side(a: &[Rect], b: &[Rect]) -> u32 {
    let n = a.len().min(b.len());
    #[allow(clippy::cast_precision_loss)]
    let target = (n as f64 / TARGET_PER_TILE).sqrt().ceil();
    // sj-lint: allow(cast, clamped to [1, MAX_SIDE])
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let mut t = target.clamp(1.0, f64::from(MAX_SIDE)) as u32;
    let budget = 2 * (a.len() + b.len());
    while t > 1 && !TileGrid::over(a, b, t).replicates_within(a, b, budget) {
        t = t * 3 / 4;
    }
    t
}

/// The tiled plan over a `t × t` grid. [`tile_sweep`] is this with the
/// data-sized side; tests drive it with explicit sides.
fn plan_with_side(a: &[Rect], b: &[Rect], t: u32) -> TiledSweep {
    // An empty side joins nothing: plan no tiles rather than copy the
    // other side into one.
    let (a, b, t) = if a.is_empty() || b.is_empty() {
        (&[][..], &[][..], 1)
    } else {
        (a, b, t.clamp(1, MAX_SIDE))
    };
    let grid = TileGrid::over(a, b, t);
    let (a, a_offsets) = grid.scatter(a);
    let (b, b_offsets) = grid.scatter(b);
    TiledSweep {
        grid,
        a,
        a_offsets,
        b,
        b_offsets,
    }
}

/// Counts intersecting pairs via a [`tile_sweep`] plan whose tiles are
/// dealt round-robin to `threads` scoped worker threads. The plan does
/// not depend on `threads`; integer tile counts and reference-point
/// deduplication make the result exactly equal to the serial
/// [`sweep_join_count`] for every thread count.
///
/// This is the standalone entry point; `sj-core`'s exact oracle builds
/// the same plan and maps it over its own `Parallelism` layer instead.
#[must_use]
pub fn sweep_join_count_tiled(a: &[Rect], b: &[Rect], threads: usize) -> u64 {
    let mut plan = tile_sweep(a, b);
    let tiles = plan.tiles();
    let threads = threads.clamp(1, tiles.len().max(1));
    let mut shares: Vec<Vec<SweepTile<'_>>> = (0..threads).map(|_| Vec::new()).collect();
    for (k, tile) in tiles.into_iter().enumerate() {
        shares[k % threads].push(tile);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|share| scope.spawn(move || share.into_iter().map(SweepTile::count).sum::<u64>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .sum()
    })
}

/// Naive `O(n·m)` join, for validating the sweep on small inputs and as a
/// last-resort backend for tiny samples.
#[must_use]
pub fn brute_force_count(a: &[Rect], b: &[Rect]) -> u64 {
    let mut n = 0u64;
    for ra in a {
        for rb in b {
            if ra.intersects(rb) {
                n += 1;
            }
        }
    }
    n
}

/// Exact selectivity of the spatial join: `pairs / (|a| · |b|)`.
/// Returns `0.0` when either input is empty.
#[must_use]
pub fn sweep_join_selectivity(a: &[Rect], b: &[Rect]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        sweep_join_count(a, b) as f64 / (a.len() as f64 * b.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_rects(n: usize, seed: u64, max_side: f64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.random_range(0.0..1.0);
                let y = rng.random_range(0.0..1.0);
                Rect::new(
                    x,
                    y,
                    x + rng.random_range(0.0..max_side),
                    y + rng.random_range(0.0..max_side),
                )
            })
            .collect()
    }

    #[test]
    fn sweep_matches_brute_force() {
        let a = random_rects(500, 21, 0.05);
        let b = random_rects(400, 22, 0.08);
        assert_eq!(sweep_join_count(&a, &b), brute_force_count(&a, &b));
    }

    #[test]
    fn parallel_matches_serial_for_all_thread_counts() {
        let a = random_rects(400, 31, 0.06);
        let b = random_rects(350, 32, 0.09);
        let serial = sweep_join_count(&a, &b);
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                sweep_join_count_parallel(&a, &b, threads),
                serial,
                "threads={threads}"
            );
        }
        assert_eq!(sweep_join_count_parallel(&[], &b, 4), 0);
        assert_eq!(sweep_join_count_parallel(&a, &[], 4), 0);
    }

    #[test]
    fn sweep_is_symmetric() {
        let a = random_rects(300, 23, 0.1);
        let b = random_rects(300, 24, 0.02);
        assert_eq!(sweep_join_count(&a, &b), sweep_join_count(&b, &a));
    }

    #[test]
    fn empty_inputs() {
        let a = random_rects(10, 25, 0.1);
        assert_eq!(sweep_join_count(&a, &[]), 0);
        assert_eq!(sweep_join_count(&[], &a), 0);
        assert_eq!(sweep_join_selectivity(&[], &a), 0.0);
    }

    #[test]
    fn touching_rectangles_count() {
        let a = vec![Rect::new(0.0, 0.0, 1.0, 1.0)];
        let b = vec![Rect::new(1.0, 1.0, 2.0, 2.0)]; // corner touch
        assert_eq!(sweep_join_count(&a, &b), 1);
    }

    #[test]
    fn identical_rects_all_pairs() {
        let a = vec![Rect::new(0.25, 0.25, 0.75, 0.75); 13];
        let b = vec![Rect::new(0.5, 0.5, 0.9, 0.9); 7];
        assert_eq!(sweep_join_count(&a, &b), 13 * 7);
    }

    #[test]
    fn pairs_emitted_exactly_once() {
        let a = random_rects(200, 26, 0.2);
        let b = random_rects(200, 27, 0.2);
        let mut pairs = Vec::new();
        sweep_join_pairs(&a, &b, |i, j| pairs.push((i, j)));
        let total = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), total, "duplicate pair emitted");
        assert_eq!(total as u64, brute_force_count(&a, &b));
    }

    #[test]
    fn point_datasets() {
        let pts: Vec<Rect> = (0..100)
            .map(|i| Rect::new(f64::from(i), 0.0, f64::from(i), 0.0))
            .collect();
        // A point set joined with itself: only coincident points pair.
        assert_eq!(sweep_join_count(&pts, &pts), 100);
        let sel = sweep_join_selectivity(&pts, &pts);
        assert!((sel - 0.01).abs() < 1e-12);
    }

    #[test]
    fn tiled_matches_serial_for_all_thread_counts() {
        let a = random_rects(400, 41, 0.06);
        let b = random_rects(350, 42, 0.09);
        let serial = sweep_join_count(&a, &b);
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                sweep_join_count_tiled(&a, &b, threads),
                serial,
                "threads={threads}"
            );
        }
        assert_eq!(sweep_join_count_tiled(&[], &b, 4), 0);
        assert_eq!(sweep_join_count_tiled(&a, &[], 4), 0);
    }

    #[test]
    fn tiled_plan_partitions_pairs_exactly() {
        // Large rects replicate into many tiles; reference-point dedup
        // must still count every pair exactly once.
        let a = random_rects(250, 43, 0.4);
        let b = random_rects(250, 44, 0.4);
        for side in [1, 2, 4, 10, 32] {
            assert_eq!(
                plan_with_side(&a, &b, side).count_serial(),
                sweep_join_count(&a, &b),
                "side={side}"
            );
        }
    }

    #[test]
    fn grid_side_grows_with_the_smaller_input() {
        let small = random_rects(100_000, 47, 0.002);
        let other = random_rects(100_000, 48, 0.002);
        assert_eq!(grid_side(&small, &other), 32);
        assert_eq!(grid_side(&small[..10_000], &other), 10);
        assert_eq!(grid_side(&small[..150], &other), 2);
        assert_eq!(grid_side(&small[..100], &other), 1);
        assert_eq!(grid_side(&[], &other), 1);
    }

    #[test]
    fn plan_is_independent_of_the_thread_count() {
        let a = random_rects(3_000, 49, 0.01);
        let b = random_rects(2_500, 50, 0.02);
        let serial = sweep_join_count(&a, &b);
        let tiles = tile_sweep(&a, &b).num_tiles();
        assert!(tiles > 1, "a 3k x 2.5k join plans more than one tile");
        for threads in [1, 2, 3, 8] {
            assert_eq!(tile_sweep(&a, &b).num_tiles(), tiles, "threads={threads}");
            assert_eq!(
                sweep_join_count_tiled(&a, &b, threads),
                serial,
                "threads={threads}"
            );
        }
    }

    /// Inputs that stress replication, degenerate extents and float
    /// range: `(name, a, b)`.
    fn adversarial_inputs() -> Vec<(&'static str, Vec<Rect>, Vec<Rect>)> {
        let whole = Rect::new(0.0, 0.0, 1.0, 1.0);
        let mut mixed = random_rects(10_000, 51, 0.01);
        for r in mixed.iter_mut().step_by(100) {
            *r = whole;
        }
        let mut rng = StdRng::seed_from_u64(52);
        let mut lattice = |n: usize, horizontal: bool| -> Vec<Rect> {
            (0..n)
                .map(|_| {
                    let lo = f64::from(rng.random_range(0u32..400));
                    let hi = lo + f64::from(rng.random_range(0u32..4));
                    if horizontal {
                        Rect::new(lo, 0.0, hi, 0.0)
                    } else {
                        Rect::new(0.0, lo, 0.0, hi)
                    }
                })
                .collect()
        };
        let flat_a = lattice(2_000, true);
        let flat_b = lattice(1_500, true);
        let thin_a = lattice(2_000, false);
        let thin_b = lattice(1_500, false);
        // Maps every coordinate `v` to `(v - center) * k`.
        let scaled = |rects: Vec<Rect>, center: f64, k: f64| -> Vec<Rect> {
            let f = |v: f64| (v - center) * k;
            rects
                .into_iter()
                .map(|r| Rect::new(f(r.xlo), f(r.ylo), f(r.xhi), f(r.yhi)))
                .collect()
        };
        vec![
            (
                "whole-extent",
                vec![whole; 600],
                random_rects(600, 53, 0.05),
            ),
            ("1% whole-extent", mixed, random_rects(5_000, 54, 0.01)),
            (
                "all identical",
                vec![Rect::new(0.2, 0.2, 0.6, 0.6); 1_000],
                vec![Rect::new(0.5, 0.5, 0.9, 0.9); 1_000],
            ),
            ("zero height", flat_a, flat_b),
            ("zero width", thin_a, thin_b),
            (
                "negative",
                scaled(random_rects(2_000, 55, 0.02), 30.0, 50.0),
                scaled(random_rects(2_000, 56, 0.02), 30.0, 50.0),
            ),
            (
                "huge",
                scaled(random_rects(2_000, 57, 0.02), 0.5, 1e300),
                scaled(random_rects(2_000, 58, 0.02), 0.5, 1e300),
            ),
            // The extent itself overflows to infinity.
            (
                "overflowing extent",
                scaled(random_rects(2_000, 59, 0.02), 0.5, 1.78e308),
                scaled(random_rects(2_000, 60, 0.02), 0.5, 1.78e308),
            ),
            ("one side empty", Vec::new(), random_rects(1_000, 61, 0.05)),
        ]
    }

    #[test]
    fn tiled_equals_serial_and_brute_force_on_adversarial_inputs() {
        for (name, a, b) in adversarial_inputs() {
            let brute = brute_force_count(&a, &b);
            assert_eq!(sweep_join_count(&a, &b), brute, "{name}: serial");
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    sweep_join_count_tiled(&a, &b, threads),
                    brute,
                    "{name}: threads={threads}"
                );
            }
        }
    }

    #[test]
    fn replication_stays_within_twice_the_input() {
        for (name, a, b) in adversarial_inputs() {
            let plan = tile_sweep(&a, &b);
            let replicated = plan.a.len() + plan.b.len();
            assert!(
                replicated <= 2 * (a.len() + b.len()),
                "{name}: {replicated} replicas of {} + {} rects (side {})",
                a.len(),
                b.len(),
                plan.grid.t
            );
        }
    }

    #[test]
    fn tiled_handles_boundary_and_degenerate_geometry() {
        // Corner-touching pair whose reference point sits exactly on a
        // tile boundary.
        let a = vec![Rect::new(0.0, 0.0, 1.0, 1.0)];
        let b = vec![Rect::new(1.0, 1.0, 2.0, 2.0)];
        assert_eq!(sweep_join_count_tiled(&a, &b, 4), 1);
        // Identical rects: all pairs, counted once each.
        let a = vec![Rect::new(0.25, 0.25, 0.75, 0.75); 13];
        let b = vec![Rect::new(0.5, 0.5, 0.9, 0.9); 7];
        assert_eq!(sweep_join_count_tiled(&a, &b, 8), 13 * 7);
        // Point datasets: degenerate extents on the y axis (all zero
        // height) still partition correctly.
        let pts: Vec<Rect> = (0..100)
            .map(|i| Rect::new(f64::from(i), 0.0, f64::from(i), 0.0))
            .collect();
        assert_eq!(sweep_join_count_tiled(&pts, &pts, 8), 100);
        // Single coincident point: fully degenerate bounding box.
        let p = vec![Rect::new(0.5, 0.5, 0.5, 0.5)];
        assert_eq!(sweep_join_count_tiled(&p, &p, 8), 1);
    }

    #[test]
    fn tiled_clustered_data() {
        // Heavy clustering stresses uneven tile occupancy.
        let mut rng = StdRng::seed_from_u64(45);
        let clustered: Vec<Rect> = (0..600)
            .map(|i| {
                let (cx, cy) = if i % 3 == 0 { (0.2, 0.2) } else { (0.8, 0.7) };
                let x = cx + rng.random_range(-0.05..0.05);
                let y = cy + rng.random_range(-0.05..0.05);
                Rect::new(x, y, x + 0.02, y + 0.02)
            })
            .collect();
        let other = random_rects(500, 46, 0.05);
        let serial = sweep_join_count(&clustered, &other);
        assert_eq!(sweep_join_count_tiled(&clustered, &other, 4), serial);
        assert_eq!(sweep_join_count_tiled(&clustered, &other, 16), serial);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_sweep_equals_brute_force(
            seed_a in 0u64..1000, seed_b in 0u64..1000,
            na in 0usize..80, nb in 0usize..80,
        ) {
            let a = random_rects(na, seed_a, 0.3);
            let b = random_rects(nb, seed_b, 0.3);
            prop_assert_eq!(sweep_join_count(&a, &b), brute_force_count(&a, &b));
        }

        #[test]
        fn prop_tiled_equals_serial(
            seed_a in 0u64..500, seed_b in 0u64..500,
            na in 0usize..60, nb in 0usize..60,
            side in 1u32..40,
        ) {
            let a = random_rects(na, seed_a, 0.3);
            let b = random_rects(nb, seed_b, 0.3);
            prop_assert_eq!(
                plan_with_side(&a, &b, side).count_serial(),
                sweep_join_count(&a, &b)
            );
        }
    }
}
