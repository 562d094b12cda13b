//! Resident-view cache discipline (DESIGN.md §16) for every gridded
//! family:
//!
//! * **never stale** — after a merge, an insert delta, a delete delta or
//!   a rejected (`DeltaOutOfRange`) batch, the next estimate equals, bit
//!   for bit, the estimate of a histogram freshly revived from the
//!   mutated statistics' persisted bytes;
//! * **invisible** — a histogram with a resident view compares equal to
//!   one without, `first_divergence` finds nothing, and the persisted
//!   bytes are identical;
//! * **race-free first decode** — threads making the first estimate
//!   concurrently on one shared histogram all get identical bits.

use sj_datagen::presets::verify_scenarios;
use sj_geo::{Extent, Rect};
use sj_histogram::{
    first_divergence, load_histogram, GhBasicHistogram, GhHistogram, Grid, HistogramError,
    PhHistogram, SelectivityEstimate, SpatialHistogram,
};
use std::sync::Barrier;

const LEVEL: u32 = 5;
const THREADS: usize = 8;

fn bits(e: SelectivityEstimate) -> (u64, u64) {
    (e.selectivity.to_bits(), e.pairs.to_bits())
}

fn grid() -> Grid {
    Grid::new(LEVEL, Extent::unit()).unwrap()
}

/// `(base, extra, probe)`: two halves of the uniform scenario and the
/// skewed scenario as the other join operand.
fn datasets() -> (Vec<Rect>, Vec<Rect>, Vec<Rect>) {
    let mut scenarios = verify_scenarios(0.2).into_iter();
    let uniform = scenarios.next().unwrap().rects;
    let skewed = scenarios.next().unwrap().rects;
    let half = uniform.len() / 2;
    (uniform[..half].to_vec(), uniform[half..].to_vec(), skewed)
}

/// The estimate of `left ⋈ right` recomputed from scratch: both sides
/// revived from their persisted bytes, so no view can be carried over.
fn fresh(left: &dyn SpatialHistogram, right: &dyn SpatialHistogram) -> (u64, u64) {
    let (l, r) = (
        load_histogram(&left.persist()).unwrap(),
        load_histogram(&right.persist()).unwrap(),
    );
    bits(l.estimate_join(r.as_ref()).unwrap())
}

/// Fills `h`'s cache, then checks that the estimate after `mutate`
/// matches a fresh recomputation — and, when `changes`, that it moved,
/// so a stale view could not have passed.
fn after_mutation<H: SpatialHistogram>(
    step: &str,
    h: &mut H,
    probe: &H,
    changes: bool,
    mutate: impl FnOnce(&mut H),
) {
    let before = bits(h.estimate_join(probe).unwrap());
    mutate(h);
    let after = bits(h.estimate_join(probe).unwrap());
    assert_eq!(after, fresh(h, probe), "{step}: estimate served stale");
    assert_eq!(
        after != before,
        changes,
        "{step}: the estimate should {}have moved",
        if changes { "" } else { "not " }
    );
}

fn never_stale<H: SpatialHistogram + Clone>() {
    let grid = grid();
    let (base, extra, probe_rects) = datasets();
    let mut probe = H::build_from(grid, &probe_rects);
    let mut h = H::build_from(grid, &base);

    after_mutation("merge", &mut h, &probe, true, |h| {
        h.merge(&H::build_from(grid, &extra)).unwrap();
    });
    let insert = H::build_delta(grid, &extra, &[]);
    after_mutation("insert delta", &mut h, &probe, true, |h| {
        h.apply_delta(&insert).unwrap();
    });
    let delete = H::build_delta(grid, &[], &extra);
    after_mutation("delete delta", &mut h, &probe, true, |h| {
        h.apply_delta(&delete).unwrap();
    });
    // Deleting everything twice underflows the cardinality: the batch
    // is rejected atomically and the statistics (and view) stay put.
    let everything_twice: Vec<Rect> = base.iter().chain(&base).chain(&extra).copied().collect();
    let rejected = H::build_delta(grid, &[], &everything_twice);
    after_mutation("rejected delta", &mut h, &probe, false, |h| {
        assert!(matches!(
            h.apply_delta(&rejected),
            Err(HistogramError::DeltaOutOfRange { .. })
        ));
    });

    // The right operand's cache is cleared by its own mutations too.
    let cached_left = h.clone();
    let before = bits(cached_left.estimate_join(&probe).unwrap());
    probe
        .apply_delta(&H::build_delta(grid, &extra, &[]))
        .unwrap();
    let after = bits(cached_left.estimate_join(&probe).unwrap());
    assert_ne!(
        after, before,
        "right-operand delta should move the estimate"
    );
    assert_eq!(after, fresh(&cached_left, &probe), "right operand stale");
}

fn cache_is_invisible<H: SpatialHistogram + Clone + PartialEq + std::fmt::Debug>() {
    let grid = grid();
    let (base, _, probe_rects) = datasets();
    let probe = H::build_from(grid, &probe_rects);
    let cached = H::build_from(grid, &base);
    let uncached = H::build_from(grid, &base);
    cached.estimate_join(&probe).unwrap();

    assert_eq!(cached, uncached);
    assert_eq!(first_divergence(&cached, &uncached).unwrap(), None);
    assert_eq!(cached.persist(), uncached.persist());
    assert_eq!(cached.to_bytes(), uncached.to_bytes());
    assert_eq!(format!("{cached:?}"), format!("{uncached:?}"));
    // A clone starts without a view and still estimates identically.
    let clone = cached.clone();
    assert_eq!(clone, cached);
    assert_eq!(
        bits(clone.estimate_join(&probe).unwrap()),
        bits(cached.estimate_join(&probe).unwrap())
    );
}

fn concurrent_first_estimates_agree<H: SpatialHistogram>() {
    let grid = grid();
    let (base, _, probe_rects) = datasets();
    let (h, probe) = (
        H::build_from(grid, &base),
        H::build_from(grid, &probe_rects),
    );
    let expected = fresh(&h, &probe);
    let start = Barrier::new(THREADS);
    let results: Vec<(u64, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    bits(h.estimate_join(&probe).unwrap())
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(results.iter().all(|&r| r == expected), "{results:?}");
}

macro_rules! family_tests {
    ($family:ident, $ty:ty) => {
        mod $family {
            use super::*;

            #[test]
            fn estimates_after_mutation_are_never_stale() {
                never_stale::<$ty>();
            }

            #[test]
            fn cached_view_is_invisible() {
                cache_is_invisible::<$ty>();
            }

            #[test]
            fn concurrent_first_estimates_are_identical() {
                concurrent_first_estimates_agree::<$ty>();
            }
        }
    };
}

family_tests!(ph, PhHistogram);
family_tests!(gh, GhHistogram);
family_tests!(gh_basic, GhBasicHistogram);
