//! Catalog-level freshness of the histograms' resident estimate views
//! (DESIGN.md §16): an estimate made after a mutation, after a
//! compaction, or after recovery must equal — bit for bit — the answer
//! of a catalog freshly built over the same data, even when the
//! pre-mutation estimate had already decoded and cached the views.

use sj_datagen::Dataset;
use sj_geo::{Extent, Rect};
use sj_histogram::HistogramKind;
use sj_query::{Catalog, CompactionPolicy, MutationId, PreparedOutcome};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const LEVEL: u32 = 5;

fn rects(n: usize, offset: f64) -> Vec<Rect> {
    (0..n)
        .map(|i| {
            let t = (i as f64 + 0.5) / n as f64 * 0.8 + offset;
            Rect::new(t, t * 0.9, t + 0.05, t * 0.9 + 0.04)
        })
        .collect()
}

fn probe_rects() -> Vec<Rect> {
    (0..40)
        .map(|i| {
            let t = f64::from(i) / 40.0 * 0.9;
            Rect::new(t, 0.85 - t * 0.8, t + 0.08, 0.9 - t * 0.8)
        })
        .collect()
}

fn catalog(kind: HistogramKind, a: Vec<Rect>) -> Catalog {
    let mut c = Catalog::with_kind(kind, LEVEL);
    c.register(Dataset::new("a", Extent::unit(), a)).unwrap();
    c.register(Dataset::new("b", Extent::unit(), probe_rects()))
        .unwrap();
    c
}

fn estimate(c: &Catalog) -> u64 {
    c.estimate_join_pairs("a", "b").unwrap().to_bits()
}

/// The answer of a catalog built from scratch over `c`'s current data.
fn rebuilt(kind: HistogramKind, c: &Catalog) -> u64 {
    estimate(&catalog(kind, c.dataset("a").unwrap().rects.clone()))
}

/// A scratch statistics directory unique to this process and call.
fn scratch(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "sj-resident-views-{}-{tag}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the three mutation phases the daemon drives on one batch.
fn mutate(c: &mut Catalog, inserts: &[Rect], deletes: &[Rect]) {
    let PreparedOutcome::Fresh(prepared) = c
        .prepare_delta("a", inserts, deletes, MutationId::UNSTAMPED)
        .unwrap()
    else {
        panic!("an unstamped batch is never a duplicate");
    };
    prepared.append_wal().unwrap();
    c.commit_prepared(*prepared).unwrap();
}

#[test]
fn estimates_after_prepare_and_commit_match_a_rebuilt_catalog() {
    for kind in HistogramKind::ALL {
        let mut c = catalog(kind, rects(50, 0.0));
        let before = estimate(&c);
        mutate(&mut c, &rects(20, 0.1), &[]);
        let after = estimate(&c);
        assert_ne!(
            after, before,
            "{kind}: the insert batch should move the estimate"
        );
        assert_eq!(after, rebuilt(kind, &c), "{kind}: insert served stale");

        let deletes: Vec<Rect> = rects(50, 0.0).into_iter().step_by(4).collect();
        mutate(&mut c, &[], &deletes);
        assert_eq!(
            estimate(&c),
            rebuilt(kind, &c),
            "{kind}: delete served stale"
        );
    }
}

#[test]
fn estimates_across_compaction_match_a_rebuilt_catalog() {
    for kind in HistogramKind::ALL {
        let dir = scratch(kind.name());
        let mut c = catalog(kind, rects(40, 0.0));
        c.open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        estimate(&c);
        mutate(&mut c, &rects(10, 0.05), &[]);
        estimate(&c);
        let plan = c
            .plan_compaction("a")
            .unwrap()
            .expect("a store is attached");
        plan.persist().unwrap();
        estimate(&c);
        c.finish_compaction("a", true);
        assert_eq!(
            estimate(&c),
            rebuilt(kind, &c),
            "{kind}: stale after compaction"
        );
        mutate(&mut c, &[], &rects(40, 0.0)[..7]);
        assert_eq!(
            estimate(&c),
            rebuilt(kind, &c),
            "{kind}: stale after a post-compaction delta"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn estimates_across_recovery_match_a_rebuilt_catalog() {
    for kind in HistogramKind::ALL {
        let dir = scratch(kind.name());
        let mut c1 = catalog(kind, rects(40, 0.0));
        c1.open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        mutate(&mut c1, &rects(8, 0.1), &[]);
        c1.compact("a").unwrap();
        mutate(&mut c1, &[], &rects(40, 0.0)[..5]);
        let expected = estimate(&c1);
        drop(c1);

        // The next process registers the stale source and estimates
        // (decoding its views) before recovery replays the WAL.
        let mut c2 = catalog(kind, rects(40, 0.0));
        let stale = estimate(&c2);
        c2.open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        let recovered = estimate(&c2);
        assert_ne!(
            recovered, stale,
            "{kind}: recovery should move the estimate"
        );
        assert_eq!(recovered, expected, "{kind}: recovered estimate differs");
        assert_eq!(
            recovered,
            rebuilt(kind, &c2),
            "{kind}: stale after recovery"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
