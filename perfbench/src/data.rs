//! Workload inputs: preset tables written as CSV files, the in-process
//! reference catalog built from those same files, and exact join
//! counts.

use crate::util::Rng;
use sj_core::{presets, Dataset, ExactBackend, JoinBaseline, Parallelism, Rect, ValidationPolicy};
use sj_histogram::HistogramKind;
use sj_query::{Catalog, CatalogConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The paper's headline grid level for GH statistics.
pub const LEVEL: u32 = 7;

/// Rectangles in the read-write workload's fixed mutation batch.
pub const BATCH_LEN: usize = 32;

pub fn preset(name: &str, scale: f64) -> Dataset {
    match name {
        "ts" => presets::ts(scale),
        "tcb" => presets::tcb(scale),
        "cas" => presets::cas(scale),
        "car" => presets::car(scale),
        "sp" => presets::sp(scale),
        "spg" => presets::spg(scale),
        "scrc" => presets::scrc(scale),
        "sura" => presets::sura(scale),
        other => panic!("unknown preset {other}"),
    }
}

/// Writes each preset to `<dir>/<name>.csv`; the daemon names tables
/// after the file stem.
pub fn write_tables(dir: &Path, names: &[&str], scale: f64) -> Vec<PathBuf> {
    std::fs::create_dir_all(dir).expect("creating the data directory");
    names
        .iter()
        .map(|name| {
            let path = dir.join(format!("{name}.csv"));
            preset(name, scale)
                .save_csv(&path)
                .expect("writing a table CSV");
            path
        })
        .collect()
}

/// Loads a table CSV the way `sjsel` does: strict validation, named
/// after the file stem.
pub fn load(path: &Path) -> Dataset {
    Dataset::load_csv_validated(path, ValidationPolicy::Strict, None)
        .expect("loading a generated CSV")
        .0
}

/// The catalog configuration `sjsel serve --level 7` uses.
pub fn config() -> CatalogConfig {
    CatalogConfig {
        kind: HistogramKind::Gh,
        grid_level: LEVEL,
        ..CatalogConfig::default()
    }
}

pub fn catalog(datasets: &[Dataset]) -> Catalog {
    let mut catalog = Catalog::new(config());
    for ds in datasets {
        catalog
            .register(ds.clone())
            .expect("registering a reference table");
    }
    catalog
}

/// Exact intersecting-pair count by the tiled plane sweep, and its time.
pub fn exact(a: &Dataset, b: &Dataset, threads: usize) -> (u64, Duration) {
    let base = JoinBaseline::compute_with_backend_parallelism(
        a,
        b,
        ExactBackend::PlaneSweep,
        Parallelism::saturating_new(threads),
    );
    (base.pairs, base.join_time)
}

/// A seeded batch of small rectangles inside the unit extent.
pub fn batch(rng: &mut Rng, n: usize) -> Vec<Rect> {
    (0..n)
        .map(|_| {
            let w = 0.0005 + 0.0045 * rng.unit();
            let h = 0.0005 + 0.0045 * rng.unit();
            let x = rng.unit() * (1.0 - w);
            let y = rng.unit() * (1.0 - h);
            Rect::new(x, y, x + w, y + h)
        })
        .collect()
}

/// A seeded query window inside the unit extent.
pub fn window(rng: &mut Rng) -> Rect {
    let w = 0.01 + 0.19 * rng.unit();
    let h = 0.01 + 0.19 * rng.unit();
    let x = rng.unit() * (1.0 - w);
    let y = rng.unit() * (1.0 - h);
    Rect::new(x, y, x + w, y + h)
}

/// `|estimate − exact| / exact`, or `None` for an empty exact join.
pub fn rel_err(estimate: f64, exact: u64) -> Option<f64> {
    (exact > 0).then(|| (estimate - exact as f64).abs() / exact as f64)
}
