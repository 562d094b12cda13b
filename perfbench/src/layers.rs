//! The traced run's in-process layer probes.
//!
//! Each probe calls one layer's public functions on the workload's own
//! inputs and records a span around the call. The estimate chain is
//! replayed per traced request at every depth (frame codec → request
//! dispatch → service → catalog → histogram) with the request's id, so
//! each layer's self time is a difference within one run. The writer
//! probe drives the mutation path through the public phase functions in
//! the order `CatalogService::mutate` uses them: prepare under the read
//! guard, WAL append under no catalog guard, commit under the write
//! guard, then plan / persist / finish a compaction when one is due.

use crate::data::{self, LEVEL};
use crate::trace::{Tracer, Tree};
use crate::util::{mean, median, us, Metric, Rng};
use sj_core::sync::{LockRank, OrderedRwLock};
use sj_core::{build_histogram, load_histogram, Dataset, Extent, Grid, HistogramDelta, Rect};
use sj_histogram::{HistogramKind, SpatialHistogram};
use sj_query::{
    ChainJoinQuery, CompactionPolicy, DegradationPolicy, MutationId, PreparedOutcome, RealStoreIo,
    StoreIo,
};
use sj_server::wire::{self, PayloadReader};
use sj_server::{handle_request, CatalogService, Frame, Opcode, StatisticsService};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The probe reader's pause between reads, about a loopback round trip.
const READER_GAP: std::time::Duration = std::time::Duration::from_micros(30);

/// One traced client request to replay through the in-process layers.
#[derive(Debug, Clone)]
pub struct Replay {
    pub req: u64,
    pub a: String,
    pub b: String,
    /// The request's measured client round trip, µs.
    pub rtt_us: f64,
}

/// What the probes run on.
pub struct Probe<'a> {
    pub tracer: &'a Tracer,
    pub work: &'a Path,
    pub seed: u64,
    /// Iterations per cheap probe.
    pub iters: usize,
    /// Repetitions of the whole-input probes (CSV load, build).
    pub reps: usize,
    pub csv: &'a [PathBuf],
    /// The reference service over the workload's base statistics.
    pub service: &'a CatalogService,
    pub pairs: Vec<(String, String)>,
    pub chains: Vec<Vec<String>>,
    pub windows: Vec<(String, Rect)>,
    pub batch: Vec<Rect>,
    /// Tables of the writer probe's catalog; the first is mutated and
    /// the second is its estimate partner.
    pub write_tables: Vec<String>,
    /// Time the frame codec on 32-rectangle mutation frames instead of
    /// estimate frames.
    pub mutation_frames: bool,
    /// Run a reader beside the writer probe, timing its read-lock wait.
    pub concurrent_reader: bool,
    /// Take the fresh-estimate timing after `apply_delta` instead of
    /// after a load.
    pub fresh_after_delta: bool,
    /// Exact-join times of the workload's join pairs, ms.
    pub exact_ms: Vec<f64>,
    pub replays: Vec<Replay>,
}

/// Per-layer results, keyed by metric name.
#[derive(Default)]
pub struct Layered {
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Probe answers that disagreed with each other or with the
    /// reference (a determinism or correctness failure of the program).
    pub failures: u64,
    pub attempted: u64,
}

impl Layered {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, Metric::new(name, value, unit));
    }
}

/// Counts bytes the statistics store writes, forwarding to the real
/// filesystem (fsyncs included).
#[derive(Default)]
struct CountingIo {
    bytes: AtomicU64,
}

impl StoreIo for CountingIo {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        RealStoreIo.create_dir_all(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        RealStoreIo.exists(path)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        RealStoreIo.read(path)
    }
    fn append_wal(&self, path: &Path, record: &[u8]) -> std::io::Result<()> {
        self.bytes.fetch_add(record.len() as u64, Ordering::Relaxed);
        RealStoreIo.append_wal(path, record)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        RealStoreIo.write(path, bytes)
    }
    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        RealStoreIo.sync_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealStoreIo.rename(from, to)
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        RealStoreIo.remove(path)
    }
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        RealStoreIo.sync_dir(dir)
    }
}

pub fn grid() -> Grid {
    Grid::new(LEVEL, Extent::unit()).expect("level 7 is a valid grid level")
}

fn estimate_payload(a: &str, b: &str) -> Vec<u8> {
    let mut p = Vec::new();
    wire::put_str(&mut p, a);
    wire::put_str(&mut p, b);
    p
}

fn mutation_payload(table: &str, id: MutationId, rects: &[Rect]) -> Vec<u8> {
    let mut p = Vec::new();
    wire::put_str(&mut p, table);
    wire::put_u64(&mut p, id.token);
    wire::put_u64(&mut p, id.seq);
    wire::put_u32(
        &mut p,
        u32::try_from(rects.len()).expect("a batch count fits a u32"),
    );
    for r in rects {
        wire::put_f64(&mut p, r.xlo);
        wire::put_f64(&mut p, r.ylo);
        wire::put_f64(&mut p, r.xhi);
        wire::put_f64(&mut p, r.yhi);
    }
    p
}

/// Whether a response frame carries the OK status byte.
fn reply_ok(frame: &Frame) -> bool {
    PayloadReader::new(&frame.payload).u8().ok() == Some(wire::status::OK)
}

fn same_bits(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits()
}

pub fn run(p: &Probe<'_>) -> Layered {
    let mut out = Layered::default();
    let t = p.tracer;
    let iters = p.iters.max(1);

    // datagen: loading every input CSV once, as the program does.
    let mut load_ms = Vec::new();
    let mut datasets: Vec<Dataset> = Vec::new();
    for _ in 0..p.reps {
        let (ds, _, d) = t.span("datagen.csv_load", 0, None, || {
            p.csv.iter().map(|f| data::load(f)).collect::<Vec<_>>()
        });
        load_ms.push(us(d) / 1e3);
        datasets = ds;
    }
    out.put("datagen.csv_load_ms", median(&load_ms), "ms");

    // build: every table's level-7 GH statistics.
    let grid = grid();
    let rects: usize = datasets.iter().map(Dataset::len).sum();
    let mut build_ms = Vec::new();
    let mut built: Vec<Box<dyn SpatialHistogram>> = Vec::new();
    for _ in 0..p.reps {
        let (hs, _, d) = t.span("build.histograms", 0, None, || {
            datasets
                .iter()
                .map(|ds| build_histogram(HistogramKind::Gh, grid, &ds.rects))
                .collect::<Vec<_>>()
        });
        build_ms.push(us(d) / 1e3);
        built = hs;
    }
    let build_p50 = median(&build_ms);
    out.put("build.histogram_ms", build_p50, "ms");
    out.put(
        "build.rects_per_s",
        rects as f64 / (build_p50 / 1e3),
        "rects/s",
    );

    // persist: envelope encode and load.
    let names: Vec<String> = datasets.iter().map(|d| d.name.clone()).collect();
    let mut envelopes: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let (mut enc, mut load) = (Vec::new(), Vec::new());
    for k in 0..iters {
        let i = k % built.len();
        let (bytes, _, d) = t.span("persist.encode", k as u64, None, || built[i].persist());
        enc.push(us(d));
        let (loaded, _, d) = t.span("persist.load", k as u64, None, || load_histogram(&bytes));
        load.push(us(d));
        out.attempted += 1;
        match loaded {
            Ok(h) if h.persist() == bytes => {}
            _ => out.failures += 1,
        }
        envelopes.insert(names[i].clone(), bytes.to_vec());
    }
    out.put("persist.encode_us", median(&enc), "us");
    out.put("persist.load_us", median(&load), "us");

    // histogram: fresh (first call after a load) and repeat estimates.
    let (mut fresh, mut repeat) = (Vec::new(), Vec::new());
    for k in 0..iters {
        let (a, b) = &p.pairs[k % p.pairs.len()];
        let (Some(ea), Some(eb)) = (envelopes.get(a), envelopes.get(b)) else {
            continue;
        };
        let (Ok(ha), Ok(hb)) = (load_histogram(ea), load_histogram(eb)) else {
            out.failures += 1;
            continue;
        };
        let (first, _, d) = t.span("histogram.estimate_join_fresh", k as u64, None, || {
            ha.estimate_join(hb.as_ref())
        });
        fresh.push(us(d));
        for _ in 0..3 {
            let (again, _, d) = t.span("histogram.estimate_join", k as u64, None, || {
                ha.estimate_join(hb.as_ref())
            });
            repeat.push(us(d));
            out.attempted += 1;
            match (&first, &again) {
                (Ok(x), Ok(y)) if same_bits(x.pairs, y.pairs) => {}
                _ => out.failures += 1,
            }
        }
    }
    out.put("histogram.estimate_join_us", median(&repeat), "us");

    // Catalog and service layers on the reference service.
    let svc = p.service;
    let policy = DegradationPolicy::default();
    let (mut lookup, mut ladder, mut plan, mut wc) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut s_est, mut s_cat, mut s_wc, mut s_exp) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut degraded, mut ladders) = (0u64, 0u64);
    for k in 0..iters {
        let req = k as u64;
        let (a, b) = &p.pairs[k % p.pairs.len()];
        let (wt, w) = &p.windows[k % p.windows.len()];
        let chain = &p.chains[k % p.chains.len()];
        {
            let g = svc.catalog().read();
            let (_, _, d) = t.span("catalog.histogram_lookup", req, None, || {
                (g.histogram(a).is_ok(), g.histogram(b).is_ok())
            });
            lookup.push(us(d));
            let (o, _, d) = t.span("catalog.ladder", req, None, || {
                g.estimate_join_pairs_detailed(a, b, &policy)
            });
            ladder.push(us(d));
            ladders += 1;
            if o.map_or(true, |o| o.is_degraded()) {
                degraded += 1;
            }
            if k % 4 == 0 {
                let (_, _, d) = t.span("catalog.plan", req, None, || {
                    g.plan(&ChainJoinQuery::new(chain.iter().cloned()))
                });
                plan.push(us(d));
            }
            if let Ok(gh) = g.gh_histogram(wt) {
                let (_, _, d) = t.span("histogram.window_count", req, None, || {
                    gh.estimate_window_count(w)
                });
                wc.push(us(d));
            }
        }
        let (_, _, d) = t.span("service.estimate", req, None, || svc.estimate(a, b));
        s_est.push(us(d));
        let (_, _, d) = t.span("service.catalog_estimate", req, None, || {
            svc.catalog_estimate(a, b)
        });
        s_cat.push(us(d));
        let (_, _, d) = t.span("service.window_count", req, None, || {
            svc.window_count(wt, w)
        });
        s_wc.push(us(d));
        if k % 4 == 0 {
            let (_, _, d) = t.span("service.explain", req, None, || svc.explain(chain));
            s_exp.push(us(d));
        }
    }
    out.put("catalog.histogram_lookup_us", median(&lookup), "us");
    out.put("catalog.ladder_us", median(&ladder), "us");
    out.put("catalog.plan_us", median(&plan), "us");
    out.put(
        "catalog.degraded_share",
        degraded as f64 / ladders.max(1) as f64,
        "ratio",
    );
    out.put("histogram.window_count_us", median(&wc), "us");
    out.put("service.estimate_us", median(&s_est), "us");
    out.put("service.catalog_estimate_us", median(&s_cat), "us");
    out.put("service.window_count_us", median(&s_wc), "us");
    out.put("service.explain_us", median(&s_exp), "us");

    chain_replays(p, &mut out);
    if p.mutation_frames {
        mutation_frame_codec(p, &datasets, &mut out);
    }
    writer(p, &datasets, &mut fresh, &mut out);

    let fresh_p50 = median(&fresh);
    out.put("histogram.estimate_join_fresh_us", fresh_p50, "us");
    let join_ms = median(&p.exact_ms);
    out.put("exact.join_ms", join_ms, "ms");
    out.put(
        "paper.est_over_join_pct",
        fresh_p50 / (join_ms * 1e3) * 100.0,
        "%",
    );
    out
}

/// Replays each traced estimate through the frame codec, the request
/// dispatcher, the service, the catalog and the histogram, recording
/// the inner replays as children of the outer spans.
fn chain_replays(p: &Probe<'_>, out: &mut Layered) {
    let t = p.tracer;
    let svc = p.service;
    let (mut enc, mut dec, mut req_bytes, mut reply_bytes) = (Vec::new(), Vec::new(), 0, 0);
    let mut unexplained = Vec::new();
    for r in &p.replays {
        let req = r.req;
        let (bytes, _, e1) = t.span("wire.encode_request", req, None, || {
            Frame::request(Opcode::Estimate, estimate_payload(&r.a, &r.b)).to_bytes()
        });
        let frame_id = t.reserve();
        let t0 = Instant::now();
        let (frame, _, d1) = t.span("wire.decode_request", req, Some(frame_id), || {
            Frame::from_bytes(&bytes)
        });
        let Ok(frame) = frame else {
            out.failures += 1;
            continue;
        };
        let ((resp, _), dispatch_id, _) = t.span("server.dispatch", req, Some(frame_id), || {
            handle_request(svc, &frame)
        });
        let (reply, _, e2) = t.span("wire.encode_reply", req, Some(frame_id), || resp.to_bytes());
        let t1 = Instant::now();
        t.record_as(frame_id, "server.frame", req, None, t0, t1);
        let (decoded, _, d2) = t.span("wire.decode_reply", req, None, || Frame::from_bytes(&reply));
        out.attempted += 1;
        if !decoded.as_ref().is_ok_and(reply_ok) {
            out.failures += 1;
        }
        enc.push(us(e1 + e2));
        dec.push(us(d1 + d2));
        req_bytes = bytes.len();
        reply_bytes = reply.len();
        unexplained.push(r.rtt_us - us(e1) - us(t1 - t0) - us(d2));

        // One layer deeper: the service call the dispatcher made, and
        // below it the catalog guard, lookups and histogram estimate.
        let (_, svc_id, _) = t.span("service.estimate", req, Some(dispatch_id), || {
            svc.estimate(&r.a, &r.b)
        });
        let l0 = Instant::now();
        let g = svc.catalog().read();
        t.record("service.read_lock", req, Some(svc_id), l0, Instant::now());
        let (hs, _, _) = t.span("catalog.histogram_lookup", req, Some(svc_id), || {
            (g.histogram(&r.a), g.histogram(&r.b))
        });
        if let (Ok(ha), Ok(hb)) = hs {
            let _ = t.span("histogram.estimate_join", req, Some(svc_id), || {
                ha.estimate_join(hb)
            });
        }
        drop(g);
    }
    out.put("wire.encode_us", median(&enc), "us");
    out.put("wire.decode_us", median(&dec), "us");
    out.put("wire.request_bytes", req_bytes as f64, "bytes");
    out.put("wire.reply_bytes", reply_bytes as f64, "bytes");
    out.put("client.unexplained_us", median(&unexplained), "us");

    let tree = Tree::new(t.snapshot());
    let replayed: std::collections::BTreeSet<u64> = p.replays.iter().map(|r| r.req).collect();
    let per_req = |names: &[&str]| -> Vec<f64> {
        tree.self_by_req(names)
            .into_iter()
            .filter(|(req, _)| replayed.contains(req))
            .map(|(_, v)| v)
            .collect()
    };
    let frame: Vec<f64> = tree
        .dur_by_req(&["server.frame"])
        .into_iter()
        .filter(|(req, _)| replayed.contains(req))
        .map(|(_, v)| v)
        .collect();
    out.put("server.handle_request_us", median(&frame), "us");
    out.put(
        "server.self_us",
        median(&per_req(&["server.frame", "server.dispatch"])),
        "us",
    );
    out.put(
        "service.self_us",
        median(&per_req(&["service.estimate", "service.read_lock"])),
        "us",
    );
    out.put(
        "catalog.self_us",
        median(&per_req(&["catalog.histogram_lookup"])),
        "us",
    );
    out.put(
        "histogram.self_us",
        median(&per_req(&["histogram.estimate_join"])),
        "us",
    );
}

/// Frame codec timings on the read-write workload's own frames:
/// stamped 32-rectangle insert and delete batches, dispatched to a
/// service over a copy of the mutated table (no statistics directory).
fn mutation_frame_codec(p: &Probe<'_>, datasets: &[Dataset], out: &mut Layered) {
    let t = p.tracer;
    let table = &p.write_tables[0];
    let Some(ds) = datasets.iter().find(|d| &d.name == table) else {
        return;
    };
    let svc = CatalogService::new(
        Arc::new(OrderedRwLock::new(
            LockRank::Catalog,
            "bench.frames",
            data::catalog(std::slice::from_ref(ds)),
        )),
        DegradationPolicy::default(),
    );
    let (mut enc, mut dec, mut req_bytes, mut reply_bytes) = (Vec::new(), Vec::new(), 0, 0);
    // Whole insert/delete pairs, so the copy ends where it began.
    for k in 0..2 * p.iters.div_ceil(2) {
        let op = if k % 2 == 0 {
            Opcode::InsertBatch
        } else {
            Opcode::DeleteBatch
        };
        let id = MutationId::new(0xB0_0000 + p.seed, k as u64 + 1);
        let req = 1_000_000 + k as u64;
        let (bytes, _, e1) = t.span("wire.encode_request", req, None, || {
            Frame::request(op, mutation_payload(table, id, &p.batch)).to_bytes()
        });
        let (frame, _, d1) = t.span("wire.decode_request", req, None, || {
            Frame::from_bytes(&bytes)
        });
        let Ok(frame) = frame else {
            out.failures += 1;
            continue;
        };
        let (resp, _) = handle_request(&svc, &frame);
        let (reply, _, e2) = t.span("wire.encode_reply", req, None, || resp.to_bytes());
        let (decoded, _, d2) = t.span("wire.decode_reply", req, None, || Frame::from_bytes(&reply));
        out.attempted += 1;
        if !decoded.as_ref().is_ok_and(reply_ok) {
            out.failures += 1;
        }
        enc.push(us(e1 + e2));
        dec.push(us(d1 + d2));
        req_bytes = bytes.len();
        reply_bytes = reply.len();
    }
    out.put("wire.encode_us", median(&enc), "us");
    out.put("wire.decode_us", median(&dec), "us");
    out.put("wire.request_bytes", req_bytes as f64, "bytes");
    out.put("wire.reply_bytes", reply_bytes as f64, "bytes");
}

/// The writer probe: the mutation path's phases, compaction phases,
/// delta build/apply, and whole service mutations, on a catalog of the
/// write tables with a statistics directory of its own.
fn writer(p: &Probe<'_>, datasets: &[Dataset], fresh: &mut Vec<f64>, out: &mut Layered) {
    let t = p.tracer;
    let grid = grid();
    let table = p.write_tables[0].as_str();
    let partner = p.write_tables.get(1).map_or(table, String::as_str);
    let tables: Vec<Dataset> = datasets
        .iter()
        .filter(|d| p.write_tables.contains(&d.name))
        .cloned()
        .collect();
    let mut catalog = data::catalog(&tables);
    let io = Arc::new(CountingIo::default());
    let dir = p.work.join("probe-stats");
    let _ = std::fs::remove_dir_all(&dir);
    let (opened, _, d) = t.span("store.open", 0, None, || {
        catalog.open_stats_store_with_io(&dir, CompactionPolicy::default(), io.clone())
    });
    out.put("store.open_ms", us(d) / 1e3, "ms");
    if opened.is_err() {
        out.failures += 1;
        return;
    }
    let shared = Arc::new(OrderedRwLock::new(
        LockRank::Catalog,
        "bench.writer",
        catalog,
    ));
    let svc = CatalogService::new(shared.clone(), DegradationPolicy::default());
    let writes = 2 * p.iters.div_ceil(4).max(2);
    let (mut prep, mut append, mut commit) = (Vec::new(), Vec::new(), Vec::new());
    let (mut c_plan, mut c_persist, mut c_finish) = (Vec::new(), Vec::new(), Vec::new());
    let (mut dbuild, mut compactions) = (Vec::new(), 0u64);
    let done = AtomicBool::new(false);
    let mut waits: Vec<f64> = Vec::new();
    let token = 0xA0_0000 + p.seed;
    let mut seq = 0u64;

    std::thread::scope(|s| {
        let reader = p.concurrent_reader.then(|| {
            s.spawn(|| {
                let mut waits = Vec::new();
                let mut k = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let t0 = Instant::now();
                    let g = svc.catalog().read();
                    let t1 = Instant::now();
                    if let (Ok(ha), Ok(hb)) = (g.histogram(table), g.histogram(partner)) {
                        let _ = ha.estimate_join(hb);
                    }
                    drop(g);
                    t.record("service.read_lock_wait", k, None, t0, t1);
                    waits.push(us(t1 - t0));
                    k += 1;
                    // A connection leaves the lock free between requests.
                    // Re-locking back to back would starve the writer: the
                    // lock's wake-up hands the unlocked state to whichever
                    // thread runs first.
                    std::thread::sleep(READER_GAP);
                }
                waits
            })
        });
        for w in 0..writes {
            let req = w as u64;
            let (ins, del): (&[Rect], &[Rect]) = if w % 2 == 0 {
                (&p.batch, &[])
            } else {
                (&[], &p.batch)
            };
            let (_, _, d) = t.span("delta.build", req, None, || {
                HistogramDelta::build(HistogramKind::Gh, grid, ins, del)
            });
            dbuild.push(us(d));
            seq += 1;
            let id = MutationId::new(token, seq);
            let g = shared.read();
            let (prepared, _, d) = t.span("store.prepare", req, None, || {
                g.prepare_delta(table, ins, del, id)
            });
            drop(g);
            prep.push(us(d));
            out.attempted += 1;
            let prepared = match prepared {
                Ok(PreparedOutcome::Fresh(p)) => *p,
                _ => {
                    out.failures += 1;
                    continue;
                }
            };
            let (appended, _, d) = t.span("store.wal_append", req, None, || prepared.append_wal());
            append.push(us(d));
            if appended.is_err() {
                out.failures += 1;
                continue;
            }
            let mut g = shared.write();
            let (committed, _, d) =
                t.span("store.commit", req, None, || g.commit_prepared(prepared));
            drop(g);
            commit.push(us(d));
            if committed.is_err() {
                out.failures += 1;
                continue;
            }
            if p.fresh_after_delta {
                let g = shared.read();
                if let (Ok(ha), Ok(hb)) = (g.histogram(table), g.histogram(partner)) {
                    let (_, _, d) = t.span("histogram.estimate_join_fresh", req, None, || {
                        ha.estimate_join(hb)
                    });
                    fresh.push(us(d));
                }
            }
            if shared.read().compaction_needed(table) {
                let g = shared.read();
                let (plan, _, d) =
                    t.span("store.compact_plan", req, None, || g.plan_compaction(table));
                drop(g);
                c_plan.push(us(d));
                let persisted = match plan {
                    Ok(Some(plan)) => {
                        let (r, _, d) =
                            t.span("store.compact_persist", req, None, || plan.persist());
                        c_persist.push(us(d));
                        r.is_ok()
                    }
                    _ => false,
                };
                if !persisted {
                    out.failures += 1;
                }
                let mut g = shared.write();
                let (_, _, d) = t.span("store.compact_finish", req, None, || {
                    g.finish_compaction(table, persisted)
                });
                drop(g);
                c_finish.push(us(d));
                compactions += 1;
            }
        }
        done.store(true, Ordering::SeqCst);
        if let Some(h) = reader {
            waits = h.join().expect("reader thread panicked");
        }
    });
    if !p.concurrent_reader {
        for k in 0..p.iters {
            let t0 = Instant::now();
            let g = svc.catalog().read();
            let t1 = Instant::now();
            drop(g);
            t.record("service.read_lock_wait", k as u64, None, t0, t1);
            waits.push(us(t1 - t0));
        }
    }

    // Whole service mutations (all three phases and any compaction).
    let (mut s_ins, mut s_del) = (Vec::new(), Vec::new());
    let service_writes = 2 * p.iters.div_ceil(8).max(1);
    for w in 0..service_writes {
        seq += 1;
        let id = MutationId::new(token, seq);
        let req = (writes + w) as u64;
        let (reply, _, d) = if w % 2 == 0 {
            t.span("service.insert_batch", req, None, || {
                svc.insert_batch(table, &p.batch, id)
            })
        } else {
            t.span("service.delete_batch", req, None, || {
                svc.delete_batch(table, &p.batch, id)
            })
        };
        if w % 2 == 0 { &mut s_ins } else { &mut s_del }.push(us(d));
        out.attempted += 1;
        match reply {
            Ok(r) if !r.deduplicated && r.applied as usize == p.batch.len() => {
                compactions += u64::from(r.compacted);
            }
            _ => out.failures += 1,
        }
    }

    // delta: applying the batch's insert and delete deltas to a copy.
    let base = shared.read().histogram(table).map(|h| h.clone_box());
    if let Ok(mut h) = base {
        let plus = HistogramDelta::build(HistogramKind::Gh, grid, &p.batch, &[]);
        let minus = HistogramDelta::build(HistogramKind::Gh, grid, &[], &p.batch);
        let mut apply = Vec::new();
        for k in 0..2 * p.iters.div_ceil(2) {
            let delta = if k % 2 == 0 { &plus } else { &minus };
            let (r, _, d) = t.span("delta.apply", k as u64, None, || h.apply_delta(delta));
            apply.push(us(d));
            if r.is_err() {
                out.failures += 1;
            }
        }
        out.put("delta.apply_us", median(&apply), "us");
    }

    let total_writes = (writes + service_writes) as f64;
    out.put("delta.build_us", median(&dbuild), "us");
    out.put("store.prepare_us", median(&prep), "us");
    out.put("store.wal_append_us", median(&append), "us");
    out.put("store.commit_us", median(&commit), "us");
    out.put("store.compact_plan_us", median(&c_plan), "us");
    out.put("store.compact_persist_us", median(&c_persist), "us");
    out.put("store.compact_finish_us", median(&c_finish), "us");
    out.put(
        "store.bytes_written_per_rect",
        io.bytes.load(Ordering::Relaxed) as f64 / (total_writes * p.batch.len() as f64),
        "bytes",
    );
    out.put(
        "store.compactions_per_1k_writes",
        compactions as f64 * 1e3 / total_writes,
        "count",
    );
    out.put("service.insert_batch_us", median(&s_ins), "us");
    out.put("service.delete_batch_us", median(&s_del), "us");
    out.put("service.read_lock_wait_us", mean(&waits), "us");
}

/// The client layer's metrics: the ping floor and the traced
/// `client.estimate` round trips.
pub fn put_client(l: &mut Layered, tracer: &Tracer, pings: &[f64]) {
    l.put("client.ping_rtt_us", median(pings), "us");
    let rtts: Vec<f64> = tracer
        .snapshot()
        .iter()
        .filter(|s| s.name == "client.estimate")
        .map(|s| s.dur_us())
        .collect();
    l.put("client.estimate_rtt_us", median(&rtts), "us");
}

/// A seeded batch for the writer probe.
pub fn probe_batch(seed: u64) -> Vec<Rect> {
    data::batch(&mut Rng::new(seed, 0xBA7C), data::BATCH_LEN)
}
