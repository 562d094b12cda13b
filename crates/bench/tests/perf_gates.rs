//! Release-build timing gates.
//!
//! Each gate compares two sides measured in the same process, on a
//! fixed seeded workload, and holds their ratio to a fixed bound. A
//! within-run ratio survives a noisy host where an absolute latency
//! would not. Every gate is `#[ignore]`d, so the workspace
//! `cargo test` (a debug build with tests running in parallel) never
//! times anything. CI runs each one in release as its own named step:
//!
//! ```sh
//! cargo test --release -p sj-bench --test perf_gates -- --ignored --exact <gate>
//! ```
//!
//! The gates take one process-wide lock, so `-- --ignored` without
//! `--exact` still times them one at a time. Scratch files live in a
//! directory of the gate's own, removed when the gate ends.
//! docs/KERNELS.md lists each gate with its CI step and bound.

use sj_core::sync::{LockRank, OrderedMutex};
use sj_core::{
    build_histogram, presets, Extent, GhHistogram, Grid, HistogramDelta, HistogramKind, RTree,
    RTreeConfig, Rect, SpatialHistogram,
};
use sj_server::{wire, Client, Frame, Opcode};
use std::hint::black_box;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Grid level of every histogram the gates build.
const LEVEL: u32 = 6;
/// Dataset scale of the two daemon gates and the kernel gate.
const SCALE: f64 = 0.02;

// Warm server vs cold CLI.
const COLD_ITERS: usize = 20;
const WARM_ITERS: usize = 2000;
const WARM_WARMUP: usize = 100;

// Delta maintenance vs full rebuild: dataset scales smallest to
// largest. The bound holds at the last, where a rebuild is most
// expensive and the fixed-size batch cheapest in proportion. The
// smaller scales only report, but they run first so the gated scale is
// timed warm: a first rebuild in a fresh process pays page faults that
// would inflate the rebuild side and flatter the ratio.
const DELTA_SCALES: [f64; 3] = [0.01, 0.05, 0.2];
const DELTA_INSERTS: usize = 64;
const DELTA_DELETES: usize = 32;
const DELTA_ROUNDS: usize = 15;

// Hardened vs baseline mutation path: batch size per operation,
// insert+delete pairs per interleaved round, rounds, and warmup pairs
// per path before any sample is kept.
const MUT_BATCH: usize = 32;
const MUT_PAIRS_PER_ROUND: usize = 5;
const MUT_ROUNDS: usize = 40;
const MUT_WARMUP_PAIRS: usize = 20;

// OrderedMutex vs raw lock: uncontended lock/unlock pairs per trial and
// trial count. The best trial wins: the floor is the honest signal for
// an uncontended fast path, where means smear in scheduler noise.
const SYNC_OPS: usize = 1_000_000;
const SYNC_TRIALS: usize = 7;
/// Absolute guard on the 2% bound: at single-digit ns per op, a 2%
/// window is below timer granularity, so a difference this small passes
/// whatever the ratio.
const SYNC_NOISE_NS: f64 = 2.0;

// GH kernel vs scalar loop: calls per timed sample (short estimates are
// batched so timer granularity cannot dominate), samples per side, and
// warmup calls.
const KERNEL_REPS: usize = 8;
const KERNEL_SAMPLES: usize = 200;
const KERNEL_WARMUP: usize = 32;

// Parallel R-tree join: the paper's 100k x 100k scale, timed best of
// three at each thread count.
const JOIN_SCALE: f64 = 1.0;
const JOIN_RUNS: usize = 3;

/// Serializes the gates within one test process.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// The median sample (the element at index `len / 2` once sorted).
fn p50(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_string()).collect()
}

fn cli(parts: &[&str]) -> sj_cli::CliOutput {
    match sj_cli::run(&argv(parts)) {
        Ok(out) => out,
        Err(e) => panic!("cli {parts:?} failed: {e:?}"),
    }
}

/// A gate's own scratch directory, removed when the gate ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = sj_lint::unique_scratch_dir("sjsel_perf_gates");
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }

    /// Writes the seeded SCRC and SURA tables at [`SCALE`]; the daemon
    /// names them `bench_a` and `bench_b` after their files.
    fn datasets(&self) -> (String, String) {
        let (a, b) = (self.path("bench_a.csv"), self.path("bench_b.csv"));
        let scale = SCALE.to_string();
        cli(&["generate", "scrc", "--scale", &scale, "--out", &a]);
        cli(&["generate", "sura", "--scale", &scale, "--out", &b]);
        (a, b)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An in-process `sjsel serve` daemon over two CSV tables.
struct Daemon {
    addr: String,
    thread: JoinHandle<Result<sj_cli::CliOutput, sj_cli::CliError>>,
}

impl Daemon {
    /// Boots the daemon on an OS-assigned port with extra `serve` flags
    /// and waits for its ready file.
    fn boot(scratch: &Scratch, (a_csv, b_csv): (&str, &str), extra: &[&str], name: &str) -> Self {
        let ready = scratch.path(&format!("{name}.ready"));
        let level = LEVEL.to_string();
        let mut parts = vec![
            "serve",
            a_csv,
            b_csv,
            "--level",
            &level,
            "--addr",
            "127.0.0.1:0",
            "--ready-file",
            &ready,
        ];
        parts.extend_from_slice(extra);
        let args = argv(&parts);
        let thread = std::thread::spawn(move || sj_cli::run(&args));
        let mut tries = 0;
        let addr = loop {
            match std::fs::read_to_string(&ready) {
                Ok(s) if s.ends_with('\n') => break s.trim().to_string(),
                _ if tries > 1000 => panic!("{name} daemon never became ready"),
                _ => {
                    tries += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };
        Daemon { addr, thread }
    }

    /// Shuts the daemon down and waits for a clean exit.
    fn stop(self) {
        Client::connect(self.addr.as_str())
            .and_then(|mut c| c.shutdown_server())
            .expect("shutdown");
        self.thread
            .join()
            .expect("join daemon")
            .expect("daemon exit");
    }
}

/// Residency is the whole point of the daemon: a warm estimate over a
/// persistent connection must be at least 5x faster at p50 than a full
/// cold `catalog-estimate` run (CSV parse, statistics build, estimate),
/// both driven in process.
#[test]
#[ignore = "timing gate: release build, run by its own CI step"]
fn warm_server_p50_is_5x_below_cold_cli() {
    let _serial = serial();
    let scratch = Scratch::new();
    let (a_csv, b_csv) = scratch.datasets();
    let level = LEVEL.to_string();
    let cold: Vec<f64> = (0..COLD_ITERS)
        .map(|_| {
            let t = Instant::now();
            let out = cli(&["catalog-estimate", &a_csv, &b_csv, "--level", &level]);
            let us = micros(t);
            assert!(out.stdout.contains("selectivity"), "{}", out.stdout);
            us
        })
        .collect();

    let daemon = Daemon::boot(&scratch, (&a_csv, &b_csv), &[], "warm");
    let mut client = Client::connect(daemon.addr.as_str()).expect("connect");
    for _ in 0..WARM_WARMUP {
        client.estimate("bench_a", "bench_b").expect("warmup");
    }
    let warm: Vec<f64> = (0..WARM_ITERS)
        .map(|_| {
            let t = Instant::now();
            let r = client.estimate("bench_a", "bench_b").expect("estimate");
            let us = micros(t);
            assert!(r.selectivity.is_finite());
            us
        })
        .collect();
    drop(client);
    daemon.stop();

    let (cold, warm) = (p50(cold), p50(warm));
    let speedup = cold / warm;
    println!("warm/cold: cold p50 {cold:.0} us vs warm p50 {warm:.0} us: {speedup:.1}x (floor 5x)");
    assert!(
        speedup >= 5.0,
        "warm-server p50 must be at least 5x below cold-CLI p50, got {speedup:.2}x"
    );
}

/// Constant-in-|D| maintenance is the whole point of the incremental
/// path: at the largest scale, one GH delta operation (build the signed
/// delta from the batch, then apply it) must cost at most a tenth of a
/// full rebuild over the mutated dataset.
#[test]
#[ignore = "timing gate: release build, run by its own CI step"]
fn gh_delta_op_is_10x_a_full_rebuild() {
    let _serial = serial();
    let grid = Grid::new(LEVEL, Extent::unit()).expect("level within bounds");
    let speedups: Vec<f64> = DELTA_SCALES
        .iter()
        .map(|&scale| delta_speedup(grid, scale))
        .collect();
    let largest = speedups[speedups.len() - 1];
    assert!(
        largest >= 10.0,
        "a GH delta op must be at least 10x faster than a full rebuild at \
         the largest scale, got {largest:.2}x"
    );
}

/// Rebuild time over delta-op time at one scale. Forward and inverse
/// batches alternate, so the maintained histogram returns to its base
/// bytes every second operation with no untimed clone in the loop.
fn delta_speedup(grid: Grid, scale: f64) -> f64 {
    let base = presets::scrc(scale).rects;
    let donor = presets::sura(scale).rects;
    let inserts: Vec<Rect> = donor.iter().copied().take(DELTA_INSERTS).collect();
    let deletes: Vec<Rect> = base.iter().copied().take(DELTA_DELETES).collect();
    let target: Vec<Rect> = base
        .iter()
        .skip(DELTA_DELETES)
        .chain(&inserts)
        .copied()
        .collect();

    let t = Instant::now();
    for _ in 0..DELTA_ROUNDS {
        let h = build_histogram(HistogramKind::Gh, grid, &target);
        assert_eq!(h.dataset_len(), target.len());
    }
    let rebuild_secs = t.elapsed().as_secs_f64() / DELTA_ROUNDS as f64;

    let mut maintained = build_histogram(HistogramKind::Gh, grid, &base);
    let before = maintained.persist();
    let t = Instant::now();
    for _ in 0..DELTA_ROUNDS {
        let forward = HistogramDelta::build(HistogramKind::Gh, grid, &inserts, &deletes);
        maintained.apply_delta(&forward).expect("forward applies");
        let inverse = HistogramDelta::build(HistogramKind::Gh, grid, &deletes, &inserts);
        maintained.apply_delta(&inverse).expect("inverse applies");
    }
    let delta_secs = t.elapsed().as_secs_f64() / (2 * DELTA_ROUNDS) as f64;
    assert_eq!(
        maintained.persist(),
        before,
        "forward/inverse maintenance must return to the base state"
    );

    let speedup = rebuild_secs / delta_secs;
    println!(
        "delta: scale {scale:.3} ({} objects): rebuild {:.2} ms vs delta op {:.2} ms: \
         {speedup:.1}x",
        base.len(),
        rebuild_secs * 1e3,
        delta_secs * 1e3
    );
    speedup
}

/// The mutation batch both paths insert and then delete: fresh
/// rectangles in a band the seeded datasets leave sparse, so each
/// insert+delete pair returns the daemon to its base state.
fn mutation_batch() -> Vec<Rect> {
    (0..MUT_BATCH)
        .map(|j| {
            let x = (j as f64 * 0.0171) % 0.9 + 0.01;
            Rect::new(x, 0.93, x + 0.012, 0.96)
        })
        .collect()
}

/// One timed round trip of the baseline mutation path: a hand-built
/// wire frame with the unstamped `(0, 0)` mutation ID over a plain
/// socket with no deadlines. Encoding is timed, as the client pays it.
fn baseline_mutation_us(stream: &mut TcpStream, op: Opcode, rects: &[Rect]) -> f64 {
    let t = Instant::now();
    let mut p = Vec::new();
    wire::put_str(&mut p, "bench_a");
    wire::put_u64(&mut p, 0); // unstamped token
    wire::put_u64(&mut p, 0); // unstamped seq
    wire::put_u32(
        &mut p,
        u32::try_from(rects.len()).expect("batch fits in u32"),
    );
    for r in rects {
        wire::put_f64(&mut p, r.xlo);
        wire::put_f64(&mut p, r.ylo);
        wire::put_f64(&mut p, r.xhi);
        wire::put_f64(&mut p, r.yhi);
    }
    Frame::request(op, p)
        .write_to(stream)
        .expect("write request");
    let reply = Frame::read_from(stream).expect("read reply");
    assert_eq!(
        reply.opcode,
        op.response(),
        "baseline mutation must answer with its success opcode"
    );
    micros(t)
}

/// One timed round trip of the hardened mutation path: the real client
/// stamps a fresh mutation ID and wraps the call in its retry loop, and
/// both sides run under I/O deadlines.
fn hardened_mutation_us(client: &mut Client, insert: bool, rects: &[Rect]) -> f64 {
    let t = Instant::now();
    let reply = if insert {
        client.insert_batch_with_retry("bench_a", rects)
    } else {
        client.delete_batch_with_retry("bench_a", rects)
    }
    .expect("hardened mutation must succeed");
    assert!(!reply.deduplicated, "fresh stamps never dedup");
    micros(t)
}

/// Durability and exactly-once semantics must not tax the common case:
/// stamped, deadline-bounded mutations against an admission-limited
/// daemon (DESIGN.md §14) may cost at most 5% over unstamped ones with
/// no deadlines against a default daemon, at p50. Rounds interleave the
/// two paths so clock drift and cache state cancel.
#[test]
#[ignore = "timing gate: release build, run by its own CI step"]
fn hardened_mutation_path_is_within_5pct_of_baseline() {
    let _serial = serial();
    let scratch = Scratch::new();
    let (a_csv, b_csv) = scratch.datasets();
    let tables = (a_csv.as_str(), b_csv.as_str());
    let base_daemon = Daemon::boot(&scratch, tables, &[], "baseline");
    let hard_daemon = Daemon::boot(
        &scratch,
        tables,
        &["--max-connections", "64", "--io-timeout-ms", "5000"],
        "hardened",
    );
    let mut hardened = Client::connect(hard_daemon.addr.as_str()).expect("connect hardened");
    hardened
        .set_io_timeout(Some(Duration::from_millis(5000)))
        .expect("client deadline");
    let mut baseline = TcpStream::connect(base_daemon.addr.as_str()).expect("connect baseline");
    let rects = mutation_batch();
    for _ in 0..MUT_WARMUP_PAIRS {
        baseline_mutation_us(&mut baseline, Opcode::InsertBatch, &rects);
        baseline_mutation_us(&mut baseline, Opcode::DeleteBatch, &rects);
        hardened_mutation_us(&mut hardened, true, &rects);
        hardened_mutation_us(&mut hardened, false, &rects);
    }
    let ops_per_path = MUT_ROUNDS * MUT_PAIRS_PER_ROUND * 2;
    let mut base_us = Vec::with_capacity(ops_per_path);
    let mut hard_us = Vec::with_capacity(ops_per_path);
    for _ in 0..MUT_ROUNDS {
        for _ in 0..MUT_PAIRS_PER_ROUND {
            base_us.push(baseline_mutation_us(
                &mut baseline,
                Opcode::InsertBatch,
                &rects,
            ));
            base_us.push(baseline_mutation_us(
                &mut baseline,
                Opcode::DeleteBatch,
                &rects,
            ));
        }
        for _ in 0..MUT_PAIRS_PER_ROUND {
            hard_us.push(hardened_mutation_us(&mut hardened, true, &rects));
            hard_us.push(hardened_mutation_us(&mut hardened, false, &rects));
        }
    }
    drop((baseline, hardened));
    hard_daemon.stop();
    base_daemon.stop();

    let (base, hard) = (p50(base_us), p50(hard_us));
    let ratio = hard / base;
    println!(
        "mutation: baseline p50 {base:.1} us vs hardened p50 {hard:.1} us: {ratio:.3}x \
         (ceiling 1.05x)"
    );
    assert!(
        ratio <= 1.05,
        "the hardened mutation path must cost at most 5% over the \
         unstamped/no-deadline baseline, got {ratio:.3}x"
    );
}

/// The rank discipline of `sj_core::sync` (DESIGN.md §15) is debug-only
/// and must compile away where performance counts: in release, an
/// uncontended `OrderedMutex` lock/unlock may cost at most 2% (or
/// 2 ns) over a raw `std::sync::Mutex`. Both sides run the same loop
/// shape, trials interleave, and the best trial of each side is
/// compared. A debug build carries the discipline by design and only
/// reports.
#[test]
#[ignore = "timing gate: release build, run by its own CI step"]
fn ordered_mutex_is_within_2pct_of_raw_lock() {
    let _serial = serial();
    // The raw std lock is the comparison baseline; ranking it would
    // measure the wrapper against itself.
    let raw = Mutex::new(0u64);
    let ordered = OrderedMutex::new(LockRank::Catalog, "perf_gates.sync", 0u64);
    let mut raw_ns = f64::INFINITY;
    let mut ordered_ns = f64::INFINITY;
    for _ in 0..SYNC_TRIALS {
        let t = Instant::now();
        for i in 0..SYNC_OPS {
            *raw.lock().expect("gate mutex") += i as u64 & 1;
        }
        raw_ns = raw_ns.min(t.elapsed().as_secs_f64() * 1e9 / SYNC_OPS as f64);
        let t = Instant::now();
        for i in 0..SYNC_OPS {
            *ordered.lock() += i as u64 & 1;
        }
        ordered_ns = ordered_ns.min(t.elapsed().as_secs_f64() * 1e9 / SYNC_OPS as f64);
    }
    // Keep the counters observable so the loops cannot be elided.
    let raw_total = *black_box(&raw).lock().expect("gate mutex");
    let ordered_total = *black_box(&ordered).lock();
    assert_eq!(raw_total, ordered_total, "both sides did the same work");

    let ratio = ordered_ns / raw_ns;
    let extra_ns = ordered_ns - raw_ns;
    let release = !cfg!(debug_assertions);
    println!(
        "sync: raw {raw_ns:.2} ns/op vs ordered {ordered_ns:.2} ns/op: {ratio:.3}x \
         (release ceiling 1.02x or +{SYNC_NOISE_NS} ns; {} build)",
        if release { "release" } else { "debug" }
    );
    assert!(
        !release || ratio <= 1.02 || extra_ns <= SYNC_NOISE_NS,
        "the ranked lock wrapper must cost at most 2% over the raw std lock \
         in release builds, got {ratio:.3}x (+{extra_ns:.2} ns/op)"
    );
}

/// Times a short operation: [`KERNEL_REPS`] calls per sample so timer
/// granularity cannot dominate, after a warmup pass; returns the p50 µs
/// per call.
fn kernel_p50_us(mut f: impl FnMut()) -> f64 {
    for _ in 0..KERNEL_WARMUP {
        f();
    }
    let samples = (0..KERNEL_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..KERNEL_REPS {
                f();
            }
            micros(t) / KERNEL_REPS as f64
        })
        .collect();
    p50(samples)
}

/// The SoA layer must pay for itself where occupancy is densest: the GH
/// estimate served from the resident views (the path a warm server
/// runs) must be at least 1.5x faster at p50 than the retained scalar
/// loop `GhHistogram::estimate_scalar`. Both the call that decodes the
/// views and a cached call must first be bit-identical to the scalar
/// loop: a fast wrong kernel fails here rather than report a speedup.
#[test]
#[ignore = "timing gate: release build, run by its own CI step"]
fn gh_kernel_is_1_5x_the_scalar_loop() {
    let _serial = serial();
    let grid = Grid::new(LEVEL, Extent::unit()).expect("level within bounds");
    let g1 = GhHistogram::build(grid, &presets::scrc(SCALE).rects);
    let g2 = GhHistogram::build(grid, &presets::sura(SCALE).rects);
    let expected = g1.estimate_scalar(&g2).expect("grids match");
    for call in ["decoding", "cached"] {
        let got = g1.estimate_join(&g2).expect("grids match");
        assert_eq!(
            got.selectivity.to_bits(),
            expected.selectivity.to_bits(),
            "the {call} kernel-path estimate must be bit-identical to the scalar loop"
        );
    }

    let scalar = kernel_p50_us(|| {
        black_box(g1.estimate_scalar(&g2).expect("grids match"));
    });
    let kernel = kernel_p50_us(|| {
        black_box(g1.estimate_join(&g2).expect("grids match"));
    });
    let speedup = scalar / kernel;
    println!(
        "kernel: gh at scale {SCALE} ({}+{} of {} cells occupied): scalar p50 {scalar:.2} us \
         vs kernel p50 {kernel:.2} us: {speedup:.2}x (floor 1.5x)",
        g1.occupied_cells(),
        g2.occupied_cells(),
        grid.num_cells()
    );
    assert!(
        speedup >= 1.5,
        "the GH kernel estimate must run at least 1.5x faster than the \
         scalar loop at scale {SCALE}, got {speedup:.2}x"
    );
}

/// The parallel exact join must scale: SCRC ⋈ SURA at the paper's size
/// (100k x 100k R-tree join) at least 2x faster at 4 threads than at 1,
/// best of three each. The bound only means something on a host that
/// can run four workers, so with fewer cores the gate reports the
/// speedup and skips the assertion.
#[test]
#[ignore = "timing gate: release build, run by its own CI step"]
fn rtree_join_is_2x_at_4_threads() {
    let _serial = serial();
    let (a, b) = presets::PaperJoin::ScrcSura.datasets(JOIN_SCALE);
    let ta = RTree::bulk_load_str(RTreeConfig::default(), &a.rects);
    let tb = RTree::bulk_load_str(RTreeConfig::default(), &b.rects);
    let best_of = |threads: usize| {
        (0..JOIN_RUNS)
            .map(|_| {
                let t = Instant::now();
                black_box(sj_core::join_count_parallel(&ta, &tb, threads));
                t.elapsed()
            })
            .min()
            .expect("timed runs")
    };
    let one = best_of(1);
    let four = best_of(4);
    let speedup = one.as_secs_f64() / four.as_secs_f64().max(f64::MIN_POSITIVE);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "join_scaling/speedup: {speedup:.2}x at 4 threads ({one:?} serial vs {four:?}) on \
         {}x{} rects, {cores} host cores",
        a.rects.len(),
        b.rects.len(),
    );
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "join_scaling/speedup: expected >= 2x at 4 threads on a {cores}-core host, \
             got {speedup:.2}x"
        );
    } else {
        println!(
            "join_scaling/speedup: skipping the 2x acceptance gate \
             ({cores} host core(s)); measured {speedup:.2}x"
        );
    }
}
