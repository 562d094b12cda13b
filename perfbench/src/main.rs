//! The repository benchmark.
//!
//! ```text
//! perfbench --workload read-hot|read-write|oneshot-cli --seed N
//!           --seconds S --trace 0|1 --sjsel PATH [--tiny] [--sabotage]
//! ```
//!
//! Each workload generates its inputs from the seed, hands them to the
//! `sjsel` binary (a daemon, or one process per call), drives it in a
//! closed loop for `--seconds`, and checks every answer against a
//! reference computed in process from the same input files. With
//! `--trace 0` the last line of standard output carries the end-to-end
//! metrics; with `--trace 1` the run alternates untraced and traced
//! rounds, probes each layer's public functions in process, and the
//! last line carries the per-layer metrics. `--tiny` shrinks every
//! input for the self-test; `--sabotage` flips one bit of one reference
//! answer, so the oracle must fail the run.
//!
//! `perfbench/README.md` defines the workloads, the metrics and which
//! end-to-end metric each layer metric should move.

mod daemon;
mod data;
mod layers;
mod oneshot;
mod read_hot;
mod read_write;
mod trace;
mod util;

use layers::Layered;
use std::path::PathBuf;
use trace::Tracer;
use util::{median, summarize, Metric};

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("read_tail_us", "us"),
    ("read_ops_s", "1/s"),
    ("other_p50_us", "us"),
    ("other_tail_us", "us"),
    ("other_ops_s", "1/s"),
    ("est_rel_err", "ratio"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("client.ping_rtt_us", "us"),
    ("client.estimate_rtt_us", "us"),
    ("client.unexplained_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.request_bytes", "bytes"),
    ("wire.reply_bytes", "bytes"),
    ("server.handle_request_us", "us"),
    ("server.self_us", "us"),
    ("service.estimate_us", "us"),
    ("service.catalog_estimate_us", "us"),
    ("service.window_count_us", "us"),
    ("service.explain_us", "us"),
    ("service.insert_batch_us", "us"),
    ("service.delete_batch_us", "us"),
    ("service.read_lock_wait_us", "us"),
    ("service.self_us", "us"),
    ("catalog.histogram_lookup_us", "us"),
    ("catalog.ladder_us", "us"),
    ("catalog.plan_us", "us"),
    ("catalog.degraded_share", "ratio"),
    ("catalog.stats_reuse_share", "ratio"),
    ("catalog.self_us", "us"),
    ("histogram.estimate_join_us", "us"),
    ("histogram.estimate_join_fresh_us", "us"),
    ("histogram.window_count_us", "us"),
    ("histogram.self_us", "us"),
    ("build.histogram_ms", "ms"),
    ("build.rects_per_s", "rects/s"),
    ("persist.encode_us", "us"),
    ("persist.load_us", "us"),
    ("delta.build_us", "us"),
    ("delta.apply_us", "us"),
    ("store.prepare_us", "us"),
    ("store.wal_append_us", "us"),
    ("store.commit_us", "us"),
    ("store.compact_plan_us", "us"),
    ("store.compact_persist_us", "us"),
    ("store.compact_finish_us", "us"),
    ("store.open_ms", "ms"),
    ("store.bytes_written_per_rect", "bytes"),
    ("store.compactions_per_1k_writes", "count"),
    ("datagen.csv_load_ms", "ms"),
    ("exact.join_ms", "ms"),
    ("paper.est_over_join_pct", "%"),
    ("trace.overhead_read_p50_us", "us"),
    ("trace.overhead_other_p50_us", "us"),
    ("trace.read_p50_untraced_us", "us"),
    ("trace.read_p50_traced_us", "us"),
    ("trace.spans", "count"),
];

/// Run settings shared by every workload.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub sabotage: bool,
    pub sjsel: PathBuf,
    /// Scratch directory of this run, removed when it ends.
    pub work: PathBuf,
    /// Where trace spans are written.
    pub out: PathBuf,
    pub nproc: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Iterations of each cheap layer probe.
    pub iters: usize,
    /// Repetitions of the whole-input layer probes.
    pub reps: usize,
}

impl Ctx {
    /// Length of one untraced or traced round of a trace run: at most a
    /// second, and short enough for ten rounds per run.
    pub fn round_secs(&self) -> f64 {
        (self.seconds / 10.0).min(1.0)
    }
}

/// End-to-end samples of one run. Index 0 of each latency pair holds
/// untraced rounds, index 1 traced rounds.
pub struct E2e {
    pub setups: Vec<f64>,
    pub elapsed: f64,
    pub read: [Vec<f64>; 2],
    pub other: [Vec<f64>; 2],
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub est_rel_err: f64,
    pub peak_rss_mb: f64,
}

impl E2e {
    pub fn new(setups: Vec<f64>, elapsed: f64) -> Self {
        Self {
            setups,
            elapsed,
            read: [Vec::new(), Vec::new()],
            other: [Vec::new(), Vec::new()],
            attempted: 0,
            failed: 0,
            first_error: None,
            est_rel_err: f64::NAN,
            peak_rss_mb: f64::NAN,
        }
    }

    pub fn absorb(
        &mut self,
        read: &[Vec<f64>; 2],
        other: &[Vec<f64>; 2],
        attempted: u64,
        failed: u64,
        first_error: Option<String>,
    ) {
        for k in 0..2 {
            self.read[k].extend_from_slice(&read[k]);
            self.other[k].extend_from_slice(&other[k]);
        }
        self.attempted += attempted;
        self.failed += failed;
        if self.first_error.is_none() {
            self.first_error = first_error;
        }
    }
}

/// A trace run's per-layer results and its spans.
pub struct PerLayer {
    pub layers: Layered,
    pub tracer: Tracer,
}

/// What a run prints.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Outcome {
    /// Assembles the report. `aliases` maps this workload's names from
    /// the metric table in `perfbench/README.md` onto the common
    /// metrics, for the human-readable lines.
    pub fn build(ctx: &Ctx, e: E2e, per_layer: Option<PerLayer>, aliases: &[(&str, &str)]) -> Self {
        let mut lines = vec![format!(
            "workload {} seed {} seconds {} trace {} nproc {}",
            ctx.workload,
            ctx.seed,
            ctx.seconds,
            u8::from(ctx.trace),
            ctx.nproc
        )];
        let (read, other) = (summarize(&e.read[0]), summarize(&e.other[0]));
        let ok_frac = 1.0 - e.failed as f64 / e.attempted.max(1) as f64;
        let common = [
            Metric::new("setup_s", median(&e.setups), "s"),
            Metric::new("read_p50_us", read.p50, "us"),
            Metric::new("read_tail_us", read.tail, "us"),
            Metric::new("read_ops_s", read.n as f64 / e.elapsed, "1/s"),
            Metric::new("other_p50_us", other.p50, "us"),
            Metric::new("other_tail_us", other.tail, "us"),
            Metric::new("other_ops_s", other.n as f64 / e.elapsed, "1/s"),
            Metric::new("est_rel_err", e.est_rel_err, "ratio"),
            Metric::new("ok_frac", ok_frac, "ratio"),
            Metric::new("peak_rss_mb", e.peak_rss_mb, "MiB"),
        ];
        lines.push(format!(
            "samples: read {} (tail = p{:.1}; p{:.1} {} us), other {} (tail = p{:.1}; p{:.1} {} us), setups {:?} s",
            read.n,
            read.tail_q * 100.0,
            read.far_q * 100.0,
            read.far,
            other.n,
            other.tail_q * 100.0,
            other.far_q * 100.0,
            other.far,
            e.setups
        ));
        for (alias, target) in aliases {
            let (v, how) = match *target {
                "failed" => (
                    e.failed as f64 / e.attempted.max(1) as f64,
                    "gated as 1 - ok_frac".to_string(),
                ),
                "read.p50_ms" => (read.p50 / 1e3, "gated as read_p50_us".to_string()),
                "other.p50_ms" => (other.p50 / 1e3, "gated as other_p50_us".to_string()),
                "read.p99" => (read.far, "text only".to_string()),
                "other.p99" => (other.far, "text only".to_string()),
                name => (
                    common
                        .iter()
                        .find(|m| m.name == name)
                        .map_or(f64::NAN, |m| m.value),
                    format!("gated as {name}"),
                ),
            };
            lines.push(format!("  {alias} = {v} ({how})"));
        }
        if let Some(err) = &e.first_error {
            lines.push(format!("first failure: {err}"));
        }
        let (metrics, probe_attempted, probe_failed) = match per_layer {
            None => (common.to_vec(), 0, 0),
            Some(PerLayer { mut layers, tracer }) => {
                let untraced = median(&e.read[0]);
                let traced = median(&e.read[1]);
                layers.put("trace.read_p50_untraced_us", untraced, "us");
                layers.put("trace.read_p50_traced_us", traced, "us");
                layers.put("trace.overhead_read_p50_us", traced - untraced, "us");
                layers.put(
                    "trace.overhead_other_p50_us",
                    median(&e.other[1]) - median(&e.other[0]),
                    "us",
                );
                let spans = tracer.snapshot().len();
                layers.put("trace.spans", spans as f64, "count");
                let path = ctx
                    .out
                    .join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
                match tracer.write_jsonl(&path) {
                    Ok(()) => lines.push(format!("{spans} spans written to {}", path.display())),
                    Err(err) => lines.push(format!("writing spans failed: {err}")),
                }
                lines.push(format!(
                    "layer probes: {} answers checked, {} failed",
                    layers.attempted, layers.failures
                ));
                // A metric a probe could not measure prints as null.
                let metrics = PER_LAYER
                    .iter()
                    .map(|&(name, unit)| {
                        layers
                            .metrics
                            .remove(name)
                            .unwrap_or_else(|| Metric::new(name, f64::NAN, unit))
                    })
                    .collect();
                (metrics, layers.attempted, layers.failures)
            }
        };
        for m in &metrics {
            lines.push(format!("{} {} {}", m.name, m.value, m.unit));
        }
        let failed = e.failed + probe_failed;
        Self {
            correct: failed == 0 && e.attempted > 0,
            attempted: e.attempted + probe_attempted,
            failed,
            metrics,
            lines,
        }
    }
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut sjsel) =
        (None, None, None, None, None);
    let (mut tiny, mut sabotage) = (false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => trace = Some(value()? == "1"),
            "--sjsel" => sjsel = Some(PathBuf::from(value()?)),
            "--tiny" => tiny = true,
            "--sabotage" => sabotage = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["read-hot", "read-write", "oneshot-cli"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let sjsel = sjsel.ok_or("--sjsel is required")?;
    let out = PathBuf::from(".bench_out");
    let work = out.join(format!("run-{workload}-{seed}-{}", std::process::id()));
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        sabotage,
        sjsel,
        work,
        out,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        setups: if tiny { 2 } else { 5 },
        iters: if tiny { 8 } else { 300 },
        reps: if tiny { 1 } else { 3 },
    })
}

fn main() {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: creating {}: {e}", ctx.work.display());
        std::process::exit(2);
    }
    let result = match ctx.workload.as_str() {
        "read-hot" => read_hot::run(&ctx),
        "read-write" => read_write::run(&ctx),
        _ => oneshot::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            println!(
                "{}",
                util::result_line(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
            std::process::exit(if outcome.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
