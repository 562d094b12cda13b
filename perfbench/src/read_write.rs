//! `read-write`: a daemon with a statistics directory over SCRC, SURA
//! and TS; one writer connection alternates a fixed stamped 32-rectangle
//! insert and delete on SCRC while one reader connection estimates
//! SCRC⋈SURA and SCRC⋈TS.

use crate::daemon::Daemon;
use crate::data::{self, BATCH_LEN, LEVEL};
use crate::layers::{self, Probe, Replay};
use crate::trace::Tracer;
use crate::util::{mean, us, Rng};
use crate::{Ctx, E2e, Outcome, PerLayer};
use sj_core::sync::{LockRank, OrderedRwLock};
use sj_core::Dataset;
use sj_query::DegradationPolicy;
use sj_server::{CatalogService, Client, EstimateReply, StatisticsService};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const TABLES: [&str; 3] = ["scrc", "sura", "ts"];
const WRITE_TABLE: &str = "scrc";
const PARTNERS: [&str; 2] = ["sura", "ts"];

pub const ALIASES: [(&str, &str); 10] = [
    ("setup_s", "setup_s"),
    ("read_p50_us", "read_p50_us"),
    ("read_p99_us", "read.p99"),
    ("read_ops_s", "read_ops_s"),
    ("write_p50_us", "other_p50_us"),
    ("write_p99_us", "other.p99"),
    ("write_ops_s", "other_ops_s"),
    ("est_rel_err", "est_rel_err"),
    ("failed_frac", "failed"),
    ("peak_rss_mb", "peak_rss_mb"),
];

/// Reference answers per partner: `[base, base + batch]`.
struct Refs {
    est: [[EstimateReply; 2]; 2],
    exact: [[u64; 2]; 2],
}

#[derive(Default)]
struct Side {
    lat: [Vec<f64>; 2],
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    served: BTreeSet<(usize, usize)>,
    estimates: u64,
    reused: u64,
    compactions: u64,
    traced: Vec<Replay>,
}

impl Side {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why);
        }
    }
}

/// Whether the current round of a trace run is a traced one.
fn traced_round(ctx: &Ctx, t_start: Instant) -> bool {
    ctx.trace && (t_start.elapsed().as_secs_f64() / ctx.round_secs()) as u64 % 2 == 1
}

fn writer(
    ctx: &Ctx,
    addr: std::net::SocketAddr,
    batch: &[sj_core::Rect],
    acked: &AtomicU64,
    tracer: &Tracer,
) -> Side {
    let mut side = Side::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            side.attempted = 1;
            side.fail(format!("connect: {e}"));
            return side;
        }
    };
    let t_start = Instant::now();
    let mut w = 0u64;
    // Whole insert/delete pairs: the run ends on the base statistics.
    while t_start.elapsed().as_secs_f64() < ctx.seconds || w % 2 == 1 {
        let traced = traced_round(ctx, t_start);
        let insert = w.is_multiple_of(2);
        w += 1;
        side.attempted += 1;
        let t0 = Instant::now();
        let reply = if insert {
            client.insert_batch_with_retry(WRITE_TABLE, batch)
        } else {
            client.delete_batch_with_retry(WRITE_TABLE, batch)
        };
        let t1 = Instant::now();
        acked.fetch_add(1, Ordering::SeqCst);
        let name = if insert {
            "client.insert_batch"
        } else {
            "client.delete_batch"
        };
        if traced {
            tracer.record(name, (3 << 40) | w, None, t0, t1);
        }
        match reply {
            Ok(r) if r.deduplicated => side.fail(format!("{name} reported a deduplicated stamp")),
            Ok(r) if r.applied as usize != batch.len() => {
                side.fail(format!("{name} applied {} of {}", r.applied, batch.len()));
            }
            Ok(r) => {
                side.compactions += u64::from(r.compacted);
                side.lat[usize::from(traced)].push(us(t1 - t0));
            }
            Err(e) => side.fail(format!("{name}: {e}")),
        }
    }
    side
}

fn reader(
    ctx: &Ctx,
    addr: std::net::SocketAddr,
    refs: &Refs,
    acked: &AtomicU64,
    tracer: &Tracer,
) -> Side {
    let mut side = Side::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            side.attempted = 1;
            side.fail(format!("connect: {e}"));
            return side;
        }
    };
    let mut rng = Rng::new(ctx.seed, 200);
    let mut last_gen: BTreeMap<&str, u64> = BTreeMap::new();
    let t_start = Instant::now();
    let mut k = 0u64;
    while t_start.elapsed().as_secs_f64() < ctx.seconds {
        let traced = traced_round(ctx, t_start);
        let p = rng.below(PARTNERS.len());
        let id = (4 << 40) | k;
        k += 1;
        side.attempted += 1;
        let t0 = Instant::now();
        let reply = client.estimate(WRITE_TABLE, PARTNERS[p]);
        let t1 = Instant::now();
        if traced {
            tracer.record("client.estimate", id, None, t0, t1);
        }
        let r = match reply {
            Ok(r) => r,
            Err(e) => {
                side.fail(format!("estimate: {e}"));
                continue;
            }
        };
        let state = refs.est[p].iter().position(|want| {
            want.pairs.to_bits() == r.pairs.to_bits()
                && want.selectivity.to_bits() == r.selectivity.to_bits()
        });
        let Some(state) = state else {
            side.fail(format!(
                "estimate {WRITE_TABLE}⋈{} matches neither reference",
                PARTNERS[p]
            ));
            continue;
        };
        side.lat[usize::from(traced)].push(us(t1 - t0));
        side.served.insert((p, state));
        side.estimates += 1;
        // SCRC's statistics generation is the count of acknowledged
        // writes; the partners never change.
        let gen = acked.load(Ordering::SeqCst);
        let now = [(WRITE_TABLE, gen), (PARTNERS[p], 0)];
        if now.iter().all(|(t, g)| last_gen.get(t) == Some(g)) {
            side.reused += 1;
        }
        last_gen.extend(now);
        if traced {
            side.traced.push(Replay {
                req: id,
                a: WRITE_TABLE.to_string(),
                b: PARTNERS[p].to_string(),
                rtt_us: us(t1 - t0),
            });
        }
    }
    side
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = if ctx.tiny { 0.002 } else { 0.05 };
    let csv = data::write_tables(&ctx.work.join("data"), &TABLES, scale);
    let datasets: Vec<Dataset> = csv.iter().map(|p| data::load(p)).collect();
    let batch = data::batch(&mut Rng::new(ctx.seed, 2), BATCH_LEN);

    // References for both statistics states, before any setup timing.
    let base = CatalogService::new(
        Arc::new(OrderedRwLock::new(
            LockRank::Catalog,
            "bench.reference",
            data::catalog(&datasets),
        )),
        DegradationPolicy::default(),
    );
    let mut plus = data::catalog(&datasets);
    plus.apply_delta(WRITE_TABLE, &batch, &[])
        .map_err(|e| e.to_string())?;
    let plus = CatalogService::new(
        Arc::new(OrderedRwLock::new(
            LockRank::Catalog,
            "bench.reference",
            plus,
        )),
        DegradationPolicy::default(),
    );
    let base_stats = base
        .catalog()
        .read()
        .histogram(WRITE_TABLE)
        .map_err(|e| e.to_string())?
        .persist()
        .to_vec();
    let mut scrc_plus = datasets[0].clone();
    scrc_plus.rects.extend_from_slice(&batch);
    let mut refs = Refs {
        est: [[EstimateReply {
            selectivity: 0.0,
            pairs: 0.0,
        }; 2]; 2],
        exact: [[0; 2]; 2],
    };
    let mut exact_ms = Vec::new();
    for (p, partner) in PARTNERS.iter().enumerate() {
        let other = &datasets[1 + p];
        refs.est[p][0] = base
            .estimate(WRITE_TABLE, partner)
            .map_err(|e| e.to_string())?;
        refs.est[p][1] = plus
            .estimate(WRITE_TABLE, partner)
            .map_err(|e| e.to_string())?;
        for (s, scrc) in [&datasets[0], &scrc_plus].into_iter().enumerate() {
            let (pairs, d) = data::exact(scrc, other, ctx.nproc);
            refs.exact[p][s] = pairs;
            exact_ms.push(us(d) / 1e3);
        }
    }
    if ctx.sabotage {
        let r = &mut refs.est[0][0];
        r.pairs = f64::from_bits(r.pairs.to_bits() ^ 1);
    }

    // Setup: boot to ready file on a fresh statistics directory, several
    // times; the last daemon serves.
    let stats_dir = |s: usize| ctx.work.join(format!("stats-{s}"));
    let (daemon, setups) = Daemon::boot_setups(ctx, |s| {
        let mut args: Vec<String> = csv.iter().map(|p| p.display().to_string()).collect();
        args.extend([
            "--level".to_string(),
            LEVEL.to_string(),
            "--stats-dir".to_string(),
            stats_dir(s).display().to_string(),
        ]);
        args
    })?;
    let stats_dir = stats_dir(ctx.setups - 1);

    let tracer = Tracer::new();
    let acked = AtomicU64::new(0);
    let started = Instant::now();
    let (w, r) = std::thread::scope(|s| {
        let (addr, batch, refs, acked, tracer) = (daemon.addr, &batch, &refs, &acked, &tracer);
        let wh = s.spawn(move || writer(ctx, addr, batch, acked, tracer));
        let rh = s.spawn(move || reader(ctx, addr, refs, acked, tracer));
        (
            wh.join().expect("writer thread panicked"),
            rh.join().expect("reader thread panicked"),
        )
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut e2e = E2e::new(setups, elapsed);
    e2e.absorb(
        &r.lat,
        &w.lat,
        r.attempted + w.attempted,
        r.failed + w.failed,
        r.first_error.or(w.first_error),
    );
    // Over the base-state answers: the tables are fixed presets, so the
    // error repeats exactly across seeds (the batch state's depends on
    // the seeded batch).
    let errs: Vec<f64> = r
        .served
        .iter()
        .filter(|&&(_, s)| s == 0)
        .filter_map(|&(p, s)| data::rel_err(refs.est[p][s].pairs, refs.exact[p][s]))
        .collect();
    e2e.est_rel_err = mean(&errs);

    // The persisted statistics after the last (delete) write must be
    // the base statistics, byte for byte.
    e2e.attempted += 1;
    let compacted = Client::connect(daemon.addr)
        .and_then(|mut c| c.compact(WRITE_TABLE))
        .map_err(|e| e.to_string());
    let on_disk = std::fs::read(stats_dir.join(format!("{WRITE_TABLE}.hist")));
    match (compacted, on_disk) {
        (Ok(c), Ok(bytes)) if c.persisted && bytes == base_stats => {}
        (c, b) => {
            e2e.failed += 1;
            e2e.first_error.get_or_insert(format!(
                "persisted {WRITE_TABLE} statistics differ from the base (compact: {:?}, file: {})",
                c.map(|c| c.persisted),
                b.map_or_else(|e| e.to_string(), |b| format!("{} bytes", b.len()))
            ));
        }
    }

    let mut layered = None;
    if ctx.trace {
        let pings = daemon.ping_rtts(ctx.iters * 4)?;
        let mut replays = r.traced;
        replays.truncate(ctx.iters * 4);
        let mut rng = Rng::new(ctx.seed, 3);
        let probe = Probe {
            tracer: &tracer,
            work: &ctx.work,
            seed: ctx.seed,
            iters: ctx.iters,
            reps: ctx.reps,
            csv: &csv,
            service: &base,
            pairs: PARTNERS
                .iter()
                .map(|p| (WRITE_TABLE.to_string(), p.to_string()))
                .collect(),
            chains: vec![TABLES.iter().map(|t| t.to_string()).collect()],
            windows: (0..64)
                .map(|_| (WRITE_TABLE.to_string(), data::window(&mut rng)))
                .collect(),
            batch: batch.clone(),
            write_tables: vec![WRITE_TABLE.to_string(), PARTNERS[0].to_string()],
            mutation_frames: true,
            concurrent_reader: true,
            fresh_after_delta: true,
            exact_ms,
            replays,
        };
        let mut l = layers::run(&probe);
        layers::put_client(&mut l, &tracer, &pings);
        l.put(
            "catalog.stats_reuse_share",
            r.reused as f64 / r.estimates.max(1) as f64,
            "ratio",
        );
        layered = Some(PerLayer { layers: l, tracer });
    }
    e2e.peak_rss_mb = daemon.peak_rss_mb();
    daemon.shutdown()?;
    let mut outcome = Outcome::build(ctx, e2e, layered, &ALIASES);
    outcome.lines.insert(
        1,
        format!("writer: {} compaction(s) during the run", w.compactions),
    );
    Ok(outcome)
}
