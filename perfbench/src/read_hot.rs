//! `read-hot`: a daemon over all eight presets, two closed-loop client
//! connections, every request on unchanged statistics.

use crate::daemon::Daemon;
use crate::data::{self, LEVEL};
use crate::layers::{self, Probe, Replay};
use crate::trace::Tracer;
use crate::util::{us, Rng};
use crate::{Ctx, E2e, Outcome, PerLayer};
use sj_core::sync::{LockRank, OrderedRwLock};
use sj_core::Rect;
use sj_query::DegradationPolicy;
use sj_server::{CatalogService, Client, EstimateReply, RemoteOutcome, StatisticsService};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

const TABLES: [&str; 8] = ["ts", "tcb", "cas", "car", "sp", "spg", "scrc", "sura"];
const CONNECTIONS: usize = 2;
const WINDOWS: usize = 64;
const CHAINS: usize = 32;

/// Reference answers, computed in process from the same CSV files.
struct Refs {
    est: Vec<EstimateReply>,
    cat: Vec<RemoteOutcome>,
    windows: Vec<(usize, Rect)>,
    window_counts: Vec<f64>,
    chains: Vec<Vec<String>>,
    explains: Vec<String>,
    exact: Vec<u64>,
}

#[derive(Clone, Copy)]
enum Req {
    Estimate(usize, usize),
    CatalogEstimate(usize, usize),
    Window(usize),
    Explain(usize),
}

fn draw(rng: &mut Rng) -> Req {
    let n = TABLES.len();
    let u = rng.unit();
    if u < 0.85 {
        Req::Estimate(rng.below(n), rng.below(n))
    } else if u < 0.90 {
        Req::CatalogEstimate(rng.below(n), rng.below(n))
    } else if u < 0.95 {
        Req::Window(rng.below(WINDOWS))
    } else {
        Req::Explain(rng.below(CHAINS))
    }
}

#[derive(Default)]
struct ConnResult {
    read: [Vec<f64>; 2],
    other: [Vec<f64>; 2],
    attempted: u64,
    failed: u64,
    served: BTreeSet<(usize, usize)>,
    seen: BTreeSet<usize>,
    estimates: u64,
    reused: u64,
    traced: Vec<Replay>,
    first_error: Option<String>,
}

fn same_outcome(got: &RemoteOutcome, want: &RemoteOutcome) -> bool {
    got.pairs.to_bits() == want.pairs.to_bits()
        && got.selectivity.to_bits() == want.selectivity.to_bits()
        && got.tier_name == want.tier_name
        && got.tier_display == want.tier_display
        && got.degraded == want.degraded
        && got.skipped == want.skipped
}

fn connection(
    ctx: &Ctx,
    addr: std::net::SocketAddr,
    c: usize,
    refs: &Refs,
    tracer: &Tracer,
) -> ConnResult {
    let mut res = ConnResult::default();
    let mut client = match Client::connect(addr) {
        Ok(cl) => cl,
        Err(e) => {
            res.attempted = 1;
            res.failed = 1;
            res.first_error = Some(format!("connect: {e}"));
            return res;
        }
    };
    let mut rng = Rng::new(ctx.seed, 100 + c as u64);
    let t_start = Instant::now();
    let mut k = 0u64;
    while t_start.elapsed().as_secs_f64() < ctx.seconds {
        // Trace runs alternate untraced and traced rounds, so the
        // tracing overhead is a difference within one run.
        let traced =
            ctx.trace && (t_start.elapsed().as_secs_f64() / ctx.round_secs()) as u64 % 2 == 1;
        let req = draw(&mut rng);
        let id = ((c as u64 + 1) << 40) | k;
        k += 1;
        res.attempted += 1;
        let t0 = Instant::now();
        let (ok, name, is_read, err) = match req {
            Req::Estimate(i, j) => match client.estimate(TABLES[i], TABLES[j]) {
                Ok(r) => {
                    let want = refs.est[i * TABLES.len() + j];
                    let ok = r.pairs.to_bits() == want.pairs.to_bits()
                        && r.selectivity.to_bits() == want.selectivity.to_bits();
                    (ok, "client.estimate", true, None)
                }
                Err(e) => (false, "client.estimate", true, Some(e.to_string())),
            },
            Req::CatalogEstimate(i, j) => match client.catalog_estimate(TABLES[i], TABLES[j]) {
                Ok(o) => (
                    same_outcome(&o, &refs.cat[i * TABLES.len() + j]),
                    "client.catalog_estimate",
                    false,
                    None,
                ),
                Err(e) => (false, "client.catalog_estimate", false, Some(e.to_string())),
            },
            Req::Window(w) => {
                let (ti, rect) = refs.windows[w];
                match client.window_count(TABLES[ti], &rect) {
                    Ok(n) => (
                        n.to_bits() == refs.window_counts[w].to_bits(),
                        "client.window_count",
                        false,
                        None,
                    ),
                    Err(e) => (false, "client.window_count", false, Some(e.to_string())),
                }
            }
            Req::Explain(ch) => match client.explain(&refs.chains[ch]) {
                Ok(text) => (text == refs.explains[ch], "client.explain", false, None),
                Err(e) => (false, "client.explain", false, Some(e.to_string())),
            },
        };
        let t1 = Instant::now();
        let lat = us(t1 - t0);
        if traced {
            tracer.record(name, id, None, t0, t1);
        }
        if !ok {
            res.failed += 1;
            if res.first_error.is_none() {
                res.first_error = Some(err.unwrap_or_else(|| format!("wrong answer to {name}")));
            }
            continue;
        }
        let round = usize::from(traced);
        if is_read {
            res.read[round].push(lat);
            if let Req::Estimate(i, j) = req {
                res.served.insert((i, j));
                res.estimates += 1;
                // Statistics never change here: an estimate reuses them
                // once both tables were estimated before.
                if res.seen.contains(&i) && res.seen.contains(&j) {
                    res.reused += 1;
                }
                res.seen.insert(i);
                res.seen.insert(j);
                if traced {
                    res.traced.push(Replay {
                        req: id,
                        a: TABLES[i].to_string(),
                        b: TABLES[j].to_string(),
                        rtt_us: lat,
                    });
                }
            }
        } else {
            res.other[round].push(lat);
        }
    }
    res
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = if ctx.tiny { 0.002 } else { 0.05 };
    let csv = data::write_tables(&ctx.work.join("data"), &TABLES, scale);
    let datasets: Vec<_> = csv.iter().map(|p| data::load(p)).collect();
    let n = TABLES.len();

    // Reference answers and exact counts, before any setup timing.
    let service = CatalogService::new(
        Arc::new(OrderedRwLock::new(
            LockRank::Catalog,
            "bench.reference",
            data::catalog(&datasets),
        )),
        DegradationPolicy::default(),
    );
    let mut rng = Rng::new(ctx.seed, 1);
    let windows: Vec<(usize, Rect)> = (0..WINDOWS)
        .map(|_| (rng.below(n), data::window(&mut rng)))
        .collect();
    // Chain lengths cycle 2, 3, 4 so the plan cost mix is the same for
    // every seed; the seed picks the tables.
    let chains: Vec<Vec<String>> = (0..CHAINS)
        .map(|i| {
            let len = 2 + i % 3;
            let mut pool: Vec<usize> = (0..n).collect();
            (0..len)
                .map(|_| TABLES[pool.swap_remove(rng.below(pool.len()))].to_string())
                .collect()
        })
        .collect();
    let mut refs = Refs {
        est: Vec::new(),
        cat: Vec::new(),
        window_counts: windows
            .iter()
            .map(|(t, w)| service.window_count(TABLES[*t], w))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?,
        explains: chains
            .iter()
            .map(|c| service.explain(c))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?,
        windows,
        chains,
        exact: vec![0; n * n],
    };
    for a in TABLES {
        for b in TABLES {
            refs.est
                .push(service.estimate(a, b).map_err(|e| e.to_string())?);
            refs.cat
                .push(service.catalog_estimate(a, b).map_err(|e| e.to_string())?);
        }
    }
    let mut exact_ms = Vec::new();
    for i in 0..n {
        for j in i..n {
            let (pairs, d) = data::exact(&datasets[i], &datasets[j], ctx.nproc);
            refs.exact[i * n + j] = pairs;
            refs.exact[j * n + i] = pairs;
            exact_ms.push(us(d) / 1e3);
        }
    }
    if ctx.sabotage {
        // One flipped reference bit: every ts⋈tcb estimate must fail.
        let r = &mut refs.est[1];
        r.pairs = f64::from_bits(r.pairs.to_bits() ^ 1);
    }

    // Setup: boot to ready file, several times; the last daemon serves.
    let mut args: Vec<String> = csv.iter().map(|p| p.display().to_string()).collect();
    args.extend(["--level".to_string(), LEVEL.to_string()]);
    let (daemon, setups) = Daemon::boot_setups(ctx, |_| args.clone())?;

    let tracer = Tracer::new();
    let started = Instant::now();
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (refs, tracer, addr) = (&refs, &tracer, daemon.addr);
                s.spawn(move || connection(ctx, addr, c, refs, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut e2e = E2e::new(setups, elapsed);
    let mut served = BTreeSet::new();
    let (mut estimates, mut reused) = (0, 0);
    let mut replays = Vec::new();
    for r in results {
        e2e.absorb(&r.read, &r.other, r.attempted, r.failed, r.first_error);
        served.extend(r.served);
        estimates += r.estimates;
        reused += r.reused;
        replays.extend(r.traced);
    }
    let errs: Vec<f64> = served
        .iter()
        .filter_map(|&(i, j)| data::rel_err(refs.est[i * n + j].pairs, refs.exact[i * n + j]))
        .collect();
    e2e.est_rel_err = crate::util::mean(&errs);

    let mut layered = None;
    if ctx.trace {
        let pings = daemon.ping_rtts(ctx.iters * 4)?;
        replays.truncate(ctx.iters * 4);
        let probe = Probe {
            tracer: &tracer,
            work: &ctx.work,
            seed: ctx.seed,
            iters: ctx.iters,
            reps: ctx.reps,
            csv: &csv,
            service: &service,
            pairs: (0..ctx.iters)
                .map(|_| {
                    (
                        TABLES[rng.below(n)].to_string(),
                        TABLES[rng.below(n)].to_string(),
                    )
                })
                .collect(),
            chains: refs.chains.clone(),
            windows: refs
                .windows
                .iter()
                .map(|(t, w)| (TABLES[*t].to_string(), *w))
                .collect(),
            batch: layers::probe_batch(ctx.seed),
            write_tables: vec!["scrc".to_string(), "sura".to_string()],
            mutation_frames: false,
            concurrent_reader: false,
            fresh_after_delta: false,
            exact_ms,
            replays,
        };
        let mut l = layers::run(&probe);
        layers::put_client(&mut l, &tracer, &pings);
        l.put(
            "catalog.stats_reuse_share",
            reused as f64 / estimates.max(1) as f64,
            "ratio",
        );
        layered = Some(PerLayer { layers: l, tracer });
    }
    e2e.peak_rss_mb = daemon.peak_rss_mb();
    daemon.shutdown()?;
    Ok(Outcome::build(ctx, e2e, layered, &ALIASES))
}

pub const ALIASES: [(&str, &str); 7] = [
    ("setup_s", "setup_s"),
    ("read_p50_us", "read_p50_us"),
    ("read_p99_us", "read.p99"),
    ("read_ops_s", "read_ops_s"),
    ("est_rel_err", "est_rel_err"),
    ("failed_frac", "failed"),
    ("peak_rss_mb", "peak_rss_mb"),
];
