//! `oneshot-cli`: one `sjsel` process per call, alternating
//! `catalog-estimate` and `exact-join --backend sweep` over SCRC and
//! SURA at the paper's cardinality. No daemon: the cold path.

use crate::data::{self, LEVEL};
use crate::layers::{self, Probe, Replay};
use crate::trace::Tracer;
use crate::util::{children_peak_rss_mb, us, Rng};
use crate::{Ctx, E2e, Outcome, PerLayer};
use sj_core::sync::{LockRank, OrderedRwLock};
use sj_query::DegradationPolicy;
use sj_server::{CatalogService, Client, RemoteOutcome, Server, StatisticsService};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

const TABLES: [&str; 2] = ["scrc", "sura"];

pub const ALIASES: [(&str, &str); 6] = [
    ("setup_s", "setup_s"),
    ("oneshot_estimate_p50_ms", "read.p50_ms"),
    ("oneshot_join_p50_ms", "other.p50_ms"),
    ("est_rel_err", "est_rel_err"),
    ("failed_frac", "failed"),
    ("peak_rss_mb", "peak_rss_mb"),
];

/// Pulls `"key":<number>` out of the CLI's one-line JSON report.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let start = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &text[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

struct Cli {
    sjsel: PathBuf,
    a: PathBuf,
    b: PathBuf,
}

impl Cli {
    fn call(&self, args: &[&str]) -> Result<(String, f64), String> {
        let t0 = Instant::now();
        let out = Command::new(&self.sjsel)
            .arg(args[0])
            .arg(&self.a)
            .arg(&self.b)
            .args(&args[1..])
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .map_err(|e| format!("spawning sjsel: {e}"))?;
        let wall = us(t0.elapsed());
        if !out.status.success() {
            return Err(format!("sjsel {} exited with {}", args[0], out.status));
        }
        Ok((String::from_utf8_lossy(&out.stdout).into_owned(), wall))
    }

    /// Runs `catalog-estimate` and checks it against the reference.
    fn estimate(&self, want: &RemoteOutcome) -> Result<f64, String> {
        let level = LEVEL.to_string();
        let (text, wall) = self.call(&["catalog-estimate", "--level", &level, "--json"])?;
        let pairs = json_number(&text, "pairs");
        let sel = json_number(&text, "selectivity");
        let tier = format!("\"tier\":\"{}\"", want.tier_name);
        let ok = pairs.is_some_and(|p| p.to_bits() == want.pairs.to_bits())
            && sel.is_some_and(|s| s.to_bits() == want.selectivity.to_bits())
            && text.contains(&tier)
            && text.contains(&format!("\"degraded\":{}", want.degraded));
        if ok {
            Ok(wall)
        } else {
            Err(format!("catalog-estimate answered {:?}", text.trim()))
        }
    }

    /// Runs `exact-join --backend sweep` and checks the pair count.
    fn join(&self, want: u64) -> Result<f64, String> {
        let (text, wall) = self.call(&["exact-join", "--backend", "sweep"])?;
        let pairs = text
            .lines()
            .find_map(|l| l.strip_prefix("pairs "))
            .and_then(|p| p.trim().parse::<u64>().ok());
        if pairs == Some(want) {
            Ok(wall)
        } else {
            Err(format!("exact-join answered {:?}", text.lines().next()))
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = if ctx.tiny { 0.01 } else { 1.0 };
    let csv = data::write_tables(&ctx.work.join("data"), &TABLES, scale);
    let datasets: Vec<_> = csv.iter().map(|p| data::load(p)).collect();

    // Reference answer and exact count, before any setup timing.
    let reference = data::catalog(&datasets);
    let mut want = RemoteOutcome::from_outcome(
        &reference
            .estimate_join_pairs_detailed(TABLES[0], TABLES[1], &DegradationPolicy::default())
            .map_err(|e| e.to_string())?,
    );
    let (exact, join_time) = data::exact(&datasets[0], &datasets[1], ctx.nproc);
    let exact_ms = vec![us(join_time) / 1e3];
    let rel_err = data::rel_err(want.pairs, exact).unwrap_or(f64::NAN);
    if ctx.sabotage {
        want.pairs = f64::from_bits(want.pairs.to_bits() ^ 1);
    }
    let cli = Cli {
        sjsel: ctx.sjsel.clone(),
        a: csv[0].clone(),
        b: csv[1].clone(),
    };

    let tracer = Tracer::new();
    let mut setups = Vec::new();
    let mut e2e_attempted = 0u64;
    let mut failed = 0u64;
    let mut first_error = None;
    let mut fail = |why: String, failed: &mut u64| {
        *failed += 1;
        first_error.get_or_insert(why);
    };
    // Setup: the first, unwarmed call, several times.
    for _ in 0..ctx.setups {
        e2e_attempted += 1;
        match cli.estimate(&want) {
            Ok(wall) => setups.push(wall / 1e6),
            Err(e) => fail(e, &mut failed),
        }
    }

    let (mut read, mut other) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
    let started = Instant::now();
    let mut k = 0u64;
    // Whole estimate/join pairs, so both classes complete equally often.
    while k % 2 == 1 || started.elapsed().as_secs_f64() < ctx.seconds {
        // A trace run alternates untraced and traced estimate/join pairs.
        let traced = ctx.trace && (k / 2) % 2 == 1;
        let t0 = Instant::now();
        e2e_attempted += 1;
        let estimate = k.is_multiple_of(2);
        let (result, name) = if estimate {
            (cli.estimate(&want), "cli.catalog_estimate")
        } else {
            (cli.join(exact), "cli.exact_join")
        };
        if traced {
            tracer.record(name, k, None, t0, Instant::now());
        }
        k += 1;
        match result {
            Ok(wall) if estimate => read[usize::from(traced)].push(wall),
            Ok(wall) => other[usize::from(traced)].push(wall),
            Err(e) => fail(e, &mut failed),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let mut e2e = E2e::new(setups, elapsed);
    e2e.absorb(&read, &other, e2e_attempted, failed, first_error);
    e2e.est_rel_err = rel_err;
    e2e.peak_rss_mb = children_peak_rss_mb();

    let mut layered = None;
    if ctx.trace {
        // No daemon in this workload: the client layer is measured
        // against an in-process server over the same statistics.
        let service = CatalogService::new(
            Arc::new(OrderedRwLock::new(
                LockRank::Catalog,
                "bench.reference",
                reference,
            )),
            DegradationPolicy::default(),
        );
        let served = CatalogService::new(
            Arc::new(OrderedRwLock::new(
                LockRank::Catalog,
                "bench.served",
                data::catalog(&datasets),
            )),
            DegradationPolicy::default(),
        );
        let server = Server::bind("127.0.0.1:0", served).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let (pings, replays) = std::thread::scope(|s| {
            let handle = s.spawn(|| server.run());
            let measured = (|| -> Result<_, String> {
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                let mut pings = Vec::new();
                let mut replays = Vec::new();
                for i in 0..ctx.iters * 4 {
                    let t0 = Instant::now();
                    client.ping().map_err(|e| e.to_string())?;
                    pings.push(us(t0.elapsed()));
                    let req = (5 << 40) | i as u64;
                    let t0 = Instant::now();
                    let got = client
                        .estimate(TABLES[0], TABLES[1])
                        .map_err(|e| e.to_string())?;
                    let t1 = Instant::now();
                    tracer.record("client.estimate", req, None, t0, t1);
                    if got.pairs.to_bits()
                        != service
                            .estimate(TABLES[0], TABLES[1])
                            .map_err(|e| e.to_string())?
                            .pairs
                            .to_bits()
                    {
                        return Err("in-process server answered a different estimate".to_string());
                    }
                    replays.push(Replay {
                        req,
                        a: TABLES[0].to_string(),
                        b: TABLES[1].to_string(),
                        rtt_us: us(t1 - t0),
                    });
                }
                Ok((pings, replays))
            })();
            server.initiate_shutdown();
            let _ = handle.join();
            measured
        })?;
        let mut rng = Rng::new(ctx.seed, 3);
        let probe = Probe {
            tracer: &tracer,
            work: &ctx.work,
            seed: ctx.seed,
            iters: ctx.iters,
            reps: ctx.reps,
            csv: &csv,
            service: &service,
            pairs: vec![(TABLES[0].to_string(), TABLES[1].to_string())],
            chains: vec![TABLES.iter().map(|t| t.to_string()).collect()],
            windows: (0..64)
                .map(|_| (TABLES[0].to_string(), data::window(&mut rng)))
                .collect(),
            batch: layers::probe_batch(ctx.seed),
            write_tables: vec![TABLES[0].to_string(), TABLES[1].to_string()],
            mutation_frames: false,
            concurrent_reader: false,
            fresh_after_delta: false,
            exact_ms,
            replays,
        };
        let mut l = layers::run(&probe);
        layers::put_client(&mut l, &tracer, &pings);
        // Every process builds its statistics from the CSV files.
        l.put("catalog.stats_reuse_share", 0.0, "ratio");
        layered = Some(PerLayer { layers: l, tracer });
    }
    Ok(Outcome::build(ctx, e2e, layered, &ALIASES))
}
