//! Shared harness utilities for the figure-regeneration binaries.
//!
//! Each binary accepts:
//!
//! * `--scale <f64>` — dataset scale relative to the paper cardinalities
//!   (default 0.2; pass `1.0` for the full-size run recorded in
//!   EXPERIMENTS.md).
//! * `--levels <a>..<b>` — histogram gridding levels, both ends
//!   included, `a <= b <= 11` (default `0..9`, the paper's sweep).
//! * `--out <dir>` — directory for machine-readable JSON results
//!   (default `results/`).
//! * `--join <name>` — restrict to one join (`ts-tcb`, `cas-car`,
//!   `sp-spg`, `scrc-sura`).
//! * `--threads <n>` — worker threads for context preparation and the
//!   experiment runners (default: available parallelism).
//!
//! A bad value exits 2 before any work starts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sj_core::experiment::JoinContext;
use sj_core::presets::{self, PaperJoin};
use sj_core::{parallel_map, Grid, Parallelism};
use std::fmt::Write as _;
use std::ops::RangeInclusive;
use std::path::PathBuf;

/// Parsed command-line configuration shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Dataset scale (1.0 = paper cardinalities).
    pub scale: f64,
    /// Gridding levels for histogram sweeps.
    pub levels: RangeInclusive<u32>,
    /// Output directory for JSON results.
    pub out_dir: PathBuf,
    /// Joins to run.
    pub joins: Vec<PaperJoin>,
    /// Worker threads for context preparation and experiment runners.
    pub parallelism: Parallelism,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            scale: 0.2,
            levels: 0..=9,
            out_dir: PathBuf::from("results"),
            joins: presets::ALL_JOINS.to_vec(),
            parallelism: Parallelism::default(),
        }
    }
}

impl HarnessConfig {
    /// Parses `std::env::args`: prints the usage and exits 0 on
    /// `--help`, prints the parse error and exits 2 on a bad argument.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        Self::parse(&args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// Parses harness arguments (without the program name) over the
    /// defaults.
    ///
    /// # Errors
    /// Returns the message to print for an unknown argument, a missing
    /// value, or a value that does not parse — including a `--scale`
    /// that is not a finite number above 0 and a `--levels` range that
    /// is empty or reaches past [`Grid::MAX_LEVEL`].
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut cfg = Self::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--scale" => cfg.scale = parse_scale(value()?)?,
                "--levels" => cfg.levels = parse_levels(value()?)?,
                "--out" => cfg.out_dir = PathBuf::from(value()?),
                "--join" => {
                    cfg.joins = vec![match value()? {
                        "ts-tcb" => PaperJoin::TsTcb,
                        "cas-car" => PaperJoin::CasCar,
                        "sp-spg" => PaperJoin::SpSpg,
                        "scrc-sura" => PaperJoin::ScrcSura,
                        other => return Err(format!("unknown join {other}")),
                    }];
                }
                "--threads" => {
                    let n: usize = value()?
                        .parse()
                        .map_err(|e| format!("bad --threads: {e}"))?;
                    cfg.parallelism =
                        Parallelism::try_new(n).map_err(|e| format!("bad --threads: {e}"))?;
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(cfg)
    }

    /// Prepares the configured joins in parallel (each needs a full exact
    /// join, the expensive part of the harness).
    #[must_use]
    pub fn prepare_contexts(&self) -> Vec<JoinContext> {
        let scale = self.scale;
        parallel_map(self.joins.clone(), self.parallelism, move |join| {
            let (a, b) = join.datasets(scale);
            JoinContext::prepare(join.name(), a, b)
        })
    }

    /// Writes a serializable value as pretty JSON under the output dir.
    pub fn write_json<T: serde::Serialize>(&self, name: &str, value: &T) {
        std::fs::create_dir_all(&self.out_dir).expect("create output dir");
        let path = self.out_dir.join(name);
        let json = serde_json::to_string_pretty(value).expect("serialize results");
        std::fs::write(&path, json).expect("write results file");
        println!("\nwrote {}", path.display());
    }
}

/// Usage line printed by `--help`.
const USAGE: &str = "usage: [--scale F] [--levels A..B] [--out DIR] \
                     [--join ts-tcb|cas-car|sp-spg|scrc-sura] [--threads N]";

/// Parses a dataset scale: a finite number above zero. The presets
/// reject anything else with a panic mid-run.
fn parse_scale(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        Ok(_) => Err(format!(
            "bad --scale {v:?}: must be a finite number above 0"
        )),
        Err(e) => Err(format!("bad --scale {v:?}: {e}")),
    }
}

/// Parses `A..B` (or `A..=B`) as the inclusive level range `A..=B`.
/// Both ends must be level numbers, `A <= B` and `B <=`
/// [`Grid::MAX_LEVEL`]: an empty sweep would print no rows and exit 0,
/// hiding the typo, and a level past the maximum would panic mid-run.
fn parse_levels(v: &str) -> Result<RangeInclusive<u32>, String> {
    let bad = |why: &str| format!("bad --levels {v:?} (expected A..B with A <= B): {why}");
    let (a, b) = v.split_once("..").ok_or_else(|| bad("no `..`"))?;
    let lo: u32 = a.parse().map_err(|e| bad(&format!("low end: {e}")))?;
    let hi: u32 = b
        .strip_prefix('=')
        .unwrap_or(b)
        .parse()
        .map_err(|e| bad(&format!("high end: {e}")))?;
    if lo > hi {
        return Err(bad("empty range"));
    }
    if hi > Grid::MAX_LEVEL {
        return Err(bad(&format!("levels stop at {}", Grid::MAX_LEVEL)));
    }
    Ok(lo..=hi)
}

/// Renders an aligned text table: `headers` then `rows`, every row the
/// same arity as the headers.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            let pad = widths[i] - cell.chars().count();
            if i > 0 {
                out.push_str("  ");
            }
            // Right-align numeric-looking cells, left-align labels.
            if i != 0
                && cell
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit() || c == '-')
            {
                let _ = write!(out, "{}{}", " ".repeat(pad), cell);
            } else {
                let _ = write!(out, "{}{}", cell, " ".repeat(pad));
            }
        }
        out.push('\n');
    };
    let headers_owned: Vec<String> = headers.iter().map(|s| (*s).to_string()).collect();
    fmt_row(&mut out, &headers_owned);
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        fmt_row(&mut out, row);
    }
    out
}

/// Formats a percentage for tables: `n/a` for NaN, sensible precision
/// otherwise.
#[must_use]
pub fn pct(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else if v == f64::INFINITY {
        "inf".to_string()
    } else if v >= 100.0 {
        format!("{v:.0}%")
    } else if v >= 1.0 {
        format!("{v:.1}%")
    } else {
        format!("{v:.3}%")
    }
}

/// Prints the standard harness banner.
pub fn banner(title: &str, cfg: &HarnessConfig) {
    println!("=== {title} ===");
    println!(
        "scale {} (paper = 1.0) | joins: {} | threads: {}",
        cfg.scale,
        cfg.joins
            .iter()
            .map(|j| j.name())
            .collect::<Vec<_>>()
            .join(", "),
        cfg.parallelism.threads()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["join", "error"],
            &[
                vec!["TS with TCB".to_string(), "1.2%".to_string()],
                vec!["x".to_string(), "10.0%".to_string()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("join"));
        assert!(lines[2].contains("TS with TCB"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(f64::NAN), "n/a");
        assert_eq!(pct(0.123), "0.123%");
        assert_eq!(pct(12.34), "12.3%");
        assert_eq!(pct(1234.0), "1234%");
        assert_eq!(pct(f64::INFINITY), "inf");
    }

    #[test]
    fn default_config() {
        let cfg = HarnessConfig::default();
        assert_eq!(cfg.joins.len(), 4);
        assert_eq!(cfg.levels, 0..=9);
    }

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parse_reads_every_flag() {
        let cfg = HarnessConfig::parse(&args(&[
            "--scale",
            "0.5",
            "--levels",
            "2..=4",
            "--out",
            "o",
            "--join",
            "sp-spg",
            "--threads",
            "3",
        ]))
        .unwrap();
        assert_eq!(cfg.scale, 0.5);
        assert_eq!(cfg.levels, 2..=4);
        assert_eq!(cfg.out_dir, PathBuf::from("o"));
        assert_eq!(cfg.joins, vec![PaperJoin::SpSpg]);
        assert_eq!(cfg.parallelism.threads(), 3);
        assert_eq!(
            HarnessConfig::parse(&args(&["--levels", "3..5"]))
                .unwrap()
                .levels,
            3..=5
        );
        assert_eq!(
            HarnessConfig::parse(&args(&["--levels", "4..4"]))
                .unwrap()
                .levels,
            4..=4
        );
    }

    #[test]
    fn parse_rejects_bad_levels_and_arguments() {
        for bad in [
            "3..x", "x..5", "8..3", "..5", "3..", "3-5", "3..=x", "9..12",
        ] {
            let err = HarnessConfig::parse(&args(&["--levels", bad])).unwrap_err();
            assert!(err.contains("bad --levels"), "{bad}: {err}");
        }
        for bad in [
            &["--scale", "abc"][..],
            &["--scale", "0"],
            &["--scale", "-1"],
            &["--scale", "nan"],
            &["--scale", "inf"],
            &["--scale"],
            &["--threads", "0"],
            &["--join", "nope"],
            &["--bogus"],
        ] {
            assert!(HarnessConfig::parse(&args(bad)).is_err(), "{bad:?}");
        }
        assert_eq!(HarnessConfig::parse(&[]).unwrap().levels, 0..=9);
    }

    #[test]
    fn prepare_contexts_preserves_order() {
        let cfg = HarnessConfig {
            scale: 0.002,
            ..Default::default()
        };
        let ctxs = cfg.prepare_contexts();
        let names: Vec<&str> = ctxs.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "TS with TCB",
                "CAS with CAR",
                "SP with SPG",
                "SCRC with SURA"
            ]
        );
    }
}
