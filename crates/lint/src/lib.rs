//! `sj-lint` — the workspace invariant checker.
//!
//! A static-analysis driver (self-contained: only in-tree workspace
//! crates, nothing external) that walks the workspace's `crates/*/src`
//! trees and mechanically enforces the reproducibility and robustness
//! rules the estimator stack relies on: bit-identical shard-and-merge
//! histogram builds (no floats or nondeterminism in merge paths),
//! panic-free statistics decoding, cast discipline in cell-index math,
//! error-taxonomy and doc hygiene, and a fingerprinted persistence
//! schema tied to the envelope version. See [`rules`] for the
//! rule-by-rule rationale and DESIGN.md §10 for the full write-up.
//!
//! The static rules are complemented by *dynamic* analyses: [`verify`]
//! builds every histogram family serially and sharded on seeded
//! datasets and asserts the merged envelope bytes are identical
//! (localizing any divergence to the first differing cell and
//! statistic), [`verify_delta`] does the same for incremental updates,
//! [`verify_recovery`] crash-tests the statistics store's durability,
//! and [`verify_locks`] replays a concurrent daemon workload under the
//! ranked-lock instrumentation of `sj_core::sync` and rejects rank
//! inversions, observed lock-order cycles and file I/O under the
//! catalog lock.
//!
//! Run the static rules with `cargo run -p sj-lint -- check` (per-line
//! suppressions use `// sj-lint: allow(<rule>, <reason>)` with the
//! reason mandatory) and the dynamic checks with
//! `cargo run -p sj-lint -- verify-merge` (and its `verify-delta`,
//! `verify-recovery`, `verify-locks` siblings).
//!
//! The vendored `compat/*` shims are out of scope: they reproduce
//! external crate APIs verbatim and are exercised only through the
//! workspace crates that this checker does cover.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod fingerprint;
pub mod report;
pub mod rules;
pub mod scan;
pub mod verify;
pub mod verify_delta;
pub mod verify_locks;
pub mod verify_recovery;

use rules::{Finding, RuleId, Severity};
use scan::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One workspace crate's scanned sources.
#[derive(Debug, Clone)]
pub struct CrateView {
    /// Directory name under `crates/` (e.g. `histogram`).
    pub name: String,
    /// Scanned `.rs` files under `src/`, in path order.
    pub files: Vec<SourceFile>,
}

/// The scanned workspace.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Scanned crates, in name order.
    pub crates: Vec<CrateView>,
    /// Contents of the checked-in schema fingerprint file, if present.
    pub fingerprint: Option<String>,
}

impl Workspace {
    /// Loads and scans every `crates/*/src/**/*.rs` under `root`, plus
    /// the schema fingerprint file.
    ///
    /// # Errors
    /// Propagates I/O failures reading the tree.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let crates_dir = root.join("crates");
        let mut crates = Vec::new();
        let mut names: Vec<(String, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() && path.join("Cargo.toml").is_file() && path.join("src").is_dir() {
                names.push((entry.file_name().to_string_lossy().into_owned(), path));
            }
        }
        names.sort();
        for (name, dir) in names {
            let mut rel_files = Vec::new();
            collect_rs_files(&dir.join("src"), &mut rel_files)?;
            rel_files.sort();
            let mut files = Vec::new();
            for abs in rel_files {
                let source = fs::read_to_string(&abs)?;
                let rel = rel_path(root, &abs);
                files.push(SourceFile::scan(&rel, &source));
            }
            crates.push(CrateView { name, files });
        }
        let fingerprint = fs::read_to_string(root.join(fingerprint::SCHEMA_PATH)).ok();
        Ok(Workspace {
            crates,
            fingerprint,
        })
    }

    /// Builds a workspace from in-memory sources — fixture tests use
    /// this with pseudo-paths like `crates/histogram/src/band.rs` to
    /// exercise rule scoping without touching the filesystem.
    #[must_use]
    pub fn from_sources(sources: &[(&str, &str)], fingerprint: Option<String>) -> Workspace {
        let mut crates: Vec<CrateView> = Vec::new();
        for (path, text) in sources {
            let name = path
                .strip_prefix("crates/")
                .and_then(|p| p.split('/').next())
                .unwrap_or("unknown")
                .to_string();
            let file = SourceFile::scan(path, text);
            match crates.iter_mut().find(|c| c.name == name) {
                Some(c) => c.files.push(file),
                None => crates.push(CrateView {
                    name,
                    files: vec![file],
                }),
            }
        }
        crates.sort_by(|a, b| a.name.cmp(&b.name));
        Workspace {
            crates,
            fingerprint,
        }
    }
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated path of `abs`.
fn rel_path(root: &Path, abs: &Path) -> String {
    abs.strip_prefix(root)
        .unwrap_or(abs)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Which rules run and at what severity.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Rules to run (default: all).
    pub enabled: Vec<RuleId>,
    /// Per-rule severity (default: deny).
    pub severity: Vec<(RuleId, Severity)>,
}

impl Default for Selection {
    fn default() -> Self {
        Selection {
            enabled: RuleId::ALL.to_vec(),
            severity: RuleId::ALL.iter().map(|&r| (r, Severity::Deny)).collect(),
        }
    }
}

impl Selection {
    /// Severity of `rule` under this selection.
    #[must_use]
    pub fn severity_of(&self, rule: RuleId) -> Severity {
        self.severity
            .iter()
            .find(|(r, _)| *r == rule)
            .map_or(Severity::Deny, |(_, s)| *s)
    }

    /// Sets `rule` to `severity`.
    pub fn set(&mut self, rule: RuleId, severity: Severity) {
        match self.severity.iter_mut().find(|(r, _)| *r == rule) {
            Some(slot) => slot.1 = severity,
            None => self.severity.push((rule, severity)),
        }
    }
}

/// Runs the selected rules over the workspace and returns findings
/// sorted by path, line, then rule.
#[must_use]
pub fn run_check(ws: &Workspace, selection: &Selection) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in &selection.enabled {
        run_rule(*rule, ws, &mut findings);
    }
    for f in &mut findings {
        f.severity = selection.severity_of(f.rule);
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings.dedup_by(|a, b| {
        a.path == b.path && a.line == b.line && a.rule == b.rule && a.message == b.message
    });
    findings
}

/// Runs a single rule — the fixture tests drive rules individually.
pub fn run_rule(rule: RuleId, ws: &Workspace, out: &mut Vec<Finding>) {
    match rule {
        RuleId::Determinism => rules::check_determinism(ws, out),
        RuleId::FixedPoint => rules::check_fixed_point(ws, out),
        RuleId::PanicFree => rules::check_panic_free(ws, out),
        RuleId::Cast => rules::check_casts(ws, out),
        RuleId::Hygiene => rules::check_hygiene(ws, out),
        RuleId::ErrorTaxonomy => rules::check_error_taxonomy(ws, out),
        RuleId::Persistence => fingerprint::check_persistence(ws, out),
        RuleId::Docs => rules::check_docs(ws, out),
        RuleId::LockDiscipline => rules::check_lock_construction(ws, out),
        RuleId::IoUnderLock => rules::check_io_under_lock(ws, out),
        RuleId::AtomicOrdering => rules::check_atomic_ordering(ws, out),
    }
}

/// Findings of `rule` when run alone over in-memory sources — the
/// fixture-test entry point.
#[must_use]
pub fn check_sources(rule: RuleId, sources: &[(&str, &str)]) -> Vec<Finding> {
    let ws = Workspace::from_sources(sources, None);
    let mut out = Vec::new();
    run_rule(rule, &ws, &mut out);
    out
}

/// Locates the workspace root: ascends from `start` until a directory
/// holds a `Cargo.toml` containing `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// A fresh scratch directory under the system temp dir, unique to this
/// call: the name joins `prefix`, the process id and a process-wide
/// counter, so verifier runs that share a process (parallel unit tests,
/// say) never share — and `remove_dir_all` — each other's stores. A
/// stale directory left at the path by an earlier process is removed.
///
/// Callers that cannot remove their directory when they finish (a test
/// binary that keeps one in a static for its whole run) would leak one
/// per process, so each call first sweeps the `<prefix>-<pid>-<n>`
/// siblings whose process has exited: a run leaves at most its own
/// directories behind, and the next run with the same prefix removes
/// them.
#[must_use]
pub fn unique_scratch_dir(prefix: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // sj-lint: allow(atomic-ordering, the counter only makes directory names unique; no other memory is published through it)
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let tmp = std::env::temp_dir();
    sweep_exited(&tmp, prefix);
    let dir = tmp.join(format!("{prefix}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Removes the [`unique_scratch_dir`] directories of `prefix` under
/// `tmp` whose owning process no longer runs. Liveness is read from
/// `/proc/<pid>`; on a host without `/proc` nothing is swept, since no
/// directory can be proven abandoned there.
fn sweep_exited(tmp: &Path, prefix: &str) {
    let proc_root = Path::new("/proc");
    if !proc_root.join("self").is_dir() {
        return;
    }
    let Ok(entries) = fs::read_dir(tmp) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|n| scratch_owner(n, prefix)) else {
            continue;
        };
        if pid != std::process::id() && !proc_root.join(pid.to_string()).exists() {
            let _ = fs::remove_dir_all(entry.path());
        }
    }
}

/// The owning pid of a `<prefix>-<pid>-<n>` directory name, or `None`
/// when `name` is not one of `prefix`'s scratch directories.
fn scratch_owner(name: &str, prefix: &str) -> Option<u32> {
    let (pid, n) = name
        .strip_prefix(prefix)?
        .strip_prefix('-')?
        .split_once('-')?;
    if n.is_empty() || !n.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    pid.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::{scratch_owner, unique_scratch_dir};

    #[test]
    fn scratch_dirs_are_unique_per_call() {
        let a = unique_scratch_dir("sj-lint-scratch");
        let b = unique_scratch_dir("sj-lint-scratch");
        assert_ne!(a, b);
    }

    #[test]
    fn scratch_owner_parses_only_this_prefixs_directories() {
        assert_eq!(scratch_owner("sjsel_tests-42-0", "sjsel_tests"), Some(42));
        assert_eq!(scratch_owner("sjsel_tests-42-17", "sjsel_tests"), Some(42));
        for other in [
            "sjsel_tests",
            "sjsel_tests-42",
            "sjsel_tests-42-",
            "sjsel_tests-x-0",
            "sjsel_tests-42-0x",
            "sjsel_tests_more-42-0",
            "sjsel_format_tests-42-0",
        ] {
            assert_eq!(scratch_owner(other, "sjsel_tests"), None, "{other}");
        }
        // A longer prefix sharing this one's text is not this prefix's.
        assert_eq!(
            scratch_owner("sj-verify-recovery-a-b-42-0", "sj-verify-recovery-a"),
            None
        );
    }

    #[test]
    fn exited_owners_are_swept_and_live_ones_kept() {
        if !std::path::Path::new("/proc/self").is_dir() {
            return;
        }
        let prefix = format!("sj-lint-sweep-{}", std::process::id());
        let tmp = std::env::temp_dir();
        // pid_max is at most 2^22 on Linux, so this pid never runs.
        let exited = tmp.join(format!("{prefix}-{}-0", u32::MAX));
        std::fs::create_dir_all(&exited).unwrap();
        let live = unique_scratch_dir(&prefix);
        std::fs::create_dir_all(&live).unwrap();
        assert!(!exited.exists(), "an exited owner's directory is swept");
        let again = unique_scratch_dir(&prefix);
        assert!(live.exists(), "a running owner's directory is kept");
        let _ = std::fs::remove_dir_all(&live);
        let _ = std::fs::remove_dir_all(&again);
    }
}
