//! Bench-regression gate: diffs `results/BENCH_*.json` against the
//! committed snapshots in `baselines/`.
//!
//! Most BENCH artifacts are byte-deterministic by contract, so they are
//! compared byte-for-byte (with a structural diff to name the offending
//! fields when bytes diverge). A few artifacts intentionally carry
//! wall-clock measurements and are *timing-quarantined*: their structure
//! — keys, array lengths, types, booleans, strings — stays strict, and so
//! do the numbers under the file's work-counter keys, but every other
//! numeric leaf only has to land within a relative noise band of the
//! baseline (default 100x, tunable via `RANA_BENCH_TIMING_FACTOR`).
//!
//! Exit status is nonzero on any regression, missing baseline, or stale
//! baseline. `--bless` re-snapshots `baselines/` from the current
//! `results/` instead — run it after an *intended* output change and
//! commit the result.

use rana_bench::json::{diff, Json, NumericPolicy};
use std::path::{Path, PathBuf};

/// Artifacts whose numeric leaves are wall-clock noise, not contract,
/// each with the keys of its work counters, which are contract. (Not
/// `BENCH_sched.json`'s `threads`: that is the host's pool width.)
const QUARANTINED: &[(&str, &[&str])] = &[
    ("BENCH_sched.json", &["layers", "points", "cache_hits", "cache_misses", "cache_entries"]),
    ("BENCH_trace_timing.json", &[]),
    ("BENCH_exec_timing.json", &[]),
    ("BENCH_fleet_timing.json", &[]),
];

/// The work-counter keys of a quarantined artifact; `None` for a strict
/// one.
fn counters(name: &str) -> Option<&'static [&'static str]> {
    QUARANTINED.iter().find(|(file, _)| *file == name).map(|&(_, counters)| counters)
}

/// Default multiplicative drift allowed on quarantined numerics.
const DEFAULT_TIMING_FACTOR: f64 = 100.0;

/// Differences printed per file before truncating.
const MAX_REPORTED: usize = 20;

/// `BENCH_*.json` file names present in `dir`, sorted.
fn bench_files(dir: &Path) -> Vec<String> {
    let mut names = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                names.push(name);
            }
        }
    }
    names.sort();
    names
}

/// `--bless`: snapshot every results artifact into `baselines/` and drop
/// baselines whose artifact no longer exists.
fn bless(results: &Path, baselines: &Path) {
    std::fs::create_dir_all(baselines).expect("create baselines dir");
    let current = bench_files(results);
    assert!(
        !current.is_empty(),
        "no BENCH_*.json in {} — run the experiments first",
        results.display()
    );
    for name in &current {
        std::fs::copy(results.join(name), baselines.join(name))
            .unwrap_or_else(|e| panic!("could not snapshot {name}: {e}"));
        println!("blessed {}/{name}", baselines.display());
    }
    for name in bench_files(baselines) {
        if !current.contains(&name) {
            std::fs::remove_file(baselines.join(&name)).expect("remove stale baseline");
            println!("removed stale {}/{name}", baselines.display());
        }
    }
    println!("\n{} baselines snapshotted — commit baselines/ with the change.", current.len());
}

/// Compares one artifact; returns the failure lines (empty = pass).
fn check_file(results: &Path, baselines: &Path, name: &str, factor: f64) -> Vec<String> {
    let base_raw = match std::fs::read_to_string(baselines.join(name)) {
        Ok(s) => s,
        Err(_) => {
            return vec![format!(
                "no committed baseline — run `scripts/bench_gate.sh --bless` if {name} is new"
            )]
        }
    };
    let new_raw = std::fs::read_to_string(results.join(name)).expect("results file listed");
    let counters = counters(name);
    let quarantined = counters.is_some();
    if !quarantined && base_raw == new_raw {
        return Vec::new();
    }
    let base = match Json::parse(&base_raw) {
        Ok(v) => v,
        Err(e) => return vec![format!("baseline is not valid JSON: {e}")],
    };
    let new = match Json::parse(&new_raw) {
        Ok(v) => v,
        Err(e) => return vec![format!("artifact is not valid JSON: {e}")],
    };
    let policy = match counters {
        Some(counters) => NumericPolicy::Band { factor, counters },
        None => NumericPolicy::Exact,
    };
    let mut lines = diff(&base, &new, policy);
    if lines.len() > MAX_REPORTED {
        let extra = lines.len() - MAX_REPORTED;
        lines.truncate(MAX_REPORTED);
        lines.push(format!("... and {extra} more differences"));
    }
    if lines.is_empty() && !quarantined {
        // Structurally equal but the bytes moved: the artifact broke its
        // byte-determinism contract (formatting/whitespace drift).
        lines.push("byte content differs from baseline (formatting drift)".into());
    }
    lines
}

fn main() {
    let mut bless_mode = false;
    let mut results = PathBuf::from("results");
    let mut baselines = PathBuf::from("baselines");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bless" => bless_mode = true,
            "--results" => results = PathBuf::from(args.next().expect("--results DIR")),
            "--baselines" => baselines = PathBuf::from(args.next().expect("--baselines DIR")),
            other => panic!("unknown argument {other:?} (expected --bless/--results/--baselines)"),
        }
    }
    if bless_mode {
        bless(&results, &baselines);
        return;
    }

    let factor = std::env::var("RANA_BENCH_TIMING_FACTOR")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|f| *f >= 1.0)
        .unwrap_or(DEFAULT_TIMING_FACTOR);
    let current = bench_files(&results);
    assert!(
        !current.is_empty(),
        "no BENCH_*.json in {} — run the experiments first",
        results.display()
    );

    let mut failures = 0usize;
    for name in &current {
        let lines = check_file(&results, &baselines, name, factor);
        let tag = match counters(name) {
            Some([]) => format!("timing-quarantined, {factor}x band"),
            Some(c) => format!("timing-quarantined, {factor}x band, {} counters exact", c.len()),
            None => "strict".into(),
        };
        if lines.is_empty() {
            println!("OK    {name} ({tag})");
        } else {
            failures += 1;
            println!("FAIL  {name} ({tag})");
            for l in &lines {
                println!("      {l}");
            }
        }
    }
    for name in bench_files(&baselines) {
        if !current.contains(&name) {
            failures += 1;
            println!("FAIL  {name}: baseline committed but artifact absent from results/");
        }
    }

    if failures > 0 {
        eprintln!(
            "\nbench gate: {failures} artifact(s) regressed. If the change is intended, \
             re-run the experiments, then `scripts/bench_gate.sh --bless` and commit baselines/."
        );
        std::process::exit(1);
    }
    println!("\nbench gate: all {} artifacts match their baselines.", current.len());
}
