//! Shared plumbing for the experiment binaries (`src/bin/exp_*.rs`).
//!
//! Each binary regenerates one table or figure of the RANA paper — same
//! rows/series, absolute numbers from our simulator (EXPERIMENTS.md records
//! paper-vs-measured side by side).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod svg;

use rana_core::designs::Design;
use rana_core::energy::EnergyBreakdown;
use rana_core::evaluate::{Evaluator, NetworkEnergy};
use rana_core::report::{breakdown_header, breakdown_row, geomean, geomean_breakdown};
use rana_serve::TenantSpec;
use rana_zoo::Network;
use std::path::{Path, PathBuf};

/// The seed an experiment should use: `RANA_SEED` from the environment
/// when set (decimal or `0x`-prefixed hex), the experiment's `default`
/// otherwise. An unparseable value is reported and ignored rather than
/// silently changing the run.
///
/// Every `exp_*` binary routes its PRNG seed through here, so one
/// environment variable reseeds the whole suite without recompiling —
/// and the recorded default keeps `results/` byte-reproducible.
pub fn seed_from_env(default: u64) -> u64 {
    let Ok(raw) = std::env::var("RANA_SEED") else {
        return default;
    };
    match parse_seed(&raw) {
        Some(seed) => seed,
        None => {
            eprintln!("ignoring unparseable RANA_SEED={raw:?}; using default seed {default}");
            default
        }
    }
}

/// Parses a seed string: decimal or `0x`-prefixed hex.
fn parse_seed(raw: &str) -> Option<u64> {
    let v = raw.trim();
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// Worker threads for an experiment: the `RANA_THREADS` override when
/// set, else all available parallelism (delegates to
/// [`rana_core::par::thread_count`] so binaries and library agree).
pub fn threads_from_env() -> usize {
    rana_core::par::thread_count()
}

/// Prints a standard experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("==============================================================");
}

/// Directory every experiment writes its results into.
const RESULTS_DIR: &str = "results";

/// `results/<name>`, creating `results/` on demand.
///
/// # Panics
///
/// Panics with the path when the directory cannot be created.
pub fn result_path(name: &str) -> PathBuf {
    path_in(Path::new(RESULTS_DIR), name)
}

/// Writes `body` to `results/<name>` and reports the path.
///
/// # Panics
///
/// Panics with the path on any I/O error: a run that cannot write its
/// result must fail rather than leave a stale tracked copy for the bench
/// gate to read.
pub fn write_result(name: &str, body: &str) {
    write_in(Path::new(RESULTS_DIR), name, body);
}

fn path_in(dir: &Path, name: &str) -> PathBuf {
    if let Err(e) = std::fs::create_dir_all(dir) {
        panic!("could not create {}: {e}", dir.display());
    }
    dir.join(name)
}

fn write_in(dir: &Path, name: &str, body: &str) {
    let path = path_in(dir, name);
    if let Err(e) = std::fs::write(&path, body) {
        panic!("could not write {}: {e}", path.display());
    }
    println!("(wrote {})", path.display());
}

/// Writes a CSV (header plus one line per row) to `results/<name>`
/// through [`write_result`], so figures can be re-plotted outside the
/// terminal.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let mut out = String::with_capacity(rows.len() * 32 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    write_result(name, &out);
}

/// Evaluates every Table IV design on every benchmark and prints the
/// Figure 15-style normalized table (normalized to S+ID per network),
/// ending with the GEOM group. Returns `(network, design, normalized
/// breakdown)` rows for further digestion.
pub fn run_design_matrix(
    eval: &Evaluator,
    nets: &[Network],
) -> Vec<(String, Design, EnergyBreakdown)> {
    let mut rows = Vec::new();
    // Fan the whole networks x designs matrix across the worker pool in one
    // go; results come back in point order, identical to serial evaluation.
    let points: Vec<(&Network, Design)> =
        nets.iter().flat_map(|net| Design::ALL.iter().map(move |&d| (net, d))).collect();
    let all_results = eval.evaluate_many(&points);
    for (net, results) in nets.iter().zip(all_results.chunks(Design::ALL.len())) {
        let results: &[NetworkEnergy] = results;
        let base = results[0].total.total_j();
        println!("\n-- {} (normalized to S+ID = 1.0) --", net.name());
        println!("{}", breakdown_header("x S+ID"));
        for (d, r) in Design::ALL.iter().zip(results) {
            let norm = r.total.normalized_to(base);
            println!("{}", breakdown_row(d.label(), &norm));
            rows.push((net.name().to_string(), *d, norm));
        }
    }
    println!("\n-- GEOM over {} benchmarks --", nets.len());
    println!("{}", breakdown_header("x S+ID"));
    for d in Design::ALL {
        println!("{}", breakdown_row(d.label(), &geomean_design(&rows, d)));
    }
    rows
}

/// Geometric-mean breakdown of one design over the rows of
/// [`run_design_matrix`].
pub fn geomean_design(
    rows: &[(String, Design, EnergyBreakdown)],
    design: Design,
) -> EnergyBreakdown {
    let norms: Vec<EnergyBreakdown> =
        rows.iter().filter(|(_, d, _)| *d == design).map(|(_, _, b)| *b).collect();
    geomean_breakdown(&norms)
}

/// Back-to-back capacity of one RANA*(E-5) die on a tenant mix,
/// requests/s: the reciprocal of the weighted mean isolated latency.
pub fn capacity_rps(eval: &Evaluator, specs: &[TenantSpec]) -> f64 {
    let wsum: f64 = specs.iter().map(|s| s.weight).sum();
    let mean_us: f64 = specs
        .iter()
        .map(|s| s.weight * eval.evaluate(&s.network, Design::RanaStarE5).time_us)
        .sum::<f64>()
        / wsum;
    1e6 / mean_us
}

/// Percentage string helper: `-41.7%` style.
pub fn pct(old: f64, new: f64) -> String {
    format!("{:+.1}%", (new - old) / old * 100.0)
}

/// Geometric mean of the `total_j` ratios of a design against S+ID rows.
pub fn geomean_ratio(rows: &[(String, Design, EnergyBreakdown)], design: Design) -> f64 {
    let ratios: Vec<f64> =
        rows.iter().filter(|(_, d, _)| *d == design).map(|(_, _, b)| b.total_j()).collect();
    geomean(&ratios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_matrix_smoke() {
        // One small network end to end through the matrix printer.
        let eval = Evaluator::paper_platform();
        let nets = vec![rana_zoo::alexnet()];
        let rows = run_design_matrix(&eval, &nets);
        assert_eq!(rows.len(), Design::ALL.len());
        // S+ID normalizes to exactly 1.
        assert!((geomean_ratio(&rows, Design::SId) - 1.0).abs() < 1e-9);
        // RANA*(E-5) is never worse than eD+ID.
        assert!(geomean_ratio(&rows, Design::RanaStarE5) < geomean_ratio(&rows, Design::EdId));
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(2.0, 1.0), "-50.0%");
        assert_eq!(pct(1.0, 1.417), "+41.7%");
    }

    #[test]
    fn seed_parsing_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("17"), Some(17));
        assert_eq!(parse_seed(" 42 "), Some(42));
        assert_eq!(parse_seed("0x52414E41"), Some(0x52414E41));
        assert_eq!(parse_seed("0X1f"), Some(31));
        assert_eq!(parse_seed("banana"), None);
        assert_eq!(parse_seed(""), None);
        assert_eq!(parse_seed("-3"), None);
    }

    #[test]
    fn write_errors_fail_the_run_with_the_path() {
        let base = std::env::temp_dir().join(format!("rana_bench_write_{}", std::process::id()));
        std::fs::create_dir_all(base.join("taken.json")).unwrap();
        std::fs::write(base.join("file"), "").unwrap();
        let panic_message = |f: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .expect_err("a failed write must panic");
            err.downcast_ref::<String>().cloned().expect("formatted panic message")
        };
        // A directory where the file should be: the write itself fails.
        let m = panic_message(&|| write_in(&base, "taken.json", "{}"));
        assert!(m.starts_with("could not write") && m.contains("taken.json"), "{m}");
        // A file where the results directory should be: creating it fails.
        let m = panic_message(&|| write_in(&base.join("file").join("sub"), "x.csv", ""));
        assert!(m.starts_with("could not create") && m.contains("sub"), "{m}");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn threads_from_env_is_positive() {
        assert!(threads_from_env() >= 1);
    }
}
