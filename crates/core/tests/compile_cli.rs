//! `rana-compile` against bad flags: each rejected flag prints the usage
//! and exits 1, where it used to panic (a bad `--capacity` or `--input`),
//! or for `precompile`'s ladder grid loop for hours or write meaningless
//! entries, and then writes no store.

use std::path::PathBuf;
use std::process::Command;

/// Runs `rana-compile precompile --networks alexnet --out <tmp> <flags>`;
/// returns the exit code, stderr and whether a store was written.
fn precompile(tag: &str, flags: &[&str]) -> (Option<i32>, String, bool) {
    let out: PathBuf =
        std::env::temp_dir().join(format!("rana-compile-{}-{tag}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_rana-compile"))
        .args(["precompile", "--networks", "alexnet", "--out"])
        .arg(&out)
        .args(flags)
        .output()
        .expect("rana-compile runs");
    let written = out.exists();
    let _ = std::fs::remove_file(&out);
    (run.status.code(), String::from_utf8_lossy(&run.stderr).into_owned(), written)
}

#[test]
fn bad_grids_print_the_usage_and_exit_1() {
    let cases: [(&str, &[&str]); 11] = [
        ("steps-0", &["--steps", "0"]),
        ("weight-half", &["--weight", "0.5"]),
        ("weight-nan", &["--weight", "nan"]),
        ("weight-inf", &["--weight", "inf"]),
        // 2^30 octaves x 4 steps + 1 wraps a u32 rung count to 1.
        ("rungs-wrap", &["--octaves", "1073741824", "--steps", "4"]),
        ("octaves-max", &["--octaves", "4294967295"]),
        ("steps-max", &["--steps", "4294967295", "--octaves", "2"]),
        // 734 us / 2^40 is far below one 200 MHz clock cycle.
        ("divider", &["--octaves", "40", "--steps", "1"]),
        ("banks-0", &["--banks", "0"]),
        ("banks-100", &["--banks", "100"]),
        ("banks-45", &["--banks", "22,45"]),
    ];
    for (tag, flags) in cases {
        let (code, stderr, written) = precompile(tag, flags);
        assert_eq!(code, Some(1), "{flags:?} must exit 1; stderr: {stderr}");
        assert!(stderr.contains("usage: rana-compile"), "{flags:?} must print the usage: {stderr}");
        assert!(!written, "{flags:?} must not write a store");
    }
}

#[test]
fn the_edges_of_a_valid_grid_still_compile() {
    let (code, stderr, written) = precompile(
        "valid",
        &["--banks", "1,44", "--octaves", "1", "--steps", "1", "--weight", "1"],
    );
    assert_eq!(code, Some(0), "{stderr}");
    assert!(written, "a valid grid writes its store");
}

/// Runs `rana-compile <args> --summary`; returns the exit code and stderr.
fn compile(args: &[&str]) -> (Option<i32>, String) {
    let run = Command::new(env!("CARGO_BIN_EXE_rana-compile"))
        .args(args)
        .arg("--summary")
        .output()
        .expect("rana-compile runs");
    (run.status.code(), String::from_utf8_lossy(&run.stderr).into_owned())
}

#[test]
fn bad_capacities_and_inputs_print_the_usage_and_exit_1() {
    let cases: [&[&str]; 13] = [
        &["alexnet", "--capacity", "0"],
        &["alexnet", "--capacity", "-1"],
        &["alexnet", "--capacity", "nan"],
        &["alexnet", "--capacity", "inf"],
        // Would allocate refresh flags for 44 billion banks.
        &["alexnet", "--capacity", "1e9"],
        &["vgg", "--input", "0"],
        &["vgg", "--input", "1"],
        &["resnet", "--input", "0"],
        &["resnet", "--input", "2"],
        // Per-layer MAC counts would wrap u64 (2^25 px) or the report
        // would read 0 ms (2^30 px).
        &["vgg", "--input", "33554432"],
        &["vgg", "--input", "1073741824"],
        &["resnet", "--input", "33554432"],
        &["resnet", "--input", "1073741824"],
    ];
    for args in cases {
        let (code, stderr) = compile(args);
        assert_eq!(code, Some(1), "{args:?} must exit 1; stderr: {stderr}");
        assert!(stderr.contains("usage: rana-compile"), "{args:?} must print the usage: {stderr}");
    }
}

#[test]
fn valid_capacities_and_inputs_still_compile() {
    let cases: [&[&str]; 3] = [
        &["alexnet", "--capacity", "0.5"],
        &["vgg", "--input", "64"],
        &["vgg", "--input", "65536"],
    ];
    for args in cases {
        let (code, stderr) = compile(args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
}
