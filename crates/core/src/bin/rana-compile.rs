//! `rana-compile` — the RANA compilation phase as a command-line tool.
//!
//! Takes a benchmark network and a Table IV design, runs Stage 1
//! (surrogate) + Stage 2 (scheduling) and emits the Stage 3 layerwise
//! configurations the refresh-optimized eDRAM controller consumes —
//! pattern/tiling per layer, bank allocations, refresh flags, the
//! tolerable retention time and the programmable clock-divider ratio.
//!
//! ```console
//! $ rana-compile resnet --design rana-star
//! $ rana-compile vgg --design rana-star --capacity 2.0 --json out.json
//! $ rana-compile alexnet --summary
//! ```
//!
//! The `precompile` subcommand batch-compiles a network zoo across
//! design points, bank partitions, and thermal-ladder rungs into a
//! persistent schedule store (see `docs/SCHEDULE_CACHE.md`) that
//! `rana-serve` and `rana-fleet` warm-start from:
//!
//! ```console
//! $ rana-compile precompile --out store.jsonl
//! $ rana-compile precompile --networks alexnet,googlenet --banks 22,44 --out store.jsonl
//! ```

use rana_core::config_gen::LayerwiseConfig;
use rana_core::designs::Design;
use rana_core::evaluate::Evaluator;
use rana_core::operating::rung_us;
use rana_core::store::{precompile, PrecompileSpec, ScheduleStore};
use rana_zoo::{Network, MAX_INPUT_PIXELS};
use std::process::ExitCode;

struct Args {
    network: String,
    design: Design,
    capacity_factor: f64,
    input_hw: Option<usize>,
    json_path: Option<String>,
    summary_only: bool,
    with_fc: bool,
}

const USAGE: &str = "usage: rana-compile <alexnet|vgg|googlenet|resnet|mobilenet> \
    [--design <s-id|ed-id|ed-od|rana0|rana-e5|rana-star>] \
    [--capacity <factor>] [--input <pixels>] [--with-fc] [--json <path>] [--summary]\n\
       rana-compile precompile --out <path> [--networks <a,b,..|all>] [--designs <a,b,..>] \
    [--banks <n,n,..>] [--octaves <n>] [--steps <n>] [--weight <f>]";

/// Largest `--capacity` factor: 1024 × the paper's eDRAM buffer, 45,056
/// banks.
const MAX_CAPACITY_FACTOR: f64 = 1024.0;

fn parse_design(v: &str) -> Result<Design, String> {
    match v {
        "s-id" => Ok(Design::SId),
        "ed-id" => Ok(Design::EdId),
        "ed-od" => Ok(Design::EdOd),
        "rana0" => Ok(Design::Rana0),
        "rana-e5" => Ok(Design::RanaE5),
        "rana-star" => Ok(Design::RanaStarE5),
        other => Err(format!("unknown design '{other}'")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let network = args.next().ok_or(USAGE.to_string())?;
    let mut out = Args {
        network,
        design: Design::RanaStarE5,
        capacity_factor: 1.0,
        input_hw: None,
        json_path: None,
        summary_only: false,
        with_fc: false,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--design" => {
                out.design = parse_design(&args.next().ok_or("--design needs a value")?)?;
            }
            "--capacity" => {
                let factor: f64 = args
                    .next()
                    .ok_or("--capacity needs a value")?
                    .parse()
                    .map_err(|e| format!("bad capacity factor: {e}"))?;
                // The per-bank refresh flags of every layer are allocated, so
                // an unbounded factor could exhaust memory.
                if !(factor > 0.0 && factor <= MAX_CAPACITY_FACTOR) {
                    return Err(format!(
                        "--capacity must lie in (0, {MAX_CAPACITY_FACTOR}], got {factor}\n{USAGE}"
                    ));
                }
                out.capacity_factor = factor;
            }
            "--input" => {
                let hw: usize = args
                    .next()
                    .ok_or("--input needs a value")?
                    .parse()
                    .map_err(|e| format!("bad input size: {e}"))?;
                if hw == 0 || !hw.is_multiple_of(32) || hw > MAX_INPUT_PIXELS {
                    return Err(format!(
                        "--input must be a positive multiple of 32 up to {MAX_INPUT_PIXELS}, \
                         got {hw}\n{USAGE}"
                    ));
                }
                out.input_hw = Some(hw);
            }
            "--json" => out.json_path = Some(args.next().ok_or("--json needs a path")?),
            "--summary" => out.summary_only = true,
            "--with-fc" => out.with_fc = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    Ok(out)
}

fn load_network(name: &str, input_hw: Option<usize>, with_fc: bool) -> Result<Network, String> {
    if with_fc {
        return match name {
            "alexnet" => Ok(rana_zoo::alexnet_with_fc()),
            other => Err(format!("--with-fc is only wired up for alexnet, not '{other}'")),
        };
    }
    match (name, input_hw) {
        ("alexnet", None) => Ok(rana_zoo::alexnet()),
        ("googlenet", None) => Ok(rana_zoo::googlenet()),
        ("vgg", None) => Ok(rana_zoo::vgg16()),
        ("vgg", Some(hw)) => Ok(rana_zoo::vgg16_with_input(hw)),
        ("resnet", None) => Ok(rana_zoo::resnet50()),
        ("resnet", Some(hw)) => Ok(rana_zoo::resnet50_with_input(hw)),
        ("mobilenet", None) => Ok(rana_zoo::mobilenet_v1()),
        (n @ ("alexnet" | "googlenet" | "mobilenet"), Some(_)) => {
            Err(format!("{n} does not support --input (stride chain is resolution-specific)"))
        }
        (other, _) => Err(format!("unknown network '{other}'\n{USAGE}")),
    }
}

/// Rejects a precompile grid the library would panic on, loop on for
/// hours, or compile into meaningless entries.
fn check_grid(eval: &Evaluator, spec: &PrecompileSpec) -> Result<(), String> {
    let steps = spec.ladder_steps_per_octave;
    if steps == 0 {
        return Err("--steps must be at least 1".to_string());
    }
    let weight = spec.reschedule_refresh_weight;
    if !(weight.is_finite() && weight >= 1.0) {
        return Err(format!("--weight must be a finite number of at least 1, got {weight}"));
    }
    let rungs = spec.rung_count().ok_or("--octaves x --steps overflows the rung count")?;
    for &design in &spec.designs {
        let template = eval.scheduler_for(design);
        let full = template.cfg.buffer.num_banks;
        if let Some(banks) = spec.bank_counts.iter().find(|&&b| b == 0 || b > full) {
            return Err(format!("--banks {banks} is outside 1..={full} for {}", design.label()));
        }
        // The smallest rung must still be a divider ratio of at least one
        // reference-clock cycle.
        let smallest = rung_us(template.refresh.interval_us, steps, rungs - 1);
        if template.cfg.frequency_hz * smallest * 1e-6 < 1.0 {
            return Err(format!(
                "the smallest rung ({smallest:e} us) of {} cannot be programmed as a divider",
                design.label()
            ));
        }
    }
    Ok(())
}

/// Parses and runs `rana-compile precompile ...` (argv after the
/// subcommand name).
fn run_precompile(mut args: std::env::Args) -> Result<(), String> {
    let mut out_path: Option<String> = None;
    let mut networks = vec!["alexnet".to_string(), "googlenet".to_string(), "resnet".to_string()];
    let mut spec = PrecompileSpec::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out_path = Some(args.next().ok_or("--out needs a path")?),
            "--networks" => {
                let v = args.next().ok_or("--networks needs a value")?;
                networks = if v == "all" {
                    ["alexnet", "googlenet", "vgg", "resnet", "mobilenet"]
                        .iter()
                        .map(|s| s.to_string())
                        .collect()
                } else {
                    v.split(',').map(|s| s.trim().to_string()).collect()
                };
            }
            "--designs" => {
                let v = args.next().ok_or("--designs needs a value")?;
                spec.designs =
                    v.split(',').map(|s| parse_design(s.trim())).collect::<Result<_, _>>()?;
            }
            "--banks" => {
                let v = args.next().ok_or("--banks needs a value")?;
                spec.bank_counts = v
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("bad bank count: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--octaves" => {
                spec.ladder_octaves = args
                    .next()
                    .ok_or("--octaves needs a value")?
                    .parse()
                    .map_err(|e| format!("bad octave count: {e}"))?;
            }
            "--steps" => {
                spec.ladder_steps_per_octave = args
                    .next()
                    .ok_or("--steps needs a value")?
                    .parse()
                    .map_err(|e| format!("bad step count: {e}"))?;
            }
            "--weight" => {
                spec.reschedule_refresh_weight = args
                    .next()
                    .ok_or("--weight needs a value")?
                    .parse()
                    .map_err(|e| format!("bad refresh weight: {e}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    let out_path = out_path.ok_or(format!("precompile needs --out <path>\n{USAGE}"))?;
    let nets: Vec<Network> =
        networks.iter().map(|n| load_network(n, None, false)).collect::<Result<_, _>>()?;

    let eval = Evaluator::paper_platform();
    check_grid(&eval, &spec).map_err(|msg| format!("{msg}\n{USAGE}"))?;
    let mut store = ScheduleStore::new();
    let stats = precompile(&eval, &nets, &spec, &mut store);
    store.save(std::path::Path::new(&out_path)).map_err(|e| e.to_string())?;
    println!(
        "# precompiled {} entries ({} searches, {} rungs/point) for {} networks × {} designs → {}",
        store.len(),
        stats.searches,
        stats.rungs,
        nets.len(),
        spec.designs.len(),
        out_path
    );
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("precompile") {
        let mut args = std::env::args();
        args.next();
        args.next();
        return match run_precompile(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let net = match load_network(&args.network, args.input_hw, args.with_fc) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let eval = if (args.capacity_factor - 1.0).abs() < 1e-12 {
        Evaluator::paper_platform()
    } else {
        Evaluator::paper_platform_scaled(args.capacity_factor)
    };
    let result = eval.evaluate(&net, args.design);
    let refresh = args.design.refresh_model(eval.retention());
    let cfg = if args.design.uses_edram() {
        eval.edram_config().clone()
    } else {
        rana_accel::AcceleratorConfig::paper_sram()
    };
    let lw = LayerwiseConfig::generate(&result.schedule, &cfg, &refresh);

    println!(
        "# {} on {} under {} — {:.0} us retention pulse (divider 1:{}), {:.1}% flags disabled",
        net.name(),
        cfg.name,
        args.design.label(),
        lw.tolerable_retention_us,
        lw.clock_divider,
        lw.disabled_flag_fraction() * 100.0
    );
    println!(
        "# energy {:.3} mJ (refresh {:.4} mJ), off-chip {} words, time {:.2} ms",
        result.total.total_j() * 1e3,
        result.total.refresh_j * 1e3,
        result.dram_words,
        result.time_us / 1e3
    );

    if !args.summary_only {
        println!("{:<22} {:<28} {:>12} {:>14}", "layer", "pattern", "flags on", "refresh words");
        for (layer_cfg, sched) in lw.layers.iter().zip(&result.schedule.layers) {
            println!(
                "{:<22} {:<28} {:>9}/{:<3} {:>14}",
                layer_cfg.layer,
                layer_cfg.pattern,
                layer_cfg.refresh_flags.iter().filter(|&&f| f).count(),
                layer_cfg.refresh_flags.len(),
                sched.refresh_words
            );
        }
    }

    if let Some(path) = args.json_path {
        let json = lw.to_json();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("# wrote layerwise configurations to {path}");
    }
    ExitCode::SUCCESS
}
