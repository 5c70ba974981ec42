//! Figure 15 — total system energy comparison: the six Table IV designs
//! on the four benchmarks plus the GEOM group, normalized to S+ID.

use rana_bench::{
    banner, geomean_design, geomean_ratio, pct, run_design_matrix, svg, write_csv, write_result,
};
use rana_core::designs::Design;
use rana_core::energy::EnergyBreakdown;
use rana_core::evaluate::Evaluator;

/// One `results/fig15_design_matrix.csv` line.
fn csv_row(group: &str, design: Design, b: &EnergyBreakdown) -> String {
    format!(
        "{group},{},{:.6},{:.6},{:.6},{:.6},{:.6}",
        design.label(),
        b.computing_j,
        b.buffer_j,
        b.refresh_j,
        b.offchip_j,
        b.total_j()
    )
}

fn main() {
    banner("Figure 15", "Total system energy comparison (normalized to S+ID)");
    let eval = Evaluator::paper_platform();
    let nets = rana_zoo::benchmarks();
    let rows = run_design_matrix(&eval, &nets);

    let csv: Vec<String> = rows
        .iter()
        .map(|(net, d, b)| csv_row(net, *d, b))
        .chain(Design::ALL.iter().map(|&d| csv_row("GEOM", d, &geomean_design(&rows, d))))
        .collect();
    write_csv(
        "fig15_design_matrix.csv",
        "network,design,compute,buffer,refresh,offchip,total",
        &csv,
    );
    let groups: Vec<(&str, Vec<svg::Bar>)> = nets
        .iter()
        .map(|net| {
            let bars = rows
                .iter()
                .filter(|(n, _, _)| n == net.name())
                .map(|(_, d, b)| svg::Bar {
                    label: d.label().to_string(),
                    parts: vec![b.computing_j, b.buffer_j, b.refresh_j, b.offchip_j],
                })
                .collect();
            (net.name(), bars)
        })
        .collect();
    write_result(
        "fig15_energy.svg",
        &svg::stacked_bars(
            "Figure 15: normalized total system energy",
            &["computing", "buffer access", "refresh", "off-chip access"],
            &groups,
        ),
    );

    // The paper's headline deltas.
    println!("\nHeadlines (GEOM):");
    let star = geomean_ratio(&rows, Design::RanaStarE5);
    let edid = geomean_ratio(&rows, Design::EdId);
    let edod = geomean_ratio(&rows, Design::EdOd);
    let rana0 = geomean_ratio(&rows, Design::Rana0);
    let rana5 = geomean_ratio(&rows, Design::RanaE5);
    println!("  eD+ID vs S+ID total:        {}   (paper: +13.3%)", pct(1.0, edid));
    println!("  RANA(0) vs eD+OD total:     {}   (paper: -19.4%)", pct(edod, rana0));
    println!("  RANA(E-5) vs RANA(0) total: {}   (paper: -45.4%)", pct(rana0, rana5));
    println!("  RANA*(E-5) vs S+ID total:   {}   (paper: -66.2%)", pct(1.0, star));

    // Off-chip and refresh reductions, measured on raw word counts.
    let mut sram_dram = 0u64;
    let mut star_dram = 0u64;
    let mut edid_refresh = 0u64;
    let mut star_refresh = 0u64;
    for net in &nets {
        sram_dram += eval.evaluate(net, Design::SId).dram_words;
        let s = eval.evaluate(net, Design::RanaStarE5);
        star_dram += s.dram_words;
        star_refresh += s.refresh_words;
        edid_refresh += eval.evaluate(net, Design::EdId).refresh_words;
    }
    println!(
        "  RANA*(E-5) vs S+ID off-chip words:  {}   (paper: -41.7%)",
        pct(sram_dram as f64, star_dram as f64)
    );
    println!(
        "  RANA*(E-5) vs eD+ID refresh ops:    {}   (paper: -99.7%)",
        pct(edid_refresh as f64, star_refresh as f64)
    );
}
