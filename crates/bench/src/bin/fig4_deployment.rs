//! Replays the deployment example of paper Figure 4 from the checked-in
//! `scenarios/figure4.toml` script on the deterministic fleet simulator: a
//! laptop starts alone, phones and a single-board machine join with their
//! published raytrace service times, the laptop crashes and the late joiners
//! take the stream over. Prints the join, crash and completion events and
//! checks that every output came back in input order.
//!
//! Run with: `cargo run --release --bin fig4_deployment`

use pando_core::sim::{simulate_fleet, FleetParams};

/// The trace lines that tell the Figure 4 story: joins, crashes and the
/// completion of the ordered output.
fn is_milestone(line: &str) -> bool {
    line.contains(" join ") || line.ends_with(" crash") || line.ends_with(" output done")
}

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/figure4.toml");
    let params = FleetParams::from_scenario(path).expect("scenarios/figure4.toml compiles");
    let report = simulate_fleet(&params);
    println!("Figure 4 deployment example (laptop starts, phones and a board join; the laptop");
    println!("crashes and the late joiners take over), {} values to process\n", params.tasks);
    let script = params.script.as_ref().expect("a scenario compiles to a fleet script");
    for (v, spec) in script.volunteers.iter().enumerate() {
        println!(
            "v{v} {}: {} ms per task, joins at {} us",
            spec.group,
            spec.service.as_millis(),
            spec.joins_at.as_micros()
        );
    }
    println!();
    for line in report.trace.iter().filter(|line| is_milestone(line)) {
        println!("{line}");
    }
    let in_order = report.output_order.iter().copied().eq(0..params.tasks);
    println!(
        "\n{} outputs, in input order: {}; {} volunteer(s) crashed and had their values re-lent",
        report.output_order.len(),
        if in_order { "yes" } else { "NO" },
        report.crashed
    );
    assert!(in_order, "Figure 4 outputs must come back complete and in input order");
}
