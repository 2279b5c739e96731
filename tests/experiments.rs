//! Shape checks for every regenerated experiment (the per-experiment index of
//! DESIGN.md): the simulated tables and figures must reproduce the paper's
//! qualitative findings — who wins, by roughly what factor, and where the
//! crossovers fall.

use pando_bench::{batching_sweep, regenerate_column};
use pando_core::sim::{simulate_fleet, FleetParams};
use pando_devices::profiles::{Scenario, ScenarioSetup};
use pando_devices::table2::{paper_total, scenario_entries};
use pando_workloads::AppKind;
use std::time::Duration;

const WINDOW: Duration = Duration::from_secs(120);

/// E1-E3: the regenerated Table 2 totals land close to the published totals
/// for every scenario and application (the simulation is calibrated from the
/// per-device rates, so this checks that the coordination layer — batching,
/// limiter window, latencies — does not lose throughput).
#[test]
fn table2_totals_match_the_paper_within_ten_percent() {
    for scenario in Scenario::all() {
        for app in AppKind::measured() {
            let column = regenerate_column(scenario, app, WINDOW);
            let Some(paper) = column.paper_total else {
                assert!(column.rows.is_empty(), "{scenario:?}/{app:?} should be unmeasured");
                continue;
            };
            let error = (column.simulated_total - paper).abs() / paper;
            assert!(
                error < 0.10,
                "{scenario:?}/{app:?}: simulated {:.2} vs paper {paper:.2}",
                column.simulated_total
            );
        }
    }
}

/// E1-E3: per-device shares follow the published ordering — the fastest
/// device of every scenario contributes the largest share.
#[test]
fn table2_per_device_shares_follow_the_paper() {
    for scenario in Scenario::all() {
        for app in [AppKind::Collatz, AppKind::Raytrace] {
            let column = regenerate_column(scenario, app, WINDOW);
            let paper_best = scenario_entries(scenario)
                .into_iter()
                .max_by(|a, b| {
                    a.throughput(app)
                        .unwrap_or(0.0)
                        .partial_cmp(&b.throughput(app).unwrap_or(0.0))
                        .unwrap()
                })
                .unwrap();
            let simulated_best = column
                .rows
                .iter()
                .max_by(|a, b| a.simulated.partial_cmp(&b.simulated).unwrap())
                .unwrap();
            assert_eq!(
                simulated_best.device, paper_best.device,
                "{scenario:?}/{app:?}: the fastest device must match the paper"
            );
            // Shares are within a few points of the published shares.
            for row in &column.rows {
                assert!(
                    (row.simulated_share - row.paper_share).abs() < 5.0,
                    "{scenario:?}/{app:?}/{}: simulated share {:.1}% vs paper {:.1}%",
                    row.device,
                    row.simulated_share,
                    row.paper_share
                );
            }
        }
    }
}

/// E1 vs E2 vs E3: the cross-scenario ordering of the totals holds (Grid5000
/// VPN > LAN personal devices > PlanetLab WAN for Collatz, as in Table 2).
#[test]
fn cross_scenario_ordering_matches_the_paper() {
    let totals: Vec<f64> = Scenario::all()
        .iter()
        .map(|s| regenerate_column(*s, AppKind::Collatz, WINDOW).simulated_total)
        .collect();
    let (lan, vpn, wan) = (totals[0], totals[1], totals[2]);
    assert!(vpn > lan, "Grid5000 beats the personal devices in aggregate");
    assert!(lan > wan, "the personal devices beat the PlanetLab nodes in aggregate");
    // And the paper's factors hold roughly (VPN ≈ 1.7× LAN, LAN ≈ 1.2× WAN).
    assert!((vpn / lan - 3_823.51 / 2_209.65).abs() < 0.3);
    assert!((lan / wan - 2_209.65 / 1_845.52).abs() < 0.3);
}

/// Splits a fleet-trace event line `[t_us] rest` into its virtual timestamp
/// and the rest of the line.
fn trace_event(line: &str) -> Option<(u64, &str)> {
    let (stamp, rest) = line.strip_prefix('[')?.split_once("] ")?;
    Some((stamp.parse().ok()?, rest))
}

/// E4: the Figure 4 deployment example, replayed from
/// `scenarios/figure4.toml` — the laptop crashes, the late joiners take
/// over, and every output still comes back in order.
#[test]
fn figure4_deployment_trace_has_the_expected_shape() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/figure4.toml");
    let params = FleetParams::from_scenario(path).expect("figure4 scenario compiles");
    let report = simulate_fleet(&params);
    assert_eq!(report.crashed, 1, "the laptop crashes");
    assert_eq!(report.output_order, (0..params.tasks).collect::<Vec<_>>());

    let events: Vec<(u64, &str)> = report.trace.iter().filter_map(|l| trace_event(l)).collect();
    let crash_at = events
        .iter()
        .find_map(|(t, rest)| rest.ends_with(" crash").then_some(*t))
        .expect("the trace records the crash");
    let late_joiners: Vec<&str> =
        events.iter().filter_map(|(_, rest)| rest.split_once(" join ").map(|(v, _)| v)).collect();
    assert!(!late_joiners.is_empty(), "devices join after the run started");
    let takeover = events.iter().any(|(t, rest)| {
        *t > crash_at && rest.split_once(" reply ").is_some_and(|(v, _)| late_joiners.contains(&v))
    });
    assert!(takeover, "a late joiner completes tasks after the crash");
}

/// E5: batching hides the network latency — batch size 1 underperforms, and
/// the paper's chosen batch sizes (2 on LAN/VPN, 4 on WAN) reach within a few
/// percent of the saturated throughput.
#[test]
fn batching_hides_latency_at_the_papers_batch_sizes() {
    for (scenario, paper_batch) in [(Scenario::Lan, 2), (Scenario::Vpn, 2), (Scenario::Wan, 4)] {
        let sweep = batching_sweep(scenario, AppKind::Raytrace, &[1, paper_batch, 16], WINDOW);
        let (one, chosen, saturated) = (sweep[0].1, sweep[1].1, sweep[2].1);
        assert!(
            chosen >= saturated * 0.95,
            "{scenario:?}: batch {paper_batch} reaches {chosen:.2}, saturation is {saturated:.2}"
        );
        assert!(one <= chosen, "{scenario:?}: batch 1 cannot beat batch {paper_batch}");
    }
    // On the WAN the effect is pronounced: batch 1 leaves a visible gap.
    let wan = batching_sweep(Scenario::Wan, AppKind::Raytrace, &[1, 4], WINDOW);
    assert!(wan[0].1 < wan[1].1 * 0.97);
}

/// E6: the §5.5 single-core comparisons — the iPhone SE beats the oldest
/// Grid5000 node and most PlanetLab nodes on Collatz, and 2-5 recent personal
/// cores match the fastest server core.
#[test]
fn device_vs_server_claims_hold() {
    let all = pando_devices::table2::paper_reference();
    let find = |name: &str| all.iter().find(|e| e.device == name).unwrap();
    let iphone = find("iPhone SE");
    let uvb = find("uvb.sophia");
    let mbpro = find("MBPro 2016");
    assert!(iphone.collatz > uvb.collatz);
    let beaten =
        scenario_entries(Scenario::Wan).iter().filter(|e| e.collatz < iphone.collatz).count();
    assert!(beaten >= 6, "the iPhone must beat almost all PlanetLab nodes ({beaten}/7)");
    let fastest_server_core = all
        .iter()
        .filter(|e| e.scenario != Scenario::Lan)
        .map(|e| e.collatz)
        .fold(0.0f64, f64::max);
    let mbpro_per_core = mbpro.collatz / mbpro.cores as f64;
    let cores_needed = (fastest_server_core / mbpro_per_core).ceil() as u32;
    assert!(
        (2..=5).contains(&cores_needed),
        "{cores_needed} MBPro cores needed to match the fastest server core"
    );
}

/// Consistency between the calibration data and the scenario setups used by
/// the harness (guards against the reference table and the profiles drifting
/// apart).
#[test]
fn scenario_setups_are_consistent_with_the_reference_table() {
    for scenario in Scenario::all() {
        let setup = ScenarioSetup::paper(scenario);
        for app in AppKind::measured() {
            let total = setup.total_rate(app);
            match paper_total(scenario, app) {
                Some(paper) => {
                    assert!((total - paper).abs() / paper < 0.01 || (total - paper).abs() < 0.02)
                }
                None => assert_eq!(total, 0.0),
            }
        }
    }
}
