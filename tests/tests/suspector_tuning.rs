//! Suspector-tuning regressions (PR 8 satellite).
//!
//! The failure detector's time-silence interval must be matched to the
//! deployment's worst one-way delay. These tests pin both sides of the
//! tuning rule `ts ≥ 4·D/(m−2)` (see
//! `GroupConfig::recommended_time_silence` and DESIGN.md §11):
//!
//! * at the recommended interval, an idle-but-alive group rides out
//!   every WAN preset *plus* a transient delay spike with **zero**
//!   suspicions and no view changes;
//! * at an aggressive interval, the same deployment produces a
//!   false-suspicion storm — the historical failure mode the rule
//!   exists to prevent.

use std::time::Duration;

use newtop::simnode::GcsHarness;
use newtop_gcs::group::{GroupConfig, GroupId};
use newtop_net::latency::LatencyMatrix;
use newtop_net::sim::SimConfig;
use newtop_net::site::{NodeId, Site};
use newtop_net::time::SimTime;

/// The transient delay spike each run injects mid-flight.
const SPIKE: Duration = Duration::from_millis(120);

/// One WAN preset: its latency matrix and one site per member.
fn presets() -> Vec<(&'static str, LatencyMatrix, Vec<Site>)> {
    vec![
        (
            "paper-wan",
            LatencyMatrix::internet(),
            vec![Site::Newcastle, Site::London, Site::Pisa],
        ),
        (
            "global5",
            LatencyMatrix::global5(),
            LatencyMatrix::GLOBAL5_SITES.to_vec(),
        ),
        (
            "continental3",
            LatencyMatrix::continental3(),
            LatencyMatrix::CONTINENTAL3_SITES.to_vec(),
        ),
    ]
}

struct RunStats {
    suspicions: u64,
    heartbeats: u64,
    max_views: usize,
}

/// Runs an idle peer group with the given time-silence interval under
/// `matrix` plus a mid-run delay spike, and tallies the evidence.
fn run_idle_group(
    matrix: LatencyMatrix,
    sites: &[Site],
    config: &GroupConfig,
    seed: u64,
) -> RunStats {
    let cfg = SimConfig {
        seed,
        latency: matrix,
        ..SimConfig::default()
    };
    let mut h = GcsHarness::new(cfg);
    let roster: Vec<NodeId> = sites
        .iter()
        .flat_map(|&site| h.add_nodes(site, 1))
        .collect();
    let group = GroupId::new("tuned");
    h.create_group(SimTime::from_millis(1), &group, config, &roster);
    // A transient delay spike: every frame in flight during the window
    // takes an extra `SPIKE` on top of its sampled latency.
    h.sim
        .schedule_set_extra_delay(SimTime::from_millis(1_500), SPIKE);
    h.sim
        .schedule_set_extra_delay(SimTime::from_millis(1_900), Duration::ZERO);
    h.run_until(SimTime::from_millis(4_000));

    let mut stats = RunStats {
        suspicions: 0,
        heartbeats: 0,
        max_views: 0,
    };
    for &node in &roster {
        let n = h.node(node);
        let metrics = &n.gcs().observability().metrics;
        stats.suspicions += metrics.counter("ev.suspected");
        stats.heartbeats += metrics.counter("ev.time_silence_null");
        stats.max_views = stats.max_views.max(h.views(node, &group).len());
    }
    stats
}

#[test]
fn recommended_interval_survives_every_wan_preset_with_a_spike() {
    for (name, matrix, sites) in presets() {
        // Tune for the preset's worst one-way delay *including* the
        // spike the run is about to inject.
        let worst = matrix.worst_one_way() + SPIKE;
        let base = GroupConfig::peer();
        let ts = base.recommended_time_silence(worst);
        let config = base.with_time_silence(ts);
        let stats = run_idle_group(matrix, &sites, &config, 0xfeed);
        assert!(
            stats.heartbeats > 0,
            "{name}: no time-silence nulls flowed — the run proves nothing"
        );
        assert_eq!(
            stats.suspicions, 0,
            "{name}: false suspicions at the recommended interval {ts:?}"
        );
        assert_eq!(
            stats.max_views, 1,
            "{name}: a view change fired in a fault-free run"
        );
    }
}

#[test]
fn aggressive_interval_reproduces_a_false_suspicion_storm() {
    // 1 ms time-silence × the default 14× multiple gives a 14 ms
    // suspicion timeout — under the inter-region one-way delays of the
    // five-region matrix (15 ms+), alive members cannot be heard from
    // in time and the detector storms. This is the misconfiguration the
    // tuning rule exists to rule out.
    let config = GroupConfig::peer().with_time_silence(Duration::from_millis(1));
    let stats = run_idle_group(
        LatencyMatrix::global5(),
        &LatencyMatrix::GLOBAL5_SITES,
        &config,
        0xfeed,
    );
    assert!(
        stats.suspicions >= 3,
        "expected a false-suspicion storm, saw {} suspicions",
        stats.suspicions
    );
    // And the recommended interval for the same matrix is indeed larger
    // than the aggressive one — the rule flags this configuration.
    let recommended =
        GroupConfig::peer().recommended_time_silence(LatencyMatrix::global5().worst_one_way());
    assert!(recommended > Duration::from_millis(1));
}
