//! Overload integration: a group with one slow member under sustained
//! load must stay within its memory bound (the send window caps every
//! sender's in-flight buffer), shed the excess instead of queueing it,
//! and — once the slow member's CPU recovers — converge so that all
//! members have delivered the identical totally-ordered sequence.

use std::time::Duration;

use newtop::simnode::GcsHarness;
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId, OrderProtocol};
use newtop_net::sim::SimConfig;
use newtop_net::site::Site;
use newtop_net::time::SimTime;

fn run_slow_member(ordering: OrderProtocol, seed: u64) {
    let mut h = GcsHarness::new(SimConfig::lan(seed));
    let roster = h.add_nodes(Site::Lan, 3);
    let group = GroupId::new("slow");
    let config = GroupConfig::peer()
        .with_ordering(ordering)
        .with_time_silence(Duration::from_millis(20));
    h.create_group(SimTime::from_millis(1), &group, &config, &roster);

    // One member runs 4x slower than the rest for most of the burst.
    let slow = roster[2];
    h.sim
        .schedule_set_service_factor(SimTime::from_millis(50), Some(slow), 4.0);
    h.sim
        .schedule_set_service_factor(SimTime::from_millis(900), Some(slow), 1.0);

    // Sustained load: every member multicasts every 2 ms throughout the
    // slow window — far more than the slowed group can acknowledge.
    let mut offered = 0u64;
    for (k, &node) in roster.iter().enumerate() {
        let mut at = 60 + k as u64;
        let mut i = 0u64;
        while at < 900 {
            let payload = format!("{node}/{i}");
            h.multicast(
                SimTime::from_millis(at),
                node,
                &group,
                DeliveryOrder::Total,
                payload,
            );
            offered += 1;
            at += 2;
            i += 1;
        }
    }
    // Plenty of quiet time for the recovered member to drain its backlog.
    h.run_until(SimTime::from_millis(6000));

    // Memory bound: no sender's in-flight buffer ever exceeded the send
    // window, and the metrics gauge agrees.
    let mut shed = 0u64;
    for &n in &roster {
        let gcs = h.node(n).gcs();
        let flow = gcs.flow_of(&group).expect("still a member");
        assert!(
            flow.peak_in_flight() <= flow.window(),
            "node {n}: peak in-flight {} burst past the window {}",
            flow.peak_in_flight(),
            flow.window()
        );
        let metrics = &gcs.observability().metrics;
        let peak_gauge = metrics.gauge("flow.queue_depth_peak").unwrap_or(0);
        assert!(
            peak_gauge <= flow.window() as i64,
            "node {n}: flow.queue_depth_peak {peak_gauge} exceeds the window"
        );
        shed += metrics.counter("flow.shed");
    }
    assert!(
        shed > 0,
        "sustained load never tripped admission control ({offered} offered)"
    );

    // No member was evicted: the group rode out the slowdown without a
    // view change, so every admitted multicast reached everyone.
    for &n in &roster {
        assert_eq!(
            h.views(n, &group).len(),
            1,
            "node {n} installed extra views"
        );
    }

    // Catch-up: after the factor is restored all three members hold the
    // identical totally-ordered delivery sequence covering every
    // admitted (non-shed) multicast.
    let reference = h.delivered(roster[0], &group);
    assert_eq!(
        reference.len() as u64,
        offered - shed,
        "admitted multicasts were lost (offered {offered}, shed {shed})"
    );
    for &n in &roster[1..] {
        assert_eq!(
            h.delivered(n, &group),
            reference,
            "node {n} diverged from (or lags) the group's delivery order"
        );
    }
}

#[test]
fn slow_member_stays_bounded_and_catches_up_symmetric() {
    run_slow_member(OrderProtocol::Symmetric, 42);
}

#[test]
fn slow_member_stays_bounded_and_catches_up_asymmetric() {
    run_slow_member(OrderProtocol::Asymmetric, 43);
}
