//! The simulator bench: every deterministic simulator measurement
//! outside the paper-figure targets, at full size, as one JSON document.
//!
//! Sections, in document order:
//!
//! * `lan_closed_group` — LAN closed-group request-reply, 1 client,
//!   against the 3.71 ms NewTop LAN anchor;
//! * `closed_sim`, `closed_sim_knee_per_sec` — a closed-loop client
//!   sweep (clients bind through the replicated directory) and its knee,
//!   the highest throughput across the sweep;
//! * `multi_group_sim` — aggregate closed-loop throughput over
//!   independent services from hub clients bound to all of them, with
//!   send-path batching;
//! * `open_sim_1x`, `open_sim_2x` — a fixed-rate multicast storm against
//!   a 4-member peer group with every node's CPU costs inflated (the
//!   fault DSL's `saturate`), at the base rate and at twice it;
//! * `capacity_sweep` — the geo-distributed capacity sweep
//!   (`newtop_bench::scale`);
//! * `cold_restart` — rejoin latency after a crash and recovery from
//!   durable state, per ordering, with the replay/delta breakdown.
//!
//! It takes no flags. `NEWTOP_BENCH_SEED` sets the seed (default 2000).
//! The document is a pure function of the seed, so `scripts/check.sh`
//! diffs it against the committed `BENCH_SIM.json`; regenerate that with
//! `cargo run --release --offline -p newtop-bench --bin bench_snapshot > BENCH_SIM.json`
//! and say why in CHANGES.md. Each section also asserts the invariants
//! its run must show (progress, shedding under overload, bounded queues,
//! duplicate-free delivery, sustainable capacities, recovery
//! obligations); a failed one aborts the run.

use std::collections::HashMap;
use std::time::Duration;

use newtop::nso::NsoOutput;
use newtop::simnode::GcsHarness;
use newtop_bench::scale::{render_json, run_sweep, sustainable, SweepConfig};
use newtop_bench::{bench_seed, json_array, json_object};
use newtop_check::recovery::RecoveryScenario;
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId, OrderProtocol};
use newtop_net::sim::SimConfig;
use newtop_net::site::Site;
use newtop_net::stats::Histogram;
use newtop_net::time::SimTime;
use newtop_workloads::scenario::{
    run_multi_group, run_request_reply, run_request_reply_latencies, BindingPolicy,
    MultiGroupScenario, Placement, RequestReplyScenario,
};

/// The closed-loop client sweep.
const CLIENTS: [usize; 4] = [1, 2, 4, 8];
/// The open-loop base rate, msgs/s per member; the second storm doubles it.
const OPEN_RATE: u64 = 800;
/// How long each open-loop storm lasts.
const OPEN_STORM_MS: u64 = 1000;
/// How many members the open-loop group has.
const OPEN_SIM_MEMBERS: usize = 4;
/// CPU inflation applied during the open-loop storm window (the same
/// mechanism as the fault DSL's `saturate` clause).
const OPEN_SIM_FACTOR: f64 = 3.0;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `p50_ms`, `p95_ms` and `p99_ms` fields of a latency sample.
fn quantile_fields(latencies: impl IntoIterator<Item = Duration>) -> [(&'static str, String); 3] {
    let mut h = Histogram::new();
    for d in latencies {
        h.record(d);
    }
    [("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99)]
        .map(|(key, q)| (key, format!("{:.3}", ms(h.quantile(q)))))
}

fn lan_closed_group(seed: u64) -> String {
    let closed = run_request_reply(&RequestReplyScenario {
        binding: BindingPolicy::Closed,
        ..RequestReplyScenario::paper_default(Placement::AllLan, 1, seed)
    });
    assert_eq!(closed.gave_up, 0, "the LAN closed-group client gave up");
    json_object([
        ("clients", "1".to_owned()),
        (
            "mean_response_ms",
            format!("{:.3}", ms(closed.mean_response)),
        ),
        ("completed", closed.completed.to_string()),
        ("anchor_ms", "3.71".to_owned()),
    ])
}

/// The closed-loop client sweep on the LAN, and its knee.
fn closed_loop_sim(seed: u64) -> (String, f64) {
    let mut knee = 0.0f64;
    let mut rows = Vec::new();
    for clients in CLIENTS {
        // Clients resolve the service by name through the replicated
        // directory and form a closed binding to the resolved member
        // set, so the sweep exercises the resolve path end to end.
        let (result, latencies) = run_request_reply_latencies(&RequestReplyScenario {
            binding: BindingPolicy::Directory,
            ..RequestReplyScenario::paper_default(Placement::AllLan, clients, seed)
        });
        assert!(
            result.completed > 0,
            "closed-loop simulator run with {clients} clients completed nothing"
        );
        assert_eq!(
            result.gave_up, 0,
            "a closed-loop simulator client gave up ({clients} clients)"
        );
        knee = knee.max(result.throughput);
        let mut row = vec![
            ("clients", clients.to_string()),
            ("throughput_per_sec", format!("{:.1}", result.throughput)),
            ("completed", result.completed.to_string()),
        ];
        row.extend(quantile_fields(latencies));
        rows.push(json_object(row));
    }
    (json_array(rows), knee)
}

fn multi_group_sim(seed: u64) -> String {
    let scenario = MultiGroupScenario::bench_default(seed);
    let (result, latencies) = run_multi_group(&scenario);
    assert!(
        result.completed > 0 && result.duplicated == 0,
        "multi-group run must make duplicate-free progress \
         (completed {}, duplicated {})",
        result.completed,
        result.duplicated
    );
    assert_eq!(result.gave_up, 0, "a multi-group hub proxy gave up");
    assert!(
        result.batch_frames > 0,
        "batching was on but no batch frames were sent"
    );
    let mut fields = vec![
        ("groups", scenario.groups.to_string()),
        ("hubs", scenario.hubs.to_string()),
        ("batching", "true".to_owned()),
        ("throughput_per_sec", format!("{:.1}", result.throughput)),
        ("completed", result.completed.to_string()),
        ("batch_frames", result.batch_frames.to_string()),
        ("batch_msgs", result.batch_msgs.to_string()),
        (
            "msgs_per_frame",
            format!(
                "{:.2}",
                result.batch_msgs as f64 / result.batch_frames.max(1) as f64
            ),
        ),
    ];
    fields.extend(quantile_fields(latencies));
    json_object(fields)
}

/// One open-loop storm (rate in msgs/s per member).
struct OpenSimPoint {
    shed: u64,
    peak_depth: i64,
    window: u64,
    delivered: u64,
    json: String,
}

fn open_loop_sim(seed: u64, rate: u64) -> OpenSimPoint {
    let mut cfg = SimConfig::lan(seed);
    cfg.drop_probability = 0.0;
    let mut h = GcsHarness::new(cfg);
    let roster = h.add_nodes(Site::Lan, OPEN_SIM_MEMBERS);
    // The group id travels in every message, so this name (older than
    // this binary) stays: another length would move the simulated costs.
    let group = GroupId::new("loadgen");
    let config = GroupConfig::peer()
        .with_ordering(OrderProtocol::Symmetric)
        .with_time_silence(Duration::from_millis(20));
    h.create_group(SimTime::from_millis(1), &group, &config, &roster);

    // The storm: every member multicasts at `rate` msgs/s for the whole
    // window while CPU costs are inflated, so acks lag and the credit
    // window fills — exactly the regime the flow controller bounds.
    let storm_from = 50u64;
    let storm_until = storm_from + OPEN_STORM_MS;
    h.sim
        .schedule_set_service_factor(SimTime::from_millis(storm_from), None, OPEN_SIM_FACTOR);
    h.sim
        .schedule_set_service_factor(SimTime::from_millis(storm_until), None, 1.0);
    let gap_us = 1_000_000 / rate.max(1);
    let mut scheduled: HashMap<String, SimTime> = HashMap::new();
    let mut offered = 0u64;
    for (k, &node) in roster.iter().enumerate() {
        let mut at_us = storm_from * 1000 + (k as u64) * 97;
        let mut i = 0u64;
        while at_us < storm_until * 1000 {
            let at = SimTime::from_nanos(at_us * 1000);
            let payload = format!("{node}/{i}");
            h.multicast(at, node, &group, DeliveryOrder::Total, payload.clone());
            scheduled.insert(payload, at);
            offered += 1;
            at_us += gap_us;
            i += 1;
        }
    }
    // Let the backlog drain after the inflation lifts.
    h.run_until(SimTime::from_millis(storm_until + 3000));

    let mut shed = 0u64;
    let mut peak_depth = 0i64;
    let mut delivered = 0u64;
    let mut latencies = Vec::new();
    for &node in &roster {
        let metrics = &h.node(node).gcs().observability().metrics;
        shed += metrics.counter("flow.shed");
        peak_depth = peak_depth.max(metrics.gauge("flow.queue_depth_peak").unwrap_or(0));
        for (at, out) in h.outputs(node) {
            if let NsoOutput::PeerDeliver { payload, .. } = out {
                delivered += 1;
                if let Some(&sent) = scheduled.get(&String::from_utf8_lossy(payload).into_owned()) {
                    if *at >= sent {
                        latencies.push(Duration::from_nanos(
                            at.as_nanos().saturating_sub(sent.as_nanos()),
                        ));
                    }
                }
            }
        }
    }
    let window = h
        .node(roster[0])
        .gcs()
        .flow_of(&group)
        .map_or(0, |f| f.window());
    let mut fields = vec![
        ("rate_per_member_per_sec", rate.to_string()),
        ("offered", offered.to_string()),
        ("admitted", (offered - shed).to_string()),
        ("delivered", delivered.to_string()),
        ("flow_shed", shed.to_string()),
        ("peak_queue_depth", peak_depth.to_string()),
        ("send_window", window.to_string()),
    ];
    fields.extend(quantile_fields(latencies));
    OpenSimPoint {
        shed,
        peak_depth,
        window,
        delivered,
        json: json_object(fields),
    }
}

fn capacity_sweep(seed: u64) -> String {
    let cfg = SweepConfig::full(seed);
    let outcomes = run_sweep(&cfg);
    assert!(
        outcomes.iter().all(|o| o.probes > 0),
        "a cell ran zero probes"
    );
    assert!(
        outcomes.iter().any(|o| o.capacity >= cfg.start_clients),
        "no cell sustained even the starting population"
    );
    for o in &outcomes {
        if o.capacity > 0 {
            assert!(
                sustainable(&o.measured, cfg.p99_bound),
                "recorded capacity measurement is not sustainable"
            );
        }
    }
    render_json(&cfg, &outcomes)
}

/// One ordering's cold-restart evidence: virtual time from the recovery
/// replay (snapshot + log) to the rejoin view installing at the victim,
/// per group, from the recovery campaign's kill-and-recover scenario.
fn measure_cold_restart(seed: u64, ordering: OrderProtocol) -> String {
    let run = RecoveryScenario::new(seed, ordering).run();
    let violations = run.recovery_violations();
    assert!(
        violations.is_empty(),
        "recovery obligations failed under {ordering:?}: {violations:?}"
    );
    let recovered_at = run.recovered_at.expect("victim recovered");
    let groups = run.groups.iter().map(|g| {
        let rejoined = g.rejoined_at.expect("victim rejoined");
        let full_bytes: u64 = g.survivor_full.iter().map(|r| r.payload.len() as u64).sum();
        let latency = rejoined.saturating_since(recovered_at);
        (
            g.group.to_string(),
            json_object([
                ("rejoin_latency_ms", format!("{:.3}", ms(latency))),
                ("replayed_records", g.replayed.len().to_string()),
                ("delta_bytes", g.delta_bytes.to_string()),
                ("full_history_bytes", full_bytes.to_string()),
            ]),
        )
    });
    json_object([
        (
            "recovered_at_ms",
            format!("{:.3}", recovered_at.as_millis_f64()),
        ),
        ("replayed_log_records", run.replayed_log_records.to_string()),
        ("from_snapshot", run.recovered_from_snapshot.to_string()),
        ("groups", json_object(groups)),
    ])
}

fn main() {
    let seed = bench_seed();
    let (closed_sim, knee) = closed_loop_sim(seed);
    let open_1x = open_loop_sim(seed, OPEN_RATE);
    let open_2x = open_loop_sim(seed, 2 * OPEN_RATE);
    assert!(
        open_2x.shed > 0,
        "2x-saturated open-loop run never shed: flow control not engaging"
    );
    assert!(
        open_2x.peak_depth <= open_2x.window as i64,
        "peak in-flight depth {} exceeded the send window {}",
        open_2x.peak_depth,
        open_2x.window
    );
    assert!(open_2x.delivered > 0, "saturated run delivered nothing");

    let doc = json_object([
        ("seed", seed.to_string()),
        ("lan_closed_group", lan_closed_group(seed)),
        ("closed_sim", closed_sim),
        ("closed_sim_knee_per_sec", format!("{knee:.1}")),
        ("multi_group_sim", multi_group_sim(seed)),
        ("open_sim_1x", open_1x.json),
        ("open_sim_2x", open_2x.json),
        ("capacity_sweep", capacity_sweep(seed)),
        (
            "cold_restart",
            json_object([
                (
                    "symmetric",
                    measure_cold_restart(seed, OrderProtocol::Symmetric),
                ),
                (
                    "asymmetric",
                    measure_cold_restart(seed, OrderProtocol::Asymmetric),
                ),
            ]),
        ),
    ]);
    println!("{doc}");
}
