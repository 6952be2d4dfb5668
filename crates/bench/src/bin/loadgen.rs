//! Closed- and open-loop load generator for the flow-control subsystem.
//!
//! Drives the NewTop stack in four configurations and reports, for each,
//! the numbers the overload-protection acceptance criteria track —
//! throughput, latency percentiles, flow sheds, and peak queue depth:
//!
//! * **closed/sim** — a closed-loop client sweep over the deterministic
//!   simulator ([`run_request_reply_latencies`]); finds the knee
//!   (highest throughput across the sweep).
//! * **open/sim** — a fixed-rate multicast storm against a 4-member peer
//!   group while every node's CPU costs are inflated (the `saturate`
//!   fault), at the configured rate and at 2× that rate. The 2× point
//!   must shed (non-zero `flow.shed`) while peak in-flight depth stays
//!   within the send window — bounded memory under overload.
//! * **closed/threaded** — sequential wall-clock invocations against a
//!   replicated service over real TCP sockets and the threaded runtime.
//! * **open/threaded** — a fixed-rate `peer_send` storm over the
//!   threaded runtime's bounded queues; deliveries are drained
//!   concurrently so receive latency includes any queueing.
//!
//! Flags: `--smoke` (short run + sanity assertions, used by
//! `scripts/check.sh`), `--json` (machine-readable report, used by
//! `scripts/bench_snapshot.sh`), `--seed N`, `--rate N` (open-loop
//! baseline, msgs/s per member), `--duration-ms N`.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bytes::Bytes;

use newtop::nso::{BindOptions, NsoOutput};
use newtop::simnode::GcsHarness;
use newtop_bench::bench_seed;
use newtop_flow::FlowConfig;
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId, OrderProtocol};
use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
use newtop_net::sim::SimConfig;
use newtop_net::site::{NodeId, Site};
use newtop_net::stats::Histogram;
use newtop_net::tcp::TcpEndpoint;
use newtop_net::time::SimTime;
use newtop_rt::{NodeHandle, NodeRuntime, RuntimeOptions};
use newtop_workloads::scenario::{
    run_multi_group, run_request_reply_latencies, BindingPolicy, MultiGroupScenario, Placement,
    RequestReplyScenario,
};

/// How many members the open-loop simulator group has.
const OPEN_SIM_MEMBERS: usize = 4;
/// CPU inflation applied during the open-loop storm window (the same
/// mechanism as the fault DSL's `saturate` clause).
const OPEN_SIM_FACTOR: f64 = 3.0;

struct Args {
    smoke: bool,
    json: bool,
    seed: u64,
    /// Open-loop baseline rate, msgs/s per member.
    rate: u64,
    /// Open-loop storm window / threaded storm duration.
    duration_ms: u64,
    /// Closed-loop client sweep.
    clients: Vec<usize>,
    /// Independent services in the multi-group run.
    groups: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        json: false,
        seed: bench_seed(),
        rate: 800,
        duration_ms: 1000,
        clients: vec![1, 2, 4, 8],
        groups: 8,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{name} needs an integer value"))
        };
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--json" => args.json = true,
            "--seed" => args.seed = value("--seed"),
            "--rate" => args.rate = value("--rate"),
            "--duration-ms" => args.duration_ms = value("--duration-ms"),
            "--groups" => args.groups = value("--groups") as usize,
            "--help" | "-h" => {
                println!(
                    "loadgen [--smoke] [--json] [--seed N] [--rate N] [--duration-ms N] \
                     [--groups N]\n\
                     Closed/open-loop load generator; see the crate docs."
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    if args.smoke {
        args.duration_ms = args.duration_ms.min(400);
        args.clients = vec![1, 4];
    }
    args
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn quantiles(h: &mut Histogram) -> (f64, f64, f64) {
    (
        ms(h.quantile(0.50)),
        ms(h.quantile(0.95)),
        ms(h.quantile(0.99)),
    )
}

/// One point of the closed-loop simulator sweep.
struct ClosedSimPoint {
    clients: usize,
    throughput: f64,
    completed: u64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

fn closed_loop_sim(args: &Args) -> Vec<ClosedSimPoint> {
    args.clients
        .iter()
        .map(|&clients| {
            // Directory-driven binding (PR 9): clients resolve the
            // service by name through the replicated directory and form
            // a closed binding to the resolved member set, so every
            // loadgen run exercises the resolve path end to end.
            let mut scenario = RequestReplyScenario {
                binding: BindingPolicy::Directory,
                ..RequestReplyScenario::paper_default(Placement::AllLan, clients, args.seed)
            };
            if args.smoke {
                scenario.duration = Duration::from_millis(1200);
            }
            let (result, latencies) = run_request_reply_latencies(&scenario);
            let mut h = Histogram::new();
            for d in latencies {
                h.record(d);
            }
            let (p50_ms, p95_ms, p99_ms) = quantiles(&mut h);
            ClosedSimPoint {
                clients,
                throughput: result.throughput,
                completed: result.completed,
                p50_ms,
                p95_ms,
                p99_ms,
            }
        })
        .collect()
}

/// One open-loop simulator storm (rate in msgs/s per member).
struct OpenSimPoint {
    rate: u64,
    offered: u64,
    admitted: u64,
    delivered: u64,
    shed: u64,
    peak_depth: i64,
    window: u64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

fn open_loop_sim(args: &Args, rate: u64) -> OpenSimPoint {
    let mut cfg = SimConfig::lan(args.seed);
    cfg.drop_probability = 0.0;
    let mut h = GcsHarness::new(cfg);
    let roster = h.add_nodes(Site::Lan, OPEN_SIM_MEMBERS);
    let group = GroupId::new("loadgen");
    let config = GroupConfig::peer()
        .with_ordering(OrderProtocol::Symmetric)
        .with_time_silence(Duration::from_millis(20));
    h.create_group(SimTime::from_millis(1), &group, &config, &roster);

    // The storm: every member multicasts at `rate` msgs/s for the whole
    // window while CPU costs are inflated, so acks lag and the credit
    // window fills — exactly the regime the flow controller bounds.
    let storm_from = 50u64;
    let storm_until = storm_from + args.duration_ms;
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
    let mut lat = Histogram::new();
    for &node in &roster {
        let metrics = &h.node(node).gcs().observability().metrics;
        shed += metrics.counter("flow.shed");
        peak_depth = peak_depth.max(metrics.gauge("flow.queue_depth_peak").unwrap_or(0));
        for (at, out) in h.outputs(node) {
            if let NsoOutput::PeerDeliver { payload, .. } = out {
                delivered += 1;
                if let Some(&sent) = scheduled.get(&String::from_utf8_lossy(payload).into_owned()) {
                    if *at >= sent {
                        lat.record(Duration::from_nanos(
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
    let (p50_ms, p95_ms, p99_ms) = quantiles(&mut lat);
    OpenSimPoint {
        rate,
        offered,
        admitted: offered - shed,
        delivered,
        shed,
        peak_depth,
        window,
        p50_ms,
        p95_ms,
        p99_ms,
    }
}

/// Closed-loop wall-clock invocations over real TCP sockets.
struct ClosedThreaded {
    iters: u64,
    throughput: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    queue_peak: u64,
    queue_shed: u64,
}

fn closed_loop_threaded(args: &Args) -> ClosedThreaded {
    let iters: u64 = if args.smoke { 25 } else { 200 };
    let ids: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let mut endpoints = Vec::new();
    let mut rxs = Vec::new();
    for &id in &ids {
        let (tx, rx) = newtop_flow::queue::bounded(FlowConfig::default().queue_capacity);
        let ep = TcpEndpoint::bind(id, "127.0.0.1:0".parse().unwrap(), tx).expect("bind tcp");
        endpoints.push(ep);
        rxs.push(rx);
    }
    let addrs: Vec<_> = endpoints.iter().map(TcpEndpoint::local_addr).collect();
    for ep in &endpoints {
        for (&id, &addr) in ids.iter().zip(addrs.iter()) {
            ep.register_peer(id, addr);
        }
    }
    let nodes: Vec<NodeHandle> = endpoints
        .iter()
        .zip(rxs)
        .map(|(ep, rx)| NodeRuntime::spawn(ep.handle(), rx, RuntimeOptions::new()))
        .collect();

    let servers = vec![ids[0], ids[1]];
    let group = GroupId::new("loadgen-tcp");
    for handle in &nodes[..servers.len()] {
        let group = group.clone();
        let members = servers.clone();
        handle.with_nso(move |nso, now, out| {
            nso.create_server_group(
                group.clone(),
                members,
                Replication::Active,
                OpenOptimisation::None,
                GroupConfig::request_reply(),
                now,
                out,
            )
            .expect("create group");
            nso.register_group_servant(
                group,
                Box::new(|op: &str, _: &[u8]| Bytes::from(op.to_owned())),
            );
        });
    }
    let client = &nodes[2];
    let g = group.clone();
    let first = servers[0];
    client.with_nso(move |nso, now, out| {
        nso.bind(g, BindOptions::open(first), now, out)
            .expect("bind");
    });
    let ready = client
        .wait_for_output(Duration::from_secs(15), |o| {
            matches!(o, NsoOutput::BindingReady { .. })
        })
        .expect("binding established");
    let NsoOutput::BindingReady { group: binding } = ready else {
        unreachable!()
    };

    let mut lat = Histogram::new();
    let start = Instant::now();
    for i in 0..iters {
        let call_start = Instant::now();
        let binding = binding.clone();
        client.with_nso(move |nso, now, out| {
            let binding = nso.handle_for(&binding).expect("binding handle");
            binding
                .invoke(
                    nso,
                    "ping",
                    Bytes::from(format!("{i}")),
                    ReplyMode::First,
                    now,
                    out,
                )
                .expect("invoke");
        });
        client
            .wait_for_output(Duration::from_secs(15), |o| {
                matches!(o, NsoOutput::InvocationComplete { .. })
            })
            .expect("invocation completed");
        lat.record(call_start.elapsed());
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = client.output_stats();
    let (p50_ms, p95_ms, p99_ms) = quantiles(&mut lat);
    let result = ClosedThreaded {
        iters,
        throughput: iters as f64 / secs,
        p50_ms,
        p95_ms,
        p99_ms,
        queue_peak: stats.peak_depth(),
        queue_shed: stats.shed(),
    };
    for n in nodes {
        n.shutdown();
    }
    for mut ep in endpoints {
        ep.shutdown();
    }
    result
}

/// Fixed-rate `peer_send` storm over the threaded runtime.
struct OpenThreaded {
    offered: u64,
    admitted: u64,
    delivered: u64,
    send_errors: u64,
    flow_shed: u64,
    queue_peak: u64,
    queue_capacity: usize,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

fn open_loop_threaded(args: &Args) -> OpenThreaded {
    let net = newtop_net::channel::ChannelNetwork::new();
    let members: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let nodes: Vec<NodeHandle> = members
        .iter()
        .map(|&id| {
            let (transport, rx) = net.endpoint(id);
            NodeRuntime::spawn(transport, rx, RuntimeOptions::new())
        })
        .collect();
    let group = GroupId::new("loadgen-peers");
    for handle in &nodes {
        let group = group.clone();
        let members = members.clone();
        handle.with_nso(move |nso, now, out| {
            nso.create_peer_group(
                group,
                members,
                GroupConfig::peer().with_time_silence(Duration::from_millis(20)),
                now,
                out,
            )
            .expect("create peer group");
        });
    }

    // Total offered load across the group: `rate` msgs/s, round-robin
    // over the members, for `duration_ms`.
    let offered = (args.rate * args.duration_ms / 1000).max(30);
    let gap = Duration::from_nanos(1_000_000_000 * args.duration_ms / 1000 / offered.max(1));
    let stamps = Mutex::new(vec![None::<Instant>; offered as usize]);
    let mut send_errors = 0u64;
    let mut lat = Histogram::new();
    let mut delivered = 0u64;
    std::thread::scope(|scope| {
        let collectors: Vec<_> = nodes
            .iter()
            .map(|handle| {
                let stamps = &stamps;
                scope.spawn(move || {
                    let mut h = Histogram::new();
                    let mut seen = 0u64;
                    // Each member delivers every admitted multicast; stop
                    // when deliveries dry up.
                    while let Some(NsoOutput::PeerDeliver { payload, .. }) = handle
                        .wait_for_output(Duration::from_secs(2), |o| {
                            matches!(o, NsoOutput::PeerDeliver { .. })
                        })
                    {
                        seen += 1;
                        let idx: usize = String::from_utf8_lossy(&payload)
                            .parse()
                            .expect("loadgen payload is its index");
                        if let Some(sent) = stamps.lock().unwrap()[idx] {
                            h.record(sent.elapsed());
                        }
                    }
                    (seen, h)
                })
            })
            .collect();

        for i in 0..offered {
            let handle = &nodes[(i % nodes.len() as u64) as usize];
            let group = group.clone();
            stamps.lock().unwrap()[i as usize] = Some(Instant::now());
            let ok = handle.with_nso(move |nso, now, out| {
                let Some(peer) = nso.handle_for(&group) else {
                    return false;
                };
                peer.send(
                    nso,
                    Bytes::from(format!("{i}")),
                    DeliveryOrder::Total,
                    now,
                    out,
                )
                .is_ok()
            });
            if !ok {
                send_errors += 1;
            }
            std::thread::sleep(gap);
        }
        for c in collectors {
            let (seen, h) = c.join().expect("collector thread");
            delivered += seen;
            lat.merge(&h);
        }
    });

    let mut flow_shed = 0u64;
    let mut queue_peak = 0u64;
    for handle in &nodes {
        flow_shed += handle.with_nso(|nso, _, _| nso.metrics().counter("flow.shed"));
        queue_peak = queue_peak.max(handle.output_stats().peak_depth());
    }
    let queue_capacity = nodes[0].output_stats().capacity();
    let (p50_ms, p95_ms, p99_ms) = quantiles(&mut lat);
    let result = OpenThreaded {
        offered,
        admitted: offered - send_errors,
        delivered,
        send_errors,
        flow_shed,
        queue_peak,
        queue_capacity,
        p50_ms,
        p95_ms,
        p99_ms,
    };
    for n in nodes {
        n.shutdown();
    }
    result
}

/// The multi-group run: aggregate closed-loop throughput over
/// `--groups` independent services from hub clients bound to all of
/// them, with batching on.
struct MultiGroupPoint {
    groups: usize,
    hubs: usize,
    throughput: f64,
    completed: u64,
    duplicated: u32,
    batch_frames: u64,
    batch_msgs: u64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

fn multi_group_sim(args: &Args) -> MultiGroupPoint {
    let mut scenario = MultiGroupScenario {
        groups: args.groups,
        ..MultiGroupScenario::bench_default(args.seed)
    };
    if args.smoke {
        scenario.groups = scenario.groups.min(3);
        scenario.hubs = 4;
        scenario.duration = Duration::from_millis(1200);
    }
    let (result, latencies) = run_multi_group(&scenario);
    let mut h = Histogram::new();
    for d in latencies {
        h.record(d);
    }
    let (p50_ms, p95_ms, p99_ms) = quantiles(&mut h);
    MultiGroupPoint {
        groups: scenario.groups,
        hubs: scenario.hubs,
        throughput: result.throughput,
        completed: result.completed,
        duplicated: result.duplicated,
        batch_frames: result.batch_frames,
        batch_msgs: result.batch_msgs,
        p50_ms,
        p95_ms,
        p99_ms,
    }
}

fn main() {
    let args = parse_args();

    let closed_sim = closed_loop_sim(&args);
    let open_base = open_loop_sim(&args, args.rate);
    let open_2x = open_loop_sim(&args, args.rate * 2);
    let closed_t = closed_loop_threaded(&args);
    let open_t = open_loop_threaded(&args);
    let multi = multi_group_sim(&args);

    let knee = closed_sim
        .iter()
        .map(|p| p.throughput)
        .fold(0.0f64, f64::max);

    if args.json {
        println!("{{");
        println!("  \"seed\": {},", args.seed);
        println!("  \"smoke\": {},", args.smoke);
        println!("  \"closed_sim\": [");
        for (i, p) in closed_sim.iter().enumerate() {
            let sep = if i + 1 == closed_sim.len() { "" } else { "," };
            println!(
                "    {{\"clients\": {}, \"throughput_per_sec\": {:.1}, \"completed\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}{sep}",
                p.clients, p.throughput, p.completed, p.p50_ms, p.p95_ms, p.p99_ms
            );
        }
        println!("  ],");
        println!("  \"closed_sim_knee_per_sec\": {knee:.1},");
        println!("  \"multi_group_sim\": {{");
        println!(
            "    \"groups\": {}, \"hubs\": {}, \"batching\": true,",
            multi.groups, multi.hubs
        );
        println!(
            "    \"throughput_per_sec\": {:.1}, \"completed\": {},",
            multi.throughput, multi.completed
        );
        println!(
            "    \"batch_frames\": {}, \"batch_msgs\": {}, \"msgs_per_frame\": {:.2},",
            multi.batch_frames,
            multi.batch_msgs,
            multi.batch_msgs as f64 / multi.batch_frames.max(1) as f64
        );
        println!(
            "    \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}",
            multi.p50_ms, multi.p95_ms, multi.p99_ms
        );
        println!("  }},");
        for (name, p) in [("open_sim_1x", &open_base), ("open_sim_2x", &open_2x)] {
            println!("  \"{name}\": {{");
            println!("    \"rate_per_member_per_sec\": {},", p.rate);
            println!("    \"offered\": {},", p.offered);
            println!("    \"admitted\": {},", p.admitted);
            println!("    \"delivered\": {},", p.delivered);
            println!("    \"flow_shed\": {},", p.shed);
            println!("    \"peak_queue_depth\": {},", p.peak_depth);
            println!("    \"send_window\": {},", p.window);
            println!(
                "    \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}",
                p.p50_ms, p.p95_ms, p.p99_ms
            );
            println!("  }},");
        }
        println!("  \"closed_threaded_tcp\": {{");
        println!("    \"iters\": {},", closed_t.iters);
        println!("    \"throughput_per_sec\": {:.1},", closed_t.throughput);
        println!(
            "    \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3},",
            closed_t.p50_ms, closed_t.p95_ms, closed_t.p99_ms
        );
        println!("    \"output_queue_peak\": {},", closed_t.queue_peak);
        println!("    \"output_queue_shed\": {}", closed_t.queue_shed);
        println!("  }},");
        println!("  \"open_threaded\": {{");
        println!("    \"offered\": {},", open_t.offered);
        println!("    \"admitted\": {},", open_t.admitted);
        println!("    \"delivered\": {},", open_t.delivered);
        println!("    \"send_errors\": {},", open_t.send_errors);
        println!("    \"flow_shed\": {},", open_t.flow_shed);
        println!("    \"output_queue_peak\": {},", open_t.queue_peak);
        println!("    \"output_queue_capacity\": {},", open_t.queue_capacity);
        println!(
            "    \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}",
            open_t.p50_ms, open_t.p95_ms, open_t.p99_ms
        );
        println!("  }}");
        println!("}}");
    } else {
        println!("closed-loop / simulator (LAN, closed binding)");
        println!("  clients  throughput/s  completed   p50ms   p95ms   p99ms");
        for p in &closed_sim {
            println!(
                "  {:>7}  {:>12.1}  {:>9}  {:>6.2}  {:>6.2}  {:>6.2}",
                p.clients, p.throughput, p.completed, p.p50_ms, p.p95_ms, p.p99_ms
            );
        }
        println!("  knee: {knee:.1}/s");
        println!(
            "multi-group / simulator ({} services x3, {} hubs, batching on)",
            multi.groups, multi.hubs
        );
        println!(
            "  {:.1}/s aggregate ({} completed), batch {:.2} msgs/frame, p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms",
            multi.throughput,
            multi.completed,
            multi.batch_msgs as f64 / multi.batch_frames.max(1) as f64,
            multi.p50_ms,
            multi.p95_ms,
            multi.p99_ms
        );
        println!(
            "open-loop / simulator ({OPEN_SIM_MEMBERS} members, x{OPEN_SIM_FACTOR} CPU inflation)"
        );
        println!(
            "  rate/member  offered  delivered  shed  peak-depth  window   p50ms   p95ms   p99ms"
        );
        for p in [&open_base, &open_2x] {
            println!(
                "  {:>11}  {:>7}  {:>9}  {:>4}  {:>10}  {:>6}  {:>6.2}  {:>6.2}  {:>6.2}",
                p.rate,
                p.offered,
                p.delivered,
                p.shed,
                p.peak_depth,
                p.window,
                p.p50_ms,
                p.p95_ms,
                p.p99_ms
            );
        }
        println!("closed-loop / threaded runtime over TCP");
        println!(
            "  {} calls, {:.1}/s, p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms, output queue peak {} shed {}",
            closed_t.iters,
            closed_t.throughput,
            closed_t.p50_ms,
            closed_t.p95_ms,
            closed_t.p99_ms,
            closed_t.queue_peak,
            closed_t.queue_shed
        );
        println!("open-loop / threaded runtime (peer storm)");
        println!(
            "  offered {} admitted {} delivered {} flow.shed {} queue peak {}/{} p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms",
            open_t.offered,
            open_t.admitted,
            open_t.delivered,
            open_t.flow_shed,
            open_t.queue_peak,
            open_t.queue_capacity,
            open_t.p50_ms,
            open_t.p95_ms,
            open_t.p99_ms
        );
    }

    if args.smoke {
        // Sanity gates for CI: the system made progress everywhere, the
        // 2x-saturated open-loop run shed load, and every queue stayed
        // within its configured bound.
        assert!(
            closed_sim.iter().all(|p| p.completed > 0),
            "closed-loop simulator run completed nothing"
        );
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
        assert!(closed_t.iters > 0 && closed_t.p50_ms > 0.0);
        assert!(
            multi.completed > 0 && multi.duplicated == 0,
            "multi-group run must make duplicate-free progress \
             (completed {}, duplicated {})",
            multi.completed,
            multi.duplicated
        );
        assert!(
            multi.batch_frames > 0,
            "batching was on but no batch frames were sent"
        );
        assert!(
            open_t.delivered >= open_t.admitted,
            "threaded peers delivered {} < admitted {}",
            open_t.delivered,
            open_t.admitted
        );
        assert!(
            open_t.queue_peak <= open_t.queue_capacity as u64,
            "output queue peak {} exceeded capacity {}",
            open_t.queue_peak,
            open_t.queue_capacity
        );
        eprintln!("loadgen --smoke: all sanity gates passed");
    }
}
