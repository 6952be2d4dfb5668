//! The smart proxy end to end: queued calls, automatic rebind-and-retry
//! across a request-manager crash, give-up when every replica dies, and
//! two proxies sharing one NSO.

use std::time::Duration;

use bytes::Bytes;

use newtop::nso::{BindOptions, Nso, NsoOutput};
use newtop::proxy::{ProxyEvent, SmartProxy};
use newtop::simnode::{NsoApp, NsoNode};
use newtop::tags;
use newtop_gcs::group::{GroupConfig, GroupId, OrderProtocol};
use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
use newtop_net::sim::{Outbox, Sim, SimConfig};
use newtop_net::site::{NodeId, Site};
use newtop_net::time::SimTime;

fn gid() -> GroupId {
    GroupId::new("proxied-svc")
}

struct Server {
    group: GroupId,
    members: Vec<NodeId>,
}

impl NsoApp for Server {
    fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        nso.create_server_group(
            self.group.clone(),
            self.members.clone(),
            Replication::Active,
            OpenOptimisation::None,
            GroupConfig {
                ordering: OrderProtocol::Asymmetric,
                time_silence: Duration::from_millis(20),
                ..GroupConfig::request_reply()
            },
            now,
            out,
        )
        .expect("server group");
        nso.register_group_servant(
            self.group.clone(),
            Box::new(move |_: &str, args: &[u8]| Bytes::copy_from_slice(args)),
        );
    }
    fn on_output(&mut self, _: &mut Nso, _: NsoOutput, _: SimTime, _: &mut Outbox) {}
}

/// An app driving everything through the proxy.
struct ProxyClient {
    proxy: SmartProxy,
    total: u64,
    issued: u64,
    events: Vec<ProxyEvent>,
}

impl ProxyClient {
    fn maybe_issue(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        while self.issued < self.total && self.proxy.pending() < 1 {
            self.issued += 1;
            let n = self.proxy.invoke(
                nso,
                "echo",
                Bytes::from(vec![self.issued as u8]),
                ReplyMode::All,
                now,
                out,
            );
            assert_eq!(n, self.issued, "proxy numbers are sequential");
        }
    }
}

impl NsoApp for ProxyClient {
    fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        // The first call binds; calls made before the binding is up are
        // queued.
        self.maybe_issue(nso, now, out);
    }
    fn on_timer(&mut self, nso: &mut Nso, tag: u64, now: SimTime, out: &mut Outbox) {
        self.proxy.on_timer(nso, tag, now, out);
    }
    fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, now: SimTime, out: &mut Outbox) {
        if let Some(ev) = self.proxy.on_output(nso, &output, now, out) {
            self.events.push(ev);
            self.maybe_issue(nso, now, out);
        }
    }
}

fn build(open: bool, total: u64, seed: u64) -> (Sim, Vec<NodeId>, NodeId) {
    let mut sim = Sim::new(SimConfig::lan(seed));
    let servers: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    for &s in &servers {
        sim.add_node(
            Site::Lan,
            Box::new(NsoNode::new(
                s,
                Box::new(Server {
                    group: gid(),
                    members: servers.clone(),
                }),
            )),
        );
    }
    let opts = if open {
        BindOptions::open(servers[0])
    } else {
        BindOptions::closed(servers.clone())
    };
    let proxy = SmartProxy::new(
        gid(),
        servers.clone(),
        opts.with_time_silence(Duration::from_millis(20)),
        tags::APP_BASE,
    );
    let client = NodeId::from_index(3);
    sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            client,
            Box::new(ProxyClient {
                proxy,
                total,
                issued: 0,
                events: Vec::new(),
            }),
        )),
    );
    (sim, servers, client)
}

fn completions(sim: &Sim, client: NodeId) -> Vec<u64> {
    let app = sim
        .node_ref::<NsoNode>(client)
        .unwrap()
        .app_ref::<ProxyClient>()
        .unwrap();
    let mut done: Vec<u64> = app
        .events
        .iter()
        .filter_map(|e| match e {
            ProxyEvent::Complete { number, .. } => Some(*number),
            _ => None,
        })
        .collect();
    done.sort_unstable();
    done
}

#[test]
fn proxy_queues_then_completes_everything() {
    let (mut sim, _, client) = build(true, 20, 91);
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(completions(&sim, client), (1..=20).collect::<Vec<_>>());
    let app = sim
        .node_ref::<NsoNode>(client)
        .unwrap()
        .app_ref::<ProxyClient>()
        .unwrap();
    assert!(app.events.contains(&ProxyEvent::Ready));
    assert_eq!(app.proxy.pending(), 0);
}

#[test]
fn proxy_rebinds_and_loses_nothing_when_the_manager_dies() {
    let (mut sim, servers, client) = build(true, 60, 92);
    sim.schedule_crash(SimTime::from_millis(60), servers[0]);
    sim.run_until(SimTime::from_secs(20));
    assert_eq!(completions(&sim, client), (1..=60).collect::<Vec<_>>());
    let app = sim
        .node_ref::<NsoNode>(client)
        .unwrap()
        .app_ref::<ProxyClient>()
        .unwrap();
    assert!(
        app.events
            .iter()
            .any(|e| matches!(e, ProxyEvent::Rebound { .. })),
        "the proxy rebound automatically"
    );
}

#[test]
fn closed_proxy_masks_failures_without_rebinding() {
    let (mut sim, servers, client) = build(false, 60, 93);
    sim.schedule_crash(SimTime::from_millis(60), servers[2]);
    sim.run_until(SimTime::from_secs(20));
    assert_eq!(completions(&sim, client), (1..=60).collect::<Vec<_>>());
    let app = sim
        .node_ref::<NsoNode>(client)
        .unwrap()
        .app_ref::<ProxyClient>()
        .unwrap();
    assert!(
        !app.events
            .iter()
            .any(|e| matches!(e, ProxyEvent::Rebound { .. })),
        "closed groups need no rebinding"
    );
}

#[test]
fn proxy_gives_up_when_every_replica_is_dead() {
    let (mut sim, servers, client) = build(true, 5, 94);
    for &s in &servers {
        sim.schedule_crash(SimTime::ZERO, s);
    }
    sim.run_until(SimTime::from_secs(60));
    let app = sim
        .node_ref::<NsoNode>(client)
        .unwrap()
        .app_ref::<ProxyClient>()
        .unwrap();
    assert!(
        app.events.contains(&ProxyEvent::GaveUp),
        "events: {:?}",
        app.events
    );
    assert!(completions(&sim, client).is_empty());
}

/// One client node holding one proxy per service.
struct TwoServiceClient {
    /// `(proxy, its service's replicas)`.
    proxies: Vec<(SmartProxy, Vec<NodeId>)>,
    per_proxy: u64,
    issued: Vec<u64>,
    /// `(proxy index, replying servers)` per completed call.
    completions: Vec<(usize, Vec<NodeId>)>,
}

impl TwoServiceClient {
    fn maybe_issue(&mut self, idx: usize, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        let proxy = &mut self.proxies[idx].0;
        if self.issued[idx] < self.per_proxy && proxy.pending() == 0 {
            self.issued[idx] += 1;
            proxy.invoke(nso, "echo", Bytes::new(), ReplyMode::All, now, out);
        }
    }
}

impl NsoApp for TwoServiceClient {
    fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        for idx in 0..self.proxies.len() {
            self.maybe_issue(idx, nso, now, out);
        }
    }
    fn on_timer(&mut self, nso: &mut Nso, tag: u64, now: SimTime, out: &mut Outbox) {
        for (proxy, _) in &mut self.proxies {
            proxy.on_timer(nso, tag, now, out);
        }
    }
    /// Every output goes to every proxy: each must pick out its own.
    fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, now: SimTime, out: &mut Outbox) {
        for idx in 0..self.proxies.len() {
            if let Some(ProxyEvent::Complete { replies, .. }) =
                self.proxies[idx].0.on_output(nso, &output, now, out)
            {
                self.completions
                    .push((idx, replies.iter().map(|(s, _)| *s).collect()));
                self.maybe_issue(idx, nso, now, out);
            }
        }
    }
}

#[test]
fn two_proxies_in_one_nso_each_reach_their_own_service() {
    let mut sim = Sim::new(SimConfig::lan(95));
    let services: Vec<(GroupId, Vec<NodeId>)> = ["svc-a", "svc-b"]
        .into_iter()
        .enumerate()
        .map(|(g, name)| {
            let members = (0..3)
                .map(|i| NodeId::from_index(3 * g as u32 + i))
                .collect();
            (GroupId::new(name), members)
        })
        .collect();
    for (group, members) in &services {
        for &s in members {
            sim.add_node(
                Site::Lan,
                Box::new(NsoNode::new(
                    s,
                    Box::new(Server {
                        group: group.clone(),
                        members: members.clone(),
                    }),
                )),
            );
        }
    }
    let proxies = services
        .iter()
        .zip(tags::APP_BASE..)
        .map(|((group, members), tag)| {
            let opts = BindOptions::open(members[0]).with_time_silence(Duration::from_millis(20));
            (
                SmartProxy::new(group.clone(), members.clone(), opts, tag),
                members.clone(),
            )
        })
        .collect();
    let client = NodeId::from_index(6);
    sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            client,
            Box::new(TwoServiceClient {
                proxies,
                per_proxy: 20,
                issued: vec![0, 0],
                completions: Vec::new(),
            }),
        )),
    );
    sim.run_until(SimTime::from_secs(10));
    let app = sim
        .node_ref::<NsoNode>(client)
        .unwrap()
        .app_ref::<TwoServiceClient>()
        .unwrap();
    for (idx, (_, members)) in app.proxies.iter().enumerate() {
        let done: Vec<&Vec<NodeId>> = app
            .completions
            .iter()
            .filter(|(i, _)| *i == idx)
            .map(|(_, servers)| servers)
            .collect();
        assert_eq!(done.len(), 20, "proxy {idx} completed every call");
        for servers in done {
            assert_eq!(servers.len(), 3, "wait-for-all gathers all three");
            assert!(
                servers.iter().all(|s| members.contains(s)),
                "proxy {idx} got replies from {servers:?}, outside its service {members:?}"
            );
        }
    }
}
