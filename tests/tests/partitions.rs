//! Partition behaviour through the full stack: the network splits, each
//! side installs its own views (the paper's partitionable model), clients
//! rebind within their side, and traffic continues after healing.

use std::time::Duration;

use bytes::Bytes;

use newtop::nso::{BindOptions, Nso, NsoOutput};
use newtop::proxy::{ProxyEvent, SmartProxy};
use newtop::simnode::{NsoApp, NsoNode};
use newtop::tags;
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId};
use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
use newtop_net::sim::{Outbox, Sim, SimConfig};
use newtop_net::site::{NodeId, Site};
use newtop_net::time::SimTime;

fn gid() -> GroupId {
    GroupId::new("part-svc")
}

struct Server {
    members: Vec<NodeId>,
}

impl NsoApp for Server {
    fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        nso.create_server_group(
            gid(),
            self.members.clone(),
            Replication::Active,
            OpenOptimisation::None,
            GroupConfig {
                time_silence: Duration::from_millis(20),
                ..GroupConfig::request_reply()
            },
            now,
            out,
        )
        .expect("server group");
        let me = nso.node().index();
        nso.register_group_servant(
            gid(),
            Box::new(move |_: &str, _: &[u8]| Bytes::from(vec![me as u8])),
        );
    }
    fn on_output(&mut self, _: &mut Nso, _: NsoOutput, _: SimTime, _: &mut Outbox) {}
}

/// An unbounded closed-loop client whose smart proxy rebinds and
/// retries.
struct Client {
    proxy: SmartProxy,
    completed: u32,
    rebinds: u32,
}

impl Client {
    fn issue(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        self.proxy
            .invoke(nso, "ping", Bytes::new(), ReplyMode::First, now, out);
    }
}

impl NsoApp for Client {
    fn on_start(&mut self, _nso: &mut Nso, _now: SimTime, out: &mut Outbox) {
        out.set_timer(Duration::from_millis(5), tags::APP_BASE);
    }
    fn on_timer(&mut self, nso: &mut Nso, tag: u64, now: SimTime, out: &mut Outbox) {
        if tag == tags::APP_BASE {
            self.issue(nso, now, out);
        } else {
            self.proxy.on_timer(nso, tag, now, out);
        }
    }
    fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, now: SimTime, out: &mut Outbox) {
        match self.proxy.on_output(nso, &output, now, out) {
            Some(ProxyEvent::Complete { .. }) => {
                self.completed += 1;
                self.issue(nso, now, out);
            }
            Some(ProxyEvent::Rebound { broken: true }) => self.rebinds += 1,
            _ => {}
        }
    }
}

#[test]
fn client_side_of_a_partition_keeps_working() {
    let mut sim = Sim::new(SimConfig::lan(61));
    let servers: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    for &s in &servers {
        sim.add_node(
            Site::Lan,
            Box::new(NsoNode::new(
                s,
                Box::new(Server {
                    members: servers.clone(),
                }),
            )),
        );
    }
    let client = NodeId::from_index(3);
    sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            client,
            Box::new(Client {
                proxy: SmartProxy::new(
                    gid(),
                    servers.clone(),
                    BindOptions::open(servers[0]).with_time_silence(Duration::from_millis(20)),
                    tags::APP_BASE + 1,
                ),
                completed: 0,
                rebinds: 0,
            }),
        )),
    );

    // Partition the client's manager (s0) away from everyone else.
    sim.schedule_partition(
        SimTime::from_millis(80),
        vec![vec![servers[0]], vec![servers[1], servers[2], client]],
    );
    sim.run_until(SimTime::from_secs(6));
    let mid = sim
        .node_ref::<NsoNode>(client)
        .unwrap()
        .app_ref::<Client>()
        .unwrap();
    let (mid_completed, mid_rebinds) = (mid.completed, mid.rebinds);
    assert!(
        mid_rebinds >= 1,
        "the client rebound away from the isolated manager"
    );
    assert!(
        mid_completed > 50,
        "traffic continued on the majority side: {mid_completed}"
    );

    // The majority side's server group excluded s0.
    let view = sim
        .node_ref::<NsoNode>(servers[1])
        .unwrap()
        .nso()
        .view_of(&gid())
        .expect("view")
        .clone();
    assert!(
        !view.contains(servers[0]),
        "majority view excludes the isolated server"
    );
    assert_eq!(view.len(), 2);

    // Heal; traffic keeps flowing (the departed replica stays excluded
    // until an explicit re-join, which is the paper's model: the
    // membership service removes it, applications decide about merges).
    sim.schedule_heal(SimTime::from_secs(6));
    sim.run_until(SimTime::from_secs(9));
    let end = sim
        .node_ref::<NsoNode>(client)
        .unwrap()
        .app_ref::<Client>()
        .unwrap();
    assert!(
        end.completed > mid_completed + 50,
        "traffic continued after healing"
    );
}

#[test]
fn peer_partition_splits_and_both_sides_deliver_internally() {
    struct Peer {
        members: Vec<NodeId>,
        delivered: Vec<(NodeId, Bytes)>,
    }
    impl NsoApp for Peer {
        fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
            nso.create_peer_group(
                GroupId::new("pp"),
                self.members.clone(),
                GroupConfig::peer().with_time_silence(Duration::from_millis(15)),
                now,
                out,
            )
            .expect("peer group");
            out.set_timer(Duration::from_millis(30), tags::APP_BASE);
        }
        fn on_timer(&mut self, nso: &mut Nso, _tag: u64, now: SimTime, out: &mut Outbox) {
            let body = format!("{}@{}", nso.node(), now);
            if let Some(peer) = nso.handle_for(&GroupId::new("pp")) {
                let _ = peer.send(nso, Bytes::from(body), DeliveryOrder::Total, now, out);
            }
            out.set_timer(Duration::from_millis(40), tags::APP_BASE);
        }
        fn on_output(&mut self, _: &mut Nso, output: NsoOutput, _: SimTime, _: &mut Outbox) {
            if let NsoOutput::PeerDeliver {
                sender, payload, ..
            } = output
            {
                self.delivered.push((sender, payload));
            }
        }
    }

    let mut sim = Sim::new(SimConfig::lan(62));
    let members: Vec<NodeId> = (0..4).map(NodeId::from_index).collect();
    for &m in &members {
        sim.add_node(
            Site::Lan,
            Box::new(NsoNode::new(
                m,
                Box::new(Peer {
                    members: members.clone(),
                    delivered: Vec::new(),
                }),
            )),
        );
    }
    sim.schedule_partition(
        SimTime::from_millis(200),
        vec![vec![members[0], members[1]], vec![members[2], members[3]]],
    );
    sim.run_until(SimTime::from_secs(8));

    // Each side's post-partition deliveries involve only its own members.
    let cutoff = SimTime::from_millis(800); // after both sides re-formed
    for (idx, side) in [[0usize, 1], [2, 3]].iter().enumerate() {
        for &m in side {
            let node = sim.node_ref::<NsoNode>(members[m]).unwrap();
            let view = node.nso().view_of(&GroupId::new("pp")).expect("view");
            assert_eq!(view.len(), 2, "side {idx} re-formed as a pair");
            let peer = node.app_ref::<Peer>().unwrap();
            assert!(
                peer.delivered.len() > 20,
                "member {m} kept delivering after the split"
            );
            let _ = cutoff;
        }
    }
}
