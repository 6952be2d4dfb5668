//! Dynamic membership through the public API: joining and leaving peer
//! groups at runtime, and causal-order delivery.

use std::time::Duration;

use bytes::Bytes;

use newtop::nso::{Nso, NsoOutput};
use newtop::simnode::{NsoApp, NsoNode};
use newtop::tags;
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId};
use newtop_net::sim::{Outbox, Sim, SimConfig};
use newtop_net::site::{NodeId, Site};
use newtop_net::time::SimTime;

fn room() -> GroupId {
    GroupId::new("dyn-room")
}

fn config() -> GroupConfig {
    GroupConfig::peer().with_time_silence(Duration::from_millis(15))
}

/// A founder: creates the group and chats periodically.
struct Founder {
    members: Vec<NodeId>,
    delivered: Vec<(NodeId, Bytes)>,
    sent: u32,
}

impl NsoApp for Founder {
    fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        nso.create_peer_group(room(), self.members.clone(), config(), now, out)
            .expect("create");
        out.set_timer(Duration::from_millis(20), tags::APP_BASE);
    }
    fn on_timer(&mut self, nso: &mut Nso, _tag: u64, now: SimTime, out: &mut Outbox) {
        self.sent += 1;
        if let Some(peer) = nso.handle_for(&room()) {
            let _ = peer.send(
                nso,
                Bytes::from(format!("{}#{}", nso.node(), self.sent)),
                DeliveryOrder::Total,
                now,
                out,
            );
        }
        out.set_timer(Duration::from_millis(25), tags::APP_BASE);
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

/// A latecomer: joins through a contact at a scheduled time, chats, then
/// (optionally) leaves.
struct Latecomer {
    contact: NodeId,
    join_at: Duration,
    leave_after: Option<Duration>,
    joined_view: Option<usize>,
    delivered: Vec<(NodeId, Bytes)>,
    sent: u32,
    left: bool,
}

const JOIN_TAG: u64 = tags::APP_BASE;
const CHAT_TAG: u64 = tags::APP_BASE + 1;
const LEAVE_TAG: u64 = tags::APP_BASE + 2;

impl NsoApp for Latecomer {
    fn on_start(&mut self, _nso: &mut Nso, _now: SimTime, out: &mut Outbox) {
        out.set_timer(self.join_at, JOIN_TAG);
    }
    fn on_timer(&mut self, nso: &mut Nso, tag: u64, now: SimTime, out: &mut Outbox) {
        match tag {
            JOIN_TAG => {
                nso.join_peer_group(room(), config(), self.contact, now, out)
                    .expect("join");
            }
            CHAT_TAG => {
                if self.left {
                    return;
                }
                self.sent += 1;
                if let Some(peer) = nso.handle_for(&room()) {
                    let _ = peer.send(
                        nso,
                        Bytes::from(format!("{}#{}", nso.node(), self.sent)),
                        DeliveryOrder::Total,
                        now,
                        out,
                    );
                }
                out.set_timer(Duration::from_millis(25), CHAT_TAG);
            }
            LEAVE_TAG => {
                nso.leave_peer_group(&room(), now, out).expect("leave");
                self.left = true;
            }
            _ => {}
        }
    }
    fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, _: SimTime, out: &mut Outbox) {
        match output {
            NsoOutput::ViewChanged { group, view }
                if group == room() && view.contains(nso.node()) && self.joined_view.is_none() =>
            {
                self.joined_view = Some(view.len());
                out.set_timer(Duration::from_millis(5), CHAT_TAG);
                if let Some(after) = self.leave_after {
                    out.set_timer(after, LEAVE_TAG);
                }
            }
            NsoOutput::PeerDeliver {
                sender, payload, ..
            } => {
                self.delivered.push((sender, payload));
            }
            _ => {}
        }
    }
}

#[test]
fn latecomer_joins_chats_and_leaves() {
    let mut sim = Sim::new(SimConfig::lan(81));
    let founders: Vec<NodeId> = (0..2).map(NodeId::from_index).collect();
    for &f in &founders {
        sim.add_node(
            Site::Lan,
            Box::new(NsoNode::new(
                f,
                Box::new(Founder {
                    members: founders.clone(),
                    delivered: Vec::new(),
                    sent: 0,
                }),
            )),
        );
    }
    let late = NodeId::from_index(2);
    sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            late,
            Box::new(Latecomer {
                contact: founders[0],
                join_at: Duration::from_millis(150),
                leave_after: Some(Duration::from_millis(600)),
                joined_view: None,
                delivered: Vec::new(),
                sent: 0,
                left: false,
            }),
        )),
    );
    sim.run_until(SimTime::from_secs(5));

    let late_app = sim
        .node_ref::<NsoNode>(late)
        .unwrap()
        .app_ref::<Latecomer>()
        .unwrap();
    assert_eq!(late_app.joined_view, Some(3), "joined a 3-member view");
    assert!(late_app.sent > 5, "chatted while a member");
    assert!(late_app.left, "left gracefully");
    assert!(
        late_app.delivered.iter().any(|(s, _)| *s == founders[1]),
        "saw the founders' messages while in"
    );

    // The founders' final view excludes the leaver, and they received the
    // latecomer's messages.
    for &f in &founders {
        let node = sim.node_ref::<NsoNode>(f).unwrap();
        let view = node.nso().view_of(&room()).expect("view");
        assert_eq!(view.members(), &founders[..], "back to the founding pair");
        let app = node.app_ref::<Founder>().unwrap();
        let from_late = app.delivered.iter().filter(|(s, _)| *s == late).count();
        assert!(from_late > 3, "founder {f} delivered the latecomer's chat");
    }

    // Virtual synchrony across the join and leave: both founders saw the
    // identical delivery sequence.
    let seqs: Vec<Vec<(NodeId, Bytes)>> = founders
        .iter()
        .map(|&f| {
            sim.node_ref::<NsoNode>(f)
                .unwrap()
                .app_ref::<Founder>()
                .unwrap()
                .delivered
                .clone()
        })
        .collect();
    assert_eq!(seqs[0], seqs[1]);
}

#[test]
fn causal_one_way_sends_preserve_sender_fifo() {
    struct CausalPeer {
        members: Vec<NodeId>,
        delivered: Vec<(NodeId, Bytes)>,
        /// `(sender, order, lamport)` of each delivery, in delivery order.
        stamps: Vec<(NodeId, DeliveryOrder, u64)>,
        to_send: u32,
        sent: u32,
    }
    impl NsoApp for CausalPeer {
        fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
            nso.create_peer_group(room(), self.members.clone(), config(), now, out)
                .expect("create");
            out.set_timer(Duration::from_millis(10), tags::APP_BASE);
        }
        fn on_timer(&mut self, nso: &mut Nso, _tag: u64, now: SimTime, out: &mut Outbox) {
            if self.sent < self.to_send {
                self.sent += 1;
                if let Some(peer) = nso.handle_for(&room()) {
                    let _ = peer.send(
                        nso,
                        Bytes::from(format!("{}:{}", nso.node(), self.sent)),
                        DeliveryOrder::Causal,
                        now,
                        out,
                    );
                }
                out.set_timer(Duration::from_millis(8), tags::APP_BASE);
            }
        }
        fn on_output(&mut self, _: &mut Nso, output: NsoOutput, _: SimTime, _: &mut Outbox) {
            if let NsoOutput::PeerDeliver {
                sender,
                order,
                lamport,
                payload,
                ..
            } = output
            {
                self.delivered.push((sender, payload));
                self.stamps.push((sender, order, lamport));
            }
        }
    }

    let mut sim = Sim::new(SimConfig::lan(82));
    let members: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    for &m in &members {
        sim.add_node(
            Site::Lan,
            Box::new(NsoNode::new(
                m,
                Box::new(CausalPeer {
                    members: members.clone(),
                    delivered: Vec::new(),
                    stamps: Vec::new(),
                    to_send: 10,
                    sent: 0,
                }),
            )),
        );
    }
    sim.run_until(SimTime::from_secs(3));
    for &m in &members {
        let app = sim
            .node_ref::<NsoNode>(m)
            .unwrap()
            .app_ref::<CausalPeer>()
            .unwrap();
        assert_eq!(
            app.delivered.len(),
            30,
            "all causal multicasts delivered at {m}"
        );
        // Per-sender FIFO (a consequence of causal order).
        for &q in &members {
            let from_q: Vec<String> = app
                .delivered
                .iter()
                .filter(|(s, _)| *s == q)
                .map(|(_, p)| String::from_utf8_lossy(p).into_owned())
                .collect();
            let expect: Vec<String> = (1..=10).map(|i| format!("{q}:{i}")).collect();
            assert_eq!(from_q, expect, "sender {q} FIFO at {m}");
            // Each delivery reports the guarantee it was sent with and
            // a Lamport stamp that rises strictly per sender.
            let stamps: Vec<u64> = app
                .stamps
                .iter()
                .filter(|(s, _, _)| *s == q)
                .map(|&(_, _, lamport)| lamport)
                .collect();
            assert!(
                stamps.windows(2).all(|w| w[0] < w[1]),
                "sender {q}'s Lamport stamps do not rise at {m}: {stamps:?}"
            );
        }
        assert!(
            app.stamps
                .iter()
                .all(|&(_, order, _)| order == DeliveryOrder::Causal),
            "a causal send was reported with another order at {m}"
        );
    }
}
