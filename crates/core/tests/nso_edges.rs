//! Edge cases of the NSO public API: bind failures and timeouts, unknown
//! bindings, plain (non-group) ORB invocations, the one-message GCS
//! frame, and the idle work a threaded host runs when its event queue
//! empties (the flush of held order records, and symmetric order's idle
//! nulls).

use std::collections::VecDeque;
use std::time::Duration;

use bytes::Bytes;

use newtop::nso::{BindOptions, NewtopError, Nso, NsoOutput};
use newtop::simnode::{NsoApp, NsoNode};
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId, OrderProtocol};
use newtop_gcs::messages::{GcsMessage, NullMsg};
use newtop_gcs::view::ViewId;
use newtop_gcs::{GCS_OPERATION, NSO_OBJECT_KEY};
use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
use newtop_net::sim::{Outbox, OutboxParts, Packet, Sim, SimConfig};
use newtop_net::site::{NodeId, Site};
use newtop_net::time::SimTime;
use newtop_orb::cdr::{CdrEncode, CdrEncoder};
use newtop_orb::ior::ObjectRef;
use newtop_orb::orb::OrbCore;

type StartFn = Box<dyn FnOnce(&mut Nso, SimTime, &mut Outbox) + Send>;

/// A scriptable app: runs closures against the NSO and records outputs.
struct Probe {
    outputs: Vec<NsoOutput>,
    on_start: Option<StartFn>,
}

impl Probe {
    fn new(start: impl FnOnce(&mut Nso, SimTime, &mut Outbox) + Send + 'static) -> Self {
        Probe {
            outputs: Vec::new(),
            on_start: Some(Box::new(start)),
        }
    }
}

impl NsoApp for Probe {
    fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        if let Some(f) = self.on_start.take() {
            f(nso, now, out);
        }
    }
    fn on_output(&mut self, _: &mut Nso, output: NsoOutput, _: SimTime, _: &mut Outbox) {
        self.outputs.push(output);
    }
}

fn probe_outputs(sim: &Sim, node: NodeId) -> Vec<NsoOutput> {
    sim.node_ref::<NsoNode>(node)
        .unwrap()
        .app_ref::<Probe>()
        .unwrap()
        .outputs
        .clone()
}

#[test]
fn binding_to_a_non_server_fails() {
    let mut sim = Sim::new(SimConfig::lan(71));
    // Node 0 exists but serves nothing.
    let bystander = sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            NodeId::from_index(0),
            Box::new(Probe::new(|_, _, _| {})),
        )),
    );
    let client = sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            NodeId::from_index(1),
            Box::new(Probe::new(move |nso, now, out| {
                nso.bind(
                    GroupId::new("ghost"),
                    BindOptions::open(bystander),
                    now,
                    out,
                )
                .unwrap();
            })),
        )),
    );
    sim.run_until(SimTime::from_secs(5));
    let outs = probe_outputs(&sim, client);
    assert!(
        outs.iter()
            .any(|o| matches!(o, NsoOutput::BindFailed { .. })),
        "refusal from a non-serving node surfaces as BindFailed: {outs:?}"
    );
}

#[test]
fn binding_to_a_dead_node_times_out() {
    let mut sim = Sim::new(SimConfig::lan(72));
    let dead = sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            NodeId::from_index(0),
            Box::new(Probe::new(|_, _, _| {})),
        )),
    );
    sim.schedule_crash(SimTime::ZERO, dead);
    let client = sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            NodeId::from_index(1),
            Box::new(Probe::new(move |nso, now, out| {
                nso.bind(
                    GroupId::new("svc"),
                    BindOptions::open(dead).with_timeout(Duration::from_millis(300)),
                    now,
                    out,
                )
                .unwrap();
            })),
        )),
    );
    sim.run_until(SimTime::from_secs(2));
    let outs = probe_outputs(&sim, client);
    assert!(outs
        .iter()
        .any(|o| matches!(o, NsoOutput::BindFailed { .. })));
}

/// Call-side errors surface synchronously through the [`GroupHandle`]
/// surface (the group-id-threading methods are gone): a handle is a
/// plain value, so the group underneath it can be missing, pending or
/// torn down, and every operation reports that as an error rather than
/// silently dropping work.
///
/// [`GroupHandle`]: newtop::nso::GroupHandle
#[test]
fn api_errors_are_reported_synchronously() {
    let mut sim = Sim::new(SimConfig::lan(73));
    sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            NodeId::from_index(0),
            Box::new(Probe::new(|nso, now, out| {
                // A binding handle exists as soon as `bind` is issued,
                // but the binding itself is not established until
                // `BindingReady`: call-side operations in the gap fail.
                let pending = nso
                    .bind(
                        GroupId::new("svc"),
                        BindOptions::open(NodeId::from_index(9)),
                        now,
                        out,
                    )
                    .unwrap();
                let err = pending
                    .invoke(nso, "op", Bytes::new(), ReplyMode::All, now, out)
                    .unwrap_err();
                assert!(matches!(err, NewtopError::Client(_)));
                let err = pending.retry(nso, 0, now, out).unwrap_err();
                assert!(matches!(err, NewtopError::Client(_)));
                let err = pending.unbind(nso, now, out).unwrap_err();
                assert!(matches!(err, NewtopError::Unbound(_)));
                // A client-binding handle refuses peer-group operations.
                let err = pending
                    .send(nso, Bytes::new(), DeliveryOrder::Total, now, out)
                    .unwrap_err();
                assert!(matches!(err, NewtopError::Unbound(_)));
                // Unknown monitor attachment.
                let err = nso
                    .g2g_invoke(
                        &GroupId::new("nope"),
                        "op",
                        Bytes::new(),
                        ReplyMode::All,
                        now,
                        out,
                    )
                    .unwrap_err();
                assert!(matches!(err, NewtopError::Unbound(_)));
                // A peer handle outlives its membership: sending after
                // leaving reports the GCS refusal.
                let peers = nso
                    .create_peer_group(
                        GroupId::new("p"),
                        vec![nso.node()],
                        GroupConfig::peer(),
                        now,
                        out,
                    )
                    .unwrap();
                peers.leave(nso, now, out).unwrap();
                let err = peers
                    .send(nso, Bytes::new(), DeliveryOrder::Total, now, out)
                    .unwrap_err();
                assert!(matches!(err, NewtopError::Gcs(_)));
                // Group id collision for an explicit binding id.
                nso.create_peer_group(
                    GroupId::new("taken"),
                    vec![nso.node()],
                    GroupConfig::peer(),
                    now,
                    out,
                )
                .unwrap();
                let err = nso
                    .bind(
                        GroupId::new("svc"),
                        BindOptions::open(NodeId::from_index(9))
                            .with_group_id(GroupId::new("taken")),
                        now,
                        out,
                    )
                    .unwrap_err();
                assert!(matches!(err, NewtopError::GroupInUse(_)));
                // A bind without a target is rejected up front.
                let err = nso
                    .bind(GroupId::new("svc"), BindOptions::default(), now, out)
                    .unwrap_err();
                assert!(matches!(err, NewtopError::BindTargetMissing(_)));
                // Monitor setup at a non-server manager.
                let err = nso
                    .setup_monitor_group(
                        GroupId::new("gz"),
                        GroupId::new("gx"),
                        nso.node(), // we are the manager but serve nothing
                        GroupId::new("gy"),
                        vec![nso.node()],
                        GroupConfig::request_reply(),
                        now,
                        out,
                    )
                    .unwrap_err();
                assert!(matches!(err, NewtopError::NotAServer(_)));
            })),
        )),
    );
    sim.run_until(SimTime::from_millis(100));
}

#[test]
fn plain_invocations_work_through_the_nso() {
    let mut sim = Sim::new(SimConfig::lan(74));
    // Node 0 hosts a plain servant.
    let server = sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            NodeId::from_index(0),
            Box::new(Probe::new(|nso, _, _| {
                nso.register_plain_servant(
                    "greeter",
                    Box::new(|_op: &str, args: &[u8]| {
                        Ok(Bytes::from(format!(
                            "hello {}",
                            String::from_utf8_lossy(args)
                        )))
                    }),
                );
            })),
        )),
    );
    // Node 1 invokes it, and an object node 0 does not host, with plain
    // one-to-one ORB calls.
    let client = sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            NodeId::from_index(1),
            Box::new(Probe::new(move |nso, _, out| {
                let greeter = ObjectRef::new(server, "greeter");
                nso.plain_invoke(&greeter, "greet", Bytes::from_static(b"newtop"), out);
                let missing = ObjectRef::new(server, "missing");
                nso.plain_invoke(&missing, "greet", Bytes::new(), out);
            })),
        )),
    );
    sim.run_until(SimTime::from_secs(2));
    let outs = probe_outputs(&sim, client);
    let replies: Vec<&NsoOutput> = outs
        .iter()
        .filter(|o| matches!(o, NsoOutput::PlainReply { .. }))
        .collect();
    assert_eq!(replies.len(), 2, "both calls replied");
    // The greeting came back, and the missing object answered an error.
    assert!(replies.iter().any(|o| {
        matches!(o, NsoOutput::PlainReply { result: Ok(b), .. } if b.as_ref() == b"hello newtop")
    }));
    assert!(replies
        .iter()
        .any(|o| matches!(o, NsoOutput::PlainReply { result: Err(_), .. })));
}

#[test]
fn unbind_tears_the_binding_down() {
    let mut sim = Sim::new(SimConfig::lan(75));
    let servers: Vec<NodeId> = (0..2).map(NodeId::from_index).collect();
    for &s in &servers {
        let members = servers.clone();
        sim.add_node(
            Site::Lan,
            Box::new(NsoNode::new(
                s,
                Box::new(Probe::new(move |nso, now, out| {
                    nso.create_server_group(
                        GroupId::new("svc"),
                        members,
                        Replication::Active,
                        OpenOptimisation::None,
                        GroupConfig::request_reply(),
                        now,
                        out,
                    )
                    .unwrap();
                    nso.register_group_servant(
                        GroupId::new("svc"),
                        Box::new(|_: &str, _: &[u8]| Bytes::from_static(b"ok")),
                    );
                })),
            )),
        );
    }
    struct UnbindClient {
        servers: Vec<NodeId>,
        phase: u32,
    }
    impl NsoApp for UnbindClient {
        fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
            nso.bind(
                GroupId::new("svc"),
                BindOptions::open(self.servers[0]),
                now,
                out,
            )
            .unwrap();
        }
        fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, now: SimTime, out: &mut Outbox) {
            if let NsoOutput::BindingReady { group } = output {
                self.phase = 1;
                let binding = nso.handle_for(&group).unwrap();
                binding.unbind(nso, now, out).unwrap();
                // Invoking through the now-stale handle fails
                // synchronously.
                let err = binding
                    .invoke(nso, "op", Bytes::new(), ReplyMode::All, now, out)
                    .unwrap_err();
                assert!(matches!(err, NewtopError::Client(_)));
                // And the handle is no longer recoverable.
                assert!(nso.handle_for(&group).is_none());
                self.phase = 2;
            }
        }
    }
    let client = sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            NodeId::from_index(2),
            Box::new(UnbindClient {
                servers: servers.clone(),
                phase: 0,
            }),
        )),
    );
    sim.run_until(SimTime::from_secs(3));
    let app = sim
        .node_ref::<NsoNode>(client)
        .unwrap()
        .app_ref::<UnbindClient>()
        .unwrap();
    assert_eq!(app.phase, 2, "bind, unbind and post-unbind error all ran");
}

/// Runs one NSO entry point against a fresh outbox and returns its
/// parts.
fn step(nso: &mut Nso, f: impl FnOnce(&mut Nso, &mut Outbox)) -> OutboxParts {
    let mut out = Outbox::detached(0);
    f(nso, &mut out);
    out.into_parts()
}

/// The GCS messages an outbox sends to `to`.
fn gcs_to(parts: &OutboxParts, to: NodeId) -> Vec<GcsMessage> {
    parts
        .sends
        .iter()
        .filter(|(dst, _)| *dst == to)
        .flat_map(|(_, frame)| Nso::decode_gcs_frame(frame).unwrap_or_default())
        .collect()
}

/// The order records among `msgs`: `(start, entries)` per `SeqOrder`.
fn order_records(msgs: &[GcsMessage]) -> Vec<(u64, Vec<(NodeId, u64)>)> {
    msgs.iter()
        .filter_map(|m| match m {
            GcsMessage::SeqOrder { start, entries, .. } => Some((*start, entries.clone())),
            _ => None,
        })
        .collect()
}

#[test]
fn a_gcs_frame_carries_exactly_one_message() {
    let (a, b) = (NodeId::from_index(0), NodeId::from_index(1));
    let now = SimTime::from_millis(1);
    let mut nso = Nso::new(a);
    let mut handle = None;
    step(&mut nso, |nso, out| {
        handle = Some(
            nso.create_peer_group(
                GroupId::new("peers"),
                vec![a, b],
                GroupConfig::peer(),
                now,
                out,
            )
            .unwrap(),
        );
    });
    let peers = handle.unwrap();
    let sent = step(&mut nso, |nso, out| {
        peers
            .send(
                nso,
                Bytes::from_static(b"hi"),
                DeliveryOrder::Total,
                now,
                out,
            )
            .unwrap();
    });
    assert_eq!(sent.sends.len(), 2, "one frame per member, self included");
    for (dst, frame) in &sent.sends {
        let msgs = Nso::decode_gcs_frame(frame).expect("a GCS frame");
        assert_eq!(msgs.len(), 1, "the frame to {dst} holds {msgs:?}");
    }

    // The retired batch envelope (tag 11) around one valid null.
    let null = GcsMessage::Null(NullMsg {
        group: GroupId::new("peers"),
        view: ViewId(1),
        sender: b,
        lamport: 1,
        last_seq: 0,
        acks: vec![],
    });
    let mut body = CdrEncoder::new();
    body.write_u8(11);
    body.write_seq_len(1);
    null.encode(&mut body);
    let mut wire = Outbox::detached(0);
    OrbCore::new(b).oneway(
        &ObjectRef::new(a, NSO_OBJECT_KEY),
        GCS_OPERATION,
        body.finish(),
        &mut wire,
    );
    let (_, frame) = wire.into_parts().sends.pop().expect("one frame");
    assert_eq!(Nso::decode_gcs_frame(&frame), None);

    nso.take_outputs();
    let malformed = nso.metrics().counter("decode.malformed");
    let pkt = Packet {
        src: b,
        dst: a,
        payload: frame,
    };
    let received = step(&mut nso, |nso, out| nso.on_packet(&pkt, now, out));
    assert_eq!(nso.metrics().counter("decode.malformed"), malformed + 1);
    assert!(received.sends.is_empty(), "a malformed frame sends nothing");
    assert!(
        nso.take_outputs().is_empty(),
        "a malformed frame delivers nothing"
    );
}

#[test]
fn idle_flush_sends_order_records_held_by_the_interval() {
    let (seq_node, member_node) = (NodeId::from_index(0), NodeId::from_index(1));
    let group = GroupId::new("ordered");
    let config = GroupConfig::peer().with_ordering(OrderProtocol::Asymmetric);
    let mut sequencer = Nso::new(seq_node);
    let mut member = Nso::new(member_node);
    let mut handle = None;
    for nso in [&mut sequencer, &mut member] {
        step(nso, |nso, out| {
            handle = Some(
                nso.create_peer_group(
                    group.clone(),
                    vec![seq_node, member_node],
                    config.clone(),
                    SimTime::ZERO,
                    out,
                )
                .unwrap(),
            );
        });
    }
    let member_group = handle.unwrap();
    // The member multicasts at `at`, then runs out of work; the sequencer
    // receives the frames at the same instant. Returns what each receipt
    // left in its outbox.
    let mut multicast = |sequencer: &mut Nso, payload: &'static [u8], at: SimTime| {
        let sent = step(&mut member, |nso, out| {
            member_group
                .send(
                    nso,
                    Bytes::from_static(payload),
                    DeliveryOrder::Total,
                    at,
                    out,
                )
                .unwrap();
        });
        let idle = step(&mut member, |nso, out| nso.on_idle(at, out));
        sent.sends
            .into_iter()
            .chain(idle.sends)
            .filter(|(dst, _)| *dst == seq_node)
            .map(|(dst, payload)| {
                let pkt = Packet {
                    src: member_node,
                    dst,
                    payload,
                };
                step(sequencer, |nso, out| nso.on_packet(&pkt, at, out))
            })
            .collect::<Vec<_>>()
    };
    // The first record goes out at once, in the receipt that made it
    // due (the group was quiet for more than the interval), so the idle
    // pass finds nothing held.
    let t1 = SimTime::from_millis(1);
    let received = multicast(&mut sequencer, b"first", t1);
    let records: Vec<_> = received
        .iter()
        .flat_map(|p| order_records(&gcs_to(p, member_node)))
        .collect();
    assert_eq!(records, vec![(1, vec![(member_node, 1)])]);
    let idle = step(&mut sequencer, |nso, out| nso.on_idle(t1, out));
    assert!(order_records(&gcs_to(&idle, member_node)).is_empty());
    // 100 µs later the next record is inside the 500 µs interval: held,
    // with the interval's timer armed, until the idle flush sends it.
    let t2 = SimTime::from_micros(1_100);
    let received = multicast(&mut sequencer, b"second", t2);
    assert!(received
        .iter()
        .all(|p| order_records(&gcs_to(p, member_node)).is_empty()));
    assert!(received.iter().any(|p| p
        .timer_sets
        .iter()
        .any(|&(_, delay, _)| delay == Duration::from_micros(500))));
    let idle = step(&mut sequencer, |nso, out| nso.on_idle(t2, out));
    assert_eq!(
        order_records(&gcs_to(&idle, member_node)),
        vec![(2, vec![(member_node, 2)])]
    );
}

#[test]
fn idle_nulls_release_a_symmetric_multicast_before_any_timer() {
    // Three members, no timer ever fired: the time-silence nulls never
    // go out, so each receiver's idle null is the only way the others
    // can learn it has passed the multicast's stamp.
    let ids: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let group = GroupId::new("peers");
    let now = SimTime::from_millis(1);
    let mut nsos: Vec<Nso> = ids.iter().map(|&id| Nso::new(id)).collect();
    let mut handle = None;
    for nso in &mut nsos {
        step(nso, |nso, out| {
            handle = Some(
                nso.create_peer_group(group.clone(), ids.clone(), GroupConfig::peer(), now, out)
                    .unwrap(),
            );
        });
    }
    let peers = handle.unwrap();
    let sent = step(&mut nsos[0], |nso, out| {
        peers
            .send(
                nso,
                Bytes::from_static(b"ordered"),
                DeliveryOrder::Total,
                now,
                out,
            )
            .unwrap();
    });
    // The network: every node runs its idle work after each event, as
    // the threaded runtime does when its queue empties, and what that
    // sends is routed in turn.
    fn route(src: NodeId, parts: OutboxParts, wire: &mut VecDeque<Packet>) {
        for (dst, payload) in parts.sends {
            wire.push_back(Packet { src, dst, payload });
        }
    }
    let mut wire = VecDeque::new();
    route(ids[0], sent, &mut wire);
    let idle = step(&mut nsos[0], |nso, out| nso.on_idle(now, out));
    route(ids[0], idle, &mut wire);
    while let Some(pkt) = wire.pop_front() {
        let at = pkt.dst.index() as usize;
        let received = step(&mut nsos[at], |nso, out| nso.on_packet(&pkt, now, out));
        route(pkt.dst, received, &mut wire);
        let idle = step(&mut nsos[at], |nso, out| nso.on_idle(now, out));
        route(pkt.dst, idle, &mut wire);
    }
    for nso in &mut nsos {
        let delivered: Vec<Bytes> = nso
            .take_outputs()
            .into_iter()
            .filter_map(|o| match o {
                NsoOutput::PeerDeliver { payload, .. } => Some(payload),
                _ => None,
            })
            .collect();
        assert_eq!(
            delivered,
            vec![Bytes::from_static(b"ordered")],
            "node {} did not deliver the multicast",
            nso.node()
        );
    }
    let idle_nulls: u64 = nsos
        .iter()
        .map(|nso| nso.metrics().counter("gcs.idle_nulls"))
        .sum();
    assert_eq!(idle_nulls, 2, "one idle null from each receiver");
}
