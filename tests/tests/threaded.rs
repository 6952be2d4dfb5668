//! The threaded runtime over real transports: the same NSO state machines
//! exercised with actual threads, wall-clock timers, and TCP sockets.

use std::time::Duration;

use bytes::Bytes;

use newtop::nso::{BindOptions, NsoOutput};
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId};
use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
use newtop_net::channel::ChannelNetwork;
use newtop_net::site::NodeId;
use newtop_net::tcp::TcpEndpoint;
use newtop_rt::{NodeHandle, NodeRuntime, RuntimeOptions};

fn spawn_channel_cluster(n: usize) -> Vec<NodeHandle> {
    let net = ChannelNetwork::new();
    (0..n)
        .map(|i| {
            let id = NodeId::from_index(i as u32);
            let (transport, rx) = net.endpoint(id);
            NodeRuntime::spawn(transport, rx, RuntimeOptions::new())
        })
        .collect()
}

fn setup_service(nodes: &[NodeHandle], servers: &[NodeId], group: &GroupId) {
    for handle in &nodes[..servers.len()] {
        let group = group.clone();
        let members = servers.to_vec();
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
            .unwrap();
            let me = nso.node().index();
            nso.register_group_servant(
                group,
                Box::new(move |op: &str, _: &[u8]| Bytes::from(format!("{op}#{me}"))),
            );
        });
    }
}

fn bind_and_invoke(
    client: &NodeHandle,
    group: &GroupId,
    servers: Vec<NodeId>,
    open: bool,
) -> usize {
    let g = group.clone();
    client.with_nso(move |nso, now, out| {
        let opts = if open {
            BindOptions::open(servers[0])
        } else {
            BindOptions::closed(servers)
        };
        nso.bind(g, opts, now, out).unwrap();
    });
    let ready = client
        .wait_for_output(Duration::from_secs(15), |o| {
            matches!(o, NsoOutput::BindingReady { .. })
        })
        .expect("binding established");
    let NsoOutput::BindingReady { group: binding } = ready else {
        unreachable!()
    };
    client.with_nso(move |nso, now, out| {
        let binding = nso.handle_for(&binding).unwrap();
        binding
            .invoke(nso, "hello", Bytes::new(), ReplyMode::All, now, out)
            .unwrap();
    });
    let done = client
        .wait_for_output(Duration::from_secs(15), |o| {
            matches!(o, NsoOutput::InvocationComplete { .. })
        })
        .expect("invocation completed");
    let NsoOutput::InvocationComplete { replies, .. } = done else {
        unreachable!()
    };
    replies.len()
}

#[test]
fn open_invocation_over_channel_transport() {
    let nodes = spawn_channel_cluster(4);
    let servers: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let group = GroupId::new("threaded-svc");
    setup_service(&nodes, &servers, &group);
    assert_eq!(bind_and_invoke(&nodes[3], &group, servers, true), 3);
    for n in nodes {
        n.shutdown();
    }
}

#[test]
fn closed_invocation_over_channel_transport() {
    let nodes = spawn_channel_cluster(3);
    let servers: Vec<NodeId> = (0..2).map(NodeId::from_index).collect();
    let group = GroupId::new("threaded-closed");
    setup_service(&nodes, &servers, &group);
    assert_eq!(bind_and_invoke(&nodes[2], &group, servers, false), 2);
    for n in nodes {
        n.shutdown();
    }
}

#[test]
fn request_reply_over_real_tcp_sockets() {
    // Three nodes on localhost TCP: 2 servers + 1 client.
    let ids: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let mut endpoints = Vec::new();
    let mut rxs = Vec::new();
    for &id in &ids {
        let (tx, rx) =
            newtop_flow::queue::bounded(newtop_flow::FlowConfig::default().queue_capacity);
        let ep = TcpEndpoint::bind(id, "127.0.0.1:0".parse().unwrap(), tx).unwrap();
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
    let group = GroupId::new("tcp-svc");
    setup_service(&nodes, &servers, &group);
    assert_eq!(bind_and_invoke(&nodes[2], &group, servers, true), 2);
    for n in nodes {
        n.shutdown();
    }
    for mut ep in endpoints {
        ep.shutdown();
    }
}

#[test]
fn peer_group_over_threads() {
    let nodes = spawn_channel_cluster(3);
    let members: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let group = GroupId::new("threaded-peers");
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
            .unwrap();
        });
    }
    // Each member multicasts once.
    for handle in &nodes {
        let group = group.clone();
        let body = format!("from-{}", handle.node());
        handle.with_nso(move |nso, now, out| {
            let peer = nso.handle_for(&group).unwrap();
            peer.send(nso, Bytes::from(body), DeliveryOrder::Total, now, out)
                .unwrap();
        });
    }
    // Everyone delivers all three multicasts.
    for handle in &nodes {
        let mut seen = 0;
        while seen < 3 {
            let o = handle
                .wait_for_output(Duration::from_secs(15), |o| {
                    matches!(o, NsoOutput::PeerDeliver { .. })
                })
                .expect("peer delivery");
            let NsoOutput::PeerDeliver { .. } = o else {
                unreachable!()
            };
            seen += 1;
        }
    }
    for n in nodes {
        n.shutdown();
    }
}

#[test]
fn one_symmetric_multicast_is_delivered_without_waiting_for_time_silence() {
    // Only node 0 sends, and the time-silence nulls are a minute apart:
    // the others' idle nulls, sent as soon as each runs out of work, are
    // what lets every member deliver within the wait.
    let nodes = spawn_channel_cluster(3);
    let members: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let group = GroupId::new("quiet-peers");
    for handle in &nodes {
        let group = group.clone();
        let members = members.clone();
        handle.with_nso(move |nso, now, out| {
            nso.create_peer_group(
                group,
                members,
                GroupConfig::peer().with_time_silence(Duration::from_secs(60)),
                now,
                out,
            )
            .unwrap();
        });
    }
    nodes[0].with_nso(move |nso, now, out| {
        let peer = nso.handle_for(&group).unwrap();
        peer.send(
            nso,
            Bytes::from_static(b"only"),
            DeliveryOrder::Total,
            now,
            out,
        )
        .unwrap();
    });
    for handle in &nodes {
        let delivered = handle
            .wait_for_output(Duration::from_secs(10), |o| {
                matches!(o, NsoOutput::PeerDeliver { .. })
            })
            .expect("delivered before the first time-silence null");
        let NsoOutput::PeerDeliver { payload, .. } = delivered else {
            unreachable!()
        };
        assert_eq!(payload.as_ref(), b"only");
    }
    for n in nodes {
        n.shutdown();
    }
}
