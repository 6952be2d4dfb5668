//! NSO applications driving the paper's workloads.
//!
//! * [`ServerApp`] — one replica of the random-number service.
//! * [`ClientApp`] — a closed-loop request-reply client (open, closed or
//!   directory-resolved binding).
//! * [`HubApp`] — a closed-loop client of several services at once.
//! * [`PeerApp`] — a peer-participation member multicasting 100-character
//!   strings as fast as its own deliveries come back.
//!
//! The two request-reply clients only decide when to call: each drives a
//! [`SmartProxy`] per service, which binds, rebinds and retries (§4.1),
//! and records the completions and rebinds it reports.

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;

use newtop::directory::GroupRecord;
use newtop::nso::{BindOptions, GroupHandle, Nso, NsoOutput};
use newtop::proxy::{ProxyEvent, SmartProxy};
use newtop::simnode::NsoApp;
use newtop::tags;
use newtop_dir::app::register_service;
use newtop_gcs::group::{DeliveryOrder, FanoutMode, GroupConfig, GroupId, OrderProtocol};
use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
use newtop_net::sim::Outbox;
use newtop_net::site::NodeId;
use newtop_net::time::SimTime;
use newtop_orb::cdr::{CdrDecoder, CdrEncoder};

use crate::plain::RandomServant;

/// One replica of the replicated random-number service.
pub struct ServerApp {
    /// The server group's id.
    pub group: GroupId,
    /// Full membership (every replica runs this app with the same list).
    pub members: Vec<NodeId>,
    /// Replication discipline.
    pub replication: Replication,
    /// Open-group optimisation policy.
    pub optimisation: OpenOptimisation,
    /// Group configuration (ordering protocol, liveness, time-silence).
    pub config: GroupConfig,
    /// Servant seed.
    pub seed: u64,
    /// Directory members to register the service with (empty = the
    /// service is not published; clients bind with explicit targets).
    /// Every replica re-registers on every view change — registration is
    /// idempotent and stale views lose on apply, so redundancy is free.
    pub directory: Vec<NodeId>,
}

impl NsoApp for ServerApp {
    fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        nso.create_server_group(
            self.group.clone(),
            self.members.clone(),
            self.replication,
            self.optimisation,
            self.config.clone(),
            now,
            out,
        )
        .expect("server group creation");
        let mut servant = RandomServant::new(self.seed ^ u64::from(nso.node().index()));
        nso.register_group_servant(
            self.group.clone(),
            Box::new(move |op: &str, _args: &[u8]| servant.run(op).unwrap_or_default()),
        );
    }

    fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, _now: SimTime, out: &mut Outbox) {
        if self.directory.is_empty() {
            return;
        }
        if let NsoOutput::ViewChanged { group, view } = output {
            if group != self.group {
                return;
            }
            let record = GroupRecord::from_view(self.group.as_str(), self.config.clone(), &view);
            for &contact in &self.directory {
                let _ = register_service(nso, contact, record.clone(), out);
            }
        }
    }
}

/// A closed-loop request-reply client: issues the next request the moment
/// the previous reply completes (the paper's measurement client). Its
/// [`SmartProxy`] binds, rebinds and retries.
pub struct ClientApp {
    /// Reply-collection primitive.
    pub mode: ReplyMode,
    /// Stagger before binding.
    pub start_delay: Duration,
    /// `(completion time, response time)` per completed call.
    pub completions: Vec<(SimTime, Duration)>,
    /// Times a binding broke and the client rebound.
    pub rebinds: u32,
    /// Completions for calls that had already completed — a reply
    /// surfaced twice to the application. Exactly-once delivery requires
    /// this to stay zero even across rebind + retry.
    pub duplicate_completions: u32,
    /// Times the proxy gave up after every replica failed (the client
    /// then stops calling) — must stay zero.
    pub gave_up: u32,
    proxy: SmartProxy,
}

/// Timer tag owned by a client's proxy; [`tags::APP_BASE`] is the
/// client's start timer.
const PROXY_TAG: u64 = tags::APP_BASE + 1;

impl ClientApp {
    /// Creates a client of `server_group`, whose replicas are `servers`,
    /// bound in the shape `opts` names.
    #[must_use]
    pub fn new(
        server_group: GroupId,
        servers: Vec<NodeId>,
        opts: BindOptions,
        mode: ReplyMode,
        start_delay: Duration,
    ) -> Self {
        ClientApp {
            mode,
            start_delay,
            completions: Vec::new(),
            rebinds: 0,
            duplicate_completions: 0,
            gave_up: 0,
            proxy: SmartProxy::new(server_group, servers, opts, PROXY_TAG),
        }
    }

    /// Calls the proxy's retry timer has sent again.
    #[must_use]
    pub fn retries(&self) -> u32 {
        self.proxy.retries()
    }

    fn issue(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        self.proxy
            .invoke(nso, "rand", Bytes::new(), self.mode, now, out);
    }
}

impl NsoApp for ClientApp {
    fn on_start(&mut self, _nso: &mut Nso, _now: SimTime, out: &mut Outbox) {
        out.set_timer(self.start_delay, tags::APP_BASE);
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
            Some(ProxyEvent::Complete { issued_at, .. }) => {
                self.completions.push((now, now - issued_at));
                self.issue(nso, now, out);
            }
            Some(ProxyEvent::Rebound { broken: true }) => self.rebinds += 1,
            Some(ProxyEvent::GaveUp) => self.gave_up += 1,
            None if matches!(output, NsoOutput::InvocationComplete { .. }) => {
                self.duplicate_completions += 1;
            }
            _ => {}
        }
    }
}

/// A peer-participation member: multicasts fixed-size payloads "as
/// frequently as possible" (§5.2) — open-loop sends paced by the ORB's
/// per-invocation cost, with a small outstanding cap so an overloaded
/// group applies backpressure instead of flooding unboundedly.
pub struct PeerApp {
    /// The peer group.
    pub group: GroupId,
    /// Full membership.
    pub members: Vec<NodeId>,
    /// Group configuration (the peer experiments sweep the ordering
    /// protocol; liveness is lively).
    pub config: GroupConfig,
    /// Payload size in bytes (the paper used 100-character strings).
    pub payload_len: usize,
    /// Interval between send attempts (models the ORB's asynchronous
    /// invocation issue rate).
    pub pace: Duration,
    /// Maximum own multicasts in flight (sent but not yet self-delivered)
    /// before the sender holds off.
    pub max_outstanding: u64,
    /// Stagger before the first send.
    pub start_delay: Duration,
    /// When each of this member's multicasts was issued, by index.
    pub sent_at: HashMap<u64, SimTime>,
    /// Every delivery observed here: `(sender, index, delivery time)`.
    pub deliveries: Vec<(NodeId, u64, SimTime)>,
    next_index: u64,
    own_delivered: u64,
    peer: Option<GroupHandle>,
}

impl PeerApp {
    /// Creates a peer member.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        group: GroupId,
        members: Vec<NodeId>,
        config: GroupConfig,
        payload_len: usize,
        pace: Duration,
        max_outstanding: u64,
        start_delay: Duration,
    ) -> Self {
        PeerApp {
            group,
            members,
            config,
            payload_len,
            pace,
            max_outstanding,
            start_delay,
            sent_at: HashMap::new(),
            deliveries: Vec::new(),
            next_index: 1,
            own_delivered: 0,
            peer: None,
        }
    }

    fn send_next(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        let idx = self.next_index;
        self.next_index += 1;
        let mut enc = CdrEncoder::new();
        enc.write_u32(nso.node().index());
        enc.write_u64(idx);
        let body = "x".repeat(self.payload_len.saturating_sub(12));
        enc.write_string(&body);
        self.sent_at.insert(idx, now);
        if let Some(peer) = self.peer.clone() {
            let _ = peer.send(nso, enc.finish(), DeliveryOrder::Total, now, out);
        }
    }

    /// Decodes a peer payload into `(sender index, message index)`.
    fn decode(payload: &[u8]) -> Option<(u32, u64)> {
        let mut dec = CdrDecoder::new(payload);
        let sender = dec.read_u32().ok()?;
        let idx = dec.read_u64().ok()?;
        Some((sender, idx))
    }
}

impl NsoApp for PeerApp {
    fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        let peer = nso
            .create_peer_group(
                self.group.clone(),
                self.members.clone(),
                self.config.clone(),
                now,
                out,
            )
            .expect("peer group creation");
        self.peer = Some(peer);
        out.set_timer(self.start_delay, tags::APP_BASE);
    }

    fn on_timer(&mut self, nso: &mut Nso, _tag: u64, now: SimTime, out: &mut Outbox) {
        let outstanding = (self.next_index - 1).saturating_sub(self.own_delivered);
        if outstanding < self.max_outstanding {
            self.send_next(nso, now, out);
        }
        out.set_timer(self.pace, tags::APP_BASE);
    }

    fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, now: SimTime, _out: &mut Outbox) {
        if let NsoOutput::PeerDeliver {
            group,
            sender,
            payload,
            ..
        } = output
        {
            if group != self.group {
                return;
            }
            if let Some((sender_idx, msg_idx)) = PeerApp::decode(&payload) {
                debug_assert_eq!(sender_idx, sender.index());
                self.deliveries.push((sender, msg_idx, now));
                if sender == nso.node() {
                    self.own_delivered = self.own_delivered.max(msg_idx);
                }
            }
        }
    }
}

/// A multi-service client hub: binds to several independent services at
/// once and runs a closed loop (one outstanding call) against each, one
/// [`SmartProxy`] per service.
///
/// The hub's bindings share no member but the hub itself, so its one
/// engine orders several independent services at once.
pub struct HubApp {
    /// Reply-collection primitive for every call.
    pub mode: ReplyMode,
    /// Stagger before binding.
    pub start_delay: Duration,
    /// `(completion time, response time)` per completed call, across all
    /// services.
    pub completions: Vec<(SimTime, Duration)>,
    /// Completions that surfaced twice — must stay zero.
    pub duplicate_completions: u32,
    /// Proxies that gave up after every replica failed (that service
    /// then gets no more calls) — must stay zero.
    pub gave_up: u32,
    proxies: Vec<SmartProxy>,
}

impl HubApp {
    /// Creates a hub bound to every listed `(service group, replicas)`.
    /// Proxy `i` owns timer tag `tags::APP_BASE + 1 + i`.
    #[must_use]
    pub fn new(
        services: Vec<(GroupId, Vec<NodeId>)>,
        mode: ReplyMode,
        ordering: OrderProtocol,
        start_delay: Duration,
    ) -> Self {
        let proxies = services
            .into_iter()
            .zip(tags::APP_BASE + 1..)
            .map(|((service, servers), tag)| {
                let opts = BindOptions::closed(servers.clone())
                    .with_ordering(ordering)
                    // Asynchronous fan-outs let the data path batch: the
                    // data multicast, its acks and the piggybacked order
                    // records can share a frame per destination.
                    .with_fanout(FanoutMode::Asynchronous);
                SmartProxy::new(service, servers, opts, tag)
            })
            .collect();
        HubApp {
            mode,
            start_delay,
            completions: Vec::new(),
            duplicate_completions: 0,
            gave_up: 0,
            proxies,
        }
    }
}

impl NsoApp for HubApp {
    fn on_start(&mut self, _nso: &mut Nso, _now: SimTime, out: &mut Outbox) {
        out.set_timer(self.start_delay, tags::APP_BASE);
    }

    fn on_timer(&mut self, nso: &mut Nso, tag: u64, now: SimTime, out: &mut Outbox) {
        for proxy in &mut self.proxies {
            if tag == tags::APP_BASE {
                proxy.invoke(nso, "rand", Bytes::new(), self.mode, now, out);
            } else {
                proxy.on_timer(nso, tag, now, out);
            }
        }
    }

    fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, now: SimTime, out: &mut Outbox) {
        for proxy in &mut self.proxies {
            match proxy.on_output(nso, &output, now, out) {
                Some(ProxyEvent::Complete { issued_at, .. }) => {
                    self.completions.push((now, now - issued_at));
                    proxy.invoke(nso, "rand", Bytes::new(), self.mode, now, out);
                    return;
                }
                Some(ProxyEvent::GaveUp) => {
                    self.gave_up += 1;
                    return;
                }
                Some(_) => return,
                None => {}
            }
        }
        if matches!(output, NsoOutput::InvocationComplete { .. }) {
            self.duplicate_completions += 1;
        }
    }
}
