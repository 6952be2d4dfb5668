//! NSO applications driving the paper's workloads.
//!
//! * [`ServerApp`] — one replica of the random-number service.
//! * [`ClientApp`] — a closed-loop request-reply client (open or closed
//!   binding), with §4.1 rebind-and-retry on a broken binding.
//! * [`PeerApp`] — a peer-participation member multicasting 100-character
//!   strings as fast as its own deliveries come back.

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;

use newtop::directory::GroupRecord;
use newtop::nso::{BindOptions, GroupHandle, Nso, NsoOutput, ResolveStyle};
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

/// How a [`ClientApp`] binds to the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientStyle {
    /// Closed client/server group containing every server.
    Closed,
    /// Open binding to the given server (an index into the server list).
    Open {
        /// Which server acts as this client's request manager.
        manager_index: usize,
    },
    /// Name-based binding through the replicated directory: the server
    /// group id doubles as the service name, resolved against the listed
    /// directory members and shaped per `style`.
    Directory {
        /// The directory members to consult.
        directory: Vec<NodeId>,
        /// The binding shape built from the resolved record.
        style: ResolveStyle,
    },
}

/// A closed-loop request-reply client: issues the next request the moment
/// the previous reply completes (the paper's measurement client).
pub struct ClientApp {
    /// The server group to bind to.
    pub server_group: GroupId,
    /// The service's replicas (for binding and rebinding).
    pub servers: Vec<NodeId>,
    /// Binding style.
    pub style: ClientStyle,
    /// Reply-collection primitive.
    pub mode: ReplyMode,
    /// Ordering protocol for the client/server group.
    pub ordering: OrderProtocol,
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
    /// How long a call may stay unanswered before it is re-issued with
    /// the same number (§4.1 retry; the server reply cache deduplicates,
    /// so a spurious retry costs bandwidth, never correctness). Chosen
    /// far above any fault-free response time so it only fires when a
    /// request or reply was actually lost.
    pub retry_after: Duration,
    /// Calls re-issued by the retry timer.
    pub retries: u32,
    binding: Option<GroupHandle>,
    issued_at: HashMap<u64, SimTime>,
    current_manager_index: usize,
}

/// Timer tag for the call-retry check ([`ClientApp::retry_after`]).
const RETRY_TAG: u64 = tags::APP_BASE + 1;

impl ClientApp {
    /// Creates a client for the standard sweep.
    #[must_use]
    pub fn new(
        server_group: GroupId,
        servers: Vec<NodeId>,
        style: ClientStyle,
        mode: ReplyMode,
        ordering: OrderProtocol,
        start_delay: Duration,
    ) -> Self {
        let current_manager_index = match &style {
            ClientStyle::Open { manager_index } => *manager_index,
            ClientStyle::Closed | ClientStyle::Directory { .. } => 0,
        };
        ClientApp {
            server_group,
            servers,
            style,
            mode,
            ordering,
            start_delay,
            completions: Vec::new(),
            rebinds: 0,
            duplicate_completions: 0,
            retry_after: Duration::from_millis(100),
            retries: 0,
            binding: None,
            issued_at: HashMap::new(),
            current_manager_index,
        }
    }

    fn bind(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        let opts = match &self.style {
            ClientStyle::Closed => BindOptions::closed(self.servers.clone()),
            ClientStyle::Open { .. } => {
                let manager = self.servers[self.current_manager_index % self.servers.len()];
                BindOptions::open(manager)
            }
            ClientStyle::Directory { directory, style } => {
                // A rebind rotates the open rank, mirroring the
                // explicit styles' next-server behaviour; the fresh
                // resolution also drops any member the directory has
                // already learned is gone.
                let style = match *style {
                    ResolveStyle::Open { rank } => ResolveStyle::Open {
                        rank: rank + self.current_manager_index,
                    },
                    other => other,
                };
                BindOptions::resolve(self.server_group.as_str(), directory.clone())
                    .with_resolve_style(style)
            }
        }
        .with_ordering(self.ordering);
        nso.bind(self.server_group.clone(), opts, now, out)
            .expect("bind");
    }

    fn issue(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        let Some(binding) = self.binding.clone() else {
            return;
        };
        match binding.invoke(nso, "rand", Bytes::new(), self.mode, now, out) {
            Ok(call) => {
                self.issued_at.insert(call.number, now);
                out.set_timer(self.retry_after, RETRY_TAG);
            }
            Err(_) => {
                // Binding raced away; a rebind is in flight.
            }
        }
    }

    /// Re-issues calls that have been pending longer than `retry_after`.
    /// This is what recovers a lost request *or* reply: the group may
    /// look quiet to everyone else, so no other layer will.
    fn check_retries(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        let Some(binding) = self.binding.clone() else {
            // A rebind is in flight; `BindingReady` re-issues pending
            // calls itself.
            return;
        };
        let mut stale: Vec<u64> = self
            .issued_at
            .iter()
            .filter(|&(_, &at)| now - at >= self.retry_after)
            .map(|(&n, _)| n)
            .collect();
        stale.sort_unstable();
        for number in stale {
            if binding.retry(nso, number, now, out).is_ok() {
                self.retries += 1;
            }
        }
        if !self.issued_at.is_empty() {
            out.set_timer(self.retry_after, RETRY_TAG);
        }
    }
}

impl NsoApp for ClientApp {
    fn on_start(&mut self, _nso: &mut Nso, _now: SimTime, out: &mut Outbox) {
        out.set_timer(self.start_delay, tags::APP_BASE);
    }

    fn on_timer(&mut self, nso: &mut Nso, tag: u64, now: SimTime, out: &mut Outbox) {
        if tag == RETRY_TAG {
            self.check_retries(nso, now, out);
        } else {
            self.bind(nso, now, out);
        }
    }

    fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, now: SimTime, out: &mut Outbox) {
        match output {
            NsoOutput::BindingReady { group } => {
                let Some(binding) = nso.handle_for(&group) else {
                    return;
                };
                self.binding = Some(binding.clone());
                // Rebind-and-retry (§4.1): re-issue whatever is still
                // pending with the original call numbers; only start fresh
                // traffic when nothing is outstanding.
                let pending: Vec<u64> = self.issued_at.keys().copied().collect();
                if pending.is_empty() {
                    self.issue(nso, now, out);
                }
                for number in pending {
                    let _ = binding.retry(nso, number, now, out);
                }
            }
            NsoOutput::BindFailed { .. } => {
                // Try the next server.
                self.current_manager_index += 1;
                self.bind(nso, now, out);
            }
            NsoOutput::BindingBroken { .. } => {
                self.rebinds += 1;
                self.binding = None;
                self.current_manager_index += 1;
                self.bind(nso, now, out);
            }
            NsoOutput::InvocationComplete { call, .. } => {
                if let Some(at) = self.issued_at.remove(&call.number) {
                    self.completions.push((now, now - at));
                } else {
                    self.duplicate_completions += 1;
                }
                self.issue(nso, now, out);
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

/// One service a [`HubApp`] talks to: its group, replicas, and the
/// hub's closed-loop state for it.
struct HubSlot {
    service: GroupId,
    servers: Vec<NodeId>,
    binding: Option<GroupHandle>,
    /// The binding group id returned by `bind`, used to route
    /// `BindingReady` back to this slot before the handle is live.
    bound_as: Option<GroupId>,
    /// `(call number, issued at)` of the outstanding call, if any.
    outstanding: Option<(u64, SimTime)>,
}

/// A multi-service client hub: binds to several independent services at
/// once and runs a closed loop (one outstanding call) against each.
///
/// The hub's bindings share no member but the hub itself, so its one
/// engine orders several independent services at once.
pub struct HubApp {
    /// Reply-collection primitive for every call.
    pub mode: ReplyMode,
    /// Ordering protocol for the client/server groups.
    pub ordering: OrderProtocol,
    /// Stagger before binding.
    pub start_delay: Duration,
    /// `(completion time, response time)` per completed call, across all
    /// services.
    pub completions: Vec<(SimTime, Duration)>,
    /// Completions that surfaced twice — must stay zero.
    pub duplicate_completions: u32,
    /// How long a call may stay unanswered before it is re-issued with
    /// the same number (the server reply cache deduplicates).
    pub retry_after: Duration,
    slots: Vec<HubSlot>,
    /// Outstanding call number → slot index.
    in_flight: HashMap<u64, usize>,
}

/// Timer tag for the hub's retry check.
const HUB_RETRY_TAG: u64 = tags::APP_BASE + 2;

impl HubApp {
    /// Creates a hub bound to every listed `(service group, replicas)`.
    #[must_use]
    pub fn new(
        services: Vec<(GroupId, Vec<NodeId>)>,
        mode: ReplyMode,
        ordering: OrderProtocol,
        start_delay: Duration,
    ) -> Self {
        HubApp {
            mode,
            ordering,
            start_delay,
            completions: Vec::new(),
            duplicate_completions: 0,
            retry_after: Duration::from_millis(150),
            slots: services
                .into_iter()
                .map(|(service, servers)| HubSlot {
                    service,
                    servers,
                    binding: None,
                    bound_as: None,
                    outstanding: None,
                })
                .collect(),
            in_flight: HashMap::new(),
        }
    }

    fn bind_slot(&mut self, idx: usize, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        let slot = &mut self.slots[idx];
        let opts = BindOptions::closed(slot.servers.clone())
            .with_ordering(self.ordering)
            // Asynchronous fan-outs let the data path batch: the data
            // multicast, its acks and the piggybacked order records can
            // share a frame per destination.
            .with_fanout(FanoutMode::Asynchronous);
        match nso.bind(slot.service.clone(), opts, now, out) {
            Ok(handle) => slot.bound_as = Some(handle.id().clone()),
            Err(_) => {
                // The previous binding group is still tearing down; the
                // retry timer re-attempts.
            }
        }
    }

    fn issue(&mut self, idx: usize, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        let slot = &mut self.slots[idx];
        let Some(binding) = slot.binding.clone() else {
            return;
        };
        if let Ok(call) = binding.invoke(nso, "rand", Bytes::new(), self.mode, now, out) {
            slot.outstanding = Some((call.number, now));
            self.in_flight.insert(call.number, idx);
        }
    }

    fn check_retries(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        for idx in 0..self.slots.len() {
            let slot = &self.slots[idx];
            match (&slot.binding, slot.bound_as.is_some(), slot.outstanding) {
                (Some(binding), _, Some((number, at))) if now - at >= self.retry_after => {
                    let _ = binding.clone().retry(nso, number, now, out);
                }
                (None, false, _) => self.bind_slot(idx, nso, now, out),
                _ => {}
            }
        }
        out.set_timer(self.retry_after, HUB_RETRY_TAG);
    }
}

impl NsoApp for HubApp {
    fn on_start(&mut self, _nso: &mut Nso, _now: SimTime, out: &mut Outbox) {
        out.set_timer(self.start_delay, tags::APP_BASE);
        out.set_timer(self.start_delay + self.retry_after, HUB_RETRY_TAG);
    }

    fn on_timer(&mut self, nso: &mut Nso, tag: u64, now: SimTime, out: &mut Outbox) {
        if tag == HUB_RETRY_TAG {
            self.check_retries(nso, now, out);
        } else {
            // Stagger the binds slightly so control traffic doesn't burst.
            for idx in 0..self.slots.len() {
                self.bind_slot(idx, nso, now, out);
            }
        }
    }

    fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, now: SimTime, out: &mut Outbox) {
        match output {
            NsoOutput::BindingReady { group } => {
                let Some(idx) = self
                    .slots
                    .iter()
                    .position(|s| s.bound_as.as_ref() == Some(&group))
                else {
                    return;
                };
                let Some(binding) = nso.handle_for(&group) else {
                    return;
                };
                self.slots[idx].binding = Some(binding.clone());
                match self.slots[idx].outstanding {
                    Some((number, _)) => {
                        let _ = binding.retry(nso, number, now, out);
                    }
                    None => self.issue(idx, nso, now, out),
                }
            }
            NsoOutput::BindFailed { group } | NsoOutput::BindingBroken { group, .. } => {
                if let Some(idx) = self
                    .slots
                    .iter()
                    .position(|s| s.bound_as.as_ref() == Some(&group))
                {
                    self.slots[idx].binding = None;
                    self.slots[idx].bound_as = None;
                    self.bind_slot(idx, nso, now, out);
                }
            }
            NsoOutput::InvocationComplete { call, .. } => {
                let Some(idx) = self.in_flight.remove(&call.number) else {
                    self.duplicate_completions += 1;
                    return;
                };
                if let Some((number, at)) = self.slots[idx].outstanding.take() {
                    debug_assert_eq!(number, call.number);
                    self.completions.push((now, now - at));
                }
                self.issue(idx, nso, now, out);
            }
            _ => {}
        }
    }
}
