//! The per-node group-communication state machine.
//!
//! A [`GcsMember`] is the group-communication half of a NewTop service
//! object: it manages every group its node belongs to (overlapping groups
//! share one Lamport clock, keeping cross-group total order
//! causality-consistent), drives the per-view [`DeliveryEngine`]s, and
//! implements the parts of the protocol that need a network and timers:
//!
//! * multicast (one oneway ORB invocation per member, including a
//!   loopback to self — the paper's per-member invocation fan-out);
//! * NACK-based retransmission and sequencer order-log repair;
//! * the time-silence mechanism (null messages), in *lively* or
//!   *event-driven* mode, plus the idle null a symmetric member sends
//!   when its host runs out of work ([`GcsMember::on_idle`]);
//! * the failure suspector;
//! * view agreement: coordinator-led propose → state-response →
//!   flush/install, giving virtually-synchronous view changes; the
//!   protocol is partitionable (disjoint partitions install disjoint
//!   views) and tolerates coordinator failure by re-election
//!   (lowest-ranked candidate) with monotonic attempt numbers;
//! * dynamic join and graceful leave.
//!
//! All methods are sans-IO: network sends go through a [`GcsNet`]
//! (an ORB plus an outbox) and time is a parameter.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;

use newtop_net::metrics::Observability;
use newtop_net::sim::Outbox;
use newtop_net::site::NodeId;
use newtop_net::time::SimTime;
use newtop_net::trace::TraceEvent;
use newtop_orb::cdr::CdrEncode;
use newtop_orb::ior::{ObjectKey, ObjectRef};
use newtop_orb::orb::OrbCore;

use newtop_flow::FlowController;

use crate::clock::{DepsVector, LamportClock};
use crate::engine::{DeliveryEngine, EngineConfig};
use crate::group::{DeliveryOrder, GroupConfig, GroupId, Liveness, OrderProtocol};
use crate::messages::{ContigVector, DataMsg, GcsMessage, NullMsg};
use crate::view::{View, ViewId};
use crate::{GCS_OPERATION, NSO_OBJECT_KEY};

/// Maximum retransmissions served per NACK.
const MAX_RETRANS_PER_NACK: u64 = 64;
/// Maximum order-log entries served per order NACK.
const MAX_ORDER_ENTRIES_PER_NACK: usize = 256;
/// Activity linger: an event-driven group keeps its liveness machinery
/// running for this many time-silence periods after the last activity.
const EVENT_DRIVEN_LINGER: u32 = 3;
/// How many times a view-change round is re-sent on timeout before the
/// silent party is written off (agreement traffic is not NACK-protected,
/// so a lost message must not immediately look like a crash).
const VC_RETRIES: u32 = 2;
/// Minimum spacing between a sequencer's ordering multicasts. When
/// records become due faster than this, they are batched into one
/// `SeqOrder` — at light load every record still goes out immediately.
/// A threaded host also sends held records as soon as it runs out of
/// work ([`GcsMember::on_idle`]), so the interval is only an upper bound.
const ORDER_FLUSH_INTERVAL: std::time::Duration = std::time::Duration::from_micros(500);
/// How long a receiver waits on a sequence gap before NACKing.
const NACK_DELAY: std::time::Duration = std::time::Duration::from_millis(10);
/// How long a view-change coordinator waits for state responses (and a
/// participant for the install) before escalating; also the interval at
/// which a joiner re-sends its join request.
const VIEW_CHANGE_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(150);
/// Credit-based send window: the most multicasts a member may have
/// outstanding (sent this view but unacknowledged by some member) before
/// further sends are shed with [`GcsError::Overloaded`].
const SEND_WINDOW: u64 = 64;
/// The most multicasts held while a view agreement is in flight; beyond
/// this a send is shed instead of queued.
const MAX_QUEUED_MULTICASTS: usize = 128;

/// Errors returned by the group API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GcsError {
    /// The node is not in the named group.
    UnknownGroup(GroupId),
    /// The node already belongs to the named group.
    AlreadyMember(GroupId),
    /// The operation needs full membership but the node is still joining.
    NotMember(GroupId),
    /// `create_group` was called with a member list not containing the
    /// local node, or an empty list.
    BadMembership,
    /// The group's credit-based send window (or its view-change send
    /// buffer) is exhausted: the multicast was shed. Retry after
    /// acknowledgements from the slowest member replenish credits.
    Overloaded(GroupId),
}

impl fmt::Display for GcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GcsError::UnknownGroup(g) => write!(f, "unknown group {g}"),
            GcsError::AlreadyMember(g) => write!(f, "already a member of {g}"),
            GcsError::NotMember(g) => write!(f, "not a full member of {g}"),
            GcsError::BadMembership => {
                f.write_str("initial membership must include the local node")
            }
            GcsError::Overloaded(g) => {
                write!(f, "send window of {g} exhausted; multicast shed")
            }
        }
    }
}

impl Error for GcsError {}

/// Things the GCS hands up to the invocation layer / application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GcsOutput {
    /// A multicast became deliverable.
    Delivered {
        /// Group it was sent in.
        group: GroupId,
        /// The multicasting member (may be the local node itself).
        sender: NodeId,
        /// The guarantee it was sent with.
        order: DeliveryOrder,
        /// The message's Lamport timestamp (diagnostic; symmetric total
        /// order delivers in `(lamport, sender)` order).
        lamport: u64,
        /// Application payload.
        payload: Bytes,
    },
    /// A new view was installed.
    ViewInstalled {
        /// Group concerned.
        group: GroupId,
        /// The new view.
        view: View,
        /// Members present now but not before.
        joined: Vec<NodeId>,
        /// Members present before but not now.
        departed: Vec<NodeId>,
    },
    /// The local node has left the group (after
    /// [`GcsMember::leave_group`]).
    LeftGroup {
        /// Group concerned.
        group: GroupId,
    },
}

/// The network context for one call: the node's ORB plus the outbox the
/// runtime will apply.
pub struct GcsNet<'a> {
    /// The node's ORB core.
    pub orb: &'a mut OrbCore,
    /// The action sink.
    pub out: &'a mut Outbox,
    sent: u64,
    encode_calls: u64,
    bytes_encoded: u64,
}

impl<'a> GcsNet<'a> {
    /// Creates a context over the node's ORB and the outbox of the event
    /// being handled: every send goes out as its own frame at once.
    pub fn new(orb: &'a mut OrbCore, out: &'a mut Outbox) -> Self {
        GcsNet {
            orb,
            out,
            sent: 0,
            encode_calls: 0,
            bytes_encoded: 0,
        }
    }

    /// Point-to-point GCS messages sent through this context (multicast
    /// fan-outs count one per member). The owner harvests this into its
    /// metric registry after each batch of calls.
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// CDR body encodes performed through this context. A multicast
    /// fan-out counts exactly one, whatever the group size — the
    /// encode-once invariant the metrics registry asserts.
    #[must_use]
    pub fn encode_calls(&self) -> u64 {
        self.encode_calls
    }

    /// Total CDR body bytes produced by [`Self::encode_calls`].
    #[must_use]
    pub fn bytes_encoded(&self) -> u64 {
        self.bytes_encoded
    }

    /// Marshals `msg` once through the ORB's capacity-retaining scratch
    /// encoder, producing one refcounted body frame.
    fn encode_body(&mut self, msg: &GcsMessage) -> Bytes {
        let enc = self.orb.scratch_encoder();
        enc.clear();
        msg.encode(enc);
        let body = enc.take_frame();
        self.encode_calls += 1;
        self.bytes_encoded += body.len() as u64;
        body
    }

    fn send(&mut self, to: NodeId, msg: &GcsMessage) {
        self.sent += 1;
        let body = self.encode_body(msg);
        self.orb.oneway(
            &ObjectRef::new(to, NSO_OBJECT_KEY),
            GCS_OPERATION,
            body,
            self.out,
        );
    }

    /// Sends one message to many members as a single multicast fan-out.
    /// Synchronous mode chains the per-member invocations' round trips
    /// (§2.2); asynchronous mode issues them back-to-back (§5.2).
    ///
    /// The message body and the GIOP frame are each encoded exactly once;
    /// every recipient gets a cheap refcount clone of the one shared
    /// frame.
    fn send_fanout<I: IntoIterator<Item = NodeId>>(
        &mut self,
        mode: crate::group::FanoutMode,
        targets: I,
        msg: &GcsMessage,
    ) {
        if mode == crate::group::FanoutMode::Synchronous {
            self.out.begin_fanout();
        }
        let body = self.encode_body(msg);
        self.sent += self.orb.oneway_fanout(
            targets,
            &ObjectKey::new(NSO_OBJECT_KEY),
            GCS_OPERATION,
            &body,
            self.out,
        );
        self.out.end_fanout();
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum TimerKind {
    Null,
    Suspicion,
    NackScan,
    ViewChange,
    JoinRetry,
    OrderFlush,
}

#[derive(Clone, Debug)]
struct TimerRoute {
    group: GroupId,
    kind: TimerKind,
    /// For `ViewChange`: the attempt this timer guards. Stale fires are
    /// ignored.
    stamp: u64,
}

#[derive(Debug)]
enum Role {
    Member,
    Joining { contact: NodeId },
}

#[derive(Debug)]
struct VcState {
    attempt: u64,
    coordinator: NodeId,
    candidates: Vec<NodeId>,
    /// Coordinator only: received state responses (self included).
    responses: BTreeMap<NodeId, ContigVector>,
    /// Agreement messages are not NACK-protected; on timeout they are
    /// re-sent this many times before anyone is given up on.
    retries: u32,
    /// Participant only: the coordinator's received-vector from the
    /// proposal, kept so a state response can be re-sent verbatim.
    coord_contig: ContigVector,
}

#[derive(Debug)]
struct GroupState {
    config: GroupConfig,
    role: Role,
    view: View,
    engine: DeliveryEngine,
    next_seq: u64,
    /// Highest view-agreement attempt seen or used.
    attempt: u64,
    last_heard: BTreeMap<NodeId, SimTime>,
    suspects: BTreeSet<NodeId>,
    joiners: BTreeSet<NodeId>,
    leavers: BTreeSet<NodeId>,
    vc: Option<VcState>,
    /// The last install this member sent as coordinator, kept so a
    /// participant whose install was lost (it re-sends its state
    /// response) can be served again.
    last_install: Option<(u64, View, Vec<Arc<DataMsg>>)>,
    last_sent: SimTime,
    /// The highest Lamport stamp of another member's total-order data
    /// ingested in this view. A symmetric member whose `announced` is
    /// below it sends an idle null ([`GcsMember::on_idle`]).
    total_heard: u64,
    /// The stamp of this member's last data or null in this view.
    announced: u64,
    last_activity: SimTime,
    liveness_running: bool,
    /// When the null and suspicion timers last stopped (an event-driven
    /// group past its linger). Silence counts only while they run, so
    /// [`GcsMember::ensure_liveness`] moves `last_heard` forward by the
    /// span they were stopped.
    liveness_stopped: SimTime,
    nack_scheduled: bool,
    /// Sequencer only: ordering records not yet multicast, and the pacing
    /// state of the batching described at [`ORDER_FLUSH_INTERVAL`].
    pending_order: Vec<(NodeId, u64)>,
    last_order_flush: SimTime,
    order_flush_scheduled: bool,
    /// Multicasts requested while a view agreement was in flight. The
    /// old view's delivery set is frozen the moment this member snapshots
    /// its state for the coordinator, so sending into it would let the
    /// message straddle the install (delivered in view *v* by members
    /// that received it early, in *v+1* — or never — by the rest). They
    /// are sent into the new view right after it installs.
    queued_multicasts: Vec<(DeliveryOrder, Bytes)>,
    /// Credit-based send window for this group (see `newtop_flow`):
    /// reset per view, replenished by the piggybacked ack vectors.
    flow: FlowController<NodeId>,
}

impl GroupState {
    fn is_member(&self) -> bool {
        matches!(self.role, Role::Member)
    }

    /// Marks the null and suspicion timers stopped at `now`, the first
    /// time either of them finds the group quiet.
    fn stop_liveness(&mut self, now: SimTime) {
        if self.liveness_running {
            self.liveness_running = false;
            self.liveness_stopped = now;
        }
    }
}

/// The group-communication state machine for one node. See the
/// [module docs](self).
pub struct GcsMember {
    node: NodeId,
    clock: LamportClock,
    groups: BTreeMap<GroupId, GroupState>,
    timer_routes: BTreeMap<u64, TimerRoute>,
    tag_base: u64,
    next_tag: u64,
    /// Outputs produced by internal handlers, drained by the public entry
    /// points.
    pending: Vec<GcsOutput>,
    /// Metrics and protocol-event trace for all this node's groups.
    obs: Observability,
}

impl fmt::Debug for GcsMember {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GcsMember")
            .field("node", &self.node)
            .field("groups", &self.groups.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl GcsMember {
    /// Creates the state machine for `node`. Timer tags handed to the
    /// outbox are offset by `tag_base` so several components can share one
    /// node's tag space.
    #[must_use]
    pub fn new(node: NodeId, tag_base: u64) -> Self {
        GcsMember {
            node,
            clock: LamportClock::new(),
            groups: BTreeMap::new(),
            timer_routes: BTreeMap::new(),
            tag_base,
            next_tag: 0,
            pending: Vec::new(),
            obs: Observability::new(),
        }
    }

    /// This member's metrics and protocol-event trace.
    #[must_use]
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// The flow-control ledger of a group this node belongs to (send
    /// window, in-flight count, shed total, peak).
    #[must_use]
    pub fn flow_of(&self, group: &GroupId) -> Option<&FlowController<NodeId>> {
        self.groups.get(group).map(|g| &g.flow)
    }

    /// Mutable flow-control access for the recovery path: state-transfer
    /// sends are admitted with [`FlowController::admit_replay`] so they
    /// pass the controller without consuming live send credits.
    pub fn flow_of_mut(&mut self, group: &GroupId) -> Option<&mut FlowController<NodeId>> {
        self.groups.get_mut(group).map(|g| &mut g.flow)
    }

    /// Counts one shed multicast in the metrics registry.
    fn note_flow_shed(&mut self, _group: &GroupId) {
        self.obs.metrics.incr("flow.shed");
    }

    /// Raises the `flow.queue_depth_peak` gauge to the group's peak
    /// in-flight count.
    fn note_flow_peak(&mut self, group: &GroupId) {
        let Some(state) = self.groups.get(group) else {
            return;
        };
        let peak = state.flow.peak_in_flight();
        let peak = i64::try_from(peak).unwrap_or(i64::MAX);
        if self.obs.metrics.gauge("flow.queue_depth_peak").unwrap_or(0) < peak {
            self.obs.metrics.set_gauge("flow.queue_depth_peak", peak);
        }
    }

    /// The local node.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Advances the clock past an externally observed timestamp. A
    /// recovering node calls this with the highest Lamport stamp in its
    /// replayed history (and in each state-transfer chunk), so that
    /// post-recovery sends never reuse a stamp other members already saw
    /// from it — per-sender FIFO must survive the restart.
    pub fn observe_clock(&mut self, ts: u64) {
        self.clock.observe(ts);
    }

    /// The current view of a group, if the node belongs to it.
    #[must_use]
    pub fn view_of(&self, group: &GroupId) -> Option<&View> {
        self.groups.get(group).map(|g| &g.view)
    }

    /// Whether `tag` belongs to one of this member's timers.
    #[must_use]
    pub fn owns_tag(&self, tag: u64) -> bool {
        self.timer_routes.contains_key(&tag)
    }

    // --- group API ---------------------------------------------------------

    /// Creates (statically bootstraps) a group whose full initial
    /// membership is known to every initial member — the configuration
    /// used by all the paper's experiments. Every listed node must call
    /// `create_group` with the same arguments.
    ///
    /// # Errors
    ///
    /// [`GcsError::AlreadyMember`] if this node already has the group;
    /// [`GcsError::BadMembership`] if `members` is empty or omits the
    /// local node.
    pub fn create_group(
        &mut self,
        group: GroupId,
        config: GroupConfig,
        members: Vec<NodeId>,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) -> Result<Vec<GcsOutput>, GcsError> {
        if self.groups.contains_key(&group) {
            return Err(GcsError::AlreadyMember(group));
        }
        if members.is_empty() || !members.contains(&self.node) {
            return Err(GcsError::BadMembership);
        }
        let view = View::new(group.clone(), ViewId(1), members);
        let engine = EngineConfig {
            me: self.node,
            view: view.id(),
            members: view.members().to_vec(),
            protocol: config.ordering,
        }
        .build()?;
        let me = self.node;
        let mut flow = FlowController::new(SEND_WINDOW);
        flow.install_view(view.members().iter().copied().filter(|&m| m != me));
        let state = GroupState {
            config,
            role: Role::Member,
            view: view.clone(),
            engine,
            next_seq: 1,
            attempt: 0,
            last_heard: view.members().iter().map(|&m| (m, now)).collect(),
            suspects: BTreeSet::new(),
            joiners: BTreeSet::new(),
            leavers: BTreeSet::new(),
            vc: None,
            last_install: None,
            last_sent: now,
            total_heard: 0,
            announced: 0,
            last_activity: now,
            liveness_running: false,
            liveness_stopped: now,
            nack_scheduled: false,
            pending_order: Vec::new(),
            last_order_flush: SimTime::ZERO,
            order_flush_scheduled: false,
            queued_multicasts: Vec::new(),
            flow,
        };
        self.groups.insert(group.clone(), state);
        self.obs.record(
            now,
            TraceEvent::ViewInstalled {
                group: group.as_str().to_string(),
                view: view.id().0,
                members: view.len(),
            },
        );
        self.ensure_liveness(&group, now, net);
        Ok(vec![GcsOutput::ViewInstalled {
            group,
            view: view.clone(),
            joined: view.members().to_vec(),
            departed: Vec::new(),
        }])
    }

    /// Starts joining an existing group through `contact`, a current
    /// member. Completion is signalled by a [`GcsOutput::ViewInstalled`]
    /// containing the local node.
    ///
    /// # Errors
    ///
    /// [`GcsError::AlreadyMember`] if this node already has the group.
    pub fn join_group(
        &mut self,
        group: GroupId,
        config: GroupConfig,
        contact: NodeId,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) -> Result<(), GcsError> {
        if self.groups.contains_key(&group) {
            return Err(GcsError::AlreadyMember(group));
        }
        // Placeholder view until the install arrives.
        let view = View::new(group.clone(), ViewId(0), vec![self.node]);
        let engine = EngineConfig {
            me: self.node,
            view: view.id(),
            members: vec![self.node],
            protocol: config.ordering,
        }
        .build()?;
        // Singleton placeholder membership: never sheds before the real
        // view installs (a joiner cannot multicast yet anyway).
        let flow = FlowController::new(SEND_WINDOW);
        self.groups.insert(
            group.clone(),
            GroupState {
                config,
                role: Role::Joining { contact },
                view,
                engine,
                next_seq: 1,
                attempt: 0,
                last_heard: BTreeMap::new(),
                suspects: BTreeSet::new(),
                joiners: BTreeSet::new(),
                leavers: BTreeSet::new(),
                vc: None,
                last_install: None,
                last_sent: now,
                total_heard: 0,
                announced: 0,
                last_activity: now,
                liveness_running: false,
                liveness_stopped: now,
                nack_scheduled: false,
                pending_order: Vec::new(),
                last_order_flush: SimTime::ZERO,
                order_flush_scheduled: false,
                queued_multicasts: Vec::new(),
                flow,
            },
        );
        net.send(
            contact,
            &GcsMessage::Join {
                group: group.clone(),
                joiner: self.node,
            },
        );
        self.schedule(&group, TimerKind::JoinRetry, VIEW_CHANGE_TIMEOUT, 0, net);
        Ok(())
    }

    /// Gracefully leaves a group. The remaining members run a view change
    /// excluding this node.
    ///
    /// # Errors
    ///
    /// [`GcsError::UnknownGroup`] if the node is not in the group.
    pub fn leave_group(
        &mut self,
        group: &GroupId,
        _now: SimTime,
        net: &mut GcsNet<'_>,
    ) -> Result<Vec<GcsOutput>, GcsError> {
        let state = self
            .groups
            .remove(group)
            .ok_or_else(|| GcsError::UnknownGroup(group.clone()))?;
        if state.is_member() {
            let msg = GcsMessage::Leave {
                group: group.clone(),
                view: state.view.id(),
                leaver: self.node,
            };
            let me = self.node;
            let targets: Vec<NodeId> = state
                .view
                .members()
                .iter()
                .copied()
                .filter(|&m| m != me)
                .collect();
            net.send_fanout(state.config.fanout, targets, &msg);
        }
        self.timer_routes.retain(|_, r| &r.group != group);
        Ok(vec![GcsOutput::LeftGroup {
            group: group.clone(),
        }])
    }

    /// Multicasts `payload` to the group with the requested delivery
    /// guarantee. The message is also looped back to the local node and
    /// surfaces as a [`GcsOutput::Delivered`] once its order is decided.
    ///
    /// # Errors
    ///
    /// [`GcsError::UnknownGroup`] / [`GcsError::NotMember`] when the node
    /// cannot send in this group.
    pub fn multicast(
        &mut self,
        group: &GroupId,
        order: DeliveryOrder,
        payload: Bytes,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) -> Result<(), GcsError> {
        let Some(head) = self.groups.get(group) else {
            return Err(GcsError::UnknownGroup(group.clone()));
        };
        if !head.is_member() {
            return Err(GcsError::NotMember(group.clone()));
        }
        if head.vc.is_some() {
            // A view agreement is in flight: the old view's delivery set
            // is already frozen (see `queued_multicasts`), so hold the
            // message and send it into the new view once it installs —
            // up to `MAX_QUEUED_MULTICASTS`, beyond which the send is shed.
            let Some(state) = self.groups.get_mut(group) else {
                return Err(GcsError::UnknownGroup(group.clone()));
            };
            if state.queued_multicasts.len() >= MAX_QUEUED_MULTICASTS {
                state.flow.note_shed();
                self.note_flow_shed(group);
                return Err(GcsError::Overloaded(group.clone()));
            }
            state.queued_multicasts.push((order, payload));
            return Ok(());
        }
        // Credit gate: admission happens before a sequence number is
        // consumed, so a shed send leaves no gap for receivers to NACK.
        let granted = {
            let Some(state) = self.groups.get_mut(group) else {
                return Err(GcsError::UnknownGroup(group.clone()));
            };
            state.flow.try_acquire().is_granted()
        };
        if !granted {
            self.note_flow_shed(group);
            return Err(GcsError::Overloaded(group.clone()));
        }
        self.note_flow_peak(group);
        let lamport = self.clock.tick();
        let node = self.node;
        let Some(state) = self.groups.get_mut(group) else {
            return Err(GcsError::UnknownGroup(group.clone()));
        };
        let seq = state.next_seq;
        state.next_seq += 1;
        state.announced = lamport;
        let msg = DataMsg {
            group: group.clone(),
            view: state.view.id(),
            sender: node,
            seq,
            lamport,
            order,
            deps: DepsVector::from_pairs(state.engine.delivered_vector()),
            acks: state.engine.contig_vector(),
            payload,
        };
        let msg = Arc::new(msg);
        let wire = GcsMessage::Data(Arc::clone(&msg));
        let targets: Vec<NodeId> = state.view.members().to_vec();
        net.send_fanout(state.config.fanout, targets, &wire);
        // Buffer our own copy immediately rather than waiting for the
        // network loopback. The symmetric delivery rule exempts the
        // local member from its stability horizon on the assumption that
        // its own sends are always already buffered — if the loopback
        // lagged behind a peer's equal-timestamp message (heavy load
        // inflates the fan-out's CPU cost past the in-flight latency),
        // that message could be delivered ahead of ours while every
        // other member orders ours first, diverging the total order.
        // The loopback packet later ingests as a duplicate and merely
        // triggers the delivery drain.
        let _ = state.engine.ingest_data(msg);
        state.last_sent = now;
        state.last_activity = now;
        self.ensure_liveness(group, now, net);
        Ok(())
    }

    // --- event entry points --------------------------------------------------

    /// Handles a group-communication message (already unmarshalled by the
    /// owner from the `gcs` ORB operation).
    pub fn on_message(
        &mut self,
        msg: GcsMessage,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) -> Vec<GcsOutput> {
        let group = msg.group().clone();
        if !self.groups.contains_key(&group) {
            return Vec::new();
        }
        match msg {
            GcsMessage::Data(d) => self.on_data(&group, d, now, net),
            GcsMessage::Null(n) => self.on_null(&group, n, now, net),
            GcsMessage::Nack {
                view,
                from,
                sender,
                from_seq,
                to_seq,
                ..
            } => self.on_nack(&group, view, from, sender, from_seq, to_seq, now, net),
            GcsMessage::SeqOrder {
                view,
                sender,
                lamport,
                start,
                entries,
                ..
            } => self.on_seq_order(&group, view, sender, lamport, start, entries, now, net),
            GcsMessage::OrderNack {
                view,
                from,
                from_order_seq,
                ..
            } => self.on_order_nack(&group, view, from, from_order_seq, net),
            GcsMessage::Join { joiner, .. } => self.on_join(&group, joiner, now, net),
            GcsMessage::Leave { view, leaver, .. } => self.on_leave(&group, view, leaver, now, net),
            GcsMessage::Suspect {
                from,
                suspects,
                joiners,
                ..
            } => self.on_suspect(&group, from, suspects, joiners, now, net),
            GcsMessage::Propose {
                attempt,
                coordinator,
                candidates,
                old_view,
                coord_contig,
                ..
            } => self.on_propose(
                &group,
                attempt,
                coordinator,
                candidates,
                old_view,
                coord_contig,
                now,
                net,
            ),
            GcsMessage::StateResp {
                attempt,
                from,
                contig,
                msgs,
                ..
            } => self.on_state_resp(&group, attempt, from, contig, msgs, now, net),
            GcsMessage::Install {
                attempt,
                view,
                msgs,
                ..
            } => self.on_install(&group, attempt, view, msgs, now, net),
        }
        std::mem::take(&mut self.pending)
    }

    /// Handles a fired timer whose tag belongs to this member
    /// ([`Self::owns_tag`]).
    pub fn on_timer(&mut self, tag: u64, now: SimTime, net: &mut GcsNet<'_>) -> Vec<GcsOutput> {
        let Some(route) = self.timer_routes.remove(&tag) else {
            return Vec::new();
        };
        if !self.groups.contains_key(&route.group) {
            return Vec::new();
        }
        match route.kind {
            TimerKind::Null => self.on_null_timer(&route.group, now, net),
            TimerKind::Suspicion => self.on_suspicion_timer(&route.group, now, net),
            TimerKind::NackScan => self.on_nack_timer(&route.group, now, net),
            TimerKind::ViewChange => self.on_vc_timer(&route.group, route.stamp, now, net),
            TimerKind::JoinRetry => self.on_join_retry(&route.group, now, net),
            TimerKind::OrderFlush => self.on_order_flush_timer(&route.group, now, net),
        }
        std::mem::take(&mut self.pending)
    }

    /// The work a host does when its event queue runs empty. Records
    /// and announcements wait for company only while more events are
    /// queued behind them.
    ///
    /// * Every group's ordering records held back by the sequencer's
    ///   500 µs pacing interval go out at once.
    /// * Every symmetric group in which this member has received
    ///   another member's total-order data stamped later than its own
    ///   last data or null gets one null (counted as `gcs.idle_nulls`).
    ///   That data is delivered only once every other member is heard
    ///   at or past its stamp, so announcing the clock now, rather than
    ///   with the next multicast or time-silence null, releases it one
    ///   null hop after it arrives. An idle null is the time-silence
    ///   null with an earlier trigger; the timer stays the upper bound.
    pub fn on_idle(&mut self, now: SimTime, net: &mut GcsNet<'_>) {
        let held: Vec<GroupId> = self
            .groups
            .iter()
            .filter(|(_, state)| {
                !state.pending_order.is_empty() && state.is_member() && state.engine.is_sequencer()
            })
            .map(|(group, _)| group.clone())
            .collect();
        for group in held {
            self.flush_order_records(&group, now, net);
        }
        let behind: Vec<GroupId> = self
            .groups
            .iter()
            .filter(|(_, state)| {
                state.is_member()
                    && state.vc.is_none()
                    && state.config.ordering == OrderProtocol::Symmetric
                    && state.total_heard > state.announced
            })
            .map(|(group, _)| group.clone())
            .collect();
        for group in behind {
            self.send_null(&group, now, net);
            self.obs.metrics.incr("gcs.idle_nulls");
        }
    }

    // --- data path -----------------------------------------------------------

    fn on_data(&mut self, group: &GroupId, d: Arc<DataMsg>, now: SimTime, net: &mut GcsNet<'_>) {
        self.clock.observe(d.lamport);
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        // `vc.is_some()`: once this member has snapshotted its state for
        // a view agreement, the old view's delivery set is fixed — late
        // arrivals must not widen it (they would be delivered here but
        // flushed nowhere else, breaking virtual synchrony). Anything
        // a survivor holds reaches everyone through the install union.
        //
        // `contains(d.sender)`: partition sides number their views
        // independently, so a message from a same-numbered foreign view
        // can pass the id check — but the sides' member sets are
        // disjoint, so its sender is never in our view.
        if !state.is_member()
            || d.view != state.view.id()
            || state.vc.is_some()
            || !state.view.contains(d.sender)
        {
            return;
        }
        state.last_heard.insert(d.sender, now);
        state.last_activity = now;
        if d.order == DeliveryOrder::Total && d.sender != self.node {
            state.total_heard = state.total_heard.max(d.lamport);
        }
        state.engine.apply_acks(d.sender, &d.acks);
        // The piggybacked ack vector doubles as flow-control credit
        // replenishment: the entry about this node is the contiguous
        // prefix of our multicasts the sender has received.
        if let Some(&(_, upto)) = d.acks.iter().find(|(n, _)| *n == self.node) {
            state.flow.on_ack(d.sender, upto);
        }
        let _ = state.engine.ingest_data(d);
        self.after_ingest(group, now, net);
    }

    fn on_null(&mut self, group: &GroupId, n: NullMsg, now: SimTime, net: &mut GcsNet<'_>) {
        self.clock.observe(n.lamport);
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        // Frozen during a view agreement and guarded against foreign
        // same-numbered views, like `on_data`.
        if !state.is_member()
            || n.view != state.view.id()
            || state.vc.is_some()
            || !state.view.contains(n.sender)
        {
            return;
        }
        state.last_heard.insert(n.sender, now);
        state.engine.note_null(n.sender, n.lamport, n.last_seq);
        state.engine.apply_acks(n.sender, &n.acks);
        // Nulls replenish send credits too — the time-silence mechanism
        // carries flow control for free (see `on_data`).
        if let Some(&(_, upto)) = n.acks.iter().find(|(m, _)| *m == self.node) {
            state.flow.on_ack(n.sender, upto);
        }
        self.after_ingest(group, now, net);
    }

    /// Common post-ingest path: run the sequencer, drain deliveries,
    /// schedule gap repair, keep liveness running.
    fn after_ingest(&mut self, group: &GroupId, now: SimTime, net: &mut GcsNet<'_>) {
        let sequencer_duty = {
            self.groups.get(group).is_some_and(|state| {
                state.is_member()
                    && state.config.ordering == OrderProtocol::Asymmetric
                    && state.engine.is_sequencer()
            })
        };
        if sequencer_duty {
            let Some(state) = self.groups.get_mut(group) else {
                return;
            };
            let entries = state.engine.sequencer_poll();
            state.pending_order.extend(entries);
            if !state.pending_order.is_empty() {
                // Rate-limited flush: immediate when the group is quiet,
                // batched when records arrive faster than the interval.
                if now.saturating_since(state.last_order_flush) >= ORDER_FLUSH_INTERVAL {
                    self.flush_order_records(group, now, net);
                } else if !state.order_flush_scheduled {
                    state.order_flush_scheduled = true;
                    self.schedule(group, TimerKind::OrderFlush, ORDER_FLUSH_INTERVAL, 0, net);
                }
            }
        }
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        let mut delivered = 0u64;
        for m in state.engine.drain_deliverable() {
            delivered += 1;
            self.pending.push(GcsOutput::Delivered {
                group: group.clone(),
                sender: m.sender,
                order: m.order,
                lamport: m.lamport,
                payload: m.payload.clone(),
            });
        }
        if delivered > 0 {
            self.obs.metrics.add("gcs.delivered", delivered);
        }
        state.engine.gc_stable();
        let needs_scan = !state.nack_scheduled
            && (!state.engine.missing_ranges().is_empty() || state.engine.order_gap().is_some());
        if needs_scan {
            state.nack_scheduled = true;
            self.schedule(group, TimerKind::NackScan, NACK_DELAY, 0, net);
        }
        self.ensure_liveness(group, now, net);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_nack(
        &mut self,
        group: &GroupId,
        view: ViewId,
        from: NodeId,
        sender: NodeId,
        from_seq: u64,
        to_seq: u64,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) {
        let Some(state) = self.groups.get(group) else {
            return;
        };
        if view != state.view.id() || !state.is_member() {
            return;
        }
        let to_seq = to_seq.min(from_seq.saturating_add(MAX_RETRANS_PER_NACK));
        let mut served = 0;
        for seq in from_seq..=to_seq {
            if let Some(m) = state.engine.get_buffered(sender, seq) {
                net.send(from, &GcsMessage::Data(Arc::clone(m)));
                served += 1;
            }
        }
        if served > 0 {
            self.obs.record(
                now,
                TraceEvent::Retransmit {
                    group: group.as_str().to_string(),
                    to: from,
                    count: served,
                },
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_seq_order(
        &mut self,
        group: &GroupId,
        view: ViewId,
        sender: NodeId,
        lamport: u64,
        start: u64,
        entries: Vec<(NodeId, u64)>,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) {
        self.clock.observe(lamport);
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        // Frozen during a view agreement, like `on_data`. The sequencer
        // check also rejects records from a *foreign* view that happens
        // to share our view number: partition sides number their views
        // independently, and the two sides' member sets are disjoint, so
        // the other side's sequencer is never ours.
        if !state.is_member()
            || view != state.view.id()
            || state.vc.is_some()
            || Some(sender) != state.view.sequencer()
        {
            return;
        }
        state.last_heard.insert(sender, now);
        state.engine.ingest_order(start, &entries);
        self.after_ingest(group, now, net);
    }

    fn on_order_nack(
        &mut self,
        group: &GroupId,
        view: ViewId,
        from: NodeId,
        from_order_seq: u64,
        net: &mut GcsNet<'_>,
    ) {
        let Some(state) = self.groups.get(group) else {
            return;
        };
        if view != state.view.id() || !state.is_member() || !state.engine.is_sequencer() {
            return;
        }
        let (start, entries) = state
            .engine
            .order_log_slice(from_order_seq, MAX_ORDER_ENTRIES_PER_NACK);
        if entries.is_empty() {
            return;
        }
        net.send(
            from,
            &GcsMessage::SeqOrder {
                group: group.clone(),
                view,
                sender: self.node,
                lamport: self.clock.value(),
                start,
                entries,
            },
        );
    }

    // --- membership events -----------------------------------------------------

    fn on_join(&mut self, group: &GroupId, joiner: NodeId, now: SimTime, net: &mut GcsNet<'_>) {
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        if !state.is_member() || state.view.contains(joiner) {
            return;
        }
        if state.joiners.insert(joiner) {
            self.initiate_view_change(group, now, net);
        }
    }

    fn on_leave(
        &mut self,
        group: &GroupId,
        view: ViewId,
        leaver: NodeId,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) {
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        if !state.is_member() || view != state.view.id() || !state.view.contains(leaver) {
            return;
        }
        if state.leavers.insert(leaver) {
            self.initiate_view_change(group, now, net);
        }
    }

    fn on_suspect(
        &mut self,
        group: &GroupId,
        from: NodeId,
        suspects: Vec<NodeId>,
        joiners: Vec<NodeId>,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) {
        let node = self.node;
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        if !state.is_member() {
            return;
        }
        state.last_heard.insert(from, now);
        let mut changed = false;
        for s in suspects {
            if s != node && state.view.contains(s) {
                changed |= state.suspects.insert(s);
            }
        }
        for j in joiners {
            if !state.view.contains(j) {
                changed |= state.joiners.insert(j);
            }
        }
        if changed {
            self.initiate_view_change(group, now, net);
        }
    }

    /// Computes the next candidate membership and either coordinates or
    /// reports to the coordinator.
    fn initiate_view_change(&mut self, group: &GroupId, now: SimTime, net: &mut GcsNet<'_>) {
        let node = self.node;
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        if !state.is_member() {
            return;
        }
        let mut candidates: Vec<NodeId> = state
            .view
            .members()
            .iter()
            .copied()
            .filter(|m| !state.suspects.contains(m) && !state.leavers.contains(m))
            .chain(state.joiners.iter().copied())
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        if candidates.is_empty() || !candidates.contains(&node) {
            return;
        }
        // Already agreeing on exactly this membership? Let it run.
        if let Some(vc) = &state.vc {
            if vc.candidates == candidates {
                return;
            }
        }
        let Some(&coordinator) = candidates.first() else {
            return;
        };
        if coordinator == node {
            self.start_agreement(group, candidates, now, net);
        } else {
            // Report what we know and arm a timeout in case the
            // coordinator never acts.
            let msg = GcsMessage::Suspect {
                group: group.clone(),
                view: state.view.id(),
                from: node,
                suspects: state.suspects.iter().copied().collect(),
                joiners: state.joiners.iter().copied().collect(),
            };
            net.send(coordinator, &msg);
            let stamp = state.attempt + 1;
            self.schedule(
                group,
                TimerKind::ViewChange,
                VIEW_CHANGE_TIMEOUT,
                stamp,
                net,
            );
        }
    }

    fn start_agreement(
        &mut self,
        group: &GroupId,
        candidates: Vec<NodeId>,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) {
        let node = self.node;
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        state.attempt += 1;
        let attempt = state.attempt;
        let contig = state.engine.contig_vector();
        let mut responses = BTreeMap::new();
        responses.insert(node, contig.clone());
        state.vc = Some(VcState {
            attempt,
            coordinator: node,
            candidates: candidates.clone(),
            responses,
            retries: 0,
            coord_contig: Vec::new(),
        });
        let msg = GcsMessage::Propose {
            group: group.clone(),
            attempt,
            coordinator: node,
            candidates: candidates.clone(),
            old_view: state.view.id(),
            coord_contig: contig,
        };
        let fanout = state.config.fanout;
        net.send_fanout(
            fanout,
            candidates.iter().copied().filter(|&c| c != node),
            &msg,
        );
        self.schedule(
            group,
            TimerKind::ViewChange,
            VIEW_CHANGE_TIMEOUT,
            attempt,
            net,
        );
        self.ensure_liveness(group, now, net);
        // Single-survivor case resolves immediately.
        self.maybe_finish_agreement(group, now, net);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_propose(
        &mut self,
        group: &GroupId,
        attempt: u64,
        coordinator: NodeId,
        candidates: Vec<NodeId>,
        old_view: ViewId,
        coord_contig: ContigVector,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) {
        let node = self.node;
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        if !candidates.contains(&node) {
            return;
        }
        if state.is_member() && old_view != state.view.id() {
            return; // proposal against a view we no longer hold
        }
        if attempt < state.attempt {
            return; // stale attempt
        }
        if let Some(vc) = &state.vc {
            if (attempt, coordinator) < (vc.attempt, vc.coordinator) {
                return;
            }
        }
        state.attempt = attempt;
        state.last_heard.insert(coordinator, now);
        state.vc = Some(VcState {
            attempt,
            coordinator,
            candidates,
            responses: BTreeMap::new(),
            retries: 0,
            coord_contig: coord_contig.clone(),
        });
        let (contig, msgs) = if state.is_member() {
            (
                state.engine.contig_vector(),
                state.engine.export_msgs_beyond(&coord_contig),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        net.send(
            coordinator,
            &GcsMessage::StateResp {
                group: group.clone(),
                attempt,
                from: node,
                contig,
                msgs,
            },
        );
        self.schedule(
            group,
            TimerKind::ViewChange,
            VIEW_CHANGE_TIMEOUT,
            attempt,
            net,
        );
        self.ensure_liveness(group, now, net);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_state_resp(
        &mut self,
        group: &GroupId,
        attempt: u64,
        from: NodeId,
        contig: ContigVector,
        msgs: Vec<Arc<DataMsg>>,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) {
        let node = self.node;
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        state.last_heard.insert(from, now);
        {
            let Some(vc) = state.vc.as_mut() else {
                // The agreement already finished here; if this responder
                // is still waiting, its install was lost — serve it
                // again.
                if let Some((last_attempt, view, msgs)) = state.last_install.clone() {
                    if last_attempt == attempt && view.contains(from) {
                        net.send(
                            from,
                            &GcsMessage::Install {
                                group: group.clone(),
                                attempt,
                                view,
                                msgs,
                            },
                        );
                    }
                }
                return;
            };
            if vc.coordinator != node || vc.attempt != attempt {
                return;
            }
            vc.responses.insert(from, contig);
        }
        if state.is_member() {
            state.engine.ingest_union(msgs);
        }
        self.maybe_finish_agreement(group, now, net);
    }

    /// Coordinator: if every candidate has responded, build and send the
    /// install (and apply it locally).
    fn maybe_finish_agreement(&mut self, group: &GroupId, now: SimTime, net: &mut GcsNet<'_>) {
        let node = self.node;
        let (new_view, union, attempt) = {
            let Some(state) = self.groups.get(group) else {
                return;
            };
            let Some(vc) = state.vc.as_ref() else {
                return;
            };
            if vc.coordinator != node {
                return;
            }
            if !vc.candidates.iter().all(|c| vc.responses.contains_key(c)) {
                return;
            }
            // Ship every message above the pointwise minimum of the
            // responders' received vectors.
            let mut floor: BTreeMap<NodeId, u64> = BTreeMap::new();
            let mut first = true;
            for contig in vc.responses.values() {
                let as_map: BTreeMap<NodeId, u64> = contig.iter().copied().collect();
                if first {
                    floor = as_map;
                    first = false;
                } else {
                    let keys: BTreeSet<NodeId> =
                        floor.keys().chain(as_map.keys()).copied().collect();
                    floor = keys
                        .into_iter()
                        .map(|k| {
                            let a = floor.get(&k).copied().unwrap_or(0);
                            let b = as_map.get(&k).copied().unwrap_or(0);
                            (k, a.min(b))
                        })
                        .collect();
                }
            }
            let floor_vec: ContigVector = floor.into_iter().collect();
            let union = state.engine.export_msgs_beyond(&floor_vec);
            let new_view = View::new(group.clone(), state.view.id().next(), vc.candidates.clone());
            (new_view, union, vc.attempt)
        };
        let msg = GcsMessage::Install {
            group: group.clone(),
            attempt,
            view: new_view.clone(),
            msgs: union.clone(),
        };
        let Some(fanout) = self.groups.get(group).map(|s| s.config.fanout) else {
            return;
        };
        net.send_fanout(
            fanout,
            new_view.members().iter().copied().filter(|&c| c != node),
            &msg,
        );
        self.apply_install(group, new_view.clone(), union.clone(), now, net);
        // Kept *after* the local install (which resets per-view state) so
        // a participant whose install was lost can be served again.
        if let Some(state) = self.groups.get_mut(group) {
            state.last_install = Some((attempt, new_view, union));
        }
    }

    fn on_install(
        &mut self,
        group: &GroupId,
        attempt: u64,
        view: View,
        msgs: Vec<Arc<DataMsg>>,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) {
        {
            let Some(state) = self.groups.get_mut(group) else {
                return;
            };
            if !view.contains(self.node) {
                return;
            }
            if state.is_member() && view.id() <= state.view.id() {
                return; // stale install
            }
            state.attempt = state.attempt.max(attempt);
        }
        self.apply_install(group, view, msgs, now, net);
    }

    /// Flush the old view, install the new one.
    fn apply_install(
        &mut self,
        group: &GroupId,
        view: View,
        msgs: Vec<Arc<DataMsg>>,
        now: SimTime,
        net: &mut GcsNet<'_>,
    ) {
        let node = self.node;
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        let was_member = state.is_member();
        if was_member {
            state.engine.ingest_union(msgs);
            let mut delivered = 0u64;
            for m in state.engine.flush_remaining() {
                delivered += 1;
                self.pending.push(GcsOutput::Delivered {
                    group: group.clone(),
                    sender: m.sender,
                    order: m.order,
                    lamport: m.lamport,
                    payload: m.payload.clone(),
                });
            }
            if delivered > 0 {
                self.obs.metrics.add("gcs.delivered", delivered);
            }
        }
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        let old_view = std::mem::replace(&mut state.view, view.clone());
        let joined = if was_member {
            view.members_not_in(&old_view)
        } else {
            view.members().to_vec()
        };
        let departed = if was_member {
            old_view.members_not_in(&view)
        } else {
            Vec::new()
        };
        // A view that excludes the local node cannot reach here from the
        // network (`on_install` filters it), so a build failure marks a
        // hostile or corrupted install: drop it rather than panic.
        let Ok(engine) = (EngineConfig {
            me: node,
            view: view.id(),
            members: view.members().to_vec(),
            protocol: state.config.ordering,
        })
        .build() else {
            return;
        };
        state.engine = engine;
        state.total_heard = 0;
        state.announced = 0;
        state.role = Role::Member;
        state.next_seq = 1;
        // New view, new flow ledger: sends renumber from 1 and credits
        // are granted against the new membership.
        state
            .flow
            .install_view(view.members().iter().copied().filter(|&m| m != node));
        state.last_heard = view.members().iter().map(|&m| (m, now)).collect();
        state.suspects.clear();
        state.leavers.clear();
        state.joiners.retain(|j| !view.contains(*j));
        state.vc = None;
        state.last_activity = now;
        state.pending_order.clear();
        state.order_flush_scheduled = false;
        // A newer view supersedes any install this member coordinated
        // earlier (keep it only if it IS this install, set right after).
        state.last_install = None;
        let more_joiners = !state.joiners.is_empty();
        self.obs.record(
            now,
            TraceEvent::ViewInstalled {
                group: group.as_str().to_string(),
                view: view.id().0,
                members: view.len(),
            },
        );
        self.pending.push(GcsOutput::ViewInstalled {
            group: group.clone(),
            view,
            joined,
            departed,
        });
        self.ensure_liveness(group, now, net);
        // Multicasts requested while the agreement ran go out now, into
        // the view that will actually deliver them.
        let queued = match self.groups.get_mut(group) {
            Some(state) => std::mem::take(&mut state.queued_multicasts),
            None => Vec::new(),
        };
        for (order, payload) in queued {
            let _ = self.multicast(group, order, payload, now, net);
        }
        if more_joiners {
            self.initiate_view_change(group, now, net);
        }
    }

    // --- timers ------------------------------------------------------------------

    fn on_null_timer(&mut self, group: &GroupId, now: SimTime, net: &mut GcsNet<'_>) {
        if !self.should_run_liveness(group, now) {
            if let Some(state) = self.groups.get_mut(group) {
                state.stop_liveness(now);
            }
            return;
        }
        let Some((period, last_sent)) = self
            .groups
            .get(group)
            .map(|s| (s.config.time_silence, s.last_sent))
        else {
            return;
        };
        if now.saturating_since(last_sent) >= period {
            self.send_null(group, now, net);
            self.obs.record(
                now,
                TraceEvent::TimeSilenceNull {
                    group: group.as_str().to_string(),
                },
            );
        }
        self.schedule(group, TimerKind::Null, period, 0, net);
    }

    /// Multicasts a null to the rest of the view: this member's clock,
    /// its last sequence number and its acks.
    fn send_null(&mut self, group: &GroupId, now: SimTime, net: &mut GcsNet<'_>) {
        let node = self.node;
        let lamport = self.clock.tick();
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        let msg = GcsMessage::Null(NullMsg {
            group: group.clone(),
            view: state.view.id(),
            sender: node,
            lamport,
            last_seq: state.next_seq - 1,
            acks: state.engine.contig_vector(),
        });
        let targets: Vec<NodeId> = state
            .view
            .members()
            .iter()
            .copied()
            .filter(|&m| m != node)
            .collect();
        net.send_fanout(state.config.fanout, targets, &msg);
        state.last_sent = now;
        state.announced = lamport;
    }

    fn on_suspicion_timer(&mut self, group: &GroupId, now: SimTime, net: &mut GcsNet<'_>) {
        let node = self.node;
        if !self.should_run_liveness(group, now) {
            if let Some(state) = self.groups.get_mut(group) {
                state.stop_liveness(now);
            }
            return;
        }
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        let timeout = state.config.suspicion_timeout();
        let mut newly_suspected = Vec::new();
        for &m in state.view.members() {
            if m == node || state.suspects.contains(&m) {
                continue;
            }
            let heard = state.last_heard.get(&m).copied().unwrap_or(SimTime::ZERO);
            if now.saturating_since(heard) > timeout {
                state.suspects.insert(m);
                newly_suspected.push(m);
            }
        }
        let period = state.config.time_silence;
        for &suspect in &newly_suspected {
            self.obs.record(
                now,
                TraceEvent::Suspected {
                    group: group.as_str().to_string(),
                    suspect,
                },
            );
        }
        self.schedule(group, TimerKind::Suspicion, period, 0, net);
        if !newly_suspected.is_empty() {
            self.initiate_view_change(group, now, net);
        }
    }

    fn on_nack_timer(&mut self, group: &GroupId, now: SimTime, net: &mut GcsNet<'_>) {
        let node = self.node;
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        state.nack_scheduled = false;
        if !state.is_member() {
            return;
        }
        let view = state.view.id();
        let ranges = state.engine.missing_ranges();
        for &(sender, from, to) in &ranges {
            net.send(
                sender,
                &GcsMessage::Nack {
                    group: group.clone(),
                    view,
                    from: node,
                    sender,
                    from_seq: from,
                    to_seq: to,
                },
            );
            self.obs.record(
                now,
                TraceEvent::NackSent {
                    group: group.as_str().to_string(),
                    to: sender,
                    count: (to.saturating_sub(from) + 1) as usize,
                },
            );
        }
        let order_gap = state.engine.order_gap();
        if let Some(from_pos) = order_gap {
            if let Some(seq) = state.view.sequencer() {
                if seq != node {
                    net.send(
                        seq,
                        &GcsMessage::OrderNack {
                            group: group.clone(),
                            view,
                            from: node,
                            from_order_seq: from_pos,
                        },
                    );
                }
            }
        }
        if !ranges.is_empty() || order_gap.is_some() {
            state.nack_scheduled = true;
            self.schedule(group, TimerKind::NackScan, NACK_DELAY, 0, net);
        }
    }

    fn on_vc_timer(&mut self, group: &GroupId, stamp: u64, now: SimTime, net: &mut GcsNet<'_>) {
        let node = self.node;
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        match state.vc.as_mut() {
            Some(vc) if vc.attempt != stamp => {} // superseded
            Some(vc) if vc.coordinator == node => {
                let missing: Vec<NodeId> = vc
                    .candidates
                    .iter()
                    .copied()
                    .filter(|c| !vc.responses.contains_key(c))
                    .collect();
                if vc.retries < VC_RETRIES {
                    // The proposal (or a response) may simply have been
                    // lost: re-propose to the silent candidates first.
                    vc.retries += 1;
                    let attempt = vc.attempt;
                    let msg = GcsMessage::Propose {
                        group: group.clone(),
                        attempt,
                        coordinator: node,
                        candidates: vc.candidates.clone(),
                        old_view: state.view.id(),
                        coord_contig: state.engine.contig_vector(),
                    };
                    for m in missing {
                        net.send(m, &msg);
                    }
                    self.schedule(
                        group,
                        TimerKind::ViewChange,
                        VIEW_CHANGE_TIMEOUT,
                        stamp,
                        net,
                    );
                    return;
                }
                // Still silent after the retries: drop them and go again.
                for m in missing {
                    if m != node && state.suspects.insert(m) {
                        state.joiners.remove(&m);
                        self.obs.record(
                            now,
                            TraceEvent::Suspected {
                                group: group.as_str().to_string(),
                                suspect: m,
                            },
                        );
                    }
                }
                state.vc = None;
                self.initiate_view_change(group, now, net);
            }
            Some(vc) => {
                let retry = vc.retries < VC_RETRIES;
                let attempt = vc.attempt;
                let coordinator = vc.coordinator;
                let coord_contig = vc.coord_contig.clone();
                if retry {
                    vc.retries += 1;
                }
                if retry {
                    // Our response (or the install) may have been lost:
                    // re-send the state response and wait another round.
                    let (contig, msgs) = if state.is_member() {
                        (
                            state.engine.contig_vector(),
                            state.engine.export_msgs_beyond(&coord_contig),
                        )
                    } else {
                        (Vec::new(), Vec::new())
                    };
                    net.send(
                        coordinator,
                        &GcsMessage::StateResp {
                            group: group.clone(),
                            attempt,
                            from: node,
                            contig,
                            msgs,
                        },
                    );
                    self.schedule(
                        group,
                        TimerKind::ViewChange,
                        VIEW_CHANGE_TIMEOUT,
                        stamp,
                        net,
                    );
                    return;
                }
                if !state.is_member() {
                    // A joiner cannot run the change itself; fall back to
                    // join retries.
                    state.vc = None;
                    return;
                }
                // The coordinator went quiet: suspect it and re-run.
                if state.suspects.insert(coordinator) {
                    self.obs.record(
                        now,
                        TraceEvent::Suspected {
                            group: group.as_str().to_string(),
                            suspect: coordinator,
                        },
                    );
                }
                state.vc = None;
                self.initiate_view_change(group, now, net);
            }
            None => {
                if state.attempt >= stamp || !state.is_member() {
                    return; // progress happened since the timer was armed
                }
                if state.suspects.is_empty() && state.joiners.is_empty() && state.leavers.is_empty()
                {
                    return;
                }
                // We reported to a coordinator that never acted: suspect
                // it and go again.
                let alive: Vec<NodeId> = state
                    .view
                    .members()
                    .iter()
                    .copied()
                    .filter(|m| !state.suspects.contains(m) && !state.leavers.contains(m))
                    .collect();
                if let Some(&coord) = alive.first() {
                    if coord != node && state.suspects.insert(coord) {
                        self.obs.record(
                            now,
                            TraceEvent::Suspected {
                                group: group.as_str().to_string(),
                                suspect: coord,
                            },
                        );
                    }
                }
                self.initiate_view_change(group, now, net);
            }
        }
    }

    /// Multicasts the sequencer's buffered ordering records as one
    /// `SeqOrder`.
    fn flush_order_records(&mut self, group: &GroupId, now: SimTime, net: &mut GcsNet<'_>) {
        let node = self.node;
        let lamport = self.clock.tick();
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        let entries = std::mem::take(&mut state.pending_order);
        state.last_order_flush = now;
        state.order_flush_scheduled = false;
        if entries.is_empty() {
            return;
        }
        let records = entries.len();
        let start = state.engine.order_log_len() - entries.len() as u64 + 1;
        let wire = GcsMessage::SeqOrder {
            group: group.clone(),
            view: state.view.id(),
            sender: node,
            lamport,
            start,
            entries,
        };
        let targets: Vec<NodeId> = state
            .view
            .members()
            .iter()
            .copied()
            .filter(|&m| m != node)
            .collect();
        net.send_fanout(state.config.fanout, targets, &wire);
        state.last_sent = now;
        self.obs.record(
            now,
            TraceEvent::SequencerBatch {
                group: group.as_str().to_string(),
                records,
            },
        );
        self.obs.metrics.add("gcs.order_records", records as u64);
    }

    fn on_order_flush_timer(&mut self, group: &GroupId, now: SimTime, net: &mut GcsNet<'_>) {
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        state.order_flush_scheduled = false;
        if !state.is_member() || !state.engine.is_sequencer() {
            state.pending_order.clear();
            return;
        }
        self.flush_order_records(group, now, net);
    }

    fn on_join_retry(&mut self, group: &GroupId, _now: SimTime, net: &mut GcsNet<'_>) {
        let node = self.node;
        let Some(state) = self.groups.get(group) else {
            return;
        };
        let Role::Joining { contact } = state.role else {
            return; // joined already
        };
        if state.vc.is_none() {
            net.send(
                contact,
                &GcsMessage::Join {
                    group: group.clone(),
                    joiner: node,
                },
            );
        }
        self.schedule(group, TimerKind::JoinRetry, VIEW_CHANGE_TIMEOUT, 0, net);
    }

    // --- liveness helpers -----------------------------------------------------------

    fn should_run_liveness(&self, group: &GroupId, now: SimTime) -> bool {
        let Some(state) = self.groups.get(group) else {
            return false;
        };
        if !state.is_member() {
            return false;
        }
        match state.config.liveness {
            Liveness::Lively => true,
            Liveness::EventDriven => {
                state.engine.has_undelivered()
                    || state.vc.is_some()
                    || now.saturating_since(state.last_activity)
                        < state.config.time_silence * EVENT_DRIVEN_LINGER
            }
        }
    }

    /// Starts the null/suspicion timers if the group should be live and
    /// they are not already running. A restart after a quiet spell moves
    /// every `last_heard` forward by the spell, capped at `now`: nobody
    /// sends nulls while the timers are stopped, so the spell is not
    /// silence. Resetting to `now` instead would let a retry that keeps
    /// restarting the timers hide a crashed member for ever.
    fn ensure_liveness(&mut self, group: &GroupId, now: SimTime, net: &mut GcsNet<'_>) {
        if !self.should_run_liveness(group, now) {
            return;
        }
        let Some(state) = self.groups.get_mut(group) else {
            return;
        };
        if state.liveness_running {
            return;
        }
        state.liveness_running = true;
        let quiet = now.saturating_since(state.liveness_stopped);
        for heard in state.last_heard.values_mut() {
            *heard = (*heard + quiet).min(now);
        }
        let period = state.config.time_silence;
        self.schedule(group, TimerKind::Null, period, 0, net);
        self.schedule(group, TimerKind::Suspicion, period, 0, net);
    }

    fn schedule(
        &mut self,
        group: &GroupId,
        kind: TimerKind,
        delay: std::time::Duration,
        stamp: u64,
        net: &mut GcsNet<'_>,
    ) {
        let tag = self.tag_base + self.next_tag;
        self.next_tag += 1;
        self.timer_routes.insert(
            tag,
            TimerRoute {
                group: group.clone(),
                kind,
                stamp,
            },
        );
        net.out.set_timer(delay, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    fn net_parts(node: NodeId) -> (OrbCore, Outbox) {
        (OrbCore::new(node), Outbox::detached(0))
    }

    #[test]
    fn create_group_validates_membership() {
        let mut m = GcsMember::new(n(0), 0);
        let (mut orb, mut out) = net_parts(n(0));
        let mut net = GcsNet::new(&mut orb, &mut out);
        assert_eq!(
            m.create_group(
                GroupId::new("g"),
                GroupConfig::default(),
                vec![n(1), n(2)],
                SimTime::ZERO,
                &mut net
            ),
            Err(GcsError::BadMembership)
        );
        assert_eq!(
            m.create_group(
                GroupId::new("g"),
                GroupConfig::default(),
                vec![],
                SimTime::ZERO,
                &mut net
            ),
            Err(GcsError::BadMembership)
        );
        let outs = m
            .create_group(
                GroupId::new("g"),
                GroupConfig::default(),
                vec![n(0), n(1)],
                SimTime::ZERO,
                &mut net,
            )
            .unwrap();
        assert!(matches!(&outs[0], GcsOutput::ViewInstalled { view, .. } if view.len() == 2));
        assert!(matches!(
            m.create_group(
                GroupId::new("g"),
                GroupConfig::default(),
                vec![n(0)],
                SimTime::ZERO,
                &mut net
            ),
            Err(GcsError::AlreadyMember(_))
        ));
    }

    #[test]
    fn multicast_requires_membership() {
        let mut m = GcsMember::new(n(0), 0);
        let (mut orb, mut out) = net_parts(n(0));
        let mut net = GcsNet::new(&mut orb, &mut out);
        assert!(matches!(
            m.multicast(
                &GroupId::new("nope"),
                DeliveryOrder::Total,
                Bytes::new(),
                SimTime::ZERO,
                &mut net
            ),
            Err(GcsError::UnknownGroup(_))
        ));
    }

    #[test]
    fn multicast_sheds_when_the_send_window_is_exhausted() {
        let mut m = GcsMember::new(n(0), 0);
        let (mut orb, mut out) = net_parts(n(0));
        let mut net = GcsNet::new(&mut orb, &mut out);
        let g = GroupId::new("g");
        m.create_group(
            g.clone(),
            GroupConfig::peer(),
            vec![n(0), n(1)],
            SimTime::ZERO,
            &mut net,
        )
        .unwrap();
        for _ in 0..SEND_WINDOW {
            m.multicast(
                &g,
                DeliveryOrder::Total,
                Bytes::from_static(b"x"),
                SimTime::ZERO,
                &mut net,
            )
            .unwrap();
        }
        assert_eq!(
            m.multicast(
                &g,
                DeliveryOrder::Total,
                Bytes::from_static(b"x"),
                SimTime::ZERO,
                &mut net
            ),
            Err(GcsError::Overloaded(g.clone()))
        );
        assert_eq!(m.observability().metrics.counter("flow.shed"), 1);
        assert_eq!(
            m.observability().metrics.gauge("flow.queue_depth_peak"),
            Some(SEND_WINDOW as i64)
        );

        // A data message from the peer acking our first send replenishes
        // one credit.
        let peer_msg = DataMsg {
            group: g.clone(),
            view: m.view_of(&g).unwrap().id(),
            sender: n(1),
            seq: 1,
            lamport: 5,
            order: DeliveryOrder::Causal,
            deps: DepsVector::from_pairs(Vec::new()),
            acks: vec![(n(0), 1)],
            payload: Bytes::from_static(b"y"),
        };
        m.on_message(
            GcsMessage::Data(Arc::new(peer_msg)),
            SimTime::ZERO,
            &mut net,
        );
        assert_eq!(m.flow_of(&g).unwrap().in_flight(), SEND_WINDOW - 1);
        m.multicast(
            &g,
            DeliveryOrder::Total,
            Bytes::from_static(b"z"),
            SimTime::ZERO,
            &mut net,
        )
        .unwrap();
    }

    #[test]
    fn multicast_fans_out_to_every_member_including_self() {
        let mut m = GcsMember::new(n(0), 0);
        let (mut orb, mut out) = net_parts(n(0));
        {
            let mut net = GcsNet::new(&mut orb, &mut out);
            m.create_group(
                GroupId::new("g"),
                GroupConfig::peer(),
                vec![n(0), n(1), n(2)],
                SimTime::ZERO,
                &mut net,
            )
            .unwrap();
            m.multicast(
                &GroupId::new("g"),
                DeliveryOrder::Total,
                Bytes::from_static(b"x"),
                SimTime::ZERO,
                &mut net,
            )
            .unwrap();
        }
        let parts = out.into_parts();
        let dests: Vec<u32> = parts.sends.iter().map(|(d, _)| d.index()).collect();
        // One data send per member (0, 1, 2), loopback included.
        assert!(dests.contains(&0));
        assert!(dests.contains(&1));
        assert!(dests.contains(&2));
    }

    #[test]
    fn lively_groups_arm_timers_at_creation() {
        let mut m = GcsMember::new(n(0), 1000);
        let (mut orb, mut out) = net_parts(n(0));
        {
            let mut net = GcsNet::new(&mut orb, &mut out);
            m.create_group(
                GroupId::new("g"),
                GroupConfig::peer(),
                vec![n(0), n(1)],
                SimTime::ZERO,
                &mut net,
            )
            .unwrap();
        }
        let parts = out.into_parts();
        assert_eq!(parts.timer_sets.len(), 2, "null + suspicion timers");
        for (_, _, tag) in &parts.timer_sets {
            assert!(m.owns_tag(*tag));
            assert!(*tag >= 1000, "tags offset by the base");
        }
    }

    #[test]
    fn event_driven_groups_stay_quiet_until_traffic() {
        let mut m = GcsMember::new(n(0), 0);
        let (mut orb, mut out) = net_parts(n(0));
        {
            let mut net = GcsNet::new(&mut orb, &mut out);
            m.create_group(
                GroupId::new("g"),
                GroupConfig::request_reply(),
                vec![n(0), n(1)],
                SimTime::ZERO,
                &mut net,
            )
            .unwrap();
        }
        // An event-driven group at creation has had "activity" at t=0, so
        // the linger keeps liveness on; advance past the linger window.
        let linger = GroupConfig::request_reply().time_silence * EVENT_DRIVEN_LINGER;
        assert!(m.should_run_liveness(&GroupId::new("g"), SimTime::ZERO));
        assert!(!m.should_run_liveness(&GroupId::new("g"), SimTime::ZERO + linger * 2));
    }

    #[test]
    fn leave_group_notifies_peers_and_cleans_up() {
        let mut m = GcsMember::new(n(0), 0);
        let (mut orb, mut out) = net_parts(n(0));
        {
            let mut net = GcsNet::new(&mut orb, &mut out);
            m.create_group(
                GroupId::new("g"),
                GroupConfig::default(),
                vec![n(0), n(1), n(2)],
                SimTime::ZERO,
                &mut net,
            )
            .unwrap();
            let outs = m
                .leave_group(&GroupId::new("g"), SimTime::ZERO, &mut net)
                .unwrap();
            assert!(matches!(&outs[0], GcsOutput::LeftGroup { .. }));
        }
        assert!(m.view_of(&GroupId::new("g")).is_none());
        assert!(m
            .leave_group(
                &GroupId::new("g"),
                SimTime::ZERO,
                &mut GcsNet::new(&mut orb, &mut out)
            )
            .is_err());
    }

    /// Receives a frame `src` sent to `dst` through a peer ORB and
    /// decodes the GCS message in its GIOP body.
    fn decode_frame(src: NodeId, dst: NodeId, payload: Bytes) -> GcsMessage {
        let pkt = newtop_net::sim::Packet { src, dst, payload };
        let mut peer = OrbCore::new(dst);
        let mut peer_out = Outbox::detached(0);
        let Some(newtop_orb::orb::OrbIncoming::Upcall { body, .. }) =
            peer.handle_packet(&pkt, &mut peer_out)
        else {
            panic!("GCS frame did not arrive as a oneway upcall");
        };
        use newtop_orb::cdr::CdrDecode as _;
        let mut dec = newtop_orb::cdr::CdrDecoder::new(&body);
        GcsMessage::decode(&mut dec).unwrap()
    }

    /// Runs `f` against a fresh network context of `m` and returns the
    /// GCS messages it sent, with their destinations.
    fn sent_by(
        m: &mut GcsMember,
        f: impl FnOnce(&mut GcsMember, &mut GcsNet<'_>),
    ) -> Vec<(NodeId, GcsMessage)> {
        let me = m.node();
        let (mut orb, mut out) = net_parts(me);
        f(m, &mut GcsNet::new(&mut orb, &mut out));
        out.into_parts()
            .sends
            .into_iter()
            .map(|(dst, frame)| (dst, decode_frame(me, dst, frame)))
            .collect()
    }

    /// Node `me` in the three-member group `g` with the given ordering.
    fn member_of_three(me: NodeId, ordering: OrderProtocol) -> GcsMember {
        let mut m = GcsMember::new(me, 0);
        sent_by(&mut m, |m, net| {
            m.create_group(
                GroupId::new("g"),
                GroupConfig::peer().with_ordering(ordering),
                vec![n(0), n(1), n(2)],
                SimTime::ZERO,
                net,
            )
            .unwrap();
        });
        m
    }

    /// Data from `sender` in `g`'s first view, carrying no acks.
    fn peer_data(sender: NodeId, seq: u64, lamport: u64, order: DeliveryOrder) -> GcsMessage {
        GcsMessage::Data(Arc::new(DataMsg {
            group: GroupId::new("g"),
            view: ViewId(1),
            sender,
            seq,
            lamport,
            order,
            deps: DepsVector::new(),
            acks: Vec::new(),
            payload: Bytes::from_static(b"x"),
        }))
    }

    fn receive(m: &mut GcsMember, msg: GcsMessage) {
        sent_by(m, |m, net| {
            m.on_message(msg, SimTime::ZERO, net);
        });
    }

    fn idle(m: &mut GcsMember) -> Vec<(NodeId, GcsMessage)> {
        sent_by(m, |m, net| m.on_idle(SimTime::ZERO, net))
    }

    #[test]
    fn idle_symmetric_member_announces_past_received_total_order_data() {
        let mut m = member_of_three(n(0), OrderProtocol::Symmetric);
        receive(&mut m, peer_data(n(1), 1, 7, DeliveryOrder::Total));
        let sent = idle(&mut m);
        let mut dests: Vec<NodeId> = sent.iter().map(|(dst, _)| *dst).collect();
        dests.sort();
        assert_eq!(dests, vec![n(1), n(2)], "one null to each other member");
        for (_, msg) in &sent {
            let GcsMessage::Null(null) = msg else {
                panic!("the idle announcement must be a null: {msg:?}");
            };
            assert_eq!(null.sender, n(0));
            assert_eq!(null.last_seq, 0);
            assert!(null.lamport > 7, "the null must pass the data's stamp");
        }
        assert_eq!(m.observability().metrics.counter("gcs.idle_nulls"), 1);
        assert_eq!(
            m.observability().metrics.counter("ev.time_silence_null"),
            0,
            "idle nulls stay out of the trace ring"
        );
        assert!(idle(&mut m).is_empty(), "announced once, nothing more");
        assert_eq!(m.observability().metrics.counter("gcs.idle_nulls"), 1);
    }

    #[test]
    fn a_member_that_multicast_since_receiving_sends_no_idle_null() {
        let mut m = member_of_three(n(0), OrderProtocol::Symmetric);
        receive(&mut m, peer_data(n(1), 1, 7, DeliveryOrder::Total));
        sent_by(&mut m, |m, net| {
            m.multicast(
                &GroupId::new("g"),
                DeliveryOrder::Total,
                Bytes::from_static(b"mine"),
                SimTime::ZERO,
                net,
            )
            .unwrap();
        });
        assert!(idle(&mut m).is_empty());
        assert_eq!(m.observability().metrics.counter("gcs.idle_nulls"), 0);
    }

    #[test]
    fn causal_traffic_draws_no_idle_null() {
        let mut m = member_of_three(n(0), OrderProtocol::Symmetric);
        receive(&mut m, peer_data(n(1), 1, 7, DeliveryOrder::Causal));
        assert!(idle(&mut m).is_empty());
    }

    #[test]
    fn asymmetric_idle_work_is_only_the_held_order_records() {
        // Node 0 sequences. Both records fall inside the flush interval
        // and are held, so the idle pass sends them as one batch to each
        // other member, and no null.
        let mut m = member_of_three(n(0), OrderProtocol::Asymmetric);
        receive(&mut m, peer_data(n(1), 1, 7, DeliveryOrder::Total));
        receive(&mut m, peer_data(n(1), 2, 8, DeliveryOrder::Total));
        let sent = idle(&mut m);
        assert_eq!(sent.len(), 2, "one records batch per other member");
        for (_, msg) in &sent {
            let GcsMessage::SeqOrder { entries, .. } = msg else {
                panic!("asymmetric idle work sends only order records: {msg:?}");
            };
            assert_eq!(entries, &vec![(n(1), 1), (n(1), 2)]);
        }
        assert!(idle(&mut m).is_empty());
        assert_eq!(m.observability().metrics.counter("gcs.idle_nulls"), 0);

        // A member that does not sequence has no idle work at all.
        let mut m = member_of_three(n(2), OrderProtocol::Asymmetric);
        receive(&mut m, peer_data(n(1), 1, 7, DeliveryOrder::Total));
        assert!(idle(&mut m).is_empty());
    }

    #[test]
    fn a_message_from_the_old_view_draws_no_null_after_an_install() {
        let mut m = member_of_three(n(0), OrderProtocol::Symmetric);
        receive(&mut m, peer_data(n(1), 1, 7, DeliveryOrder::Total));
        let g = GroupId::new("g");
        let next = View::new(g.clone(), ViewId(2), vec![n(0), n(1), n(2)]);
        sent_by(&mut m, |m, net| {
            m.apply_install(&g, next, Vec::new(), SimTime::ZERO, net);
        });
        assert_eq!(m.view_of(&g).unwrap().id(), ViewId(2));
        assert!(idle(&mut m).is_empty());
        assert_eq!(m.observability().metrics.counter("gcs.idle_nulls"), 0);
    }

    #[test]
    fn a_view_install_keeps_one_liveness_timer_chain() {
        let mut m = member_of_three(n(0), OrderProtocol::Symmetric);
        let g = GroupId::new("g");
        receive(
            &mut m,
            GcsMessage::Install {
                group: g.clone(),
                attempt: 1,
                view: View::new(g.clone(), ViewId(2), vec![n(0), n(1)]),
                msgs: Vec::new(),
            },
        );
        assert_eq!(m.view_of(&g).unwrap().id(), ViewId(2));
        let routes = |kind| m.timer_routes.values().filter(|r| r.kind == kind).count();
        assert_eq!(routes(TimerKind::Null), 1, "one null timer chain");
        assert_eq!(routes(TimerKind::Suspicion), 1, "one suspicion timer chain");
    }
}
