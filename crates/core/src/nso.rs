//! The NewTop service object (NSO).
//!
//! One [`Nso`] runs beside each application object and multiplexes every
//! group its node participates in (Fig. 2 of the paper): it owns the
//! node's mini-ORB, its group-communication member, the client- and
//! server-side invocation cores, and the application's group servants.
//! Group-communication traffic, invocation messages and binding-control
//! requests all arrive as ORB traffic on the node's
//! [`newtop_gcs::NSO_OBJECT_KEY`] endpoint and are routed here.
//!
//! The NSO is sans-IO: the hosting runtime (simulator or threads) feeds
//! [`Nso::on_packet`] / [`Nso::on_timer`] and applies the queued outbox
//! actions; results surface through [`Nso::take_outputs`].

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::time::Duration;

use bytes::Bytes;

use newtop_gcs::group::{DeliveryOrder, FanoutMode, GroupConfig, GroupId, Liveness, OrderProtocol};
use newtop_gcs::member::{GcsError, GcsMember, GcsNet, GcsOutput, SendBuffer};
use newtop_gcs::messages::GcsMessage;
use newtop_gcs::view::View;
use newtop_gcs::{GCS_OPERATION, NSO_OBJECT_KEY};
use newtop_invocation::api::{
    BindingStyle, CallId, InvCommand, InvMessage, OpenOptimisation, Replication, ReplyMode,
};
use newtop_invocation::client::{ClientCore, ClientError, ClientEvent};
use newtop_invocation::g2g::G2gCaller;
use newtop_invocation::server::ServerCore;
use newtop_invocation::INV_OPERATION;
use newtop_net::metrics::{MetricsSnapshot, Observability};
use newtop_net::sim::{Outbox, Packet};
use newtop_net::site::NodeId;
use newtop_net::time::SimTime;
use newtop_net::trace::{TraceEvent, TraceRecord};
use newtop_orb::cdr::{CdrDecode, CdrEncode};
use newtop_orb::giop::GiopMessage;
use newtop_orb::ior::ObjectRef;
use newtop_orb::orb::{InvokeError, OrbCore, OrbIncoming, RequestId};
use newtop_orb::servant::ServantError;

use crate::control::CtrlMessage;
use crate::directory::{
    DirCache, DirReply, DirRequest, GroupRecord, DIR_OBJECT_KEY, DIR_OPERATION,
};
use crate::tags;
use crate::INV_CTRL_OPERATION;

/// The implementation of a replicated object: operations with marshalled
/// arguments and results. Executed in the server group's total order, so
/// deterministic servants stay replica-consistent.
pub trait GroupServant: Send {
    /// Executes one operation.
    fn invoke(&mut self, op: &str, args: &[u8]) -> Bytes;
}

impl<F> GroupServant for F
where
    F: FnMut(&str, &[u8]) -> Bytes + Send,
{
    fn invoke(&mut self, op: &str, args: &[u8]) -> Bytes {
        self(op, args)
    }
}

/// The unified error type of the public NSO API: binding, invocation,
/// group-management and transport failures all surface as one enum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NewtopError {
    /// This node does not host the named server group.
    NotAServer(GroupId),
    /// No binding or monitor attachment exists under that group.
    Unbound(GroupId),
    /// The group id is already in use on this node.
    GroupInUse(GroupId),
    /// [`Nso::bind`] was called without a [`BindTarget`] — the options
    /// never said *who* to bind to.
    BindTargetMissing(GroupId),
    /// Admission control shed the operation: the group's send window,
    /// the pending-call table or a view-change buffer is full. The call
    /// was not sent; retry after in-flight work drains.
    Overloaded(GroupId),
    /// An incoming message body failed to unmarshal. The packet is
    /// dropped (never panicked on), counted under the
    /// `decode.malformed` metric and traced as
    /// [`TraceEvent::MalformedDropped`]; the payload names the ORB
    /// operation the body arrived under.
    Malformed(&'static str),
    /// An error from the group communication layer.
    Gcs(GcsError),
    /// An error from the client invocation core.
    Client(ClientError),
}

impl fmt::Display for NewtopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NewtopError::NotAServer(g) => write!(f, "node does not serve group {g}"),
            NewtopError::Unbound(g) => write!(f, "no binding for group {g}"),
            NewtopError::GroupInUse(g) => write!(f, "group id already in use: {g}"),
            NewtopError::BindTargetMissing(g) => {
                write!(
                    f,
                    "bind to {g} has no target (set BindOptions::open/closed/restricted)"
                )
            }
            NewtopError::Overloaded(g) => {
                write!(f, "overloaded: admission control shed the call to {g}")
            }
            NewtopError::Malformed(op) => write!(f, "malformed {op} message body dropped"),
            NewtopError::Gcs(e) => write!(f, "group communication error: {e}"),
            NewtopError::Client(e) => write!(f, "invocation error: {e}"),
        }
    }
}

impl Error for NewtopError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NewtopError::Gcs(e) => Some(e),
            NewtopError::Client(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GcsError> for NewtopError {
    fn from(e: GcsError) -> Self {
        match e {
            GcsError::Overloaded(g) => NewtopError::Overloaded(g),
            other => NewtopError::Gcs(other),
        }
    }
}

impl From<ClientError> for NewtopError {
    fn from(e: ClientError) -> Self {
        match e {
            ClientError::Overloaded(g) => NewtopError::Overloaded(g),
            other => NewtopError::Client(other),
        }
    }
}

/// Things the NSO reports to the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NsoOutput {
    /// A binding initiated with [`Nso::bind`] is ready for invocations.
    BindingReady {
        /// The client/server group of the binding.
        group: GroupId,
    },
    /// A binding could not be established (server unreachable or not
    /// serving).
    BindFailed {
        /// The client/server group that failed.
        group: GroupId,
    },
    /// An invocation completed with the replies its mode required.
    InvocationComplete {
        /// The completed call.
        call: CallId,
        /// `(server, result)` pairs.
        replies: Vec<(NodeId, Bytes)>,
    },
    /// An open binding's request manager vanished (§4.1): rebind and
    /// retry.
    BindingBroken {
        /// The broken client/server group.
        group: GroupId,
        /// The manager that disappeared.
        manager: NodeId,
        /// Calls still pending on the binding.
        pending_calls: Vec<u64>,
    },
    /// A peer-group multicast was delivered.
    PeerDeliver {
        /// The peer group.
        group: GroupId,
        /// The multicasting member.
        sender: NodeId,
        /// The guarantee it was sent with.
        order: DeliveryOrder,
        /// Its Lamport timestamp: strictly increasing per sender.
        lamport: u64,
        /// Application payload.
        payload: Bytes,
    },
    /// A group-to-group call completed.
    G2gComplete {
        /// The origin (client) group.
        origin: GroupId,
        /// The origin group's call number.
        number: u64,
        /// `(server, result)` pairs.
        replies: Vec<(NodeId, Bytes)>,
    },
    /// A view change in any group this node belongs to.
    ViewChanged {
        /// The group.
        group: GroupId,
        /// Its new view.
        view: View,
    },
    /// A plain (non-group) ORB invocation issued with
    /// [`Nso::plain_invoke`] completed.
    PlainReply {
        /// The request.
        request: RequestId,
        /// Its outcome.
        result: Result<Bytes, InvokeError>,
    },
    /// This node became the primary of a passively replicated server
    /// group and replayed its backlog.
    Promoted {
        /// The server group.
        group: GroupId,
        /// Requests replayed from the backlog.
        replayed: usize,
    },
}

/// Who a binding connects to — the *style* half of [`BindOptions`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum BindTarget {
    /// No target chosen yet; [`Nso::bind`] rejects this with
    /// [`NewtopError::BindTargetMissing`].
    #[default]
    Unspecified,
    /// Open binding (§3): a two-member client/server group with the named
    /// request manager, a member of the server group.
    Open {
        /// The server acting as request manager.
        manager: NodeId,
    },
    /// Closed binding (§3): a client/server group containing the client
    /// and every server.
    Closed {
        /// The full server-group membership.
        servers: Vec<NodeId>,
    },
    /// Open binding under the restricted-group optimisation (§4.2): the
    /// manager is the *designated* one — the lowest-ranked server, which
    /// the asymmetric protocol also makes the sequencer and passive
    /// replication the primary.
    Restricted {
        /// The full server-group membership (the designated manager is
        /// chosen from it).
        servers: Vec<NodeId>,
    },
    /// Name-based binding through the replicated directory: the service
    /// name is resolved to a [`GroupRecord`] (member set, configuration,
    /// view id) by asking the listed directory members in order, with a
    /// TTL'd client-side cache short-circuiting repeat resolutions. The
    /// record then shapes the binding per `style`. Resolution is
    /// asynchronous: [`Nso::bind`] returns the reserved handle at once
    /// and [`NsoOutput::BindingReady`] (or `BindFailed`, when every
    /// directory contact answers not-found or times out) follows.
    Resolve {
        /// The service name registered in the directory.
        name: String,
        /// Directory group members to consult, in preference order.
        directory: Vec<NodeId>,
        /// The binding shape to build from the resolved record.
        style: ResolveStyle,
    },
}

/// How a name-resolved binding is shaped once its [`GroupRecord`]
/// arrives (the resolved analogues of the explicit [`BindTarget`]s).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ResolveStyle {
    /// Closed binding to the record's full member set.
    #[default]
    Closed,
    /// Open binding through the member at `rank` (modulo the member
    /// count), letting co-located clients spread across managers.
    Open {
        /// Preference rank into the resolved member list.
        rank: usize,
    },
    /// Open binding through the designated (lowest-ranked) member.
    Restricted,
}

/// Options for creating a binding with [`Nso::bind`]: the target (open /
/// closed / restricted style), ordering and liveness parameters of the
/// client/server group, and invocation defaults. Build with one of the
/// constructors, then chain `with_*` methods:
///
/// ```ignore
/// let opts = BindOptions::restricted(servers)
///     .with_reply_mode(ReplyMode::First)
///     .with_async_forwarding(true);
/// let binding = nso.bind(server_group, opts, now, &mut out)?;
/// ```
#[derive(Clone, Debug)]
pub struct BindOptions {
    /// Who to bind to (open / closed / restricted).
    pub target: BindTarget,
    /// Total-order protocol of the client/server group.
    pub ordering: OrderProtocol,
    /// Time-silence period of the client/server group.
    pub time_silence: Duration,
    /// Fan-out mode of the client/server group. [`FanoutMode::Synchronous`]
    /// chains per-member round trips (§2.2); [`FanoutMode::Asynchronous`]
    /// issues sends back-to-back, which also lets a batching-enabled node
    /// pack them into one frame per destination.
    pub fanout: FanoutMode,
    /// How long to wait for the servers' acknowledgements.
    pub timeout: Duration,
    /// Explicit group id; autogenerated when `None`.
    pub group_id: Option<GroupId>,
    /// Default reply mode for calls issued over this binding with
    /// [`Nso::invoke_default`].
    pub default_mode: ReplyMode,
    /// The client expects the §4.2 asynchronous-forwarding optimisation:
    /// wait-for-first calls are answered by the manager before the group
    /// round completes. Takes effect only when the server group was
    /// created with [`OpenOptimisation::AsyncForwarding`]; setting it
    /// here documents the intent and pairs naturally with
    /// [`ReplyMode::First`] as the default mode.
    pub async_forwarding: bool,
}

impl Default for BindOptions {
    /// No target, asymmetric ordering and a 100 ms time-silence period.
    /// Client/server groups are numerous (one per client), so their
    /// heartbeats are deliberately coarser than a server group's: a
    /// server in n bindings pays n per-member null fan-outs per period.
    fn default() -> Self {
        BindOptions {
            target: BindTarget::Unspecified,
            ordering: OrderProtocol::Asymmetric,
            time_silence: Duration::from_millis(100),
            fanout: FanoutMode::Synchronous,
            timeout: Duration::from_secs(2),
            group_id: None,
            default_mode: ReplyMode::All,
            async_forwarding: false,
        }
    }
}

impl BindOptions {
    /// Options for an open binding through `manager`.
    #[must_use]
    pub fn open(manager: NodeId) -> Self {
        BindOptions {
            target: BindTarget::Open { manager },
            ..BindOptions::default()
        }
    }

    /// Options for a closed binding to the full server group.
    #[must_use]
    pub fn closed(servers: Vec<NodeId>) -> Self {
        BindOptions {
            target: BindTarget::Closed { servers },
            ..BindOptions::default()
        }
    }

    /// Options for an open binding to the designated manager
    /// (restricted-group optimisation, §4.2).
    #[must_use]
    pub fn restricted(servers: Vec<NodeId>) -> Self {
        BindOptions {
            target: BindTarget::Restricted { servers },
            ..BindOptions::default()
        }
    }

    /// Options for a name-resolved binding through the directory (closed
    /// shape by default; see [`BindOptions::with_resolve_style`]).
    #[must_use]
    pub fn resolve(name: impl Into<String>, directory: Vec<NodeId>) -> Self {
        BindOptions {
            target: BindTarget::Resolve {
                name: name.into(),
                directory,
                style: ResolveStyle::Closed,
            },
            ..BindOptions::default()
        }
    }

    /// Sets the shape a name-resolved binding takes once the record
    /// arrives. No effect on non-resolve targets.
    #[must_use]
    pub fn with_resolve_style(mut self, new_style: ResolveStyle) -> Self {
        if let BindTarget::Resolve { style, .. } = &mut self.target {
            *style = new_style;
        }
        self
    }

    /// Sets the total-order protocol of the client/server group.
    #[must_use]
    pub fn with_ordering(mut self, ordering: OrderProtocol) -> Self {
        self.ordering = ordering;
        self
    }

    /// Sets the time-silence period of the client/server group.
    #[must_use]
    pub fn with_time_silence(mut self, period: Duration) -> Self {
        self.time_silence = period;
        self
    }

    /// Sets the fan-out mode of the client/server group. Asynchronous
    /// fan-outs are a prerequisite for send-path batching: only
    /// back-to-back sends can share a frame.
    #[must_use]
    pub fn with_fanout(mut self, fanout: FanoutMode) -> Self {
        self.fanout = fanout;
        self
    }

    /// Sets how long to wait for the servers' acknowledgements.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Pins the client/server group's id instead of autogenerating one.
    #[must_use]
    pub fn with_group_id(mut self, group: GroupId) -> Self {
        self.group_id = Some(group);
        self
    }

    /// Sets the default reply mode used by [`Nso::invoke_default`].
    #[must_use]
    pub fn with_reply_mode(mut self, mode: ReplyMode) -> Self {
        self.default_mode = mode;
        self
    }

    /// Declares the binding expects asynchronous forwarding (§4.2).
    #[must_use]
    pub fn with_async_forwarding(mut self, on: bool) -> Self {
        self.async_forwarding = on;
        self
    }
}

/// What kind of group a [`GroupHandle`] refers to — which operations it
/// supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HandleKind {
    /// A client binding from [`Nso::bind`]: invoke / retry / unbind.
    Binding,
    /// A peer group: send / leave.
    Peer,
}

/// A handle to a group this NSO participates in, returned by
/// [`Nso::bind`], [`Nso::create_peer_group`] and
/// [`Nso::join_peer_group`]. The handle carries the group id plus the
/// binding's invocation defaults, so call-side operations hang off it
/// instead of re-threading raw [`GroupId`]s through every call:
///
/// ```ignore
/// let binding = nso.bind(server_group, opts, now, &mut out)?;
/// // ... after NsoOutput::BindingReady ...
/// binding.invoke(&mut nso, "op", args, ReplyMode::All, now, &mut out)?;
/// binding.unbind(&mut nso, now, &mut out)?;
/// ```
///
/// Handles are plain values (clonable, no liveness of their own): the
/// group they name can still fail or be torn down underneath them, in
/// which case operations return the same errors the group-id methods
/// did. A handle for an already-established group can be recovered with
/// [`Nso::handle_for`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupHandle {
    group: GroupId,
    kind: HandleKind,
    default_mode: ReplyMode,
}

impl GroupHandle {
    /// The group this handle refers to.
    #[must_use]
    pub fn id(&self) -> &GroupId {
        &self.group
    }

    /// Rejects an operation the handle's group kind does not support
    /// (e.g. [`GroupHandle::send`] on a client binding).
    fn expect_kind(&self, kind: HandleKind) -> Result<(), NewtopError> {
        if self.kind == kind {
            Ok(())
        } else {
            Err(NewtopError::Unbound(self.group.clone()))
        }
    }

    /// The default reply mode of invocations issued with
    /// [`GroupHandle::invoke_default`] (fixed at bind time).
    #[must_use]
    pub fn default_mode(&self) -> ReplyMode {
        self.default_mode
    }

    /// Invokes an operation over this binding with the given reply mode.
    /// Completion surfaces as [`NsoOutput::InvocationComplete`].
    ///
    /// # Errors
    ///
    /// [`NewtopError::Client`] if the binding is unknown (not ready yet,
    /// torn down, or a peer-group handle).
    pub fn invoke(
        &self,
        nso: &mut Nso,
        op: &str,
        args: Bytes,
        mode: ReplyMode,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<CallId, NewtopError> {
        self.expect_kind(HandleKind::Binding)?;
        nso.do_invoke(&self.group, op, args, mode, now, out)
    }

    /// Invokes with the handle's default reply mode (set at bind time via
    /// [`BindOptions::with_reply_mode`]).
    ///
    /// # Errors
    ///
    /// [`NewtopError::Client`] if the binding is unknown.
    pub fn invoke_default(
        &self,
        nso: &mut Nso,
        op: &str,
        args: Bytes,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<CallId, NewtopError> {
        self.expect_kind(HandleKind::Binding)?;
        nso.do_invoke(&self.group, op, args, self.default_mode, now, out)
    }

    /// Re-issues a pending call over this (new) binding with its original
    /// call number (§4.1 rebind-and-retry).
    ///
    /// # Errors
    ///
    /// [`NewtopError::Client`] if the call or binding is unknown.
    pub fn retry(
        &self,
        nso: &mut Nso,
        call_number: u64,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<(), NewtopError> {
        self.expect_kind(HandleKind::Binding)?;
        nso.do_retry(call_number, &self.group, now, out)
    }

    /// Tears down this client binding: leaves the client/server group and
    /// forgets it.
    ///
    /// # Errors
    ///
    /// [`NewtopError::Unbound`] if no such binding exists.
    pub fn unbind(&self, nso: &mut Nso, now: SimTime, out: &mut Outbox) -> Result<(), NewtopError> {
        self.expect_kind(HandleKind::Binding)?;
        nso.do_unbind(&self.group, now, out)
    }

    /// One-way multicast in this peer group (the peer-participation
    /// mode).
    ///
    /// # Errors
    ///
    /// Any [`GcsError`] if the node is not a member.
    pub fn send(
        &self,
        nso: &mut Nso,
        payload: Bytes,
        order: DeliveryOrder,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<(), NewtopError> {
        self.expect_kind(HandleKind::Peer)?;
        nso.do_peer_send(&self.group, payload, order, now, out)
    }

    /// Gracefully leaves this peer group.
    ///
    /// # Errors
    ///
    /// [`NewtopError::Unbound`] if this node is not a member.
    pub fn leave(&self, nso: &mut Nso, now: SimTime, out: &mut Outbox) -> Result<(), NewtopError> {
        self.expect_kind(HandleKind::Peer)?;
        nso.leave_peer_group(&self.group, now, out)
    }
}

#[derive(Clone, Debug)]
enum GroupRole {
    /// I am the client of this client/server group.
    ClientBinding,
    /// I am a replica of this server group.
    ServerGroup,
    /// I am the server of this client/server group; requests route to the
    /// named server group's core.
    Served { server_group: GroupId },
    /// I am the request manager of this client monitor group.
    MonitorManager { server_group: GroupId },
    /// I am an origin-group member in this monitor group.
    MonitorCaller,
    /// A plain peer group: deliveries go straight to the application.
    Peer,
}

#[derive(Debug)]
struct PendingBind {
    style: BindingStyle,
    members: Vec<NodeId>,
    server_count: usize,
    outstanding: usize,
    config: GroupConfig,
}

#[derive(Debug)]
enum NsoTimer {
    BindTimeout(GroupId),
    /// A directory resolution has waited long enough on its current
    /// contact; advance to the next or fail the waiting binds. The
    /// attempt stamp keeps a timer armed for an earlier contact from
    /// cutting short its successor's wait.
    ResolveTimeout {
        name: String,
        attempt: usize,
    },
}

/// A bind waiting for its directory resolution.
#[derive(Debug)]
struct PendingResolve {
    /// The reserved binding group id (already handed to the caller).
    group: GroupId,
    /// The shape to build once the record arrives.
    style: ResolveStyle,
    /// The original bind options (group id pinned to `group`).
    opts: BindOptions,
}

/// Progress of one name's resolution against the directory contacts.
#[derive(Debug)]
struct ResolveProgress {
    /// Directory members still to try (next first).
    contacts: Vec<NodeId>,
    /// Index of the next contact to ask.
    next: usize,
    /// Binds waiting on this name.
    waiters: Vec<PendingResolve>,
}

/// Reserved tag of the send-path batch-flush micro-timer (the first tag
/// of the NSO's range; [`Nso::alloc_tag`] starts above it).
const BATCH_FLUSH_TAG: u64 = tags::NSO_BASE;

/// How long staged sends may wait for company. Messages staged within
/// one window share a frame per destination, so this bounds both the
/// added latency and the coalescing opportunity. Matches the order-record
/// aggregation cadence of the GCS sequencer. A threaded host flushes
/// earlier, whenever it runs out of work ([`Nso::on_idle`]); this delay
/// is the upper bound.
const BATCH_FLUSH_DELAY: Duration = Duration::from_micros(300);

/// Construction options for an [`Nso`]: whether the send path batches
/// small protocol messages into one GIOP frame per destination per
/// flush window. Batching defaults off, the simulator's deterministic
/// baseline; the threaded runtime turns it on.
#[derive(Clone, Debug, Default)]
pub struct NsoOptions {
    batching: bool,
}

impl NsoOptions {
    /// Batching off.
    #[must_use]
    pub fn new() -> Self {
        NsoOptions::default()
    }

    /// Enables per-destination batching of small protocol messages.
    #[must_use]
    pub fn with_batching(mut self, on: bool) -> Self {
        self.batching = on;
        self
    }

    /// Whether send-path batching is enabled.
    #[must_use]
    pub fn batching(&self) -> bool {
        self.batching
    }
}

/// The NewTop service object. See the [module docs](self).
pub struct Nso {
    node: NodeId,
    orb: OrbCore,
    gcs: GcsMember,
    batching: bool,
    client: ClientCore,
    servers: BTreeMap<GroupId, ServerCore>,
    servants: BTreeMap<GroupId, Box<dyn GroupServant>>,
    g2g_callers: BTreeMap<GroupId, G2gCaller>,
    roles: BTreeMap<GroupId, GroupRole>,
    pending_bind_requests: BTreeMap<RequestId, GroupId>,
    /// Outstanding directory resolutions: ORB request → service name.
    pending_dir_requests: BTreeMap<RequestId, String>,
    /// Per-name resolution progress and the binds waiting on it.
    pending_resolves: BTreeMap<String, ResolveProgress>,
    /// TTL'd cache of resolved directory records, invalidated when a
    /// view change reports a cached member departed.
    dir_cache: DirCache,
    /// Which service name a resolve-originated binding came from, so a
    /// failed or broken binding invalidates its cache entry.
    resolved_origin: BTreeMap<GroupId, String>,
    binds: BTreeMap<GroupId, PendingBind>,
    was_primary: BTreeMap<GroupId, bool>,
    nso_timers: BTreeMap<u64, NsoTimer>,
    next_tag: u64,
    next_binding: u64,
    outputs: Vec<NsoOutput>,
    /// Invocation-layer metrics and trace (the GCS member keeps its own;
    /// [`Nso::metrics`] / [`Nso::trace`] merge the two).
    obs: Observability,
    /// Staged batchable sends, persisted across handler events so the
    /// flush window spans them (see [`SendBuffer`]). Flushed by the
    /// [`BATCH_FLUSH_TAG`] micro-timer or, earlier, by [`Nso::on_idle`].
    send_buf: SendBuffer,
    /// Per-binding default reply mode (from [`BindOptions`]).
    default_modes: BTreeMap<GroupId, ReplyMode>,
    /// Issue time of outstanding calls, for the end-to-end invocation
    /// latency histogram.
    call_issued: BTreeMap<u64, SimTime>,
}

impl fmt::Debug for Nso {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Nso")
            .field("node", &self.node)
            .field("groups", &self.roles.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Runs `f` with a fresh [`GcsNet`] staging into the node's persistent
/// [`SendBuffer`], then folds the context's counters into the metric
/// registry. Staged sends are NOT flushed here: they wait (at most
/// [`BATCH_FLUSH_DELAY`]) for the batch-flush micro-timer, so messages
/// from several handler events can share a frame per destination. The
/// epilogue arms that timer whenever the buffer is non-empty and no
/// timer is already in flight. Takes field-precise borrows (rather than
/// `&mut Nso`) so the closure can still use `self.gcs`.
fn with_net<R>(
    orb: &mut OrbCore,
    obs: &mut Observability,
    out: &mut Outbox,
    batching: bool,
    buf: &mut SendBuffer,
    f: impl FnOnce(&mut GcsNet<'_>) -> R,
) -> R {
    let mut net = GcsNet::with_buffer(orb, out, batching, buf);
    let r = f(&mut net);
    let sent = net.sent();
    if sent > 0 {
        obs.metrics.add("gcs.msgs_sent", sent);
    }
    let encodes = net.encode_calls();
    if encodes > 0 {
        obs.metrics.add("gcs.encode_calls", encodes);
        obs.metrics.add("gcs.bytes_encoded", net.bytes_encoded());
    }
    let frames = net.batch_frames();
    if frames > 0 {
        obs.metrics.add("gcs.batch_frames", frames);
        obs.metrics.add("gcs.batch_msgs", net.batch_msgs());
    }
    if buf.has_staged() && !buf.scheduled {
        buf.scheduled = true;
        out.set_timer(BATCH_FLUSH_DELAY, BATCH_FLUSH_TAG);
    }
    r
}

impl Nso {
    /// Creates the service object for `node` with the default options:
    /// no batching (the deterministic baseline).
    #[must_use]
    pub fn new(node: NodeId) -> Self {
        Nso::with_options(node, NsoOptions::default())
    }

    /// Creates the service object for `node` with explicit
    /// [`NsoOptions`] (send-path batching).
    #[must_use]
    pub fn with_options(node: NodeId, opts: NsoOptions) -> Self {
        Nso {
            node,
            orb: OrbCore::new(node),
            gcs: GcsMember::new(node, tags::GCS_BASE),
            batching: opts.batching,
            client: ClientCore::new(node),
            servers: BTreeMap::new(),
            servants: BTreeMap::new(),
            g2g_callers: BTreeMap::new(),
            roles: BTreeMap::new(),
            pending_bind_requests: BTreeMap::new(),
            pending_dir_requests: BTreeMap::new(),
            pending_resolves: BTreeMap::new(),
            dir_cache: DirCache::default(),
            resolved_origin: BTreeMap::new(),
            binds: BTreeMap::new(),
            was_primary: BTreeMap::new(),
            nso_timers: BTreeMap::new(),
            // Tag 0 (NSO_BASE itself) is reserved for the batch-flush
            // micro-timer; allocated tags start at 1.
            next_tag: 1,
            next_binding: 1,
            send_buf: SendBuffer::new(),
            outputs: Vec::new(),
            obs: Observability::new(),
            default_modes: BTreeMap::new(),
            call_issued: BTreeMap::new(),
        }
    }

    /// The hosting node.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current view of a group this node belongs to.
    #[must_use]
    pub fn view_of(&self, group: &GroupId) -> Option<&View> {
        self.gcs.view_of(group)
    }

    /// The client-side directory record cache (read-only; tests and
    /// diagnostics inspect TTL/staleness behaviour through this).
    #[must_use]
    pub fn dir_cache(&self) -> &DirCache {
        &self.dir_cache
    }

    /// Group-communication diagnostics for one group, with the node's
    /// protocol-event counters appended.
    #[doc(hidden)]
    #[must_use]
    pub fn gcs_diagnostics(&self, group: &GroupId) -> String {
        let snap = self.metrics();
        let events: Vec<String> = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("ev."))
            .map(|(k, v)| format!("{}={v}", &k[3..]))
            .collect();
        format!(
            "{} events[{}]",
            self.gcs.diagnostics(group),
            events.join(" ")
        )
    }

    /// A merged snapshot of this node's metrics: protocol-event counters
    /// (`ev.*`), group-communication counters (`gcs.*`) and invocation
    /// counters/latencies (`inv.*`), from both the invocation layer and
    /// the GCS member.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut merged = self.obs.metrics.clone();
        merged.merge(&self.gcs.observability().metrics);
        merged.snapshot()
    }

    /// The node's protocol-event trace: the invocation-layer and GCS
    /// records merged in timestamp order. Bounded — under sustained load
    /// the oldest records are gone (the `ev.*` counters stay exact).
    #[must_use]
    pub fn trace(&self) -> Vec<TraceRecord> {
        let mut records = self.obs.trace.to_vec();
        records.extend(self.gcs.observability().trace.iter().cloned());
        records.sort_by_key(|r| r.at);
        records
    }

    /// Server-core access for diagnostics.
    #[doc(hidden)]
    #[must_use]
    pub fn server_core(&self, group: &GroupId) -> Option<&ServerCore> {
        self.servers.get(group)
    }

    /// The group-communication member, for tests and simulator
    /// harnesses that read its flow ledgers and metrics.
    #[doc(hidden)]
    #[must_use]
    pub fn gcs(&self) -> &GcsMember {
        &self.gcs
    }

    /// Mutable [`Self::gcs`], for the durable-recovery harness (clock
    /// restore, replay admission).
    #[doc(hidden)]
    pub fn gcs_mut(&mut self) -> &mut GcsMember {
        &mut self.gcs
    }

    /// Drains the outputs produced since the last call. Runtimes loop on
    /// this after every event so application reactions (which may enqueue
    /// further outputs) are all surfaced.
    pub fn take_outputs(&mut self) -> Vec<NsoOutput> {
        std::mem::take(&mut self.outputs)
    }

    /// Whether a timer tag belongs to this NSO (as opposed to the
    /// application layer).
    #[must_use]
    pub fn owns_tag(&self, tag: u64) -> bool {
        tag == BATCH_FLUSH_TAG || self.gcs.owns_tag(tag) || self.nso_timers.contains_key(&tag)
    }

    // --- server-side setup ------------------------------------------------

    /// Statically creates a server group on this replica (every listed
    /// member must call this with the same arguments), with the given
    /// replication discipline and open-group optimisation policy.
    ///
    /// # Errors
    ///
    /// Any [`GcsError`] from group creation.
    #[allow(clippy::too_many_arguments)]
    pub fn create_server_group(
        &mut self,
        group: GroupId,
        members: Vec<NodeId>,
        replication: Replication,
        optimisation: OpenOptimisation,
        config: GroupConfig,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<(), NewtopError> {
        let outs = with_net(
            &mut self.orb,
            &mut self.obs,
            out,
            self.batching,
            &mut self.send_buf,
            |net| {
                self.gcs
                    .create_group(group.clone(), config, members.clone(), now, net)
            },
        )?;
        let mut core = ServerCore::new(self.node, group.clone(), replication, optimisation);
        core.set_server_view(members);
        self.was_primary.insert(group.clone(), core.is_primary());
        self.servers.insert(group.clone(), core);
        self.roles.insert(group.clone(), GroupRole::ServerGroup);
        self.route_gcs(outs, now, out);
        Ok(())
    }

    /// Registers the application servant executed for a server group's
    /// requests.
    pub fn register_group_servant(&mut self, group: GroupId, servant: Box<dyn GroupServant>) {
        self.servants.insert(group, servant);
    }

    /// The designated request manager of a server group this node hosts
    /// (for the restricted-group optimisation).
    #[must_use]
    pub fn designated_manager(&self, server_group: &GroupId) -> Option<NodeId> {
        self.servers.get(server_group)?.designated_manager()
    }

    // --- client-side bindings ----------------------------------------------

    /// Establishes a client binding to `server_group` — the single entry
    /// point for all binding styles. [`BindOptions::target`] selects the
    /// shape:
    ///
    /// * [`BindTarget::Open`] — a two-member open binding through the
    ///   given request manager (§3.2).
    /// * [`BindTarget::Closed`] — a closed binding spanning the client
    ///   plus the full listed server group (§3.2).
    /// * [`BindTarget::Restricted`] — an open binding through the
    ///   group's designated manager, chosen as the lowest-ranked listed
    ///   server (the restricted-group optimisation, §4.2; servers must
    ///   have been created with [`OpenOptimisation::Restricted`] for
    ///   forwarding to be skipped).
    ///
    /// Returns a [`GroupHandle`] that invocations hang off; readiness
    /// surfaces as [`NsoOutput::BindingReady`]. The handle's default
    /// reply mode (for [`GroupHandle::invoke_default`]) and the
    /// async-forwarding preference are taken from `opts`.
    ///
    /// # Errors
    ///
    /// [`NewtopError::BindTargetMissing`] if `opts.target` was never
    /// set; [`NewtopError::GroupInUse`] if the chosen group id already
    /// exists.
    pub fn bind(
        &mut self,
        server_group: GroupId,
        opts: BindOptions,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<GroupHandle, NewtopError> {
        let default_mode = opts.default_mode;
        let group = match opts.target.clone() {
            BindTarget::Unspecified => Err(NewtopError::BindTargetMissing(server_group)),
            BindTarget::Open { manager } => {
                let members = vec![self.node, manager];
                self.start_bind(
                    server_group,
                    members,
                    BindingStyle::Open { manager },
                    0,
                    opts,
                    now,
                    out,
                )
            }
            BindTarget::Closed { servers } => {
                let mut members = vec![self.node];
                members.extend(servers.iter().copied());
                let count = servers.len();
                self.start_bind(
                    server_group,
                    members,
                    BindingStyle::Closed,
                    count,
                    opts,
                    now,
                    out,
                )
            }
            BindTarget::Restricted { servers } => {
                let manager = servers
                    .iter()
                    .copied()
                    .min()
                    .ok_or_else(|| NewtopError::BindTargetMissing(server_group.clone()))?;
                let members = vec![self.node, manager];
                self.start_bind(
                    server_group,
                    members,
                    BindingStyle::Open { manager },
                    0,
                    opts,
                    now,
                    out,
                )
            }
            BindTarget::Resolve {
                name,
                directory,
                style,
            } => self.start_resolve(name, directory, style, opts, now, out),
        }?;
        Ok(GroupHandle {
            group,
            kind: HandleKind::Binding,
            default_mode,
        })
    }

    /// Recovers a [`GroupHandle`] for a group that is already established
    /// on this node (a ready client binding or a peer group). `None` for
    /// unknown groups and for roles that have no handle-based surface
    /// (server groups, monitor groups).
    #[must_use]
    pub fn handle_for(&self, group: &GroupId) -> Option<GroupHandle> {
        let kind = match self.roles.get(group)? {
            GroupRole::ClientBinding => HandleKind::Binding,
            GroupRole::Peer => HandleKind::Peer,
            _ => return None,
        };
        Some(GroupHandle {
            group: group.clone(),
            kind,
            default_mode: self
                .default_modes
                .get(group)
                .copied()
                .unwrap_or(ReplyMode::All),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn start_bind(
        &mut self,
        server_group: GroupId,
        members: Vec<NodeId>,
        style: BindingStyle,
        server_count: usize,
        opts: BindOptions,
        _now: SimTime,
        out: &mut Outbox,
    ) -> Result<GroupId, NewtopError> {
        let group = opts.group_id.unwrap_or_else(|| {
            let id = GroupId::new(format!("cs:{}:{}", self.node, self.next_binding));
            self.next_binding += 1;
            id
        });
        if self.roles.contains_key(&group) || self.binds.contains_key(&group) {
            return Err(NewtopError::GroupInUse(group));
        }
        self.default_modes.insert(group.clone(), opts.default_mode);
        let config = GroupConfig {
            ordering: opts.ordering,
            liveness: Liveness::EventDriven,
            time_silence: opts.time_silence,
            fanout: opts.fanout,
            ..GroupConfig::default()
        };
        let ctrl = CtrlMessage::BindRequest {
            group: group.clone(),
            client: self.node,
            server_group: server_group.clone(),
            members: members.clone(),
            closed: style == BindingStyle::Closed,
            ordering: opts.ordering,
            time_silence_micros: opts.time_silence.as_micros() as u64,
            fanout: opts.fanout,
        };
        let body = ctrl.to_cdr();
        let servers: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|&m| m != self.node)
            .collect();
        for &s in &servers {
            let req = self.orb.invoke(
                &ObjectRef::new(s, NSO_OBJECT_KEY),
                INV_CTRL_OPERATION,
                body.clone(),
                out,
            );
            self.pending_bind_requests.insert(req, group.clone());
        }
        self.binds.insert(
            group.clone(),
            PendingBind {
                style,
                members,
                server_count,
                outstanding: servers.len(),
                config,
            },
        );
        let tag = self.alloc_tag(NsoTimer::BindTimeout(group.clone()));
        out.set_timer(opts.timeout, tag);
        Ok(group)
    }

    /// Begins a name-resolved bind: answers from the TTL'd cache when it
    /// can, otherwise reserves the binding group id, queues the bind on
    /// the name's resolution and asks the next directory contact.
    fn start_resolve(
        &mut self,
        name: String,
        directory: Vec<NodeId>,
        style: ResolveStyle,
        mut opts: BindOptions,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<GroupId, NewtopError> {
        if directory.is_empty() {
            return Err(NewtopError::BindTargetMissing(GroupId::new(name)));
        }
        if let Some(record) = self.dir_cache.lookup(&name, now).cloned() {
            let group = self.bind_resolved(&record, style, opts, now, out)?;
            self.resolved_origin.insert(group.clone(), name);
            return Ok(group);
        }
        let group = opts.group_id.clone().unwrap_or_else(|| {
            let id = GroupId::new(format!("cs:{}:{}", self.node, self.next_binding));
            self.next_binding += 1;
            id
        });
        if self.roles.contains_key(&group) || self.binds.contains_key(&group) {
            return Err(NewtopError::GroupInUse(group));
        }
        opts.group_id = Some(group.clone());
        self.resolved_origin.insert(group.clone(), name.clone());
        let waiter = PendingResolve {
            group: group.clone(),
            style,
            opts: opts.clone(),
        };
        match self.pending_resolves.get_mut(&name) {
            Some(progress) => progress.waiters.push(waiter),
            None => {
                self.pending_resolves.insert(
                    name.clone(),
                    ResolveProgress {
                        contacts: directory,
                        next: 0,
                        waiters: vec![waiter],
                    },
                );
                self.issue_resolve(&name, opts.timeout, out);
            }
        }
        Ok(group)
    }

    /// Asks the next directory contact for `name`'s record and arms the
    /// per-contact timeout.
    fn issue_resolve(&mut self, name: &str, timeout: Duration, out: &mut Outbox) {
        let Some(progress) = self.pending_resolves.get_mut(name) else {
            return;
        };
        let slot = progress
            .next
            .checked_rem(progress.contacts.len())
            .unwrap_or(0);
        let Some(&contact) = progress.contacts.get(slot) else {
            return; // record had no contacts; nothing to ask
        };
        progress.next += 1;
        let body = DirRequest::Resolve {
            name: name.to_owned(),
        }
        .to_cdr();
        let req = self.orb.invoke(
            &ObjectRef::new(contact, DIR_OBJECT_KEY),
            DIR_OPERATION,
            body,
            out,
        );
        self.pending_dir_requests.insert(req, name.to_owned());
        let attempt = self
            .pending_resolves
            .get(name)
            .map_or(0, |progress| progress.next);
        let tag = self.alloc_tag(NsoTimer::ResolveTimeout {
            name: name.to_owned(),
            attempt,
        });
        out.set_timer(timeout, tag);
    }

    /// Shapes and starts the actual bind from a resolved record.
    fn bind_resolved(
        &mut self,
        record: &GroupRecord,
        style: ResolveStyle,
        mut opts: BindOptions,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<GroupId, NewtopError> {
        let server_group = record.group_id();
        if record.members.is_empty() {
            return Err(NewtopError::BindTargetMissing(server_group));
        }
        // The server group already exists with the record's parameters;
        // the client/server group mirrors them rather than whatever the
        // caller guessed.
        opts.ordering = record.config.ordering;
        opts.time_silence = record.config.time_silence;
        opts.fanout = record.config.fanout;
        let (members, bind_style, server_count) = match style {
            ResolveStyle::Closed => {
                let mut members = vec![self.node];
                members.extend(record.members.iter().copied());
                (members, BindingStyle::Closed, record.members.len())
            }
            ResolveStyle::Open { rank } => {
                let slot = rank.checked_rem(record.members.len()).unwrap_or(0);
                let manager = record
                    .members
                    .get(slot)
                    .copied()
                    .ok_or_else(|| NewtopError::BindTargetMissing(server_group.clone()))?;
                (vec![self.node, manager], BindingStyle::Open { manager }, 0)
            }
            ResolveStyle::Restricted => {
                let manager = record
                    .members
                    .iter()
                    .copied()
                    .min()
                    .ok_or_else(|| NewtopError::BindTargetMissing(server_group.clone()))?;
                (vec![self.node, manager], BindingStyle::Open { manager }, 0)
            }
        };
        self.start_bind(
            server_group,
            members,
            bind_style,
            server_count,
            opts,
            now,
            out,
        )
    }

    /// A directory contact answered (or errored) a resolution.
    fn on_dir_reply(
        &mut self,
        name: String,
        result: Result<Bytes, InvokeError>,
        now: SimTime,
        out: &mut Outbox,
    ) {
        let reply = result.ok().and_then(|body| DirReply::from_cdr(&body).ok());
        match reply {
            Some(DirReply::Found { record }) => {
                self.dir_cache.insert(record.clone(), now);
                let Some(progress) = self.pending_resolves.remove(&name) else {
                    return;
                };
                for waiter in progress.waiters {
                    if self
                        .bind_resolved(&record, waiter.style, waiter.opts, now, out)
                        .is_err()
                    {
                        self.fail_bind(waiter.group, now);
                    }
                }
            }
            // Not found, a malformed body or a transport error all mean
            // the same thing here: this contact cannot help; rotate.
            Some(DirReply::NotFound { .. } | DirReply::Ok) | None => {
                self.advance_resolve(&name, now, out);
            }
        }
    }

    /// Moves a resolution to its next contact, failing every waiting
    /// bind once all contacts have been tried.
    fn advance_resolve(&mut self, name: &str, now: SimTime, out: &mut Outbox) {
        let Some(progress) = self.pending_resolves.get(name) else {
            return;
        };
        if progress.next < progress.contacts.len() {
            let timeout = progress
                .waiters
                .first()
                .map_or(Duration::from_secs(2), |w| w.opts.timeout);
            self.issue_resolve(name, timeout, out);
            return;
        }
        let Some(progress) = self.pending_resolves.remove(name) else {
            return;
        };
        for waiter in progress.waiters {
            self.fail_bind(waiter.group, now);
        }
    }

    /// Emits `BindFailed` for a reserved binding that never started.
    fn fail_bind(&mut self, group: GroupId, now: SimTime) {
        if let Some(name) = self.resolved_origin.remove(&group) {
            self.dir_cache.invalidate(&name);
        }
        self.obs.record(
            now,
            TraceEvent::BindFailed {
                group: group.as_str().to_string(),
            },
        );
        self.outputs.push(NsoOutput::BindFailed { group });
    }

    fn do_unbind(
        &mut self,
        group: &GroupId,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<(), NewtopError> {
        if !matches!(self.roles.get(group), Some(GroupRole::ClientBinding)) {
            return Err(NewtopError::Unbound(group.clone()));
        }
        self.roles.remove(group);
        self.client.remove_binding(group);
        self.default_modes.remove(group);
        let outs = with_net(
            &mut self.orb,
            &mut self.obs,
            out,
            self.batching,
            &mut self.send_buf,
            |net| self.gcs.leave_group(group, now, net).unwrap_or_default(),
        );
        self.route_gcs(outs, now, out);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn do_invoke(
        &mut self,
        binding: &GroupId,
        op: &str,
        args: Bytes,
        mode: ReplyMode,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<CallId, NewtopError> {
        let (call, cmds, events) = self.client.invoke(binding, op, args, mode)?;
        self.obs.metrics.incr("inv.calls_issued");
        self.call_issued.insert(call.number, now);
        self.run_commands(cmds, now, out);
        self.map_client_events(events, now, out);
        Ok(call)
    }

    fn do_retry(
        &mut self,
        call_number: u64,
        binding: &GroupId,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<(), NewtopError> {
        let cmds = self.client.retry(call_number, binding)?;
        self.run_commands(cmds, now, out);
        Ok(())
    }

    // --- peer groups ---------------------------------------------------------

    /// Statically creates a peer group (every member calls this with the
    /// same arguments) and returns its [`GroupHandle`]. Deliveries
    /// surface as [`NsoOutput::PeerDeliver`].
    ///
    /// # Errors
    ///
    /// Any [`GcsError`] from group creation.
    pub fn create_peer_group(
        &mut self,
        group: GroupId,
        members: Vec<NodeId>,
        config: GroupConfig,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<GroupHandle, NewtopError> {
        let outs = with_net(
            &mut self.orb,
            &mut self.obs,
            out,
            self.batching,
            &mut self.send_buf,
            |net| {
                self.gcs
                    .create_group(group.clone(), config, members, now, net)
            },
        )?;
        self.roles.insert(group.clone(), GroupRole::Peer);
        self.route_gcs(outs, now, out);
        Ok(GroupHandle {
            group,
            kind: HandleKind::Peer,
            default_mode: ReplyMode::All,
        })
    }

    /// Dynamically joins an existing peer group through `contact`, a
    /// current member (the GCS join protocol: the contact triggers a view
    /// change that admits this node). Completion surfaces as a
    /// [`NsoOutput::ViewChanged`] whose view contains this node.
    ///
    /// # Errors
    ///
    /// Any [`GcsError`] (e.g. already a member).
    pub fn join_peer_group(
        &mut self,
        group: GroupId,
        config: GroupConfig,
        contact: NodeId,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<GroupHandle, NewtopError> {
        with_net(
            &mut self.orb,
            &mut self.obs,
            out,
            self.batching,
            &mut self.send_buf,
            |net| {
                self.gcs
                    .join_group(group.clone(), config, contact, now, net)
            },
        )?;
        self.roles.insert(group.clone(), GroupRole::Peer);
        Ok(GroupHandle {
            group,
            kind: HandleKind::Peer,
            default_mode: ReplyMode::All,
        })
    }

    /// Gracefully leaves a peer group; the remaining members install a
    /// view without this node.
    ///
    /// # Errors
    ///
    /// [`NewtopError::Unbound`] if this node is not a member.
    pub fn leave_peer_group(
        &mut self,
        group: &GroupId,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<(), NewtopError> {
        if !matches!(self.roles.get(group), Some(GroupRole::Peer)) {
            return Err(NewtopError::Unbound(group.clone()));
        }
        let outs = with_net(
            &mut self.orb,
            &mut self.obs,
            out,
            self.batching,
            &mut self.send_buf,
            |net| self.gcs.leave_group(group, now, net),
        )?;
        self.route_gcs(outs, now, out);
        Ok(())
    }

    fn do_peer_send(
        &mut self,
        group: &GroupId,
        payload: Bytes,
        order: DeliveryOrder,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<(), NewtopError> {
        with_net(
            &mut self.orb,
            &mut self.obs,
            out,
            self.batching,
            &mut self.send_buf,
            |net| self.gcs.multicast(group, order, payload, now, net),
        )?;
        Ok(())
    }

    // --- group-to-group -------------------------------------------------------

    /// Statically sets up a client monitor group (Fig. 6) for
    /// group-to-group invocation: `members` must be the origin group's
    /// members plus the request `manager` (a member of `server_group`),
    /// and every one of them calls this with the same arguments.
    ///
    /// # Errors
    ///
    /// [`NewtopError::NotAServer`] at the manager if it does not host
    /// `server_group`; any [`GcsError`] from group creation.
    #[allow(clippy::too_many_arguments)]
    pub fn setup_monitor_group(
        &mut self,
        monitor: GroupId,
        origin: GroupId,
        manager: NodeId,
        server_group: GroupId,
        members: Vec<NodeId>,
        config: GroupConfig,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<(), NewtopError> {
        if self.node == manager && !self.servers.contains_key(&server_group) {
            return Err(NewtopError::NotAServer(server_group));
        }
        let outs = with_net(
            &mut self.orb,
            &mut self.obs,
            out,
            self.batching,
            &mut self.send_buf,
            |net| {
                self.gcs
                    .create_group(monitor.clone(), config, members, now, net)
            },
        )?;
        if self.node == manager {
            self.servers
                .get_mut(&server_group)
                .expect("checked")
                .register_monitor_group(monitor.clone(), origin);
            self.roles
                .insert(monitor, GroupRole::MonitorManager { server_group });
        } else {
            self.g2g_callers.insert(
                monitor.clone(),
                G2gCaller::new(self.node, origin, monitor.clone()),
            );
            self.roles.insert(monitor, GroupRole::MonitorCaller);
        }
        self.route_gcs(outs, now, out);
        Ok(())
    }

    /// Issues this origin-group member's copy of a group-to-group call.
    /// All origin members must call in the same relative order.
    /// Completion surfaces as [`NsoOutput::G2gComplete`].
    ///
    /// # Errors
    ///
    /// [`NewtopError::Unbound`] if the monitor group is not attached.
    #[allow(clippy::too_many_arguments)]
    pub fn g2g_invoke(
        &mut self,
        monitor: &GroupId,
        op: &str,
        args: Bytes,
        mode: ReplyMode,
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<u64, NewtopError> {
        let caller = self
            .g2g_callers
            .get_mut(monitor)
            .ok_or_else(|| NewtopError::Unbound(monitor.clone()))?;
        let (number, cmds, done) = caller.invoke(op, args, mode)?;
        if let Some(done) = done {
            self.outputs.push(NsoOutput::G2gComplete {
                origin: done.origin,
                number: done.number,
                replies: done.replies,
            });
        }
        self.run_commands(cmds, now, out);
        Ok(number)
    }

    // --- plain ORB access (the non-replicated baseline) -------------------------

    /// Issues a plain one-to-one ORB request (no groups involved). The
    /// reply surfaces as [`NsoOutput::PlainReply`].
    pub fn plain_invoke(
        &mut self,
        target: &ObjectRef,
        op: &str,
        args: Bytes,
        out: &mut Outbox,
    ) -> RequestId {
        self.orb.invoke(target, op, args, out)
    }

    /// Registers an ordinary (non-group) servant in the node's object
    /// adapter; the ORB answers its requests directly.
    pub fn register_plain_servant(
        &mut self,
        key: &str,
        servant: Box<dyn newtop_orb::servant::Servant>,
    ) {
        self.orb.adapter_mut().activate(key, servant);
    }

    // --- event entry points -------------------------------------------------------

    /// Feeds one incoming packet. Outputs accumulate for
    /// [`Nso::take_outputs`].
    pub fn on_packet(&mut self, pkt: &Packet, now: SimTime, out: &mut Outbox) {
        let Some(incoming) = self.orb.handle_packet(pkt, out) else {
            return;
        };
        match incoming {
            OrbIncoming::Reply { request, result } => {
                if let Some(group) = self.pending_bind_requests.remove(&request) {
                    self.on_bind_ack(group, result.is_ok(), now, out);
                } else if let Some(name) = self.pending_dir_requests.remove(&request) {
                    self.on_dir_reply(name, result, now, out);
                } else {
                    self.outputs.push(NsoOutput::PlainReply { request, result });
                }
            }
            OrbIncoming::Upcall {
                from,
                request_id,
                key,
                operation,
                body,
                response_expected,
            } => {
                if key.as_str() != NSO_OBJECT_KEY {
                    if response_expected {
                        self.orb.send_reply(
                            from,
                            request_id,
                            Err(ServantError::BadOperation(operation)),
                            out,
                        );
                    }
                    return;
                }
                match operation.as_str() {
                    GCS_OPERATION => match GcsMessage::from_cdr(&body) {
                        Ok(msg) => self.on_gcs_message(msg, now, out),
                        Err(_) => self.note_malformed(GCS_OPERATION, now),
                    },
                    INV_OPERATION => match InvMessage::from_cdr(&body) {
                        Ok(msg) => {
                            let events = self.client.on_decoded(msg);
                            self.map_client_events(events, now, out);
                        }
                        Err(_) => self.note_malformed(INV_OPERATION, now),
                    },
                    INV_CTRL_OPERATION => {
                        let result = self.handle_ctrl(&body, now, out);
                        if response_expected {
                            self.orb.send_reply(from, request_id, result, out);
                        }
                    }
                    other => {
                        if response_expected {
                            self.orb.send_reply(
                                from,
                                request_id,
                                Err(ServantError::BadOperation(other.to_owned())),
                                out,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Feeds a GCS protocol message the host already decoded off the
    /// wire — the ingress path for runtimes that parse and unbatch
    /// frames off the event loop (see [`Nso::decode_gcs_frame`]).
    /// Feeding each constituent of a frame in order is equivalent to
    /// [`Nso::on_packet`] on the frame itself.
    pub fn on_gcs_message(&mut self, msg: GcsMessage, now: SimTime, out: &mut Outbox) {
        let outs = with_net(
            &mut self.orb,
            &mut self.obs,
            out,
            self.batching,
            &mut self.send_buf,
            |net| self.gcs.on_message(msg, now, net),
        );
        self.route_gcs(outs, now, out);
    }

    /// Pre-decodes a wire frame when it is a oneway GCS protocol
    /// message: returns its constituent [`GcsMessage`]s (batch envelopes
    /// unpacked, in send order) if the frame is a well-formed oneway
    /// `GCS_OPERATION` request for the NSO endpoint, and `None`
    /// otherwise.
    ///
    /// This is the CPU-heavy part of packet ingress, and it is pure —
    /// a host may run it on its ingress thread, off the event loop, and
    /// feed the results to [`Nso::on_gcs_message`]. Frames it declines
    /// (replies, control traffic, invocation messages, malformed bodies)
    /// must be fed to [`Nso::on_packet`] unchanged so their accounting
    /// still happens.
    #[must_use]
    pub fn decode_gcs_frame(payload: &[u8]) -> Option<Vec<GcsMessage>> {
        let Ok(GiopMessage::Request {
            object_key,
            operation,
            response_expected: false,
            body,
            ..
        }) = GiopMessage::from_frame(payload)
        else {
            return None;
        };
        if object_key.as_str() != NSO_OBJECT_KEY || operation != GCS_OPERATION {
            return None;
        }
        match GcsMessage::from_cdr(&body).ok()? {
            GcsMessage::Batch(msgs) => Some(msgs),
            msg => Some(vec![msg]),
        }
    }

    /// Runs the group layer's idle work ([`GcsMember::on_idle`]) and
    /// sends what the node holds back for company: every group's
    /// pending sequencer order records, a null in each symmetric group
    /// where this member has received total-order data stamped past its
    /// own last data or null, and the staged [`SendBuffer`].
    ///
    /// A threaded host calls this whenever its event queue runs empty,
    /// before it blocks. Under load the queue is not empty, so messages
    /// still coalesce across events and members announce their clocks
    /// through their own data; the batch-flush timer, the order-record
    /// interval and the time-silence period stay the upper bounds. The
    /// simulator never calls it, so its runs do not change.
    pub fn on_idle(&mut self, now: SimTime, out: &mut Outbox) {
        with_net(
            &mut self.orb,
            &mut self.obs,
            out,
            self.batching,
            &mut self.send_buf,
            |net| {
                self.gcs.on_idle(now, net);
                net.flush();
            },
        );
    }

    /// Feeds a fired timer whose tag this NSO owns.
    pub fn on_timer(&mut self, tag: u64, now: SimTime, out: &mut Outbox) {
        if tag == BATCH_FLUSH_TAG {
            // The coalescing window closed: everything staged since the
            // timer was armed leaves now, packed per destination. The
            // epilogue of `with_net` re-arms if the flush itself staged
            // anything new (it does not, but handlers racing in the
            // threaded runtime may have).
            self.send_buf.scheduled = false;
            with_net(
                &mut self.orb,
                &mut self.obs,
                out,
                self.batching,
                &mut self.send_buf,
                |net| net.flush(),
            );
            return;
        }
        if self.gcs.owns_tag(tag) {
            let outs = with_net(
                &mut self.orb,
                &mut self.obs,
                out,
                self.batching,
                &mut self.send_buf,
                |net| self.gcs.on_timer(tag, now, net),
            );
            self.route_gcs(outs, now, out);
            return;
        }
        if let Some(timer) = self.nso_timers.remove(&tag) {
            match timer {
                NsoTimer::BindTimeout(group) => {
                    if self.binds.remove(&group).is_some() {
                        self.pending_bind_requests.retain(|_, g| g != &group);
                        self.default_modes.remove(&group);
                        self.fail_bind(group, now);
                    }
                }
                NsoTimer::ResolveTimeout { name, attempt } => {
                    // Only the timer for the attempt still in flight
                    // reacts; stale timers find nothing to do.
                    let live = self
                        .pending_resolves
                        .get(&name)
                        .is_some_and(|progress| progress.next == attempt);
                    if live {
                        self.pending_dir_requests.retain(|_, n| n != &name);
                        self.advance_resolve(&name, now, out);
                    }
                }
            }
        }
    }

    // --- internals ---------------------------------------------------------------

    fn alloc_tag(&mut self, timer: NsoTimer) -> u64 {
        let tag = tags::NSO_BASE + self.next_tag;
        self.next_tag += 1;
        self.nso_timers.insert(tag, timer);
        tag
    }

    /// Server side of the binding-control protocol.
    fn handle_ctrl(
        &mut self,
        body: &[u8],
        now: SimTime,
        out: &mut Outbox,
    ) -> Result<Bytes, ServantError> {
        let msg = CtrlMessage::from_cdr(body).map_err(|_| {
            self.note_malformed(INV_CTRL_OPERATION, now);
            ServantError::User(Bytes::from(
                NewtopError::Malformed(INV_CTRL_OPERATION).to_string(),
            ))
        })?;
        match msg {
            CtrlMessage::BindRequest {
                group,
                client,
                server_group,
                members,
                closed,
                ordering,
                time_silence_micros,
                fanout,
            } => {
                if !self.servers.contains_key(&server_group) {
                    return Err(ServantError::User(Bytes::from_static(
                        b"not a member of that server group",
                    )));
                }
                if !self.roles.contains_key(&group) {
                    let config = GroupConfig {
                        ordering,
                        liveness: Liveness::EventDriven,
                        time_silence: Duration::from_micros(time_silence_micros),
                        fanout,
                        ..GroupConfig::default()
                    };
                    let outs = with_net(
                        &mut self.orb,
                        &mut self.obs,
                        out,
                        self.batching,
                        &mut self.send_buf,
                        |net| {
                            self.gcs
                                .create_group(group.clone(), config, members, now, net)
                        },
                    )
                    .map_err(|_| {
                        ServantError::User(Bytes::from_static(b"group creation failed"))
                    })?;
                    self.servers
                        .get_mut(&server_group)
                        .ok_or_else(|| {
                            ServantError::User(Bytes::from_static(b"server group vanished"))
                        })?
                        .register_client_group(group.clone(), client, closed);
                    self.roles
                        .insert(group.clone(), GroupRole::Served { server_group });
                    self.route_gcs(outs, now, out);
                }
                Ok(Bytes::new())
            }
        }
    }

    /// Client side: one server acknowledged (or refused) a bind.
    fn on_bind_ack(&mut self, group: GroupId, ok: bool, now: SimTime, out: &mut Outbox) {
        let Some(bind) = self.binds.get_mut(&group) else {
            return; // timed out already
        };
        if !ok {
            self.binds.remove(&group);
            self.pending_bind_requests.retain(|_, g| g != &group);
            self.default_modes.remove(&group);
            self.fail_bind(group, now);
            return;
        }
        bind.outstanding = bind.outstanding.saturating_sub(1);
        if bind.outstanding > 0 {
            return;
        }
        let Some(bind) = self.binds.remove(&group) else {
            return; // raced with a timeout that already tore it down
        };
        let created = with_net(
            &mut self.orb,
            &mut self.obs,
            out,
            self.batching,
            &mut self.send_buf,
            |net| {
                self.gcs.create_group(
                    group.clone(),
                    bind.config.clone(),
                    bind.members.clone(),
                    now,
                    net,
                )
            },
        );
        let outs = match created {
            Ok(o) => o,
            Err(_) => {
                self.default_modes.remove(&group);
                self.fail_bind(group, now);
                return;
            }
        };
        self.client
            .register_binding(group.clone(), bind.style.clone(), bind.server_count);
        self.roles.insert(group.clone(), GroupRole::ClientBinding);
        self.obs.record(
            now,
            TraceEvent::BindReady {
                group: group.as_str().to_string(),
            },
        );
        self.outputs.push(NsoOutput::BindingReady { group });
        self.route_gcs(outs, now, out);
    }

    fn run_commands(&mut self, cmds: Vec<InvCommand>, now: SimTime, out: &mut Outbox) {
        for cmd in cmds {
            match cmd {
                InvCommand::Multicast { group, payload } => {
                    let _ = with_net(
                        &mut self.orb,
                        &mut self.obs,
                        out,
                        self.batching,
                        &mut self.send_buf,
                        |net| {
                            self.gcs
                                .multicast(&group, DeliveryOrder::Total, payload, now, net)
                        },
                    );
                }
                InvCommand::Direct { to, payload } => {
                    self.orb.oneway(
                        &ObjectRef::new(to, NSO_OBJECT_KEY),
                        INV_OPERATION,
                        payload,
                        out,
                    );
                }
            }
        }
    }

    fn map_client_events(&mut self, events: Vec<ClientEvent>, now: SimTime, out: &mut Outbox) {
        for ev in events {
            match ev {
                ClientEvent::Complete { call, replies } => {
                    self.obs.metrics.incr("inv.calls_completed");
                    if let Some(t0) = self.call_issued.remove(&call.number) {
                        self.obs
                            .metrics
                            .record_latency("inv.latency", now.saturating_since(t0));
                    }
                    self.outputs
                        .push(NsoOutput::InvocationComplete { call, replies });
                }
                ClientEvent::BindingBroken {
                    group,
                    manager,
                    pending_calls,
                } => {
                    self.obs.record(
                        now,
                        TraceEvent::Rebind {
                            group: group.as_str().to_string(),
                            manager,
                        },
                    );
                    self.roles.remove(&group);
                    self.default_modes.remove(&group);
                    // A broken binding means its manager is gone; any
                    // cached record naming it — and the record this
                    // binding came from — must be re-resolved.
                    self.dir_cache.invalidate_member(manager);
                    if let Some(name) = self.resolved_origin.remove(&group) {
                        self.dir_cache.invalidate(&name);
                    }
                    let _ = with_net(
                        &mut self.orb,
                        &mut self.obs,
                        out,
                        self.batching,
                        &mut self.send_buf,
                        |net| self.gcs.leave_group(&group, now, net),
                    );
                    self.outputs.push(NsoOutput::BindingBroken {
                        group,
                        manager,
                        pending_calls,
                    });
                }
            }
        }
    }

    fn route_gcs(&mut self, outs: Vec<GcsOutput>, now: SimTime, out: &mut Outbox) {
        for o in outs {
            match o {
                GcsOutput::Delivered {
                    group,
                    sender,
                    order,
                    lamport,
                    payload,
                } => self.route_delivery(&group, sender, order, lamport, payload, now, out),
                GcsOutput::ViewInstalled {
                    group,
                    view,
                    departed,
                    ..
                } => {
                    // A departed member makes any cached directory
                    // record that names it suspect.
                    for m in &departed {
                        self.dir_cache.invalidate_member(*m);
                    }
                    self.route_view_change(&group, &view, now, out);
                    self.outputs.push(NsoOutput::ViewChanged { group, view });
                }
                GcsOutput::LeftGroup { group } => {
                    self.roles.remove(&group);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn route_delivery(
        &mut self,
        group: &GroupId,
        sender: NodeId,
        order: DeliveryOrder,
        lamport: u64,
        payload: Bytes,
        now: SimTime,
        out: &mut Outbox,
    ) {
        let Some(role) = self.roles.get(group).cloned() else {
            return;
        };
        match role {
            GroupRole::ClientBinding => match InvMessage::from_cdr(&payload) {
                Ok(msg) => {
                    let events = self.client.on_decoded(msg);
                    self.map_client_events(events, now, out);
                }
                Err(_) => self.note_malformed(INV_OPERATION, now),
            },
            GroupRole::ServerGroup => {
                self.serve_delivery(group.clone(), group, sender, &payload, now, out);
            }
            GroupRole::Served { server_group } | GroupRole::MonitorManager { server_group } => {
                self.serve_delivery(server_group, group, sender, &payload, now, out);
            }
            GroupRole::MonitorCaller => {
                if let Some(caller) = self.g2g_callers.get_mut(group) {
                    if let Some(done) = caller.on_delivered(group, &payload) {
                        self.outputs.push(NsoOutput::G2gComplete {
                            origin: done.origin,
                            number: done.number,
                            replies: done.replies,
                        });
                    }
                }
            }
            GroupRole::Peer => {
                self.outputs.push(NsoOutput::PeerDeliver {
                    group: group.clone(),
                    sender,
                    order,
                    lamport,
                    payload,
                });
            }
        }
    }

    /// Routes a delivery to a server core, running the group servant.
    #[allow(clippy::too_many_arguments)]
    fn serve_delivery(
        &mut self,
        server_group: GroupId,
        delivered_in: &GroupId,
        sender: NodeId,
        payload: &[u8],
        now: SimTime,
        out: &mut Outbox,
    ) {
        let Ok(msg) = InvMessage::from_cdr(payload) else {
            self.note_malformed(INV_OPERATION, now);
            return;
        };
        let cmds = {
            let Some(core) = self.servers.get_mut(&server_group) else {
                return;
            };
            let mut servant = self.servants.get_mut(&server_group);
            let mut exec = |op: &str, args: &[u8]| -> Bytes {
                match servant {
                    Some(ref mut s) => s.invoke(op, args),
                    None => Bytes::new(),
                }
            };
            core.on_decoded(delivered_in, sender, msg, &mut exec)
        };
        self.drain_server_events(&server_group, now);
        self.run_commands(cmds, now, out);
    }

    /// Counts and traces a message body that failed to unmarshal; the
    /// condition is queryable as the `decode.malformed` metric and
    /// renders as [`NewtopError::Malformed`] where an error channel
    /// exists (the binding-control request path).
    fn note_malformed(&mut self, operation: &'static str, now: SimTime) {
        self.obs.metrics.incr("decode.malformed");
        self.obs.record(
            now,
            TraceEvent::MalformedDropped {
                operation: operation.to_string(),
            },
        );
    }

    /// Stamps and records the trace events a server core accumulated
    /// while processing (server cores have no clock of their own).
    fn drain_server_events(&mut self, server_group: &GroupId, now: SimTime) {
        if let Some(core) = self.servers.get_mut(server_group) {
            for ev in core.take_events() {
                self.obs.record(now, ev);
            }
        }
    }

    fn route_view_change(&mut self, group: &GroupId, view: &View, now: SimTime, out: &mut Outbox) {
        let Some(role) = self.roles.get(group).cloned() else {
            return;
        };
        match role {
            GroupRole::ClientBinding => {
                let events = self.client.on_binding_view_change(group, view.members());
                self.map_client_events(events, now, out);
            }
            GroupRole::ServerGroup => {
                let (replayed, quorum_cmds) = {
                    let Some(core) = self.servers.get_mut(group) else {
                        return;
                    };
                    let quorum_cmds = core.set_server_view(view.members().to_vec());
                    let was = self.was_primary.insert(group.clone(), core.is_primary());
                    if core.replication() == Replication::Passive
                        && core.is_primary()
                        && was == Some(false)
                    {
                        let mut servant = self.servants.get_mut(group);
                        let mut exec = |op: &str, args: &[u8]| -> Bytes {
                            match servant {
                                Some(ref mut s) => s.invoke(op, args),
                                None => Bytes::new(),
                            }
                        };
                        (Some(core.promote(&mut exec)), quorum_cmds)
                    } else {
                        (None, quorum_cmds)
                    }
                };
                self.drain_server_events(group, now);
                self.run_commands(quorum_cmds, now, out);
                if let Some(replayed) = replayed {
                    self.outputs.push(NsoOutput::Promoted {
                        group: group.clone(),
                        replayed,
                    });
                }
            }
            GroupRole::Served { server_group } => {
                // If the client departed, the binding is dead: drop it.
                if view.len() <= 1 {
                    if let Some(core) = self.servers.get_mut(&server_group) {
                        core.remove_client_group(group);
                    }
                    self.roles.remove(group);
                    let _ = with_net(
                        &mut self.orb,
                        &mut self.obs,
                        out,
                        self.batching,
                        &mut self.send_buf,
                        |net| self.gcs.leave_group(group, now, net),
                    );
                }
            }
            GroupRole::MonitorManager { .. } | GroupRole::MonitorCaller | GroupRole::Peer => {}
        }
    }
}
