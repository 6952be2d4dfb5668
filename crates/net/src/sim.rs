//! Deterministic discrete-event network simulator.
//!
//! The simulator executes a set of [`SimNode`] state machines connected by a
//! latency-modelled network. It reproduces the two phenomena the paper's
//! evaluation hinges on:
//!
//! 1. **network latency** — every packet between two nodes takes a one-way
//!    latency drawn from the configured [`LatencyMatrix`];
//! 2. **node saturation** — each node processes events *serially*, and every
//!    event consumes CPU time given by a [`ServiceProfile`]. A node whose
//!    arrival rate exceeds its service rate builds a queue, which is exactly
//!    how the paper's LAN servers saturate with a single client and how the
//!    asymmetric sequencer becomes a bottleneck in peer groups.
//!
//! Fault injection (crashes, partitions, message loss/duplication) is built
//! in, because the GCS membership/virtual-synchrony machinery is exercised
//! by killing nodes mid-protocol.
//!
//! Determinism: all randomness is drawn from one seeded RNG, and the event
//! queue breaks timestamp ties by insertion sequence number.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::time::Duration;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::latency::{BandwidthMatrix, LatencyMatrix};
use crate::site::{NodeId, Site};
use crate::time::SimTime;

/// A packet in flight between two nodes.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Opaque payload (marshalled by the layers above).
    pub payload: Bytes,
}

/// Identifies a pending timer set through [`Outbox::set_timer`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(u64);

/// An event delivered to a [`SimNode`].
#[derive(Debug)]
pub enum NodeEvent {
    /// The node has been added to a running simulation (delivered once,
    /// before any other event).
    Start,
    /// A packet arrived.
    Packet(Packet),
    /// A timer set earlier fired. The `u64` is the tag passed to
    /// [`Outbox::set_timer`].
    Timer(TimerId, u64),
}

/// Collects the actions a node wants performed: packet sends, timer sets
/// and timer cancellations. Actions take effect when the node's event
/// handler returns (at the node's CPU-completion time).
#[derive(Debug)]
pub struct Outbox {
    sends: Vec<(NodeId, Bytes, u64)>,
    timer_sets: Vec<(TimerId, Duration, u64)>,
    timer_cancels: Vec<TimerId>,
    next_timer: u64,
    current_chain: u64,
    chain_open: bool,
}

/// The accumulated actions of a detached [`Outbox`], consumed by runtimes
/// other than the simulator (see [`Outbox::into_parts`]).
#[derive(Debug)]
pub struct OutboxParts {
    /// Queued `(destination, payload)` sends (fan-out chains flattened;
    /// real transports send immediately).
    pub sends: Vec<(NodeId, Bytes)>,
    /// Queued timer registrations: `(id, delay, tag)`.
    pub timer_sets: Vec<(TimerId, Duration, u64)>,
    /// Queued timer cancellations.
    pub timer_cancels: Vec<TimerId>,
    /// The timer-id counter to seed the next outbox with.
    pub next_timer: u64,
}

impl Outbox {
    fn new(next_timer: u64) -> Self {
        Outbox {
            sends: Vec::new(),
            timer_sets: Vec::new(),
            timer_cancels: Vec::new(),
            next_timer,
            current_chain: 0,
            chain_open: false,
        }
    }

    /// Queues a packet to `dst`. The source is filled in by the runtime.
    ///
    /// Outside a [`Self::begin_fanout`]/[`Self::end_fanout`] bracket each
    /// send is an independent invocation; inside one, successive sends
    /// form a single synchronous fan-out whose invocations the simulator
    /// chains in turn (the paper's per-member multicast loop).
    pub fn send(&mut self, dst: NodeId, payload: Bytes) {
        if !self.chain_open {
            self.current_chain += 1;
        }
        self.sends.push((dst, payload, self.current_chain));
    }

    /// Starts a multicast fan-out: until [`Self::end_fanout`], queued
    /// sends belong to one sequential-synchronous invocation chain
    /// (one multicast thread in the paper's implementation).
    pub fn begin_fanout(&mut self) {
        self.current_chain += 1;
        self.chain_open = true;
    }

    /// Ends the current fan-out.
    pub fn end_fanout(&mut self) {
        self.chain_open = false;
    }

    /// Sets a timer to fire after `delay`; the `tag` is handed back in the
    /// resulting [`NodeEvent::Timer`].
    pub fn set_timer(&mut self, delay: Duration, tag: u64) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.timer_sets.push((id, delay, tag));
        id
    }

    /// Cancels a previously set timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.timer_cancels.push(id);
    }

    /// True if no actions have been queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.timer_sets.is_empty() && self.timer_cancels.is_empty()
    }

    /// Creates an outbox not owned by a simulator, for driving state
    /// machines from other runtimes (threads) or from tests. Seed
    /// `next_timer` with the value returned by the previous outbox's
    /// [`Outbox::into_parts`] so timer ids stay unique per node.
    #[must_use]
    pub fn detached(next_timer: u64) -> Self {
        Outbox::new(next_timer)
    }

    /// Consumes the outbox, exposing the accumulated actions.
    #[must_use]
    pub fn into_parts(self) -> OutboxParts {
        OutboxParts {
            sends: self.sends.into_iter().map(|(d, p, _)| (d, p)).collect(),
            timer_sets: self.timer_sets,
            timer_cancels: self.timer_cancels,
            next_timer: self.next_timer,
        }
    }
}

/// A protocol state machine attached to a simulated node.
///
/// Implementations must be deterministic functions of the events they are
/// given — all randomness and time must come from the runtime.
pub trait SimNode: Any + Send {
    /// Handles one event, queueing any resulting actions into `out`.
    fn on_event(&mut self, now: SimTime, ev: NodeEvent, out: &mut Outbox);

    /// Called when the node is cold-restarted after a crash (see
    /// [`Sim::schedule_restart`]), before the fresh [`NodeEvent::Start`]
    /// is delivered. Implementations discard volatile state here; state
    /// that should survive the crash must live outside the node (e.g. a
    /// shared durable store). No outbox is available — recovery actions
    /// belong in the `Start` handler that follows.
    fn on_restart(&mut self, _now: SimTime) {}
}

impl dyn SimNode {
    /// Downcasts a node trait object to its concrete type.
    #[must_use]
    pub fn downcast_ref<T: SimNode>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref()
    }

    /// Mutable variant of [`dyn SimNode::downcast_ref`](Self::downcast_ref).
    #[must_use]
    pub fn downcast_mut<T: SimNode>(&mut self) -> Option<&mut T> {
        (self as &mut dyn Any).downcast_mut()
    }
}

/// Per-event CPU costs for a node.
///
/// The defaults model the paper's Pentium/omniORB2 stack: a few hundred
/// microseconds of marshalling/dispatch per message. These are what make a
/// LAN server saturate at roughly a thousand requests per second, as in the
/// paper's graphs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ServiceProfile {
    /// Fixed CPU cost of handling one incoming packet.
    pub per_message: Duration,
    /// Additional CPU cost per KiB of payload.
    pub per_kib: Duration,
    /// CPU cost of handling a timer event.
    pub per_timer: Duration,
    /// CPU cost of *sending* one packet. The paper's ORBs only provide
    /// one-to-one invocation, so a multicast is a series of per-member
    /// invocations — each marshalled and dispatched at the sender. This
    /// is what makes large fan-outs (a closed-group client's request, a
    /// member's null messages across many groups, the sequencer's
    /// ordering records) cost real time.
    pub per_send: Duration,
}

impl ServiceProfile {
    /// A profile with zero cost everywhere (pure-latency simulations).
    #[must_use]
    pub const fn free() -> Self {
        ServiceProfile {
            per_message: Duration::ZERO,
            per_kib: Duration::ZERO,
            per_timer: Duration::ZERO,
            per_send: Duration::ZERO,
        }
    }
}

impl Default for ServiceProfile {
    fn default() -> Self {
        ServiceProfile {
            per_message: Duration::from_micros(300),
            per_kib: Duration::from_micros(40),
            per_timer: Duration::from_micros(20),
            per_send: Duration::from_micros(250),
        }
    }
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// One-way latency model.
    pub latency: LatencyMatrix,
    /// Default CPU profile for nodes added without an explicit one.
    pub default_service: ServiceProfile,
    /// Probability that any packet is silently dropped.
    pub drop_probability: f64,
    /// Probability that any packet is delivered twice.
    pub duplicate_probability: f64,
    /// Packet reordering window: every non-loopback packet gets extra
    /// one-way latency drawn uniformly from `[0, window]`, permuting
    /// arrival order without losing or duplicating anything.
    /// `Duration::ZERO` (the default) disables reordering and leaves the
    /// RNG stream untouched, so existing seeds stay bit-identical.
    pub reorder_window: Duration,
    /// Per-link bandwidth caps. A capped frame occupies its directed
    /// src→dst link for `payload_len / bytes_per_sec`, FIFO behind frames
    /// already queued on that link, before its propagation latency starts.
    /// The default is unlimited everywhere (no serialization delay).
    pub bandwidth: BandwidthMatrix,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x5eed,
            latency: LatencyMatrix::lan(),
            default_service: ServiceProfile::default(),
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_window: Duration::ZERO,
            bandwidth: BandwidthMatrix::unlimited(),
        }
    }
}

impl SimConfig {
    /// A LAN configuration with the given seed.
    #[must_use]
    pub fn lan(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// The Internet (Newcastle/London/Pisa) configuration with the given
    /// seed.
    #[must_use]
    pub fn internet(seed: u64) -> Self {
        SimConfig {
            seed,
            latency: LatencyMatrix::internet(),
            ..SimConfig::default()
        }
    }
}

/// A scripted operation scheduled with [`Sim::schedule_call`].
type CallFn = Box<dyn FnOnce(&mut dyn SimNode, SimTime, &mut Outbox) + Send>;

/// What a node's CPU works through: a [`NodeEvent`] for its handler, or
/// a scripted call run against the node itself.
enum Work {
    Event(NodeEvent),
    Call(CallFn),
}

enum QueuedKind {
    /// Work has arrived at the node and is waiting for CPU.
    Arrive(Work),
    /// The node's CPU finishes processing this work now; run it.
    Handle(Work),
    Control(Control),
}

#[derive(Debug)]
enum Control {
    Crash(NodeId),
    /// Cold-restart a crashed node: volatile state is discarded
    /// ([`SimNode::on_restart`]), a fresh `Start` is delivered, and
    /// pre-crash timers and CPU work are invalidated.
    Restart(NodeId),
    /// Nodes in different cells cannot exchange packets. A node absent from
    /// every cell is unreachable by everyone.
    Partition(Vec<Vec<NodeId>>),
    Heal,
    /// Replace the network-wide drop probability (drop bursts).
    SetDrop(f64),
    /// Replace the network-wide duplication probability.
    SetDuplicate(f64),
    /// Add a fixed delay to every non-loopback packet (delay spikes);
    /// `Duration::ZERO` ends the spike.
    SetExtraDelay(Duration),
    /// Replace the packet reordering window (`Duration::ZERO` disables).
    SetReorder(Duration),
    /// Override every link's bandwidth cap (`None` restores the
    /// configured [`BandwidthMatrix`]).
    SetBandwidth(Option<u64>),
    /// Scale a node's CPU service costs (`None` targets every node).
    /// A factor above 1 models overload or a degraded machine;
    /// `1.0` restores nominal speed.
    SetServiceFactor(Option<NodeId>, f64),
}

/// Incarnation stamp meaning "deliver regardless of restarts".
const ANY_INCARNATION: u64 = u64::MAX;

struct QueuedEvent {
    at: SimTime,
    seq: u64,
    target: Option<NodeId>,
    kind: QueuedKind,
    /// Which incarnation of the target this event belongs to. Timers and
    /// queued CPU work die with the incarnation that created them (a
    /// restarted node must not receive a previous life's timers, whose
    /// tags a rebuilt state machine may have reused); network packets and
    /// harness injections carry [`ANY_INCARNATION`].
    incarnation: u64,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct Slot {
    node: Box<dyn SimNode>,
    site: Site,
    service: ServiceProfile,
    /// Multiplier on every CPU cost (see `Control::SetServiceFactor`).
    service_factor: f64,
    busy_until: SimTime,
    alive: bool,
    started: bool,
    /// Bumped on every restart; see [`QueuedEvent::incarnation`].
    incarnation: u64,
}

/// Aggregate traffic counters for a run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets handed to the network (before loss).
    pub packets_sent: u64,
    /// Packets delivered to a live node.
    pub packets_delivered: u64,
    /// Packets dropped by loss injection, partitions or dead nodes.
    pub packets_dropped: u64,
    /// Total payload bytes handed to the network.
    pub bytes_sent: u64,
}

/// The discrete-event simulator. See the [module docs](self) for the model.
pub struct Sim {
    cfg: SimConfig,
    rng: StdRng,
    now: SimTime,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    nodes: Vec<Slot>,
    cancelled_timers: HashSet<TimerId>,
    next_timer: u64,
    next_seq: u64,
    partition: Option<Vec<Vec<NodeId>>>,
    extra_delay: Duration,
    /// Network-wide bandwidth override (see `Control::SetBandwidth`).
    bandwidth_override: Option<u64>,
    /// When each directed link's last capped frame finishes serializing
    /// (accessed per-link via `entry`, never iterated).
    link_busy: std::collections::HashMap<(NodeId, NodeId), SimTime>,
    stats: NetStats,
    events_processed: u64,
}

impl Sim {
    /// Creates an empty simulation.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Sim {
            cfg,
            rng,
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            cancelled_timers: HashSet::new(),
            next_timer: 0,
            next_seq: 0,
            partition: None,
            extra_delay: Duration::ZERO,
            bandwidth_override: None,
            link_busy: std::collections::HashMap::new(),
            stats: NetStats::default(),
            events_processed: 0,
        }
    }

    /// Adds a node with the default service profile, returning its id.
    /// The node receives [`NodeEvent::Start`] at the current virtual time.
    pub fn add_node(&mut self, site: Site, node: Box<dyn SimNode>) -> NodeId {
        let service = self.cfg.default_service;
        self.add_node_with_service(site, service, node)
    }

    /// Adds a node with an explicit CPU profile.
    pub fn add_node_with_service(
        &mut self,
        site: Site,
        service: ServiceProfile,
        node: Box<dyn SimNode>,
    ) -> NodeId {
        let id = NodeId::from_index(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(Slot {
            node,
            site,
            service,
            service_factor: 1.0,
            busy_until: SimTime::ZERO,
            alive: true,
            started: false,
            incarnation: 0,
        });
        self.push(
            self.now,
            Some(id),
            QueuedKind::Arrive(Work::Event(NodeEvent::Start)),
        );
        id
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configuration this simulation was created with. Loss and
    /// duplication probabilities reflect any scheduled overrides that
    /// have already taken effect.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The seed this simulation was created with — print it in every
    /// assertion message so a red run reproduces byte-identically.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// Traffic counters so far.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Number of events handled so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Borrow a node's concrete state (for inspecting results after a run).
    ///
    /// Returns `None` if the node's type is not `T`.
    #[must_use]
    pub fn node_ref<T: SimNode>(&self, id: NodeId) -> Option<&T> {
        self.nodes
            .get(id.index() as usize)
            .and_then(|s| s.node.downcast_ref())
    }

    /// Mutable variant of [`Self::node_ref`].
    #[must_use]
    pub fn node_mut<T: SimNode>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes
            .get_mut(id.index() as usize)
            .and_then(|s| s.node.downcast_mut())
    }

    /// Whether a node is still running (has not been crashed).
    #[must_use]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.get(id.index() as usize).is_some_and(|s| s.alive)
    }

    /// Schedules a crash: the node stops processing and all packets to or
    /// from it are dropped (crash-stop, the paper's failure model).
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.push(at, None, QueuedKind::Control(Control::Crash(node)));
    }

    /// Schedules a cold restart of a crashed node. Volatile state is
    /// discarded through [`SimNode::on_restart`], timers and CPU work
    /// from the previous incarnation are invalidated, and a fresh
    /// [`NodeEvent::Start`] is delivered at `at`. A restart scheduled for
    /// a node that is still alive is a no-op.
    pub fn schedule_restart(&mut self, at: SimTime, node: NodeId) {
        self.push(at, None, QueuedKind::Control(Control::Restart(node)));
    }

    /// Schedules a network partition. Nodes in different cells cannot
    /// exchange packets until [`Self::schedule_heal`] takes effect.
    pub fn schedule_partition(&mut self, at: SimTime, cells: Vec<Vec<NodeId>>) {
        self.push(at, None, QueuedKind::Control(Control::Partition(cells)));
    }

    /// Schedules the removal of any active partition.
    pub fn schedule_heal(&mut self, at: SimTime) {
        self.push(at, None, QueuedKind::Control(Control::Heal));
    }

    /// Schedules a change of the network-wide drop probability. Schedule a
    /// raised value followed by a restore to model a loss burst.
    pub fn schedule_set_drop(&mut self, at: SimTime, probability: f64) {
        self.push(at, None, QueuedKind::Control(Control::SetDrop(probability)));
    }

    /// Schedules a change of the network-wide duplication probability
    /// (a duplication window when paired with a later restore).
    pub fn schedule_set_duplicate(&mut self, at: SimTime, probability: f64) {
        self.push(
            at,
            None,
            QueuedKind::Control(Control::SetDuplicate(probability)),
        );
    }

    /// Schedules a delay spike: from `at` on, every non-loopback packet
    /// takes `extra` additional one-way latency. Schedule a second call
    /// with `Duration::ZERO` to end the spike.
    pub fn schedule_set_extra_delay(&mut self, at: SimTime, extra: Duration) {
        self.push(at, None, QueuedKind::Control(Control::SetExtraDelay(extra)));
    }

    /// Schedules a change of the packet reordering window: from `at` on,
    /// every non-loopback packet gets extra one-way latency drawn
    /// uniformly from `[0, window]`, which permutes arrival order without
    /// losing or duplicating anything. Schedule a second call with
    /// `Duration::ZERO` to end the scramble.
    pub fn schedule_set_reorder(&mut self, at: SimTime, window: Duration) {
        self.push(at, None, QueuedKind::Control(Control::SetReorder(window)));
    }

    /// Schedules a network-wide bandwidth override: from `at` on,
    /// `Some(bytes_per_sec)` caps every non-loopback link (frames
    /// serialize FIFO per directed link before their latency starts);
    /// `None` restores the configured [`BandwidthMatrix`].
    pub fn schedule_set_bandwidth(&mut self, at: SimTime, bytes_per_sec: Option<u64>) {
        self.push(
            at,
            None,
            QueuedKind::Control(Control::SetBandwidth(bytes_per_sec)),
        );
    }

    /// Schedules a CPU service-cost scaling: from `at` on, every cost in
    /// the targeted node's [`ServiceProfile`] is multiplied by `factor`
    /// (`None` targets every node). Pair a factor above 1 with a later
    /// `1.0` restore to model an overload or slow-member window.
    pub fn schedule_set_service_factor(&mut self, at: SimTime, node: Option<NodeId>, factor: f64) {
        self.push(
            at,
            None,
            QueuedKind::Control(Control::SetServiceFactor(node, factor)),
        );
    }

    /// Schedules `f` to run on `node` at virtual time `at` (which must
    /// not be in the past): the way test harnesses script an
    /// application's calls into the node.
    ///
    /// The call waits for the node's CPU like any arrival and is billed
    /// as a timer event ([`ServiceProfile::per_timer`] × the node's
    /// service factor), since it stands in for an application acting on
    /// its own timer. It reaches whichever incarnation of the node is
    /// alive at `at`, and is dropped, unrun, if the node is dead. Actions
    /// `f` queues into the outbox take effect as a handler's do.
    pub fn schedule_call<F>(&mut self, at: SimTime, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn SimNode, SimTime, &mut Outbox) + Send + 'static,
    {
        assert!(at >= self.now, "cannot schedule into the past");
        self.push(at, Some(node), QueuedKind::Arrive(Work::Call(Box::new(f))));
    }

    /// Runs until the queue is exhausted. Panics after `u64::MAX` events —
    /// use [`Self::run_until`] for workloads with periodic timers.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Runs until virtual time reaches `deadline` (or the queue empties).
    /// Events at exactly `deadline` are processed.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.at <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        self.now = self.now.max(deadline);
    }

    /// Runs for `d` of virtual time from the current instant.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Processes a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.events_processed += 1;
        match ev.kind {
            QueuedKind::Control(c) => self.apply_control(c),
            QueuedKind::Arrive(work) => {
                let Some(target) = ev.target else {
                    return true;
                };
                if self.incarnation_live(target, ev.incarnation) {
                    self.on_arrival(target, work);
                }
            }
            QueuedKind::Handle(work) => {
                let Some(target) = ev.target else {
                    return true;
                };
                if self.incarnation_live(target, ev.incarnation) {
                    self.dispatch(target, work);
                }
            }
        }
        true
    }

    /// Whether an event stamped with `incarnation` may still reach
    /// `target`: either it carries the wildcard stamp or the node has not
    /// been restarted since the stamp was taken.
    fn incarnation_live(&self, target: NodeId, incarnation: u64) -> bool {
        incarnation == ANY_INCARNATION
            || self
                .nodes
                .get(target.index() as usize)
                .is_some_and(|s| s.incarnation == incarnation)
    }

    fn apply_control(&mut self, c: Control) {
        match c {
            Control::Crash(id) => {
                if let Some(slot) = self.nodes.get_mut(id.index() as usize) {
                    slot.alive = false;
                }
            }
            Control::Restart(id) => {
                let now = self.now;
                if let Some(slot) = self.nodes.get_mut(id.index() as usize) {
                    if !slot.alive {
                        slot.alive = true;
                        slot.started = false;
                        slot.busy_until = now;
                        slot.incarnation += 1;
                        slot.node.on_restart(now);
                        self.push(
                            now,
                            Some(id),
                            QueuedKind::Arrive(Work::Event(NodeEvent::Start)),
                        );
                    }
                }
            }
            Control::Partition(cells) => self.partition = Some(cells),
            Control::Heal => self.partition = None,
            Control::SetDrop(p) => self.cfg.drop_probability = p,
            Control::SetDuplicate(p) => self.cfg.duplicate_probability = p,
            Control::SetExtraDelay(d) => self.extra_delay = d,
            Control::SetReorder(w) => self.cfg.reorder_window = w,
            Control::SetBandwidth(bps) => self.bandwidth_override = bps,
            Control::SetServiceFactor(target, factor) => {
                let factor = if factor.is_finite() && factor > 0.0 {
                    factor
                } else {
                    1.0
                };
                match target {
                    Some(id) => {
                        if let Some(slot) = self.nodes.get_mut(id.index() as usize) {
                            slot.service_factor = factor;
                        }
                    }
                    None => {
                        for slot in &mut self.nodes {
                            slot.service_factor = factor;
                        }
                    }
                }
            }
        }
    }

    /// Work has arrived at `target`; queue it behind the node's CPU.
    fn on_arrival(&mut self, target: NodeId, work: Work) {
        let Some(slot) = self.nodes.get_mut(target.index() as usize) else {
            return;
        };
        let is_packet = matches!(work, Work::Event(NodeEvent::Packet(_)));
        if !slot.alive {
            if is_packet {
                self.stats.packets_dropped += 1;
            }
            return;
        }
        // Fired timers that were cancelled while queued are discarded here,
        // before they consume CPU.
        if let Work::Event(NodeEvent::Timer(id, _)) = &work {
            if self.cancelled_timers.remove(id) {
                return;
            }
        }
        let cost = match &work {
            Work::Event(NodeEvent::Packet(p)) => {
                slot.service.per_message
                    + mul_duration(slot.service.per_kib, p.payload.len() as f64 / 1024.0)
            }
            Work::Event(NodeEvent::Timer(..)) | Work::Call(_) => slot.service.per_timer,
            Work::Event(NodeEvent::Start) => Duration::ZERO,
        };
        let cost = mul_duration(cost, slot.service_factor);
        let begin = self.now.max(slot.busy_until);
        let completion = begin + cost;
        slot.busy_until = completion;
        if is_packet {
            self.stats.packets_delivered += 1;
        }
        let incarnation = slot.incarnation;
        self.push_stamped(
            completion,
            Some(target),
            QueuedKind::Handle(work),
            incarnation,
        );
    }

    /// The node's CPU has finished with this work; run the handler (or
    /// the scripted call) and apply its actions.
    fn dispatch(&mut self, target: NodeId, work: Work) {
        let idx = target.index() as usize;
        {
            let slot = &mut self.nodes[idx];
            if !slot.alive {
                return;
            }
            if let Work::Event(NodeEvent::Start) = work {
                if slot.started {
                    return;
                }
                slot.started = true;
            }
        }
        let mut out = Outbox::new(self.next_timer);
        // Temporarily take the node out so the handler can't alias the sim.
        let mut node = std::mem::replace(&mut self.nodes[idx].node, Box::new(PlaceholderNode));
        match work {
            Work::Event(event) => node.on_event(self.now, event, &mut out),
            Work::Call(f) => f(&mut *node, self.now, &mut out),
        }
        self.nodes[idx].node = node;
        self.next_timer = out.next_timer;
        self.apply_outbox(target, out);
    }

    fn apply_outbox(&mut self, src: NodeId, out: Outbox) {
        for id in out.timer_cancels {
            self.cancelled_timers.insert(id);
        }
        for (id, delay, tag) in out.timer_sets {
            // A set immediately followed by a cancel in the same outbox is
            // honoured as cancelled.
            if self.cancelled_timers.remove(&id) {
                continue;
            }
            let at = self.now + delay;
            let incarnation = self
                .nodes
                .get(src.index() as usize)
                .map_or(ANY_INCARNATION, |s| s.incarnation);
            self.push_stamped(
                at,
                Some(src),
                QueuedKind::Arrive(Work::Event(NodeEvent::Timer(id, tag))),
                incarnation,
            );
        }
        // Sends are per-member ORB invocations. Two costs, both from the
        // paper's architecture (§2.2): each invocation consumes sender
        // CPU (marshalling/dispatch — this serialises the node), and a
        // multi-member fan-out within one handler turn is a sequence of
        // *synchronous* invocations made "in turn to all the members":
        // invocation i+1 starts only after invocation i's round trip
        // completes. The fan-out runs on its own thread (the paper's
        // anti-blocking measure), so the accumulated round-trip time
        // delays only these packets, not the node's CPU.
        let per_send = self
            .nodes
            .get(src.index() as usize)
            .map_or(Duration::ZERO, |slot| {
                mul_duration(slot.service.per_send, slot.service_factor)
            });
        let src_site = self.site_of(src);
        let mut cpu_depart = self.now;
        let mut chains: std::collections::BTreeMap<u64, Duration> =
            std::collections::BTreeMap::new();
        for (dst, payload, chain_id) in out.sends {
            cpu_depart += per_send;
            let chain = chains.entry(chain_id).or_insert(Duration::ZERO);
            // Loopback delivery is in-process (the paper's m1/m6): it
            // neither waits for nor extends the invocation chain.
            let depart = if src == dst {
                cpu_depart
            } else {
                cpu_depart + *chain
            };
            if src != dst {
                // The synchronous invocation's round trip gates the next
                // member of this fan-out's chain.
                let one_way = self
                    .cfg
                    .latency
                    .sample(src_site, self.site_of(dst), &mut self.rng);
                *chain += one_way * 2;
            }
            self.transmit(src, dst, payload, depart);
        }
        if let Some(slot) = self.nodes.get_mut(src.index() as usize) {
            slot.busy_until = slot.busy_until.max(cpu_depart);
        }
    }

    fn transmit(&mut self, src: NodeId, dst: NodeId, payload: Bytes, depart: SimTime) {
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += payload.len() as u64;
        if !self.can_communicate(src, dst) {
            self.stats.packets_dropped += 1;
            return;
        }
        // Loopback delivery is in-process (the paper's m1/m6 local
        // messages): it cannot be lost, duplicated, reordered or
        // serialized by the network.
        let loopback = src == dst;
        // Bandwidth: a capped frame occupies the directed src→dst link
        // for its serialization time, FIFO behind frames already queued
        // there, before its propagation latency starts. Duplicates share
        // one serialization (the copy is made inside the network).
        let mut depart = depart;
        if !loopback {
            let cap = self
                .bandwidth_override
                .or_else(|| self.cfg.bandwidth.cap(self.site_of(src), self.site_of(dst)));
            if let Some(bytes_per_sec) = cap {
                let ser = serialization_delay(payload.len(), bytes_per_sec);
                let link = self.link_busy.entry((src, dst)).or_insert(SimTime::ZERO);
                let done = (*link).max(depart) + ser;
                *link = done;
                depart = done;
            }
        }
        if !loopback
            && self.cfg.drop_probability > 0.0
            && self.rng.gen_bool(self.cfg.drop_probability)
        {
            self.stats.packets_dropped += 1;
            return;
        }
        let copies = if !loopback
            && self.cfg.duplicate_probability > 0.0
            && self.rng.gen_bool(self.cfg.duplicate_probability)
        {
            2
        } else {
            1
        };
        for _ in 0..copies {
            let latency = if loopback {
                Duration::from_micros(1)
            } else {
                let (a, b) = (self.site_of(src), self.site_of(dst));
                let mut one_way = self.cfg.latency.sample(a, b, &mut self.rng) + self.extra_delay;
                if !self.cfg.reorder_window.is_zero() {
                    let bound = self.cfg.reorder_window.as_nanos() as u64;
                    one_way += Duration::from_nanos(self.rng.gen_range(0..=bound));
                }
                one_way
            };
            let at = depart + latency;
            let pkt = Packet {
                src,
                dst,
                payload: payload.clone(),
            };
            self.push(
                at,
                Some(dst),
                QueuedKind::Arrive(Work::Event(NodeEvent::Packet(pkt))),
            );
        }
    }

    fn can_communicate(&self, a: NodeId, b: NodeId) -> bool {
        if !self.is_alive(a) || !self.is_alive(b) {
            return false;
        }
        if a == b {
            return true;
        }
        match &self.partition {
            None => true,
            Some(cells) => cells
                .iter()
                .any(|cell| cell.contains(&a) && cell.contains(&b)),
        }
    }

    fn site_of(&self, id: NodeId) -> Site {
        self.nodes
            .get(id.index() as usize)
            .map_or(Site::Lan, |s| s.site)
    }

    fn push(&mut self, at: SimTime, target: Option<NodeId>, kind: QueuedKind) {
        self.push_stamped(at, target, kind, ANY_INCARNATION);
    }

    fn push_stamped(
        &mut self,
        at: SimTime,
        target: Option<NodeId>,
        kind: QueuedKind,
        incarnation: u64,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(QueuedEvent {
            at,
            seq,
            target,
            kind,
            incarnation,
        }));
    }
}

/// Stand-in used while a node's handler runs; never receives events.
struct PlaceholderNode;
impl SimNode for PlaceholderNode {
    fn on_event(&mut self, _: SimTime, _: NodeEvent, _: &mut Outbox) {
        unreachable!("placeholder node must never be dispatched");
    }
}

fn mul_duration(d: Duration, factor: f64) -> Duration {
    Duration::from_nanos((d.as_nanos() as f64 * factor) as u64)
}

/// Time a frame of `bytes` payload occupies a `bytes_per_sec` link.
fn serialization_delay(bytes: usize, bytes_per_sec: u64) -> Duration {
    if bytes_per_sec == 0 {
        return Duration::ZERO;
    }
    let nanos = (bytes as u128 * 1_000_000_000).div_ceil(u128::from(bytes_per_sec));
    Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencySpec;

    /// Echoes every packet back to its sender and counts what it saw.
    struct Echo {
        seen: u32,
    }
    impl SimNode for Echo {
        fn on_event(&mut self, _now: SimTime, ev: NodeEvent, out: &mut Outbox) {
            if let NodeEvent::Packet(p) = ev {
                self.seen += 1;
                out.send(p.src, p.payload);
            }
        }
    }

    /// Sends `n` packets to a peer at start, counts replies, records when
    /// the first and last replies arrived.
    struct Pinger {
        peer: NodeId,
        n: u32,
        replies: u32,
        first_at: SimTime,
        last_at: SimTime,
    }
    impl SimNode for Pinger {
        fn on_event(&mut self, now: SimTime, ev: NodeEvent, out: &mut Outbox) {
            match ev {
                NodeEvent::Start => {
                    for _ in 0..self.n {
                        out.send(self.peer, Bytes::from_static(b"hi"));
                    }
                }
                NodeEvent::Packet(_) => {
                    self.replies += 1;
                    if self.first_at == SimTime::ZERO {
                        self.first_at = now;
                    }
                    self.last_at = now;
                }
                NodeEvent::Timer(..) => {}
            }
        }
    }

    fn two_node_sim(cfg: SimConfig, n: u32) -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(cfg);
        let echo = sim.add_node(Site::Lan, Box::new(Echo { seen: 0 }));
        let pinger = sim.add_node(
            Site::Lan,
            Box::new(Pinger {
                peer: echo,
                n,
                replies: 0,
                first_at: SimTime::ZERO,
                last_at: SimTime::ZERO,
            }),
        );
        (sim, echo, pinger)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut sim, echo, pinger) = two_node_sim(SimConfig::default(), 3);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Echo>(echo).unwrap().seen, 3);
        assert_eq!(sim.node_ref::<Pinger>(pinger).unwrap().replies, 3);
        assert!(sim.now() > SimTime::ZERO);
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        let run = |seed, n| {
            let (mut sim, _, pinger) = two_node_sim(SimConfig::lan(seed), n);
            sim.run_until_idle();
            let p = sim.node_ref::<Pinger>(pinger).unwrap();
            (sim.now(), sim.stats(), p.first_at, p.last_at)
        };
        assert_eq!(run(42, 10), run(42, 10));
        // Different seeds draw different latency jitter, visible in a
        // single latency-bound round trip.
        assert_ne!(run(42, 1).2, run(43, 1).2);
    }

    #[test]
    fn cpu_queueing_serialises_a_node() {
        // With per-message cost C and N simultaneous arrivals, the node's
        // last completion must be at least N*C after the first arrival.
        let cfg = SimConfig {
            latency: LatencyMatrix::uniform(
                LatencySpec::constant(Duration::from_micros(100)),
                LatencySpec::constant(Duration::from_micros(100)),
            ),
            default_service: ServiceProfile {
                per_message: Duration::from_millis(1),
                per_kib: Duration::ZERO,
                per_timer: Duration::ZERO,
                per_send: Duration::ZERO,
            },
            ..SimConfig::default()
        };
        let (mut sim, _, pinger) = two_node_sim(cfg, 5);
        sim.run_until_idle();
        let p = sim.node_ref::<Pinger>(pinger).unwrap();
        assert_eq!(p.replies, 5);
        // 5 pings queue at the echo node: its CPU serialises them (last
        // reply leaves at 5.1 ms), then the pinger spends 1 ms handling it:
        // last completion at 6.2 ms. Without CPU queueing it would be ~2.2 ms.
        assert!(
            p.last_at >= SimTime::from_micros(6_200),
            "last reply at {}",
            p.last_at
        );
    }

    #[test]
    fn service_factor_scales_cpu_costs_and_restores() {
        // Same CPU-queueing setup as above, but the echo node runs 4×
        // slower during the window: 5 pings serialise at 4 ms each.
        let cfg = SimConfig {
            latency: LatencyMatrix::uniform(
                LatencySpec::constant(Duration::from_micros(100)),
                LatencySpec::constant(Duration::from_micros(100)),
            ),
            default_service: ServiceProfile {
                per_message: Duration::from_millis(1),
                per_kib: Duration::ZERO,
                per_timer: Duration::ZERO,
                per_send: Duration::ZERO,
            },
            ..SimConfig::default()
        };
        let (mut sim, echo, pinger) = two_node_sim(cfg.clone(), 5);
        sim.schedule_set_service_factor(SimTime::ZERO, Some(echo), 4.0);
        sim.run_until_idle();
        let slow = sim.node_ref::<Pinger>(pinger).unwrap();
        assert_eq!(slow.replies, 5);
        // 5 pings × 4 ms at the echo node plus the pinger's 1 ms handler.
        assert!(
            slow.last_at >= SimTime::from_micros(21_200),
            "last reply at {}",
            slow.last_at
        );

        // A restore to 1.0 before traffic leaves timings nominal.
        let (mut sim, echo, pinger) = two_node_sim(cfg, 5);
        sim.schedule_set_service_factor(SimTime::ZERO, Some(echo), 4.0);
        sim.schedule_set_service_factor(SimTime::ZERO, None, 1.0);
        sim.run_until_idle();
        let nominal = sim.node_ref::<Pinger>(pinger).unwrap();
        assert!(
            nominal.last_at < SimTime::from_micros(21_200),
            "last reply at {}",
            nominal.last_at
        );
    }

    #[test]
    fn drop_probability_loses_packets() {
        let cfg = SimConfig {
            drop_probability: 1.0,
            ..SimConfig::default()
        };
        let (mut sim, echo, _) = two_node_sim(cfg, 5);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Echo>(echo).unwrap().seen, 0);
        assert_eq!(sim.stats().packets_dropped, 5);
    }

    #[test]
    fn duplicates_deliver_twice() {
        let cfg = SimConfig {
            duplicate_probability: 1.0,
            ..SimConfig::default()
        };
        let (mut sim, echo, _) = two_node_sim(cfg, 4);
        sim.run_until_idle();
        // Echo sees duplicated pings, and its replies are duplicated too.
        assert_eq!(sim.node_ref::<Echo>(echo).unwrap().seen, 8);
    }

    #[test]
    fn scheduled_drop_burst_starts_and_ends() {
        // A 100 % drop window that opens after the first ping and closes
        // before the last: only the pings inside the window vanish.
        struct Ticker {
            peer: NodeId,
            left: u32,
        }
        impl SimNode for Ticker {
            fn on_event(&mut self, _now: SimTime, ev: NodeEvent, out: &mut Outbox) {
                match ev {
                    NodeEvent::Start | NodeEvent::Timer(..) => {
                        if self.left > 0 {
                            self.left -= 1;
                            out.send(self.peer, Bytes::from_static(b"t"));
                            out.set_timer(Duration::from_millis(10), 0);
                        }
                    }
                    NodeEvent::Packet(_) => {}
                }
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let echo = sim.add_node(Site::Lan, Box::new(Echo { seen: 0 }));
        sim.add_node(
            Site::Lan,
            Box::new(Ticker {
                peer: echo,
                left: 10,
            }),
        );
        // Ticks at 0,10,..,90 ms; window [15ms, 55ms) swallows 4 of them.
        sim.schedule_set_drop(SimTime::from_millis(15), 1.0);
        sim.schedule_set_drop(SimTime::from_millis(55), 0.0);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Echo>(echo).unwrap().seen, 6);
    }

    #[test]
    fn scheduled_duplicate_window_doubles_delivery() {
        let (mut sim, echo, _) = two_node_sim(SimConfig::default(), 4);
        sim.schedule_set_duplicate(SimTime::ZERO, 1.0);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Echo>(echo).unwrap().seen, 8);
    }

    #[test]
    fn scheduled_delay_spike_slows_packets_then_clears() {
        let rtt = |spike: bool| {
            let (mut sim, _, pinger) = two_node_sim(SimConfig::lan(5), 1);
            if spike {
                sim.schedule_set_extra_delay(SimTime::ZERO, Duration::from_millis(50));
            }
            sim.run_until_idle();
            sim.node_ref::<Pinger>(pinger).unwrap().last_at
        };
        let plain = rtt(false);
        let spiked = rtt(true);
        assert!(
            spiked >= plain + Duration::from_millis(100),
            "spike adds 50ms each way: plain {plain}, spiked {spiked}"
        );
    }

    #[test]
    fn crashed_nodes_stop_communicating() {
        let (mut sim, echo, pinger) = two_node_sim(SimConfig::default(), 1);
        sim.schedule_crash(SimTime::ZERO, echo);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Pinger>(pinger).unwrap().replies, 0);
        assert!(!sim.is_alive(echo));
        assert!(sim.is_alive(pinger));
    }

    #[test]
    fn restart_redelivers_start_and_discards_old_timers() {
        /// Counts its `Start`s; arms a long timer on every start whose
        /// firing is recorded. After a crash+restart the first
        /// incarnation's timer must never fire, the second's must.
        struct Phoenix {
            starts: u32,
            restarts: u32,
            fired: Vec<u64>,
        }
        impl SimNode for Phoenix {
            fn on_event(&mut self, _now: SimTime, ev: NodeEvent, out: &mut Outbox) {
                match ev {
                    NodeEvent::Start => {
                        self.starts += 1;
                        // Tag collides across incarnations on purpose:
                        // a rebuilt state machine reuses its tag space.
                        out.set_timer(Duration::from_millis(300), u64::from(self.starts));
                    }
                    NodeEvent::Timer(_, tag) => self.fired.push(tag),
                    NodeEvent::Packet(_) => {}
                }
            }
            fn on_restart(&mut self, _now: SimTime) {
                self.restarts += 1;
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let id = sim.add_node(
            Site::Lan,
            Box::new(Phoenix {
                starts: 0,
                restarts: 0,
                fired: Vec::new(),
            }),
        );
        sim.schedule_crash(SimTime::from_millis(100), id);
        sim.schedule_restart(SimTime::from_millis(200), id);
        sim.run_until(SimTime::from_millis(1000));
        assert!(sim.is_alive(id));
        let p = sim.node_ref::<Phoenix>(id).unwrap();
        assert_eq!(p.starts, 2, "restart must re-deliver Start exactly once");
        assert_eq!(p.restarts, 1);
        // The 300 ms timer armed at t=0 (tag 1) would fire at 300 ms —
        // after the restart — and must be suppressed; the one armed at
        // the restart (tag 2) fires at 500 ms.
        assert_eq!(p.fired, vec![2]);
    }

    #[test]
    fn restart_of_a_live_node_is_a_no_op() {
        let (mut sim, echo, pinger) = two_node_sim(SimConfig::default(), 2);
        sim.schedule_restart(SimTime::from_millis(1), echo);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Echo>(echo).unwrap().seen, 2);
        assert_eq!(sim.node_ref::<Pinger>(pinger).unwrap().replies, 2);
    }

    #[test]
    fn restarted_node_communicates_again() {
        let mut sim = Sim::new(SimConfig::default());
        let echo = sim.add_node(Site::Lan, Box::new(Echo { seen: 0 }));
        struct LatePinger {
            peer: NodeId,
            replies: u32,
        }
        impl SimNode for LatePinger {
            fn on_event(&mut self, _now: SimTime, ev: NodeEvent, out: &mut Outbox) {
                match ev {
                    NodeEvent::Start => {
                        out.set_timer(Duration::from_millis(500), 0);
                    }
                    NodeEvent::Timer(..) => out.send(self.peer, Bytes::from_static(b"hi")),
                    NodeEvent::Packet(_) => self.replies += 1,
                }
            }
        }
        let pinger = sim.add_node(
            Site::Lan,
            Box::new(LatePinger {
                peer: echo,
                replies: 0,
            }),
        );
        sim.schedule_crash(SimTime::from_millis(100), echo);
        sim.schedule_restart(SimTime::from_millis(300), echo);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node_ref::<LatePinger>(pinger).unwrap().replies, 1);
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        struct PeriodicSender {
            peer: NodeId,
        }
        impl SimNode for PeriodicSender {
            fn on_event(&mut self, _now: SimTime, ev: NodeEvent, out: &mut Outbox) {
                match ev {
                    NodeEvent::Start | NodeEvent::Timer(..) => {
                        out.send(self.peer, Bytes::from_static(b"tick"));
                        out.set_timer(Duration::from_millis(10), 0);
                    }
                    NodeEvent::Packet(_) => {}
                }
            }
        }
        struct Counter {
            seen: u32,
        }
        impl SimNode for Counter {
            fn on_event(&mut self, _now: SimTime, ev: NodeEvent, _out: &mut Outbox) {
                if let NodeEvent::Packet(_) = ev {
                    self.seen += 1;
                }
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let counter = sim.add_node(Site::Lan, Box::new(Counter { seen: 0 }));
        let sender = sim.add_node(Site::Lan, Box::new(PeriodicSender { peer: counter }));
        sim.schedule_partition(SimTime::ZERO, vec![vec![sender], vec![counter]]);
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.node_ref::<Counter>(counter).unwrap().seen, 0);
        sim.schedule_heal(SimTime::from_millis(100));
        sim.run_until(SimTime::from_millis(200));
        assert!(sim.node_ref::<Counter>(counter).unwrap().seen > 5);
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        struct TimerUser {
            fired: Vec<u64>,
        }
        impl SimNode for TimerUser {
            fn on_event(&mut self, _now: SimTime, ev: NodeEvent, out: &mut Outbox) {
                match ev {
                    NodeEvent::Start => {
                        out.set_timer(Duration::from_millis(3), 3);
                        out.set_timer(Duration::from_millis(1), 1);
                        let victim = out.set_timer(Duration::from_millis(2), 2);
                        out.cancel_timer(victim);
                    }
                    NodeEvent::Timer(_, tag) => self.fired.push(tag),
                    NodeEvent::Packet(_) => {}
                }
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let id = sim.add_node(Site::Lan, Box::new(TimerUser { fired: Vec::new() }));
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<TimerUser>(id).unwrap().fired, vec![1, 3]);
    }

    #[test]
    fn cancel_after_set_from_later_event_still_works() {
        struct LateCancel {
            timer: Option<TimerId>,
            fired: u32,
        }
        impl SimNode for LateCancel {
            fn on_event(&mut self, _now: SimTime, ev: NodeEvent, out: &mut Outbox) {
                match ev {
                    NodeEvent::Start => {
                        self.timer = Some(out.set_timer(Duration::from_millis(50), 9));
                        out.set_timer(Duration::from_millis(1), 0);
                    }
                    NodeEvent::Timer(_, 0) => {
                        if let Some(t) = self.timer.take() {
                            out.cancel_timer(t);
                        }
                    }
                    NodeEvent::Timer(_, _) => self.fired += 1,
                    NodeEvent::Packet(_) => {}
                }
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let id = sim.add_node(
            Site::Lan,
            Box::new(LateCancel {
                timer: None,
                fired: 0,
            }),
        );
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<LateCancel>(id).unwrap().fired, 0);
    }

    /// Records when its packets were handled, when scheduled calls ran
    /// on it, and how many times it started.
    #[derive(Default)]
    struct CallLog {
        starts: u32,
        packets: Vec<SimTime>,
        calls: Vec<(SimTime, u32)>,
    }
    impl SimNode for CallLog {
        fn on_event(&mut self, now: SimTime, ev: NodeEvent, _out: &mut Outbox) {
            match ev {
                NodeEvent::Start => self.starts += 1,
                NodeEvent::Packet(_) => self.packets.push(now),
                NodeEvent::Timer(..) => {}
            }
        }
    }

    fn log_call(node: &mut dyn SimNode, now: SimTime, _out: &mut Outbox) {
        let log = node.downcast_mut::<CallLog>().expect("a CallLog node");
        log.calls.push((now, log.starts));
    }

    #[test]
    fn a_call_scheduled_for_a_dead_node_is_dropped() {
        let mut sim = Sim::new(SimConfig::default());
        let id = sim.add_node(Site::Lan, Box::new(CallLog::default()));
        let ran = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&ran);
        sim.schedule_crash(SimTime::from_millis(10), id);
        sim.schedule_call(SimTime::from_millis(20), id, move |_, _, _| {
            flag.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        sim.run_until(SimTime::from_millis(100));
        assert!(!ran.load(std::sync::atomic::Ordering::SeqCst));
        assert!(sim.node_ref::<CallLog>(id).unwrap().calls.is_empty());
        assert_eq!(sim.stats(), NetStats::default(), "a call is not traffic");
    }

    #[test]
    fn a_call_after_a_restart_reaches_the_new_incarnation() {
        let mut sim = Sim::new(SimConfig::default());
        let id = sim.add_node(Site::Lan, Box::new(CallLog::default()));
        sim.schedule_crash(SimTime::from_millis(100), id);
        sim.schedule_restart(SimTime::from_millis(200), id);
        sim.schedule_call(SimTime::from_millis(300), id, log_call);
        sim.run_until(SimTime::from_millis(1000));
        let log = sim.node_ref::<CallLog>(id).unwrap();
        let per_timer = SimConfig::default().default_service.per_timer;
        assert_eq!(
            log.calls,
            vec![(SimTime::from_millis(300) + per_timer, 2)],
            "the call ran once, on the second incarnation"
        );
    }

    #[test]
    fn a_call_is_billed_per_timer_times_the_service_factor() {
        // A packet lands on the receiver at the instant a call is due.
        // The call queues first and holds the CPU for per_timer × 3; the
        // packet then takes per_message × 3 of its own.
        let cfg = SimConfig {
            latency: LatencyMatrix::uniform(
                LatencySpec::constant(Duration::from_micros(100)),
                LatencySpec::constant(Duration::from_micros(100)),
            ),
            default_service: ServiceProfile {
                per_message: Duration::from_millis(2),
                per_kib: Duration::ZERO,
                per_timer: Duration::from_millis(1),
                per_send: Duration::ZERO,
            },
            ..SimConfig::default()
        };
        let mut sim = Sim::new(cfg);
        let rx = sim.add_node(Site::Lan, Box::new(CallLog::default()));
        sim.add_node(
            Site::Lan,
            Box::new(Pinger {
                peer: rx,
                n: 1,
                replies: 0,
                first_at: SimTime::ZERO,
                last_at: SimTime::ZERO,
            }),
        );
        sim.schedule_set_service_factor(SimTime::ZERO, Some(rx), 3.0);
        let arrival = SimTime::from_micros(100);
        sim.schedule_call(arrival, rx, log_call);
        sim.run_until_idle();
        let log = sim.node_ref::<CallLog>(rx).unwrap();
        let call_done = arrival + Duration::from_millis(3);
        assert_eq!(log.calls, vec![(call_done, 1)]);
        assert_eq!(log.packets, vec![call_done + Duration::from_millis(6)]);
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut sim = Sim::new(SimConfig::default());
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn wan_pairs_are_slower_than_lan() {
        let elapsed = |a: Site, b: Site| {
            let mut sim = Sim::new(SimConfig::internet(9));
            let echo = sim.add_node(a, Box::new(Echo { seen: 0 }));
            let pinger = sim.add_node(
                b,
                Box::new(Pinger {
                    peer: echo,
                    n: 1,
                    replies: 0,
                    first_at: SimTime::ZERO,
                    last_at: SimTime::ZERO,
                }),
            );
            sim.run_until_idle();
            sim.node_ref::<Pinger>(pinger).unwrap().last_at
        };
        let lan = elapsed(Site::Lan, Site::Lan);
        let wan = elapsed(Site::Newcastle, Site::Pisa);
        assert!(wan > lan, "wan {wan} should exceed lan {lan}");
        assert!(wan >= SimTime::from_millis(13), "wan rtt was {wan}");
    }

    /// Emits one-byte sequence numbers on a fixed tick; the receiver
    /// records the order they arrive in.
    struct SeqSender {
        peer: NodeId,
        next: u8,
        count: u8,
        gap: Duration,
    }
    impl SimNode for SeqSender {
        fn on_event(&mut self, _now: SimTime, ev: NodeEvent, out: &mut Outbox) {
            match ev {
                NodeEvent::Start | NodeEvent::Timer(..) => {
                    if self.next < self.count {
                        out.send(self.peer, Bytes::copy_from_slice(&[self.next]));
                        self.next += 1;
                        out.set_timer(self.gap, 0);
                    }
                }
                NodeEvent::Packet(_) => {}
            }
        }
    }
    struct SeqRecorder {
        order: Vec<u8>,
    }
    impl SimNode for SeqRecorder {
        fn on_event(&mut self, _now: SimTime, ev: NodeEvent, _out: &mut Outbox) {
            if let NodeEvent::Packet(p) = ev {
                self.order.push(p.payload[0]);
            }
        }
    }

    fn seq_run(cfg: SimConfig, count: u8, gap: Duration) -> Vec<u8> {
        let mut sim = Sim::new(cfg);
        let rec = sim.add_node_with_service(
            Site::Lan,
            ServiceProfile::free(),
            Box::new(SeqRecorder { order: Vec::new() }),
        );
        sim.add_node_with_service(
            Site::Lan,
            ServiceProfile::free(),
            Box::new(SeqSender {
                peer: rec,
                next: 0,
                count,
                gap,
            }),
        );
        sim.run_until_idle();
        sim.node_ref::<SeqRecorder>(rec).unwrap().order.clone()
    }

    #[test]
    fn reorder_window_permutes_without_loss_or_duplication() {
        let base = SimConfig {
            latency: LatencyMatrix::uniform(
                LatencySpec::constant(Duration::from_micros(100)),
                LatencySpec::constant(Duration::from_micros(100)),
            ),
            ..SimConfig::lan(11)
        };
        let plain = seq_run(base.clone(), 40, Duration::from_millis(1));
        assert_eq!(plain, (0..40).collect::<Vec<u8>>());

        let scrambled = seq_run(
            SimConfig {
                reorder_window: Duration::from_millis(20),
                ..base
            },
            40,
            Duration::from_millis(1),
        );
        // Same multiset of packets — nothing lost, nothing duplicated —
        // but a 20 ms window over 1 ms send gaps must permute the order.
        let mut sorted = scrambled.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<u8>>());
        assert_ne!(scrambled, sorted, "window should scramble arrival order");
    }

    #[test]
    fn scheduled_reorder_window_opens_and_closes() {
        // Scramble only [5ms, 25ms): ticks outside the window stay in
        // order, so the tail of the sequence must arrive sorted.
        let cfg = SimConfig {
            latency: LatencyMatrix::uniform(
                LatencySpec::constant(Duration::from_micros(100)),
                LatencySpec::constant(Duration::from_micros(100)),
            ),
            ..SimConfig::lan(3)
        };
        let mut sim = Sim::new(cfg);
        let rec = sim.add_node_with_service(
            Site::Lan,
            ServiceProfile::free(),
            Box::new(SeqRecorder { order: Vec::new() }),
        );
        sim.add_node_with_service(
            Site::Lan,
            ServiceProfile::free(),
            Box::new(SeqSender {
                peer: rec,
                next: 0,
                count: 60,
                gap: Duration::from_millis(1),
            }),
        );
        sim.schedule_set_reorder(SimTime::from_millis(5), Duration::from_millis(10));
        sim.schedule_set_reorder(SimTime::from_millis(25), Duration::ZERO);
        sim.run_until_idle();
        let order = sim.node_ref::<SeqRecorder>(rec).unwrap().order.clone();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..60).collect::<Vec<u8>>());
        // Ticks from 40 ms on left after the window closed and after every
        // scrambled packet's worst-case arrival; they arrive in order.
        let tail: Vec<u8> = order.iter().copied().filter(|&b| b >= 40).collect();
        assert_eq!(tail, (40..60).collect::<Vec<u8>>());
    }

    #[test]
    fn bandwidth_cap_serialises_frames_fifo_per_link() {
        // 8 KiB-sized frames sent back-to-back over a 1 MiB/s link take
        // ~8 ms each to serialize: the last of 4 arrives after ~32 ms.
        // Uncapped, all four arrive within the constant latency.
        let last_arrival = |bandwidth: BandwidthMatrix| {
            let cfg = SimConfig {
                latency: LatencyMatrix::uniform(
                    LatencySpec::constant(Duration::from_micros(100)),
                    LatencySpec::constant(Duration::from_micros(100)),
                ),
                default_service: ServiceProfile::free(),
                bandwidth,
                ..SimConfig::default()
            };
            let mut sim = Sim::new(cfg);
            let rec = sim.add_node(Site::Lan, Box::new(SeqRecorder { order: Vec::new() }));
            struct Burst {
                peer: NodeId,
            }
            impl SimNode for Burst {
                fn on_event(&mut self, _now: SimTime, ev: NodeEvent, out: &mut Outbox) {
                    if let NodeEvent::Start = ev {
                        for i in 0..4u8 {
                            out.send(self.peer, Bytes::from(vec![i; 8 * 1024]));
                        }
                    }
                }
            }
            sim.add_node(Site::Lan, Box::new(Burst { peer: rec }));
            sim.run_until_idle();
            assert_eq!(sim.node_ref::<SeqRecorder>(rec).unwrap().order.len(), 4);
            sim.now()
        };
        let mut capped = BandwidthMatrix::unlimited();
        capped.set_local(1024 * 1024);
        let slow = last_arrival(capped);
        let fast = last_arrival(BandwidthMatrix::unlimited());
        assert!(fast < SimTime::from_millis(1), "uncapped run took {fast}");
        assert!(
            slow >= SimTime::from_millis(31),
            "capped run finished at {slow}"
        );
    }

    #[test]
    fn scheduled_bandwidth_override_applies_and_clears() {
        // Throttle the whole network to 64 KiB/s for [0, 40ms): a 8 KiB
        // frame takes 125 ms to serialize — but the link frees again
        // after the override clears, so a frame sent at 200 ms flows at
        // full speed.
        let cfg = SimConfig {
            latency: LatencyMatrix::uniform(
                LatencySpec::constant(Duration::from_micros(100)),
                LatencySpec::constant(Duration::from_micros(100)),
            ),
            default_service: ServiceProfile::free(),
            ..SimConfig::default()
        };
        let mut sim = Sim::new(cfg);
        let rec = sim.add_node(Site::Lan, Box::new(SeqRecorder { order: Vec::new() }));
        struct TwoFrames {
            peer: NodeId,
        }
        impl SimNode for TwoFrames {
            fn on_event(&mut self, _now: SimTime, ev: NodeEvent, out: &mut Outbox) {
                match ev {
                    NodeEvent::Start => {
                        out.send(self.peer, Bytes::from(vec![0u8; 8 * 1024]));
                        out.set_timer(Duration::from_millis(200), 0);
                    }
                    NodeEvent::Timer(..) => {
                        out.send(self.peer, Bytes::from(vec![1u8; 8 * 1024]));
                    }
                    NodeEvent::Packet(_) => {}
                }
            }
        }
        sim.add_node(Site::Lan, Box::new(TwoFrames { peer: rec }));
        sim.schedule_set_bandwidth(SimTime::ZERO, Some(64 * 1024));
        sim.schedule_set_bandwidth(SimTime::from_millis(40), None);
        sim.run_until_idle();
        // Frame 0 serialized at 64 KiB/s: arrives ~125 ms. Frame 1 left
        // after the restore: arrives ~200.1 ms, well before 125+125.
        assert!(
            sim.now() < SimTime::from_millis(210),
            "second frame should be uncapped, run ended at {}",
            sim.now()
        );
        assert_eq!(sim.node_ref::<SeqRecorder>(rec).unwrap().order, vec![0, 1]);
    }
}
