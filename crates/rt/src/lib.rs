//! Threaded runtime for the NewTop service object.
//!
//! The [`Nso`] is a sans-IO state machine; this crate hosts one per
//! thread with wall-clock timers and a real transport (the in-process
//! [`newtop_net::channel::ChannelNetwork`] or framed TCP via
//! [`newtop_net::tcp::TcpEndpoint`]), so the runnable examples are
//! genuinely concurrent programs rather than simulations.
//!
//! Each node runs one thread, its event loop (`nso-{node}`). The loop is
//! the only consumer of two bounded queues: the transport's inbox, whose
//! packets it feeds to [`Nso::on_packet`] in arrival order, and its
//! command queue ([`NodeHandle::with_nso`]). A push to either rings one
//! [`Doorbell`], so the loop blocks in one place until work arrives or
//! its next timer is due, rather than polling. Each turn fires the due
//! timers and takes at most one command and one packet, so a burst on
//! one queue does not hold up the other. Whenever both queues are empty,
//! the loop first runs the NSO's idle work ([`Nso::on_idle`]): it sends
//! held sequencer order records and announces the node's clock in
//! symmetric groups that wait on it. Every GCS message leaves as its own
//! frame during the event that produced it.
//!
//! A frame the node addresses to itself (a member's copy of its own
//! multicast, the paper's local message) never reaches the transport.
//! The loop feeds it to [`Nso::on_packet`] right after the entry point
//! that sent it, before it takes its next command or packet or runs the
//! idle work, as the simulator's in-process loopback does. It costs no
//! socket and no reader thread, and it cannot be shed or lost.
//!
//! Applications drive the node through a [`NodeHandle`]:
//! [`NodeHandle::with_nso`] runs a closure against the NSO inside the
//! loop (so no locking is ever needed), and [`NodeHandle::outputs`] /
//! [`NodeHandle::wait_for_output`] receive the NSO's outputs.
//!
//! ```
//! use newtop_rt::{NodeRuntime, RuntimeOptions};
//! use newtop_net::channel::ChannelNetwork;
//! use newtop_net::site::NodeId;
//!
//! let net = ChannelNetwork::new();
//! let a = NodeId::from_index(0);
//! let (transport, incoming) = net.endpoint(a);
//! let node = NodeRuntime::spawn(transport, incoming, RuntimeOptions::new());
//! let id = node.with_nso(|nso, _now, _out| nso.node());
//! assert_eq!(id, a);
//! node.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use newtop_flow::queue::{bounded, Doorbell, QueueStats, Receiver, Sender, TryRecvError};
use newtop_flow::FlowConfig;

use newtop::nso::{Nso, NsoOutput};
use newtop_net::sim::{Outbox, Packet, TimerId};
use newtop_net::site::NodeId;
use newtop_net::time::SimTime;
use newtop_net::transport::WireTransport;

/// Construction options for [`NodeRuntime::spawn`].
///
/// There is nothing to set: every node sizes its command and output
/// queues from the default [`FlowConfig::queue_capacity`], runs one
/// protocol engine and sends every GCS message as its own frame. The
/// read-only accessors below report the last two facts.
#[derive(Clone, Debug, Default)]
pub struct RuntimeOptions {}

impl RuntimeOptions {
    /// The default options (see the type docs).
    #[must_use]
    pub fn new() -> Self {
        RuntimeOptions::default()
    }

    /// Protocol engines per node. Always 1: one engine, and so one
    /// Lamport clock, serves all of a node's groups.
    #[must_use]
    pub fn shards(&self) -> usize {
        1
    }

    /// Whether send-path batching is on. Always `false`: each GCS
    /// message leaves as its own frame. Batching was removed because
    /// traced runs packed no frame with it on. The accessor stays
    /// because benchmark reports print the runtime's send posture.
    #[must_use]
    pub fn batching(&self) -> bool {
        false
    }
}

/// An application command ([`NodeHandle::with_nso`]).
type Command = Box<dyn FnOnce(&mut Nso, SimTime, &mut Outbox) + Send>;

/// A handle to a node hosted by [`NodeRuntime::spawn`].
pub struct NodeHandle {
    node: NodeId,
    /// The event loop's command queue. The handle holds its only sender,
    /// so dropping it stops the loop once the queued commands have run.
    commands: Option<Sender<Command>>,
    outputs: Receiver<NsoOutput>,
    join: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NodeHandle({})", self.node)
    }
}

impl NodeHandle {
    /// The hosted node's id.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Runs a closure against the NSO inside its event loop and returns
    /// the result. Blocks until the loop has executed it.
    ///
    /// # Panics
    ///
    /// Panics if the node's event loop has stopped.
    pub fn with_nso<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut Nso, SimTime, &mut Outbox) -> R + Send + 'static,
    {
        let (tx, rx) = bounded(1);
        let commands = self.commands.as_ref().expect("node event loop stopped");
        commands
            .send(Box::new(move |nso, now, out| {
                let _ = tx.send(f(nso, now, out));
            }))
            .expect("node event loop stopped");
        rx.recv().expect("node event loop stopped")
    }

    /// The stream of NSO outputs. The queue is bounded: if the
    /// application stops draining it, the event loop sheds the oldest
    /// unread outputs' successors rather than buffering without limit
    /// (count via [`NodeHandle::output_stats`]).
    #[must_use]
    pub fn outputs(&self) -> &Receiver<NsoOutput> {
        &self.outputs
    }

    /// Flow statistics of the output queue: sheds, peak depth, capacity.
    #[must_use]
    pub fn output_stats(&self) -> QueueStats {
        self.outputs.stats()
    }

    /// Waits until an output matching `pred` arrives (discarding
    /// non-matching outputs), or the timeout elapses.
    pub fn wait_for_output(
        &self,
        timeout: Duration,
        mut pred: impl FnMut(&NsoOutput) -> bool,
    ) -> Option<NsoOutput> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.checked_duration_since(Instant::now())?;
            match self.outputs.recv_timeout(remaining) {
                Ok(o) if pred(&o) => return Some(o),
                Ok(_) => {}
                Err(_) => return None,
            }
        }
    }

    /// Stops the event loop and joins the thread. Idempotent; also done
    /// on drop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Dropping the command queue's only sender lets the loop run the
        // commands already queued, see the disconnect and return.
        self.commands = None;
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Spawns NSO event loops on threads.
pub struct NodeRuntime;

impl NodeRuntime {
    /// Spawns a node: an NSO event loop over `transport` (which names
    /// the node via [`WireTransport::local`]), receiving packets from
    /// `incoming`. `RuntimeOptions` has nothing to set (see its docs).
    ///
    /// The node runs one thread, the event loop `nso-{node}`, which is
    /// `incoming`'s only consumer (see the crate docs). The transport may
    /// add its own (the TCP transport reads each inbound connection on
    /// one). Frames the node addresses to itself never reach `transport`.
    /// Once every sender of `incoming` is gone, the node keeps serving
    /// [`NodeHandle::with_nso`] without packets.
    pub fn spawn<T: WireTransport>(
        transport: T,
        incoming: Receiver<Packet>,
        _opts: RuntimeOptions,
    ) -> NodeHandle {
        let node = transport.local();
        let capacity = FlowConfig::default().queue_capacity;
        let (command_tx, commands) = bounded::<Command>(capacity);
        let (out_tx, out_rx) = bounded::<NsoOutput>(capacity);
        let join = std::thread::Builder::new()
            .name(format!("nso-{node}"))
            .spawn(move || event_loop(node, &transport, &commands, &incoming, &out_tx))
            .expect("failed to spawn node thread");
        NodeHandle {
            node,
            commands: Some(command_tx),
            outputs: out_rx,
            join: Some(join),
        }
    }
}

struct TimerEntry {
    deadline: Instant,
    seq: u64,
    id: TimerId,
    tag: u64,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.deadline, self.seq) == (other.deadline, other.seq)
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// The event loop's side of the NSO: the transport its outboxes go to,
/// the frames it sends itself, its timer wheel, and the application's
/// output queue.
struct Host<'a> {
    node: NodeId,
    transport: &'a dyn WireTransport,
    outputs: &'a Sender<NsoOutput>,
    /// Frames the node addressed to itself, oldest first, waiting for
    /// [`Host::drain_loopback`].
    loopback: VecDeque<Bytes>,
    start: Instant,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    cancelled: HashSet<TimerId>,
    next_outbox_timer: u64,
    timer_seq: u64,
}

impl Host<'_> {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    /// Runs one NSO entry point, then every frame it addressed to the
    /// node itself (see [`Host::drain_loopback`]).
    fn run(&mut self, nso: &mut Nso, f: impl FnOnce(&mut Nso, SimTime, &mut Outbox)) {
        self.run_step(nso, f);
        self.drain_loopback(nso);
    }

    /// Runs one NSO entry point against a fresh outbox, applies the
    /// outbox and forwards the NSO's outputs.
    fn run_step(&mut self, nso: &mut Nso, f: impl FnOnce(&mut Nso, SimTime, &mut Outbox)) {
        let mut out = Outbox::detached(self.next_outbox_timer);
        f(nso, self.now(), &mut out);
        self.apply_outbox(out);
        for o in nso.take_outputs() {
            // Never block the event loop on a slow consumer: shed instead
            // (counted in the queue's stats).
            let _ = self.outputs.try_send(o);
        }
    }

    /// Feeds the node's frames to itself through [`Nso::on_packet`],
    /// oldest first, until none is left. A frame that makes the node send
    /// to itself again appends to the same queue, so this loops rather
    /// than recurses.
    fn drain_loopback(&mut self, nso: &mut Nso) {
        while let Some(payload) = self.loopback.pop_front() {
            let pkt = Packet {
                src: self.node,
                dst: self.node,
                payload,
            };
            self.run_step(nso, |nso, now, out| nso.on_packet(&pkt, now, out));
        }
    }

    fn apply_outbox(&mut self, out: Outbox) {
        let parts = out.into_parts();
        for id in parts.timer_cancels {
            self.cancelled.insert(id);
        }
        let now = Instant::now();
        for (id, delay, tag) in parts.timer_sets {
            if self.cancelled.remove(&id) {
                continue;
            }
            self.timer_seq += 1;
            self.timers.push(Reverse(TimerEntry {
                deadline: now + delay,
                seq: self.timer_seq,
                id,
                tag,
            }));
        }
        for (dst, payload) in parts.sends {
            if dst == self.node {
                self.loopback.push_back(payload);
                continue;
            }
            // Best effort: the protocol layers handle loss via NACKs and
            // suspicion.
            let _ = self.transport.send(dst, payload);
        }
        self.next_outbox_timer = parts.next_timer;
    }

    /// Fires every timer whose deadline has passed.
    fn fire_due(&mut self, nso: &mut Nso) {
        let now = Instant::now();
        let mut due = Vec::new();
        while let Some(Reverse(head)) = self.timers.peek() {
            if head.deadline > now {
                break;
            }
            let Some(Reverse(entry)) = self.timers.pop() else {
                break;
            };
            if !self.cancelled.remove(&entry.id) {
                due.push(entry.tag);
            }
        }
        for tag in due {
            self.run(nso, |nso, now, out| nso.on_timer(tag, now, out));
        }
    }

    /// How long the loop may block: until the next timer deadline
    /// (`None` when no timer is armed: the loop waits for work alone).
    fn wait_budget(&self) -> Option<Duration> {
        self.timers
            .peek()
            .map(|Reverse(t)| t.deadline.saturating_duration_since(Instant::now()))
    }
}

/// The node's event loop, the only consumer of its command queue and
/// its transport inbox. Each turn fires the due timers, then runs at
/// most one command and one packet, so that neither queue starves the
/// other. When both are empty it first sends what the NSO holds back for
/// company ([`Nso::on_idle`]), then waits on the doorbell both queues
/// ring until the next timer deadline, so it wakes as soon as work
/// arrives and spends no CPU while there is none. A closed inbox counts
/// as empty. The loop returns once the handle has dropped the command
/// queue's sender and the queued commands have run.
fn event_loop(
    node: NodeId,
    transport: &dyn WireTransport,
    commands: &Receiver<Command>,
    inbox: &Receiver<Packet>,
    outputs: &Sender<NsoOutput>,
) {
    let bell = Doorbell::new();
    commands.set_doorbell(&bell);
    inbox.set_doorbell(&bell);
    let mut nso = Nso::new(node);
    let mut host = Host {
        node,
        transport,
        outputs,
        loopback: VecDeque::new(),
        start: Instant::now(),
        timers: BinaryHeap::new(),
        cancelled: HashSet::new(),
        next_outbox_timer: 0,
        timer_seq: 0,
    };
    loop {
        host.fire_due(&mut nso);
        let mut idle = true;
        match commands.try_recv() {
            Ok(cmd) => {
                host.run(&mut nso, cmd);
                idle = false;
            }
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => return,
        }
        if let Ok(pkt) = inbox.try_recv() {
            host.run(&mut nso, |nso, now, out| nso.on_packet(&pkt, now, out));
            idle = false;
        }
        if idle {
            host.run(&mut nso, Nso::on_idle);
            bell.wait_for_ring(host.wait_budget());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop::nso::BindOptions;
    use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId};
    use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
    use newtop_net::channel::ChannelNetwork;
    use newtop_net::transport::TransportError;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn spawn_cluster(n: usize, opts: &RuntimeOptions) -> Vec<NodeHandle> {
        let net = ChannelNetwork::new();
        (0..n)
            .map(|i| {
                let id = NodeId::from_index(i as u32);
                let (transport, rx) = net.endpoint(id);
                NodeRuntime::spawn(transport, rx, opts.clone())
            })
            .collect()
    }

    #[test]
    fn with_nso_runs_in_the_loop() {
        let nodes = spawn_cluster(1, &RuntimeOptions::new());
        let id = nodes[0].with_nso(|nso, _, _| nso.node());
        assert_eq!(id, NodeId::from_index(0));
    }

    #[test]
    fn shutdown_joins_while_a_peer_keeps_sending() {
        // A steady stream of packets never leaves the inbox empty: the
        // loop has to stop on its command queue's disconnect, not for
        // want of work.
        let net = ChannelNetwork::new();
        let me = NodeId::from_index(0);
        let (transport, incoming) = net.endpoint(me);
        let node = NodeRuntime::spawn(transport, incoming, RuntimeOptions::new());
        let (peer, _) = net.endpoint(NodeId::from_index(1));
        let stop = Arc::new(AtomicBool::new(false));
        let (sending_tx, sending_rx) = bounded(1);
        let flooder = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Junk packets: the node counts them as malformed.
                while !stop.load(Ordering::Relaxed) {
                    if peer.send(me, Bytes::from_static(b"junk")).is_ok() {
                        let _ = sending_tx.try_send(());
                    }
                    std::thread::yield_now();
                }
            })
        };
        sending_rx.recv().unwrap();
        let (done_tx, done_rx) = bounded(1);
        let stopper = std::thread::spawn(move || {
            node.shutdown();
            let _ = done_tx.send(());
        });
        let joined = done_rx.recv_timeout(Duration::from_secs(10)).is_ok();
        stop.store(true, Ordering::Relaxed);
        flooder.join().unwrap();
        assert!(joined, "shutdown did not return while a peer kept sending");
        stopper.join().unwrap();
    }

    /// A junk packet from node 1 (the node counts it as malformed).
    fn junk(to: NodeId) -> Packet {
        Packet {
            src: NodeId::from_index(1),
            dst: to,
            payload: Bytes::from_static(b"junk"),
        }
    }

    #[test]
    fn a_command_queued_behind_an_ingress_burst_still_runs() {
        const BURST: usize = 512;
        let me = NodeId::from_index(0);
        let (transport, _) = ChannelNetwork::new().endpoint(me);
        // The test's own inbox, so it can fill it and read its depth.
        let (inbox, incoming) = bounded(FlowConfig::default().queue_capacity);
        let node = Arc::new(NodeRuntime::spawn(
            transport,
            incoming,
            RuntimeOptions::new(),
        ));
        // Park the loop inside a command so the burst piles up behind it.
        let (entered_tx, entered_rx) = bounded(1);
        let (release_tx, release_rx) = bounded::<()>(1);
        let parked = {
            let node = Arc::clone(&node);
            std::thread::spawn(move || {
                node.with_nso(move |_, _, _| {
                    let _ = entered_tx.send(());
                    let _ = release_rx.recv();
                });
            })
        };
        entered_rx.recv().unwrap();
        for _ in 0..BURST {
            inbox.try_send(junk(me)).unwrap();
        }
        // Queue a command behind the burst. It reports how many packets
        // are still queued when it runs.
        let (ran_tx, ran_rx) = bounded(1);
        let queued = {
            let (node, inbox) = (Arc::clone(&node), inbox.clone());
            std::thread::spawn(move || {
                let _ = ran_tx.send(node.with_nso(move |nso, _, _| (nso.node(), inbox.len())));
            })
        };
        let commands = node.commands.as_ref().expect("the node is running");
        let deadline = Instant::now() + Duration::from_secs(10);
        while commands.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        release_tx.send(()).unwrap();
        parked.join().unwrap();
        let (id, left) = ran_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the command ran");
        assert_eq!(id, me);
        // The loop takes one packet per turn, so the command ran while
        // the burst was still queued, not after it.
        assert!(
            left >= BURST - 2,
            "the command ran only after {} of {BURST} packets",
            BURST - left
        );
        queued.join().unwrap();
    }

    /// CPU time the calling thread has used, in clock ticks, where the
    /// OS reports it.
    fn thread_cpu_ticks() -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
        // Fields 14 and 15 (utime, stime) follow the parenthesised name.
        let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i)?.parse::<u64>().ok();
        Some(ticks(11)? + ticks(12)?)
    }

    #[test]
    fn a_node_whose_inbox_has_closed_keeps_serving() {
        let me = NodeId::from_index(0);
        let (transport, _) = ChannelNetwork::new().endpoint(me);
        let (inbox, incoming) = bounded(FlowConfig::default().queue_capacity);
        let node = NodeRuntime::spawn(transport, incoming, RuntimeOptions::new());
        inbox.try_send(junk(me)).unwrap();
        // Every sender of the inbox is gone, as when a TCP endpoint is
        // shut down before its node.
        drop(inbox);
        let before = node.with_nso(|_, _, _| thread_cpu_ticks());
        std::thread::sleep(Duration::from_millis(500));
        let (id, after) = node.with_nso(|nso, _, _| (nso.node(), thread_cpu_ticks()));
        assert_eq!(id, me, "the node still runs commands");
        if let (Some(before), Some(after)) = (before, after) {
            // A loop that spun on the closed inbox would use most of a
            // CPU over the half second, about 50 ticks at 100 Hz.
            assert!(
                after - before <= 5,
                "the loop used {} ticks of CPU while idle",
                after - before
            );
        }
        let (done_tx, done_rx) = bounded(1);
        let stopper = std::thread::spawn(move || {
            node.shutdown();
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(1)).is_ok(),
            "shutdown did not join within 1 s"
        );
        stopper.join().unwrap();
    }

    #[test]
    fn request_reply_over_threads() {
        let nodes = spawn_cluster(3, &RuntimeOptions::new());
        let servers: Vec<NodeId> = (0..2).map(NodeId::from_index).collect();
        let group = GroupId::new("svc");

        for handle in &nodes[..2] {
            let group = group.clone();
            let members = servers.clone();
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
                    Box::new(move |op: &str, _: &[u8]| Bytes::from(format!("{op}@{me}"))),
                );
            });
        }

        let client = &nodes[2];
        let g = group.clone();
        let svrs = servers.clone();
        client.with_nso(move |nso, now, out| {
            nso.bind(g, BindOptions::closed(svrs), now, out).unwrap();
        });
        let ready = client
            .wait_for_output(Duration::from_secs(10), |o| {
                matches!(o, NsoOutput::BindingReady { .. })
            })
            .expect("binding established");
        let NsoOutput::BindingReady { group: binding } = ready else {
            unreachable!()
        };
        let b = binding.clone();
        client.with_nso(move |nso, now, out| {
            let b = nso.handle_for(&b).unwrap();
            b.invoke(nso, "ping", Bytes::new(), ReplyMode::All, now, out)
                .unwrap();
        });
        let done = client
            .wait_for_output(Duration::from_secs(10), |o| {
                matches!(o, NsoOutput::InvocationComplete { .. })
            })
            .expect("invocation completed");
        let NsoOutput::InvocationComplete { replies, .. } = done else {
            unreachable!()
        };
        assert_eq!(replies.len(), 2);
        for h in nodes {
            h.shutdown();
        }
    }

    /// A transport that counts the frames its node addresses to itself.
    struct CountSelfSends<T> {
        inner: T,
        to_self: Arc<AtomicUsize>,
    }

    impl<T: WireTransport> WireTransport for CountSelfSends<T> {
        fn local(&self) -> NodeId {
            self.inner.local()
        }

        fn send(&self, dst: NodeId, payload: Bytes) -> Result<(), TransportError> {
            if dst == self.inner.local() {
                self.to_self.fetch_add(1, Ordering::SeqCst);
            }
            self.inner.send(dst, payload)
        }
    }

    #[test]
    fn a_node_delivers_its_own_frames_without_its_transport() {
        for size in [1u32, 2] {
            let net = ChannelNetwork::new();
            let to_self = Arc::new(AtomicUsize::new(0));
            let members: Vec<NodeId> = (0..size).map(NodeId::from_index).collect();
            let nodes: Vec<NodeHandle> = members
                .iter()
                .map(|&id| {
                    let (inner, incoming) = net.endpoint(id);
                    let transport = CountSelfSends {
                        inner,
                        to_self: Arc::clone(&to_self),
                    };
                    NodeRuntime::spawn(transport, incoming, RuntimeOptions::new())
                })
                .collect();
            let group = GroupId::new("peers");
            for node in &nodes {
                let (group, members) = (group.clone(), members.clone());
                node.with_nso(move |nso, now, out| {
                    nso.create_peer_group(group, members, GroupConfig::peer(), now, out)
                        .unwrap();
                });
            }
            for node in &nodes {
                let group = group.clone();
                node.with_nso(move |nso, now, out| {
                    let peer = nso.handle_for(&group).unwrap();
                    peer.send(
                        nso,
                        Bytes::from_static(b"m"),
                        DeliveryOrder::Total,
                        now,
                        out,
                    )
                    .unwrap();
                });
            }
            for node in &nodes {
                for _ in 0..size {
                    node.wait_for_output(Duration::from_secs(10), |o| {
                        matches!(o, NsoOutput::PeerDeliver { .. })
                    })
                    .unwrap_or_else(|| panic!("{} delivers every multicast", node.node()));
                }
            }
            assert_eq!(
                to_self.load(Ordering::SeqCst),
                0,
                "{size}-member group: frames to self went to the transport"
            );
            for node in nodes {
                node.shutdown();
            }
        }
    }
}
