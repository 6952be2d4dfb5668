//! Threaded runtime for the NewTop service object.
//!
//! The [`Nso`] is a sans-IO state machine; this crate hosts one per
//! thread with wall-clock timers and a real transport (the in-process
//! [`newtop_net::channel::ChannelNetwork`] or framed TCP via
//! [`newtop_net::tcp::TcpEndpoint`]), so the runnable examples are
//! genuinely concurrent programs rather than simulations.
//!
//! Each node runs two threads. The ingress thread
//! (`newtop-rt-ingress-{node}`) takes packets off the transport in
//! arrival order and decodes and unbatches GCS frames
//! ([`Nso::decode_gcs_frame`], the CPU-heavy part of ingress); other
//! packets pass through undecoded. The event loop (`nso-{node}`) selects
//! over that ingress queue, application commands and its timer wheel,
//! and applies everything to the node's one protocol engine.
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
use std::collections::{BinaryHeap, HashSet};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use newtop_flow::queue::{bounded, QueueStats, Receiver, Sender};
use newtop_flow::FlowConfig;

use newtop::nso::{Nso, NsoOptions, NsoOutput};
use newtop_gcs::messages::GcsMessage;
use newtop_net::sim::{Outbox, Packet, TimerId};
use newtop_net::site::NodeId;
use newtop_net::time::SimTime;
use newtop_net::transport::WireTransport;

/// Construction options for [`NodeRuntime::spawn`]: the flow bounds.
///
/// The defaults are the production posture: default [`FlowConfig`]
/// queue bounds. Every node runs one protocol engine and always batches
/// its sends; the read-only accessors below report both facts.
#[derive(Clone, Debug, Default)]
pub struct RuntimeOptions {
    flow: FlowConfig,
}

impl RuntimeOptions {
    /// The default options (see the type docs).
    #[must_use]
    pub fn new() -> Self {
        RuntimeOptions::default()
    }

    /// Sets the flow configuration: the command/output/ingress queue
    /// bounds and the flow-control window.
    #[must_use]
    pub fn with_flow(mut self, flow: FlowConfig) -> Self {
        self.flow = flow;
        self
    }

    /// Protocol engines per node. Always 1: one engine, and so one
    /// Lamport clock, serves all of a node's groups.
    #[must_use]
    pub fn shards(&self) -> usize {
        1
    }

    /// Whether send-path batching is on. Always `true`: the runtime
    /// packs small protocol messages for one destination into one batch
    /// frame per flush window.
    #[must_use]
    pub fn batching(&self) -> bool {
        true
    }

    /// The configured flow bounds.
    #[must_use]
    pub fn flow(&self) -> &FlowConfig {
        &self.flow
    }
}

type Command = Box<dyn FnOnce(&mut Nso, SimTime, &mut Outbox) + Send>;

/// A handle to a node hosted by [`NodeRuntime::spawn`].
pub struct NodeHandle {
    node: NodeId,
    commands: Sender<Command>,
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
        self.commands
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
        // Closing the command channel stops the loop.
        let (dead_tx, _) = bounded(1);
        let _ = std::mem::replace(&mut self.commands, dead_tx);
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
    /// `incoming`, configured by `opts`.
    ///
    /// The node runs two threads: the event loop `nso-{node}` and the
    /// ingress thread `newtop-rt-ingress-{node}`, which decodes GCS
    /// frames off the loop (see the crate docs).
    pub fn spawn<T: WireTransport>(
        transport: T,
        incoming: Receiver<Packet>,
        opts: RuntimeOptions,
    ) -> NodeHandle {
        let node = transport.local();
        let capacity = opts.flow.queue_capacity;
        let (cmd_tx, cmd_rx) = bounded::<Command>(capacity);
        let (out_tx, out_rx) = bounded::<NsoOutput>(capacity);
        let ingress = spawn_ingress(node, incoming, capacity);
        let join = std::thread::Builder::new()
            .name(format!("nso-{node}"))
            .spawn(move || event_loop(node, &transport, &ingress, &cmd_rx, &out_tx))
            .expect("failed to spawn node thread");
        NodeHandle {
            node,
            commands: cmd_tx,
            outputs: out_rx,
            join: Some(join),
        }
    }
}

/// What the ingress thread hands the event loop: the decoded GCS
/// messages of one frame, or any other packet as it arrived.
enum Ingress {
    Raw(Packet),
    Gcs(Vec<GcsMessage>),
}

/// Spawns the ingress thread. It decodes and unbatches GCS frames so
/// that work stays off the event loop, and passes every other packet
/// through for [`Nso::on_packet`]. One thread keeps per-source FIFO
/// order without further bookkeeping.
fn spawn_ingress(node: NodeId, incoming: Receiver<Packet>, capacity: usize) -> Receiver<Ingress> {
    let (tx, rx) = bounded::<Ingress>(capacity);
    std::thread::Builder::new()
        .name(format!("newtop-rt-ingress-{node}"))
        .spawn(move || {
            while let Ok(pkt) = incoming.recv() {
                let event = match Nso::decode_gcs_frame(&pkt.payload) {
                    Some(msgs) => Ingress::Gcs(msgs),
                    None => Ingress::Raw(pkt),
                };
                if tx.send(event).is_err() {
                    return;
                }
            }
        })
        .expect("failed to spawn ingress thread");
    rx
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

fn event_loop(
    node: NodeId,
    transport: &dyn WireTransport,
    ingress: &Receiver<Ingress>,
    commands: &Receiver<Command>,
    outputs: &Sender<NsoOutput>,
) {
    let start = Instant::now();
    let mut nso = Nso::with_options(node, NsoOptions::new().with_batching(true));
    let mut timers: BinaryHeap<Reverse<TimerEntry>> = BinaryHeap::new();
    let mut cancelled: HashSet<TimerId> = HashSet::new();
    let mut next_outbox_timer: u64 = 0;
    let mut timer_seq: u64 = 0;

    let now = |start: Instant| SimTime::from_nanos(start.elapsed().as_nanos() as u64);

    loop {
        // Fire due timers.
        let mut due: Vec<(TimerId, u64)> = Vec::new();
        let instant_now = Instant::now();
        while let Some(Reverse(head)) = timers.peek() {
            if head.deadline > instant_now {
                break;
            }
            let Reverse(entry) = timers.pop().expect("peeked");
            if !cancelled.remove(&entry.id) {
                due.push((entry.id, entry.tag));
            }
        }
        for (_, tag) in due {
            let mut out = Outbox::detached(next_outbox_timer);
            nso.on_timer(tag, now(start), &mut out);
            next_outbox_timer =
                apply_outbox(transport, &mut timers, &mut cancelled, &mut timer_seq, out);
            drain_outputs(&mut nso, outputs);
        }

        // Wait for the next packet/command, bounded by the next timer.
        let timeout = timers
            .peek()
            .map_or(Duration::from_millis(50), |Reverse(t)| {
                t.deadline.saturating_duration_since(Instant::now())
            });

        crossbeam::channel::select! {
            recv(ingress) -> event => {
                let Ok(event) = event else { return };
                match event {
                    Ingress::Raw(pkt) => {
                        let mut out = Outbox::detached(next_outbox_timer);
                        nso.on_packet(&pkt, now(start), &mut out);
                        next_outbox_timer = apply_outbox(transport, &mut timers, &mut cancelled, &mut timer_seq, out);
                    }
                    Ingress::Gcs(msgs) => {
                        for msg in msgs {
                            let mut out = Outbox::detached(next_outbox_timer);
                            nso.on_gcs_message(msg, now(start), &mut out);
                            next_outbox_timer = apply_outbox(transport, &mut timers, &mut cancelled, &mut timer_seq, out);
                        }
                    }
                }
                drain_outputs(&mut nso, outputs);
            }
            recv(commands) -> cmd => {
                let Ok(cmd) = cmd else { return };
                let mut out = Outbox::detached(next_outbox_timer);
                cmd(&mut nso, now(start), &mut out);
                next_outbox_timer = apply_outbox(transport, &mut timers, &mut cancelled, &mut timer_seq, out);
                drain_outputs(&mut nso, outputs);
            }
            default(timeout) => {}
        }
    }
}

fn apply_outbox(
    transport: &dyn WireTransport,
    timers: &mut BinaryHeap<Reverse<TimerEntry>>,
    cancelled: &mut HashSet<TimerId>,
    timer_seq: &mut u64,
    out: Outbox,
) -> u64 {
    let parts = out.into_parts();
    for id in parts.timer_cancels {
        cancelled.insert(id);
    }
    let now = Instant::now();
    for (id, delay, tag) in parts.timer_sets {
        if cancelled.remove(&id) {
            continue;
        }
        *timer_seq += 1;
        timers.push(Reverse(TimerEntry {
            deadline: now + delay,
            seq: *timer_seq,
            id,
            tag,
        }));
    }
    for (dst, payload) in parts.sends {
        // Best effort: the protocol layers handle loss via NACKs and
        // suspicion.
        let _ = transport.send(dst, payload);
    }
    parts.next_timer
}

fn drain_outputs(nso: &mut Nso, outputs: &Sender<NsoOutput>) {
    for o in nso.take_outputs() {
        // Never block the event loop on a slow consumer: shed instead
        // (counted in the queue's stats).
        let _ = outputs.try_send(o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use newtop::nso::BindOptions;
    use newtop_gcs::group::{GroupConfig, GroupId};
    use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
    use newtop_net::channel::ChannelNetwork;

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
}
