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
//! packets pass through undecoded. The event loop (`nso-{node}`) waits
//! on one bounded queue. That queue carries the ingress thread's frames
//! and packets, application commands and the stop event. The loop blocks
//! on it until its next timer deadline, so it wakes when work arrives
//! rather than on a poll, and applies everything to the node's one
//! protocol engine. Whenever the queue runs empty, the loop first runs
//! the NSO's idle work ([`Nso::on_idle`]): it sends what batching staged
//! and announces the node's clock in symmetric groups that wait on it.
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

use newtop_flow::queue::{bounded, QueueStats, Receiver, RecvTimeoutError, Sender, TryRecvError};
use newtop_flow::FlowConfig;

use newtop::nso::{Nso, NsoOptions, NsoOutput};
use newtop_gcs::messages::GcsMessage;
use newtop_net::sim::{Outbox, Packet, TimerId};
use newtop_net::site::NodeId;
use newtop_net::time::SimTime;
use newtop_net::transport::WireTransport;

/// Construction options for [`NodeRuntime::spawn`].
///
/// There is nothing to set: every node sizes its event and output
/// queues from the default [`FlowConfig::queue_capacity`], runs one
/// protocol engine and always batches its sends. The read-only
/// accessors below report the last two facts.
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

    /// Whether send-path batching is on. Always `true`: the runtime
    /// packs small protocol messages for one destination into one batch
    /// frame while events keep coming, and sends them when it runs out
    /// of work.
    #[must_use]
    pub fn batching(&self) -> bool {
        true
    }
}

type Command = Box<dyn FnOnce(&mut Nso, SimTime, &mut Outbox) + Send>;

/// What a node's event loop works on. One bounded queue carries all of
/// it, so the loop blocks in one place and wakes on whichever comes
/// first.
enum Event {
    /// The decoded GCS messages of one frame, from the ingress thread.
    Gcs(Vec<GcsMessage>),
    /// Any other packet, as it arrived, from the ingress thread.
    Raw(Packet),
    /// An application command ([`NodeHandle::with_nso`]).
    Command(Command),
    /// Stop the loop ([`NodeHandle::shutdown`]).
    Stop,
}

/// A handle to a node hosted by [`NodeRuntime::spawn`].
pub struct NodeHandle {
    node: NodeId,
    events: Sender<Event>,
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
        self.events
            .send(Event::Command(Box::new(move |nso, now, out| {
                let _ = tx.send(f(nso, now, out));
            })))
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
        // The ingress thread holds a sender of the same queue, so
        // dropping ours would never disconnect it: ask the loop to stop.
        // Events already queued run first. If the loop has exited, the
        // queue has no receiver and the send fails at once.
        if let Some(j) = self.join.take() {
            let _ = self.events.send(Event::Stop);
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
    /// The node runs two threads: the event loop `nso-{node}` and the
    /// ingress thread `newtop-rt-ingress-{node}`, which decodes GCS
    /// frames off the loop (see the crate docs).
    pub fn spawn<T: WireTransport>(
        transport: T,
        incoming: Receiver<Packet>,
        _opts: RuntimeOptions,
    ) -> NodeHandle {
        let node = transport.local();
        let capacity = FlowConfig::default().queue_capacity;
        let (event_tx, event_rx) = bounded::<Event>(capacity);
        let (out_tx, out_rx) = bounded::<NsoOutput>(capacity);
        spawn_ingress(node, incoming, event_tx.clone());
        let join = std::thread::Builder::new()
            .name(format!("nso-{node}"))
            .spawn(move || event_loop(node, &transport, &event_rx, &out_tx))
            .expect("failed to spawn node thread");
        NodeHandle {
            node,
            events: event_tx,
            outputs: out_rx,
            join: Some(join),
        }
    }
}

/// Spawns the ingress thread. It decodes and unbatches GCS frames so
/// that work stays off the event loop, and passes every other packet
/// through for [`Nso::on_packet`]. One thread keeps per-source FIFO
/// order without further bookkeeping. It exits once the event loop has
/// stopped and the next packet finds the queue without a receiver.
fn spawn_ingress(node: NodeId, incoming: Receiver<Packet>, events: Sender<Event>) {
    std::thread::Builder::new()
        .name(format!("newtop-rt-ingress-{node}"))
        .spawn(move || {
            while let Ok(pkt) = incoming.recv() {
                let event = match Nso::decode_gcs_frame(&pkt.payload) {
                    Some(msgs) => Event::Gcs(msgs),
                    None => Event::Raw(pkt),
                };
                if events.send(event).is_err() {
                    return;
                }
            }
        })
        .expect("failed to spawn ingress thread");
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

/// How long the loop blocks when no timer is armed.
const IDLE_WAIT: Duration = Duration::from_millis(50);

/// The event loop's side of the NSO: the transport its outboxes go to,
/// its timer wheel, and the application's output queue.
struct Host<'a> {
    transport: &'a dyn WireTransport,
    outputs: &'a Sender<NsoOutput>,
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

    /// Runs one NSO entry point against a fresh outbox, applies the
    /// outbox and forwards the NSO's outputs.
    fn run(&mut self, nso: &mut Nso, f: impl FnOnce(&mut Nso, SimTime, &mut Outbox)) {
        let mut out = Outbox::detached(self.next_outbox_timer);
        f(nso, self.now(), &mut out);
        self.apply_outbox(out);
        for o in nso.take_outputs() {
            // Never block the event loop on a slow consumer: shed instead
            // (counted in the queue's stats).
            let _ = self.outputs.try_send(o);
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

    /// How long the loop may block: until the next timer deadline.
    fn wait_budget(&self) -> Duration {
        self.timers.peek().map_or(IDLE_WAIT, |Reverse(t)| {
            t.deadline.saturating_duration_since(Instant::now())
        })
    }
}

/// The node's event loop. Each turn fires the due timers and takes the
/// next event. When the queue is empty it first sends what the NSO holds
/// back for company ([`Nso::on_idle`]), then blocks on the queue until
/// the next timer deadline, so it wakes as soon as work arrives and
/// spends no CPU while there is none.
fn event_loop(
    node: NodeId,
    transport: &dyn WireTransport,
    events: &Receiver<Event>,
    outputs: &Sender<NsoOutput>,
) {
    let mut nso = Nso::with_options(node, NsoOptions::new().with_batching(true));
    let mut host = Host {
        transport,
        outputs,
        start: Instant::now(),
        timers: BinaryHeap::new(),
        cancelled: HashSet::new(),
        next_outbox_timer: 0,
        timer_seq: 0,
    };
    loop {
        host.fire_due(&mut nso);
        let event = match events.try_recv() {
            Ok(event) => event,
            Err(TryRecvError::Disconnected) => return,
            Err(TryRecvError::Empty) => {
                host.run(&mut nso, Nso::on_idle);
                match events.recv_timeout(host.wait_budget()) {
                    Ok(event) => event,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        };
        match event {
            Event::Gcs(msgs) => {
                for msg in msgs {
                    host.run(&mut nso, |nso, now, out| nso.on_gcs_message(msg, now, out));
                }
            }
            Event::Raw(pkt) => host.run(&mut nso, |nso, now, out| nso.on_packet(&pkt, now, out)),
            Event::Command(cmd) => host.run(&mut nso, cmd),
            Event::Stop => return,
        }
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
    use std::sync::atomic::{AtomicBool, Ordering};
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
        // The ingress thread holds a sender of the loop's queue, so a
        // steady stream of packets never lets that queue disconnect: the
        // loop has to stop on the stop event.
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

    #[test]
    fn a_command_queued_behind_an_ingress_burst_still_runs() {
        const BURST: usize = 512;
        let net = ChannelNetwork::new();
        let me = NodeId::from_index(0);
        let (transport, incoming) = net.endpoint(me);
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
        let (peer, _) = net.endpoint(NodeId::from_index(1));
        for _ in 0..BURST {
            peer.send(me, Bytes::from_static(b"junk")).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while node.events.len() < BURST && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued_ahead = node.events.len();
        // Queue a command behind the burst, then let the loop go.
        let (ran_tx, ran_rx) = bounded(1);
        let queued = {
            let node = Arc::clone(&node);
            std::thread::spawn(move || {
                let _ = ran_tx.send(node.with_nso(|nso, _, _| nso.node()));
            })
        };
        while node.events.len() <= queued_ahead && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        release_tx.send(()).unwrap();
        parked.join().unwrap();
        assert_eq!(queued_ahead, BURST, "the burst was queued ahead");
        assert_eq!(ran_rx.recv_timeout(Duration::from_secs(10)), Ok(me));
        queued.join().unwrap();
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
