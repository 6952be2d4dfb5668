//! The nodes under test: `NodeRuntime::spawn` with the default
//! `RuntimeOptions`, all in this process, over TCP on 127.0.0.1 or the
//! in-process channel network. A traced cluster wraps each node's
//! transport in a [`Probe`] that times `WireTransport::send` and keeps
//! each frame for decoding after the window.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use newtop_flow::queue::{bounded, QueueStats, Receiver};
use newtop_flow::FlowConfig;
use newtop_net::channel::ChannelNetwork;
use newtop_net::metrics::MetricsSnapshot;
use newtop_net::sim::Packet;
use newtop_net::site::NodeId;
use newtop_net::tcp::TcpEndpoint;
use newtop_net::transport::{TransportError, WireTransport};
use newtop_rt::{NodeHandle, NodeRuntime, RuntimeOptions};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// Framed TCP over 127.0.0.1 (`newtop_net::tcp`).
    Tcp,
    /// Bounded in-process queues (`newtop_net::channel`).
    Channel,
}

impl Net {
    pub fn describe(self) -> &'static str {
        match self {
            Net::Tcp => "tcp-127.0.0.1",
            Net::Channel => "in-process-channel",
        }
    }
}

/// One `WireTransport::send` made while probing was on.
pub struct SentFrame {
    pub node: u32,
    pub start: Instant,
    pub end: Instant,
    pub frame: Bytes,
    pub ok: bool,
}

/// The frames one node sent while probing was on.
#[derive(Default)]
pub struct SendLog {
    on: AtomicBool,
    frames: Mutex<Vec<SentFrame>>,
}

impl SendLog {
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn take(&self) -> Vec<SentFrame> {
        std::mem::take(&mut *self.frames.lock().expect("send log poisoned"))
    }
}

/// A transport wrapper that times each send and keeps the frame (a
/// refcounted clone, no copy). Off, it costs one relaxed load.
struct Probe<T> {
    inner: T,
    log: Arc<SendLog>,
}

impl<T: WireTransport> WireTransport for Probe<T> {
    fn local(&self) -> NodeId {
        self.inner.local()
    }

    fn send(&self, dst: NodeId, payload: Bytes) -> Result<(), TransportError> {
        if !self.log.on.load(Ordering::Relaxed) {
            return self.inner.send(dst, payload);
        }
        let frame = payload.clone();
        let start = Instant::now();
        let result = self.inner.send(dst, payload);
        let end = Instant::now();
        self.log
            .frames
            .lock()
            .expect("send log poisoned")
            .push(SentFrame {
                node: self.inner.local().index(),
                start,
                end,
                frame,
                ok: result.is_ok(),
            });
        result
    }
}

pub struct Cluster {
    pub nodes: Vec<NodeHandle>,
    /// Each node's inbox queue statistics.
    pub inboxes: Vec<QueueStats>,
    /// Each node's send log; empty unless the cluster is probed.
    pub logs: Vec<Arc<SendLog>>,
    endpoints: Vec<TcpEndpoint>,
}

impl Cluster {
    /// Spawns `n` nodes (ids 0..n) on `net`, probed or not.
    pub fn spawn(n: u32, net: Net, probed: bool) -> Result<Cluster, String> {
        let capacity = FlowConfig::default().queue_capacity;
        let ids: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        let mut cluster = Cluster {
            nodes: Vec::new(),
            inboxes: Vec::new(),
            logs: Vec::new(),
            endpoints: Vec::new(),
        };
        match net {
            Net::Tcp => {
                let mut inboxes = Vec::new();
                for &id in &ids {
                    let (tx, rx) = bounded(capacity);
                    let ep = TcpEndpoint::bind(id, SocketAddr::from(([127, 0, 0, 1], 0)), tx)
                        .map_err(|e| format!("bind tcp endpoint for {id}: {e}"))?;
                    cluster.endpoints.push(ep);
                    inboxes.push(rx);
                }
                for ep in &cluster.endpoints {
                    for (&id, peer) in ids.iter().zip(&cluster.endpoints) {
                        ep.register_peer(id, peer.local_addr());
                    }
                }
                for (i, rx) in inboxes.into_iter().enumerate() {
                    let transport = cluster.endpoints[i].handle();
                    cluster.start(transport, rx, probed);
                }
            }
            Net::Channel => {
                let network = ChannelNetwork::new();
                for &id in &ids {
                    let (transport, rx) = network.endpoint(id);
                    cluster.start(transport, rx, probed);
                }
            }
        }
        Ok(cluster)
    }

    fn start<T: WireTransport>(&mut self, transport: T, incoming: Receiver<Packet>, probed: bool) {
        self.inboxes.push(incoming.stats());
        let opts = RuntimeOptions::new();
        let node = if probed {
            let log = Arc::new(SendLog::default());
            self.logs.push(Arc::clone(&log));
            NodeRuntime::spawn(
                Probe {
                    inner: transport,
                    log,
                },
                incoming,
                opts,
            )
        } else {
            NodeRuntime::spawn(transport, incoming, opts)
        };
        self.nodes.push(node);
    }

    pub fn set_probes(&self, on: bool) {
        for log in &self.logs {
            log.set_on(on);
        }
    }

    /// Every node's `Nso::metrics()`.
    pub fn metrics(&self) -> Vec<MetricsSnapshot> {
        self.nodes
            .iter()
            .map(|n| n.with_nso(|nso, _, _| nso.metrics()))
            .collect()
    }

    /// Stops every event loop, then closes the sockets.
    pub fn shutdown(self) {
        for node in self.nodes {
            node.shutdown();
        }
        for mut ep in self.endpoints {
            ep.shutdown();
        }
    }
}
