//! Framed TCP transport.
//!
//! Carries packets over real sockets so the examples can run as genuinely
//! networked processes. Frames are length-prefixed:
//!
//! ```text
//! [u32 payload-len (BE)] [u32 source-node (BE)] [payload bytes]
//! ```
//!
//! Each endpoint runs an accept loop; outgoing connections are opened
//! lazily per peer and cached. Reliability beyond TCP's own (reconnection,
//! retransmission across connection loss) belongs to the protocol layers
//! above, which already implement it for the lossy simulator.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use newtop_flow::queue::Sender;
use parking_lot::Mutex;

use crate::sim::Packet;
use crate::site::NodeId;
use crate::transport::{TransportError, WireTransport};

const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// One peer's cached connection. Sends lock the slot (not the whole
/// table) for the duration of a frame write, so frames to one peer stay
/// atomic while sends to other peers proceed in parallel.
type ConnSlot = Arc<Mutex<Option<TcpStream>>>;

struct Shared {
    local: NodeId,
    peers: Mutex<HashMap<NodeId, SocketAddr>>,
    conns: Mutex<HashMap<NodeId, ConnSlot>>,
    closed: AtomicBool,
}

impl Shared {
    /// Empties the connection table and returns its open sockets, so the
    /// caller closes them with no lock held. The table guard is released
    /// before any slot is locked (slot locks nest inside the table lock
    /// everywhere else, so holding it here would invert that order), and
    /// each slot guard only while its socket is taken out.
    fn take_conns(&self) -> Vec<TcpStream> {
        let drained = std::mem::take(&mut *self.conns.lock());
        drained
            .into_values()
            .filter_map(|slot| slot.lock().take())
            .collect()
    }
}

/// A TCP endpoint for one node.
///
/// Create with [`TcpEndpoint::bind`], register peers with
/// [`TcpEndpoint::register_peer`], and send through the [`WireTransport`]
/// impl. Incoming packets arrive on the channel supplied to `bind`.
pub struct TcpEndpoint {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TcpEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TcpEndpoint(local={}, addr={})",
            self.shared.local, self.local_addr
        )
    }
}

impl TcpEndpoint {
    /// Binds a listener for `local` on `addr` (use port 0 for an ephemeral
    /// port; see [`Self::local_addr`]) and spawns the accept loop, which
    /// pushes every received frame to `incoming`.
    ///
    /// `incoming` is a *bounded* flow queue (see
    /// [`newtop_flow::queue::bounded`]); when it fills, the reader
    /// threads block — backpressure propagates to the senders through
    /// TCP's own window rather than buffering without bound. Blocking
    /// events are counted in the queue's
    /// [`newtop_flow::queue::QueueStats::blocked`].
    ///
    /// # Errors
    ///
    /// Returns any error from binding the listener.
    pub fn bind(
        local: NodeId,
        addr: SocketAddr,
        incoming: Sender<Packet>,
    ) -> std::io::Result<TcpEndpoint> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            local,
            peers: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("tcp-accept-{local}"))
            .spawn(move || accept_loop(&listener, &accept_shared, &incoming))?;
        Ok(TcpEndpoint {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The actual bound address (useful with ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Makes `peer` reachable at `addr`.
    pub fn register_peer(&self, peer: NodeId, addr: SocketAddr) {
        self.shared.peers.lock().insert(peer, addr);
    }

    /// A cloneable sending handle.
    #[must_use]
    pub fn handle(&self) -> TcpTransport {
        TcpTransport {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops the endpoint: closes cached connections and unblocks the
    /// accept loop. Idempotent; also performed on drop.
    pub fn shutdown(&mut self) {
        if self.shared.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        for conn in self.shared.take_conns() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Poke the listener so `accept` returns and the loop observes
        // `closed`.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, incoming: &Sender<Packet>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.closed.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.closed.load(Ordering::SeqCst) {
            return;
        }
        let shared = Arc::clone(shared);
        let incoming = incoming.clone();
        let _ = std::thread::Builder::new()
            .name(format!("tcp-read-{}", shared.local))
            .spawn(move || read_loop(stream, &shared, &incoming));
    }
}

fn read_loop(mut stream: TcpStream, shared: &Arc<Shared>, incoming: &Sender<Packet>) {
    // Two fixed-size reads: no fallible slice-to-array conversion on the
    // network-input path.
    let mut len_buf = [0u8; 4];
    let mut src_buf = [0u8; 4];
    loop {
        if shared.closed.load(Ordering::SeqCst) {
            return;
        }
        if stream.read_exact(&mut len_buf).is_err() || stream.read_exact(&mut src_buf).is_err() {
            return;
        }
        let len = u32::from_be_bytes(len_buf);
        let src = u32::from_be_bytes(src_buf);
        if len > MAX_FRAME {
            return;
        }
        let mut payload = vec![0u8; len as usize];
        if stream.read_exact(&mut payload).is_err() {
            return;
        }
        let pkt = Packet {
            src: NodeId::from_index(src),
            dst: shared.local,
            payload: Bytes::from(payload),
        };
        if incoming.send(pkt).is_err() {
            return;
        }
    }
}

/// The cloneable sending half of a [`TcpEndpoint`].
#[derive(Clone)]
pub struct TcpTransport {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TcpTransport(local={})", self.shared.local)
    }
}

impl WireTransport for TcpTransport {
    fn local(&self) -> NodeId {
        self.shared.local
    }

    fn send(&self, dst: NodeId, payload: Bytes) -> Result<(), TransportError> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        let addr = *self
            .shared
            .peers
            .lock()
            .get(&dst)
            .ok_or(TransportError::UnknownPeer(dst))?;
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&l| l <= MAX_FRAME)
            .ok_or_else(|| {
                TransportError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "frame too large",
                ))
            })?;
        // Stack-allocated header; the payload is written straight from the
        // (possibly shared) `Bytes` buffer, so a multicast frame is never
        // copied per recipient here.
        let mut header = [0u8; 8];
        header[0..4].copy_from_slice(&len.to_be_bytes());
        header[4..8].copy_from_slice(&self.shared.local.index().to_be_bytes());
        // Take the per-peer slot under the table lock, then drop the table
        // lock before any I/O: sends to different peers never serialize on
        // each other, and a slow connect cannot stall the whole endpoint.
        let slot = {
            let mut conns = self.shared.conns.lock();
            Arc::clone(conns.entry(dst).or_default())
        };
        // The slot lock is held across connect + write on purpose: frames
        // to one peer must not interleave (allowlisted for lock-hygiene).
        let mut guard = slot.lock();
        if guard.is_none() {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            *guard = Some(stream);
        }
        let Some(stream) = guard.as_mut() else {
            return Err(TransportError::Closed);
        };
        if let Err(e) = stream
            .write_all(&header)
            .and_then(|()| stream.write_all(&payload))
        {
            *guard = None;
            return Err(TransportError::Io(e));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_flow::queue::bounded;
    use std::time::Duration;

    fn ephemeral() -> SocketAddr {
        "127.0.0.1:0".parse().expect("valid addr")
    }

    fn inbox() -> (
        newtop_flow::queue::Sender<Packet>,
        newtop_flow::queue::Receiver<Packet>,
    ) {
        bounded(newtop_flow::FlowConfig::default().queue_capacity)
    }

    #[test]
    fn two_endpoints_exchange_frames() {
        let (tx_a, rx_a) = inbox();
        let (tx_b, rx_b) = inbox();
        let a = TcpEndpoint::bind(NodeId::from_index(0), ephemeral(), tx_a).unwrap();
        let b = TcpEndpoint::bind(NodeId::from_index(1), ephemeral(), tx_b).unwrap();
        a.register_peer(NodeId::from_index(1), b.local_addr());
        b.register_peer(NodeId::from_index(0), a.local_addr());

        a.handle()
            .send(NodeId::from_index(1), Bytes::from_static(b"over tcp"))
            .unwrap();
        let pkt = rx_b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&pkt.payload[..], b"over tcp");
        assert_eq!(pkt.src, NodeId::from_index(0));

        b.handle()
            .send(NodeId::from_index(0), Bytes::from_static(b"reply"))
            .unwrap();
        let pkt = rx_a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&pkt.payload[..], b"reply");
    }

    #[test]
    fn many_frames_stay_ordered_per_peer() {
        let (tx_a, _rx_a) = inbox();
        let (tx_b, rx_b) = inbox();
        let a = TcpEndpoint::bind(NodeId::from_index(0), ephemeral(), tx_a).unwrap();
        let b = TcpEndpoint::bind(NodeId::from_index(1), ephemeral(), tx_b).unwrap();
        a.register_peer(NodeId::from_index(1), b.local_addr());
        let h = a.handle();
        for i in 0..200u32 {
            h.send(NodeId::from_index(1), Bytes::from(i.to_be_bytes().to_vec()))
                .unwrap();
        }
        for i in 0..200u32 {
            let pkt = rx_b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(pkt.payload.as_ref(), i.to_be_bytes());
        }
    }

    #[test]
    fn unknown_peer_and_shutdown_errors() {
        let (tx, _rx) = inbox();
        let mut e = TcpEndpoint::bind(NodeId::from_index(7), ephemeral(), tx).unwrap();
        let h = e.handle();
        assert!(matches!(
            h.send(NodeId::from_index(1), Bytes::new()),
            Err(TransportError::UnknownPeer(_))
        ));
        e.shutdown();
        assert!(matches!(
            h.send(NodeId::from_index(1), Bytes::new()),
            Err(TransportError::Closed)
        ));
    }
}
