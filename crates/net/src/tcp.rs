//! Framed TCP transport.
//!
//! Carries packets over real sockets so the examples can run as genuinely
//! networked processes. Frames are length-prefixed:
//!
//! ```text
//! [u32 payload-len (BE)] [u32 source-node (BE)] [payload bytes]
//! ```
//!
//! A frame leaves in one vectored write of the 8-byte header and the
//! payload, straight from the payload's (possibly shared) buffer: one
//! segment per frame under `TCP_NODELAY`, and no assembly copy. The
//! reader takes the header with one read.
//!
//! Each endpoint runs an accept loop and one reader thread (`tcp-read`)
//! per inbound connection; outgoing connections are opened lazily per
//! peer and cached. Shutdown closes both kinds, so no reader delivers a
//! frame after it. An endpoint can send to itself like to any peer, but
//! `newtop-rt` delivers a node's frames to itself in-process and never
//! asks. Reliability beyond TCP's own (reconnection, retransmission
//! across connection loss) belongs to the protocol layers above, which
//! already implement it for the lossy simulator.

use std::collections::HashMap;
use std::io::{IoSlice, Read, Write};
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
    /// A clone of each inbound connection whose reader runs, by the
    /// accept loop's connection number, so that shutdown can unblock
    /// those readers. A reader removes its own on exit.
    inbound: Mutex<HashMap<u64, TcpStream>>,
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

    /// Empties the inbound table and returns its sockets, so the caller
    /// closes them with no lock held.
    fn take_inbound(&self) -> Vec<TcpStream> {
        let drained = std::mem::take(&mut *self.inbound.lock());
        drained.into_values().collect()
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
            inbound: Mutex::new(HashMap::new()),
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

    /// Stops the endpoint: closes its connections both ways and stops
    /// the accept loop. Each reader thread then exits without delivering
    /// another frame, so once they have all gone the inbox reports
    /// disconnected. Idempotent; also performed on drop.
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
        // The accept loop has stopped, so no reader starts after this:
        // shutting each inbound socket down ends its reader's blocked
        // read.
        for conn in self.shared.take_inbound() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, incoming: &Sender<Packet>) {
    for id in 0u64.. {
        let Ok((stream, _)) = listener.accept() else {
            if shared.closed.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.closed.load(Ordering::SeqCst) {
            return;
        }
        // A connection that cannot be cloned could not be closed on
        // shutdown: refuse it. The peer reconnects at its next send.
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        shared.inbound.lock().insert(id, clone);
        let reader = {
            let (shared, incoming) = (Arc::clone(shared), incoming.clone());
            std::thread::Builder::new()
                .name(format!("tcp-read-{}", shared.local))
                .spawn(move || {
                    read_loop(stream, &shared, &incoming);
                    shared.inbound.lock().remove(&id);
                })
        };
        if reader.is_err() {
            shared.inbound.lock().remove(&id);
        }
    }
}

fn read_loop(mut stream: TcpStream, shared: &Arc<Shared>, incoming: &Sender<Packet>) {
    let mut header = [0u8; 8];
    loop {
        if stream.read_exact(&mut header).is_err() {
            return;
        }
        // Split by destructuring: no fallible slice-to-array conversion
        // or indexing on the network-input path.
        let [l0, l1, l2, l3, s0, s1, s2, s3] = header;
        let len = u32::from_be_bytes([l0, l1, l2, l3]);
        let src = u32::from_be_bytes([s0, s1, s2, s3]);
        if len > MAX_FRAME {
            return;
        }
        let mut payload = vec![0u8; len as usize];
        if stream.read_exact(&mut payload).is_err() {
            return;
        }
        // A frame that was read as the endpoint shut down stays undelivered.
        if shared.closed.load(Ordering::SeqCst) {
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
        let [l0, l1, l2, l3] = len.to_be_bytes();
        let [s0, s1, s2, s3] = self.shared.local.index().to_be_bytes();
        let header = [l0, l1, l2, l3, s0, s1, s2, s3];
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
        if let Err(e) = write_frame(stream, &header, &payload) {
            *guard = None;
            return Err(TransportError::Io(e));
        }
        Ok(())
    }
}

/// Writes one frame's header and payload with vectored writes: one
/// segment per frame when the socket takes it whole, and the rest after
/// a partial write.
fn write_frame(out: &mut impl Write, header: &[u8], payload: &[u8]) -> std::io::Result<()> {
    let mut parts = [IoSlice::new(header), IoSlice::new(payload)];
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match out.write_vectored(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_flow::queue::{bounded, RecvTimeoutError};
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

    #[test]
    fn a_shut_down_endpoint_delivers_nothing_more_and_closes_its_inbox() {
        let (a_id, b_id) = (NodeId::from_index(0), NodeId::from_index(1));
        let (tx_a, rx_a) = inbox();
        let (tx_b, _rx_b) = inbox();
        let mut a = TcpEndpoint::bind(a_id, ephemeral(), tx_a).unwrap();
        let b = TcpEndpoint::bind(b_id, ephemeral(), tx_b).unwrap();
        b.register_peer(a_id, a.local_addr());
        let to_a = b.handle();
        // A reader thread of `a` now serves a live connection from `b`.
        to_a.send(a_id, Bytes::from_static(b"before")).unwrap();
        let pkt = rx_a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&pkt.payload[..], b"before");
        a.shutdown();
        // `b` still holds its connection; the frame may or may not make
        // it into the socket, but it must not reach `a`'s inbox.
        let _ = to_a.send(a_id, Bytes::from_static(b"after"));
        match rx_a.recv_timeout(Duration::from_secs(1)) {
            Err(RecvTimeoutError::Disconnected) => {}
            Ok(pkt) => panic!("a shut-down endpoint delivered {:?}", pkt.payload),
            Err(RecvTimeoutError::Timeout) => panic!("the inbox did not close within 1 s"),
        }
    }

    /// Frame `round` of `sender`, `size` bytes of a pattern both depend on.
    fn patterned(sender: u32, round: u32, size: usize) -> Bytes {
        let seed = sender * 7 + round;
        (0..size)
            .map(|i| (i as u32).wrapping_mul(31).wrapping_add(seed) as u8)
            .collect::<Vec<u8>>()
            .into()
    }

    /// A writer that takes at most `step` bytes per call, and then none
    /// once `budget` bytes are in.
    struct Trickle {
        step: usize,
        budget: usize,
        written: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf
                .len()
                .min(self.step)
                .min(self.budget - self.written.len());
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_write_finishes_after_partial_writes() {
        for (header, payload) in [(&b"hdr12345"[..], &b""[..]), (b"hdr12345", b"payload")] {
            let mut out = Trickle {
                step: 3,
                budget: usize::MAX,
                written: Vec::new(),
            };
            write_frame(&mut out, header, payload).unwrap();
            assert_eq!(out.written, [header, payload].concat());
        }
        let mut stalled = Trickle {
            step: 3,
            budget: 10,
            written: Vec::new(),
        };
        let err = write_frame(&mut stalled, b"hdr12345", b"payload").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn concurrent_senders_frames_of_every_size_arrive_intact_in_order() {
        // 4 MiB is larger than the loopback socket's send buffer.
        const SIZES: [usize; 3] = [0, 1, 4 * 1024 * 1024];
        const ROUNDS: u32 = 3;
        let sink_id = NodeId::from_index(2);
        let (tx, rx) = inbox();
        let sink = TcpEndpoint::bind(sink_id, ephemeral(), tx).unwrap();
        let senders: Vec<TcpEndpoint> = (0..2)
            .map(|i| {
                let (tx, _rx) = inbox();
                let e = TcpEndpoint::bind(NodeId::from_index(i), ephemeral(), tx).unwrap();
                e.register_peer(sink_id, sink.local_addr());
                e
            })
            .collect();
        let start = std::sync::Barrier::new(senders.len());
        std::thread::scope(|scope| {
            for e in &senders {
                let (h, start) = (e.handle(), &start);
                scope.spawn(move || {
                    let me = h.local().index();
                    start.wait();
                    for round in 0..ROUNDS {
                        for size in SIZES {
                            h.send(sink_id, patterned(me, round, size)).unwrap();
                        }
                    }
                });
            }
            let mut received = [0usize; 2];
            for _ in 0..2 * ROUNDS as usize * SIZES.len() {
                let pkt = rx.recv_timeout(Duration::from_secs(30)).unwrap();
                let src = pkt.src.index();
                let k = received[src as usize];
                received[src as usize] += 1;
                let (round, size) = (k / SIZES.len(), SIZES[k % SIZES.len()]);
                assert_eq!(pkt.payload.len(), size, "frame {k} from {src}");
                assert!(
                    pkt.payload == patterned(src, round as u32, size),
                    "frame {k} from {src} arrived corrupted"
                );
            }
        });
        assert!(rx.try_recv().is_err(), "no frame beyond those sent");
    }
}
