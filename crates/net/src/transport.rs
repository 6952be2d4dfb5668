//! The wire-transport abstraction used by the threaded runtime.
//!
//! The simulator delivers packets itself; real deployments instead plug a
//! [`WireTransport`] implementation into the threaded runtime. Incoming
//! packets are pushed to a bounded `newtop_flow::queue` channel supplied
//! at construction, and outgoing packets go through
//! [`WireTransport::send`].

use std::error::Error;
use std::fmt;

use bytes::Bytes;

use crate::site::NodeId;

/// Errors produced by real transports.
#[derive(Debug)]
pub enum TransportError {
    /// The destination node has not been registered with this transport.
    UnknownPeer(NodeId),
    /// The transport has been shut down.
    Closed,
    /// The destination's bounded inbox is full; the packet was shed.
    /// The protocol layers treat this like loss (NACK-driven recovery),
    /// and the shed is counted in the inbox's queue statistics.
    Overloaded(NodeId),
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownPeer(n) => write!(f, "unknown peer {n}"),
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Overloaded(n) => write!(f, "inbox of {n} overloaded; packet shed"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl Error for TransportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// An outgoing packet path for one node.
///
/// Implementations must be cheaply cloneable handles (sharing state
/// internally) so the runtime can fan sends out from several threads.
pub trait WireTransport: Send + Sync + 'static {
    /// The node this transport belongs to.
    fn local(&self) -> NodeId;

    /// Sends a payload to `dst`. Delivery is best-effort and unordered
    /// across peers (in-order per peer for the built-in transports);
    /// reliability is the business of the protocol layers above.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::UnknownPeer`] for unregistered peers,
    /// [`TransportError::Closed`] after shutdown, and
    /// [`TransportError::Io`] on socket failures.
    fn send(&self, dst: NodeId, payload: Bytes) -> Result<(), TransportError>;
}
