//! The NewTop group communication service.
//!
//! This crate implements the lower layer of the NewTop object group
//! service (§3 of the paper): view-synchronous reliable multicast with
//! causal and causality-preserving total order delivery, supporting
//! *overlapping groups* (one member may belong to many groups at once,
//! with one shared logical clock keeping cross-group total order
//! causality-consistent), both **symmetric** and **asymmetric** total
//! order protocols selectable per group, a membership service with a
//! failure suspector and atomic view changes, and the **time-silence**
//! mechanism with *lively* and *event-driven* group configurations.
//!
//! Structure:
//!
//! * [`clock`] — Lamport clocks and dependency vectors;
//! * [`group`] — group identifiers and per-group configuration;
//! * [`view`] — membership views;
//! * [`messages`] — the wire protocol (marshalled with the mini-ORB's CDR
//!   and carried as oneway ORB invocations between NewTop service
//!   objects, exactly as in the paper);
//! * [`engine`] — the pure, runtime-free delivery engine: per-sender
//!   FIFO reassembly, causal dependency tracking, the symmetric
//!   (timestamp) and asymmetric (sequencer) total-order protocols,
//!   stability/garbage collection and the view-change flush;
//! * [`member`] — the per-node protocol state machine
//!   ([`member::GcsMember`]): multicast, NACK/retransmission, null
//!   messages, failure suspicion, view agreement (virtual synchrony) and
//!   join/leave.
//!
//! The member is hosted by the NewTop service object (`newtop::nso::Nso`),
//! on the simulator as on the threaded runtime; the simulator harness
//! that scripts group operations for the protocol tests and the
//! invariant campaign is `newtop::simnode::GcsHarness`.
//!
//! The failure model is the paper's: crash-stop processes, asynchronous
//! network, partitions possible (each partition may install its own
//! view).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod engine;
pub mod group;
pub mod member;
pub mod messages;
pub mod view;

pub use clock::LamportClock;
pub use engine::{DeliveryEngine, EngineConfig};
pub use group::{DeliveryOrder, GroupConfig, GroupId, Liveness, OrderProtocol};
pub use member::{GcsError, GcsMember, GcsNet, GcsOutput};
pub use messages::{DataMsg, GcsMessage};
pub use view::{View, ViewId};

/// The object key every NewTop service object registers its protocol
/// endpoint under.
pub const NSO_OBJECT_KEY: &str = "newtop-nso";

/// The ORB operation name carrying group-communication messages between
/// NSOs.
pub const GCS_OPERATION: &str = "gcs";
