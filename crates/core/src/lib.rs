//! # NewTop — a flexible object group service
//!
//! A from-scratch reproduction of the system described in G. Morgan and
//! S.K. Shrivastava, *"Implementing Flexible Object Group Invocation in
//! Networked Systems"* (DSN 2000): a CORBA-style object group service
//! supporting three modes of interaction —
//!
//! 1. **request-reply** between a client and a replicated service, with
//!    **closed** (client multicasts to all replicas; best on a LAN) and
//!    **open** (client talks to one *request manager*; best over a WAN)
//!    client/server groups;
//! 2. **group-to-group request-reply**;
//! 3. **peer participation** (everyone multicasts; e.g. conferencing) —
//!
//! with per-group choice of **symmetric** or **asymmetric** total-order
//! protocol and four reply-collection primitives (one-way, first,
//! majority, all).
//!
//! The central type is the [`Nso`] — the NewTop service object. One NSO
//! runs next to each application object (the paper's recommended
//! colocated configuration) and multiplexes every group its node belongs
//! to. It is a sans-IO state machine: runtimes deliver packets and timers
//! to it and apply the actions it queues. Two runtimes are provided:
//! the deterministic simulator ([`simnode::NsoNode`], over
//! `newtop_net::sim`) used by tests and experiments, and the threaded
//! runtime in the `newtop-rt` crate used by the runnable examples.
//!
//! # Quickstart (simulated)
//!
//! ```
//! use newtop::simnode::{NsoNode, NsoApp};
//! use newtop::{Nso, NsoOutput, BindOptions};
//! use newtop_gcs::group::GroupId;
//! use newtop_invocation::api::{Replication, OpenOptimisation, ReplyMode};
//! use newtop_net::sim::{Sim, SimConfig, Outbox};
//! use newtop_net::site::{NodeId, Site};
//! use newtop_net::time::SimTime;
//! use bytes::Bytes;
//!
//! // A server application: registers a servant that doubles a byte.
//! struct Server { group_members: Vec<NodeId> }
//! impl NsoApp for Server {
//!     fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
//!         nso.create_server_group(
//!             GroupId::new("doubler"), self.group_members.clone(),
//!             Replication::Active, OpenOptimisation::None,
//!             Default::default(), now, out,
//!         ).unwrap();
//!         nso.register_group_servant(GroupId::new("doubler"),
//!             Box::new(|_op: &str, args: &[u8]| Bytes::from(vec![args[0] * 2])));
//!     }
//!     fn on_output(&mut self, _: &mut Nso, _: NsoOutput, _: SimTime, _: &mut Outbox) {}
//! }
//!
//! // A client: binds (closed) to the service, invokes, checks the answer.
//! struct Client { servers: Vec<NodeId>, answer: Option<u8> }
//! impl NsoApp for Client {
//!     fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
//!         nso.bind(GroupId::new("doubler"),
//!                  BindOptions::closed(self.servers.clone()), now, out).unwrap();
//!     }
//!     fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, now: SimTime, out: &mut Outbox) {
//!         match output {
//!             NsoOutput::BindingReady { group } => {
//!                 // Readiness is asynchronous: recover the handle and invoke over it.
//!                 let binding = nso.handle_for(&group).unwrap();
//!                 binding.invoke(nso, "double", Bytes::from_static(&[21]), ReplyMode::All, now, out).unwrap();
//!             }
//!             NsoOutput::InvocationComplete { replies, .. } => {
//!                 self.answer = Some(replies[0].1[0]);
//!             }
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(SimConfig::default());
//! let s0 = NodeId::from_index(0);
//! let s1 = NodeId::from_index(1);
//! let members = vec![s0, s1];
//! sim.add_node(Site::Lan, Box::new(NsoNode::new(s0, Box::new(Server { group_members: members.clone() }))));
//! sim.add_node(Site::Lan, Box::new(NsoNode::new(s1, Box::new(Server { group_members: members.clone() }))));
//! let c = NodeId::from_index(2);
//! sim.add_node(Site::Lan, Box::new(NsoNode::new(c, Box::new(Client { servers: members, answer: None }))));
//! sim.run_until(SimTime::from_secs(5));
//! let client: &NsoNode = sim.node_ref(c).unwrap();
//! assert_eq!(client.app_ref::<Client>().unwrap().answer, Some(42));
//! // Every node keeps protocol metrics and a trace; dump the client's:
//! let snap = client.nso().metrics();
//! assert_eq!(snap.counter("inv.calls_issued"), 1);
//! println!("{snap}");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod control;
pub mod directory;
pub mod nso;
pub mod proxy;
pub mod simnode;

pub use nso::{
    BindOptions, BindTarget, GroupHandle, GroupServant, NewtopError, Nso, NsoOptions, NsoOutput,
};
pub use proxy::{ProxyEvent, SmartProxy, RETRY_AFTER};

/// The ORB operation carrying binding-control requests between NSOs.
pub const INV_CTRL_OPERATION: &str = "inv-ctrl";

/// Timer-tag bases partitioning one node's tag space between components.
pub mod tags {
    /// Tags owned by the group communication service.
    pub const GCS_BASE: u64 = 1 << 40;
    /// Tags owned by the NSO itself (binding timeouts).
    pub const NSO_BASE: u64 = 2 << 40;
    /// Tags available to the application layer.
    pub const APP_BASE: u64 = 3 << 40;
}
