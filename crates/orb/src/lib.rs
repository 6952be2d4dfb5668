//! A from-scratch mini-ORB: the CORBA-shaped substrate under NewTop.
//!
//! The paper builds NewTop as a CORBA *service*: every NewTop service
//! object (NSO) talks to its peers through ordinary one-to-one ORB
//! invocations (the paper used omniORB2), and the measured ~2.5× overhead
//! of a NewTop call over a plain CORBA call comes precisely from group
//! messages being full ORB invocations (Fig. 9's m1..m6). This crate
//! reproduces that substrate:
//!
//! * [`cdr`] — CDR-style marshalling (aligned primitives, strings,
//!   sequences) with [`cdr::CdrEncode`]/[`cdr::CdrDecode`] traits;
//! * [`ior`] — object references ([`ior::ObjectRef`], the IOR) and object
//!   *group* references ([`ior::GroupObjectRef`], the IOGR of the Fault
//!   Tolerant CORBA specification the paper anticipates), including the
//!   primary-then-failover member selection used for transparent
//!   rebinding;
//! * [`giop`] — GIOP-shaped request/reply framing;
//! * [`servant`] — servants and the object adapter;
//! * [`orb`] — the sans-IO ORB core: synchronous-style request/reply
//!   correlation, oneway invocations and servant dispatch, driven by
//!   whatever runtime owns it (simulator or threads);
//! * [`naming`] — a minimal naming service (bind/resolve), the CORBA
//!   NameService stand-in.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cdr;
pub mod giop;
pub mod ior;
pub mod naming;
pub mod orb;
pub mod servant;

pub use cdr::{CdrDecode, CdrDecoder, CdrEncode, CdrEncoder, CdrError};
pub use giop::{GiopMessage, ReplyStatus, SystemException};
pub use ior::{GroupObjectRef, ObjectKey, ObjectRef};
pub use orb::{InvokeError, OrbCore, OrbIncoming, RequestId};
pub use servant::{ObjectAdapter, Servant, ServantError};
