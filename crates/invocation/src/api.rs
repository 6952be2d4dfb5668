//! Invocation-layer data types and wire messages.
//!
//! [`InvMessage`]s travel *inside* group multicasts (as the payload of a
//! GCS data message) or, for direct replies, as oneway ORB invocations of
//! [`crate::INV_OPERATION`].

use std::fmt;

use bytes::Bytes;

use newtop_gcs::group::GroupId;
use newtop_net::site::NodeId;
use newtop_orb::cdr::{CdrDecode, CdrDecoder, CdrEncode, CdrEncoder, CdrError};

/// Identifies one logical invocation: the client plus a per-client call
/// number. Retries reuse the same id, which is how servers deduplicate
/// re-executions (§4.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CallId {
    /// The invoking client's node.
    pub client: NodeId,
    /// The client's call counter (starting at 1).
    pub number: u64,
}

impl fmt::Display for CallId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.client, self.number)
    }
}

impl CdrEncode for CallId {
    fn encode(&self, enc: &mut CdrEncoder) {
        self.client.encode(enc);
        enc.write_u64(self.number);
    }
}

impl CdrDecode for CallId {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        Ok(CallId {
            client: NodeId::decode(dec)?,
            number: dec.read_u64()?,
        })
    }
}

/// The paper's four invocation primitives (§2.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ReplyMode {
    /// No reply expected; the caller continues immediately.
    OneWay,
    /// Wait for a reply from a single server.
    First,
    /// Wait for replies from a majority of the server group.
    Majority,
    /// Wait for replies from every member of the server group.
    All,
}

impl ReplyMode {
    /// How many replies satisfy this mode against `servers` repliers.
    #[must_use]
    pub fn needed(self, servers: usize) -> usize {
        match self {
            ReplyMode::OneWay => 0,
            ReplyMode::First => servers.min(1),
            ReplyMode::Majority => servers / 2 + 1,
            ReplyMode::All => servers,
        }
    }

    fn code(self) -> u8 {
        match self {
            ReplyMode::OneWay => 0,
            ReplyMode::First => 1,
            ReplyMode::Majority => 2,
            ReplyMode::All => 3,
        }
    }

    fn from_code(c: u8) -> Result<Self, CdrError> {
        Ok(match c {
            0 => ReplyMode::OneWay,
            1 => ReplyMode::First,
            2 => ReplyMode::Majority,
            3 => ReplyMode::All,
            other => return Err(CdrError::BadDiscriminant(u32::from(other))),
        })
    }
}

/// How a client is attached to a server group (§2.1, Fig. 3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BindingStyle {
    /// The client/server group contains the client and *every* server:
    /// requests are multicast directly and each server replies straight
    /// to the client. Server failures are masked without rebinding.
    Closed,
    /// The client/server group contains the client and one server — the
    /// request manager. The manager distributes requests inside the
    /// server group and relays the replies.
    Open {
        /// The server acting as request manager.
        manager: NodeId,
    },
}

/// Server-group replication discipline (§4.2).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Replication {
    /// Every correctly functioning replica executes every request.
    Active,
    /// Only the primary (the request manager) executes; the others log
    /// requests and replay them if promoted.
    Passive,
}

/// Open-group optimisations (§4.2).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpenOptimisation {
    /// Plain open groups: any server may be a request manager
    /// (Fig. 5(i)).
    None,
    /// Restricted group: every client binds to the *single* designated
    /// manager (the server view's lowest-ranked member), eliminating the
    /// manager's self-delivery ordering delay (Fig. 5(ii)).
    Restricted,
    /// Restricted group plus asynchronous message forwarding: the manager
    /// executes and answers wait-for-first requests itself, forwarding
    /// them one-way to the other servers. With the asymmetric protocol
    /// this makes sequencer = request manager = primary: the
    /// passive-replication configuration.
    AsyncForwarding,
}

/// Messages of the invocation layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvMessage {
    /// A client's request, multicast in a client/server group (open or
    /// closed).
    Request {
        /// The logical call.
        call: CallId,
        /// Operation name on the group servant.
        op: String,
        /// Marshalled arguments.
        args: Bytes,
        /// Reply-collection primitive.
        mode: ReplyMode,
    },
    /// A request re-issued by the request manager inside the server group
    /// (Fig. 4(ii)).
    Forwarded {
        /// The logical call.
        call: CallId,
        /// Operation name.
        op: String,
        /// Marshalled arguments.
        args: Bytes,
        /// Reply-collection primitive.
        mode: ReplyMode,
        /// The managing server (replies are collected there).
        manager: NodeId,
        /// True when servers should execute without replying (the
        /// asynchronous-forwarding optimisation / passive backups).
        no_reply: bool,
    },
    /// One server's reply, multicast inside the server group
    /// (Fig. 4(iii)).
    ServerReply {
        /// The logical call.
        call: CallId,
        /// The replying server.
        replier: NodeId,
        /// Marshalled result.
        result: Bytes,
    },
    /// The collected replies, returned by the manager in the
    /// client/server group (Fig. 4(iv)).
    RelayedReply {
        /// The logical call.
        call: CallId,
        /// `(server, result)` pairs, as many as the mode required.
        replies: Vec<(NodeId, Bytes)>,
    },
    /// A closed-group server's reply, sent directly to the client as an
    /// ORB oneway.
    DirectReply {
        /// The logical call.
        call: CallId,
        /// The replying server.
        replier: NodeId,
        /// Marshalled result.
        result: Bytes,
    },
    /// A group-to-group request, multicast by each member of the client
    /// group in the client monitor group (Fig. 6). The manager filters
    /// the duplicates.
    G2gRequest {
        /// The originating client group.
        origin: GroupId,
        /// The origin group's call counter.
        number: u64,
        /// Operation name.
        op: String,
        /// Marshalled arguments.
        args: Bytes,
        /// Reply-collection primitive.
        mode: ReplyMode,
    },
    /// The collected replies, multicast by the manager in the client
    /// monitor group so every client-group member receives them
    /// atomically.
    G2gReply {
        /// The originating client group.
        origin: GroupId,
        /// The origin group's call counter.
        number: u64,
        /// `(server, result)` pairs.
        replies: Vec<(NodeId, Bytes)>,
    },
}

const TAG_REQUEST: u8 = 0;
const TAG_FORWARDED: u8 = 1;
const TAG_SERVER_REPLY: u8 = 2;
const TAG_RELAYED_REPLY: u8 = 3;
const TAG_DIRECT_REPLY: u8 = 4;
const TAG_G2G_REQUEST: u8 = 5;
const TAG_G2G_REPLY: u8 = 6;

fn encode_replies(enc: &mut CdrEncoder, replies: &[(NodeId, Bytes)]) {
    enc.write_seq_len(replies.len());
    for (n, b) in replies {
        n.encode(enc);
        enc.write_bytes(b);
    }
}

fn decode_replies(dec: &mut CdrDecoder<'_>) -> Result<Vec<(NodeId, Bytes)>, CdrError> {
    let len = dec.read_seq_len()?;
    let mut out = Vec::with_capacity(len.min(256));
    for _ in 0..len {
        let n = NodeId::decode(dec)?;
        let b = Bytes::from(dec.read_bytes()?);
        out.push((n, b));
    }
    Ok(out)
}

impl CdrEncode for InvMessage {
    fn encode(&self, enc: &mut CdrEncoder) {
        match self {
            InvMessage::Request {
                call,
                op,
                args,
                mode,
            } => {
                enc.write_u8(TAG_REQUEST);
                call.encode(enc);
                enc.write_string(op);
                enc.write_bytes(args);
                enc.write_u8(mode.code());
            }
            InvMessage::Forwarded {
                call,
                op,
                args,
                mode,
                manager,
                no_reply,
            } => {
                enc.write_u8(TAG_FORWARDED);
                call.encode(enc);
                enc.write_string(op);
                enc.write_bytes(args);
                enc.write_u8(mode.code());
                manager.encode(enc);
                enc.write_bool(*no_reply);
            }
            InvMessage::ServerReply {
                call,
                replier,
                result,
            } => {
                enc.write_u8(TAG_SERVER_REPLY);
                call.encode(enc);
                replier.encode(enc);
                enc.write_bytes(result);
            }
            InvMessage::RelayedReply { call, replies } => {
                enc.write_u8(TAG_RELAYED_REPLY);
                call.encode(enc);
                encode_replies(enc, replies);
            }
            InvMessage::DirectReply {
                call,
                replier,
                result,
            } => {
                enc.write_u8(TAG_DIRECT_REPLY);
                call.encode(enc);
                replier.encode(enc);
                enc.write_bytes(result);
            }
            InvMessage::G2gRequest {
                origin,
                number,
                op,
                args,
                mode,
            } => {
                enc.write_u8(TAG_G2G_REQUEST);
                origin.encode(enc);
                enc.write_u64(*number);
                enc.write_string(op);
                enc.write_bytes(args);
                enc.write_u8(mode.code());
            }
            InvMessage::G2gReply {
                origin,
                number,
                replies,
            } => {
                enc.write_u8(TAG_G2G_REPLY);
                origin.encode(enc);
                enc.write_u64(*number);
                encode_replies(enc, replies);
            }
        }
    }
}

impl CdrDecode for InvMessage {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        Ok(match dec.read_u8()? {
            TAG_REQUEST => InvMessage::Request {
                call: CallId::decode(dec)?,
                op: dec.read_string()?,
                args: Bytes::from(dec.read_bytes()?),
                mode: ReplyMode::from_code(dec.read_u8()?)?,
            },
            TAG_FORWARDED => InvMessage::Forwarded {
                call: CallId::decode(dec)?,
                op: dec.read_string()?,
                args: Bytes::from(dec.read_bytes()?),
                mode: ReplyMode::from_code(dec.read_u8()?)?,
                manager: NodeId::decode(dec)?,
                no_reply: dec.read_bool()?,
            },
            TAG_SERVER_REPLY => InvMessage::ServerReply {
                call: CallId::decode(dec)?,
                replier: NodeId::decode(dec)?,
                result: Bytes::from(dec.read_bytes()?),
            },
            TAG_RELAYED_REPLY => InvMessage::RelayedReply {
                call: CallId::decode(dec)?,
                replies: decode_replies(dec)?,
            },
            TAG_DIRECT_REPLY => InvMessage::DirectReply {
                call: CallId::decode(dec)?,
                replier: NodeId::decode(dec)?,
                result: Bytes::from(dec.read_bytes()?),
            },
            TAG_G2G_REQUEST => InvMessage::G2gRequest {
                origin: GroupId::decode(dec)?,
                number: dec.read_u64()?,
                op: dec.read_string()?,
                args: Bytes::from(dec.read_bytes()?),
                mode: ReplyMode::from_code(dec.read_u8()?)?,
            },
            TAG_G2G_REPLY => InvMessage::G2gReply {
                origin: GroupId::decode(dec)?,
                number: dec.read_u64()?,
                replies: decode_replies(dec)?,
            },
            other => return Err(CdrError::BadDiscriminant(u32::from(other))),
        })
    }
}

/// An action the invocation layer asks its owner (the NSO) to perform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvCommand {
    /// Multicast a marshalled [`InvMessage`] in a group, totally ordered.
    Multicast {
        /// Destination group.
        group: GroupId,
        /// Marshalled message.
        payload: Bytes,
    },
    /// Send a marshalled [`InvMessage`] directly to a node's NSO as a
    /// oneway ORB invocation of [`crate::INV_OPERATION`].
    Direct {
        /// Destination node.
        to: NodeId,
        /// Marshalled message.
        payload: Bytes,
    },
}

impl InvCommand {
    /// Builds a multicast command from a message.
    #[must_use]
    pub fn multicast(group: GroupId, msg: &InvMessage) -> Self {
        InvCommand::Multicast {
            group,
            payload: msg.to_cdr(),
        }
    }

    /// Builds a direct-send command from a message.
    #[must_use]
    pub fn direct(to: NodeId, msg: &InvMessage) -> Self {
        InvCommand::Direct {
            to,
            payload: msg.to_cdr(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn reply_mode_needed_counts() {
        assert_eq!(ReplyMode::OneWay.needed(3), 0);
        assert_eq!(ReplyMode::First.needed(3), 1);
        assert_eq!(ReplyMode::Majority.needed(3), 2);
        assert_eq!(ReplyMode::Majority.needed(4), 3);
        assert_eq!(ReplyMode::Majority.needed(5), 3);
        assert_eq!(ReplyMode::All.needed(3), 3);
        assert_eq!(ReplyMode::First.needed(0), 0);
    }

    #[test]
    fn call_id_round_trip_and_display() {
        let c = CallId {
            client: n(4),
            number: 17,
        };
        assert_eq!(CallId::from_cdr(&c.to_cdr()).unwrap(), c);
        assert_eq!(c.to_string(), "n4#17");
    }

    #[test]
    fn all_message_variants_round_trip() {
        let call = CallId {
            client: n(1),
            number: 2,
        };
        let msgs = vec![
            InvMessage::Request {
                call,
                op: "draw".to_owned(),
                args: Bytes::from_static(b"a"),
                mode: ReplyMode::All,
            },
            InvMessage::Forwarded {
                call,
                op: "draw".to_owned(),
                args: Bytes::from_static(b"a"),
                mode: ReplyMode::First,
                manager: n(3),
                no_reply: true,
            },
            InvMessage::ServerReply {
                call,
                replier: n(3),
                result: Bytes::from_static(b"r"),
            },
            InvMessage::RelayedReply {
                call,
                replies: vec![(n(3), Bytes::from_static(b"r")), (n(4), Bytes::new())],
            },
            InvMessage::DirectReply {
                call,
                replier: n(5),
                result: Bytes::from_static(b"d"),
            },
            InvMessage::G2gRequest {
                origin: GroupId::new("gx"),
                number: 9,
                op: "tally".to_owned(),
                args: Bytes::new(),
                mode: ReplyMode::Majority,
            },
            InvMessage::G2gReply {
                origin: GroupId::new("gx"),
                number: 9,
                replies: vec![(n(7), Bytes::from_static(b"x"))],
            },
        ];
        for m in msgs {
            assert_eq!(InvMessage::from_cdr(&m.to_cdr()).unwrap(), m);
        }
    }

    #[test]
    fn commands_wrap_marshalled_messages() {
        let msg = InvMessage::ServerReply {
            call: CallId {
                client: n(0),
                number: 1,
            },
            replier: n(1),
            result: Bytes::new(),
        };
        let InvCommand::Multicast { group, payload } =
            InvCommand::multicast(GroupId::new("g"), &msg)
        else {
            panic!("wrong variant");
        };
        assert_eq!(group, GroupId::new("g"));
        assert_eq!(InvMessage::from_cdr(&payload).unwrap(), msg);
        let InvCommand::Direct { to, payload } = InvCommand::direct(n(9), &msg) else {
            panic!("wrong variant");
        };
        assert_eq!(to, n(9));
        assert_eq!(InvMessage::from_cdr(&payload).unwrap(), msg);
    }

    proptest! {
        #[test]
        fn prop_messages_round_trip(
            client in 0u32..100,
            number in 1u64..1_000_000,
            op in "[a-z_]{1,20}",
            args in proptest::collection::vec(any::<u8>(), 0..64),
            mode_code in 0u8..4,
        ) {
            let mode = ReplyMode::from_code(mode_code).unwrap();
            let m = InvMessage::Request {
                call: CallId { client: n(client), number },
                op,
                args: Bytes::from(args),
                mode,
            };
            prop_assert_eq!(InvMessage::from_cdr(&m.to_cdr()).unwrap(), m);
        }

        #[test]
        fn prop_decoder_survives_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = InvMessage::from_cdr(&bytes);
        }
    }
}
