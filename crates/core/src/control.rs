//! The binding-control protocol between NSOs.
//!
//! Client/server groups are created on demand: the client asks each
//! involved server (one for an open binding, all of them for a closed
//! binding) to instantiate the group, then instantiates it locally once
//! every server has acknowledged. These control messages travel as
//! ordinary ORB requests of [`crate::INV_CTRL_OPERATION`].

use newtop_gcs::group::{GroupConfig, GroupId};
use newtop_net::site::NodeId;
use newtop_orb::cdr::{CdrDecode, CdrDecoder, CdrEncode, CdrEncoder, CdrError};

/// A control request from a client NSO to a server NSO.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtrlMessage {
    /// "Create the client/server group `group` with me in it."
    BindRequest {
        /// The client/server group to instantiate.
        group: GroupId,
        /// The binding client.
        client: NodeId,
        /// The server group being bound to.
        server_group: GroupId,
        /// Full membership of the client/server group (client + one
        /// server when open, client + every server when closed).
        members: Vec<NodeId>,
        /// True for the closed style.
        closed: bool,
        /// The client/server group's settings. Every member creates the
        /// group from this one value, so client and servers cannot
        /// disagree on a setting.
        config: GroupConfig,
    },
}

const TAG_BIND: u8 = 0;

impl CdrEncode for CtrlMessage {
    fn encode(&self, enc: &mut CdrEncoder) {
        match self {
            CtrlMessage::BindRequest {
                group,
                client,
                server_group,
                members,
                closed,
                config,
            } => {
                enc.write_u8(TAG_BIND);
                group.encode(enc);
                client.encode(enc);
                server_group.encode(enc);
                members.encode(enc);
                enc.write_bool(*closed);
                config.encode(enc);
            }
        }
    }
}

impl CdrDecode for CtrlMessage {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        match dec.read_u8()? {
            TAG_BIND => Ok(CtrlMessage::BindRequest {
                group: GroupId::decode(dec)?,
                client: NodeId::decode(dec)?,
                server_group: GroupId::decode(dec)?,
                members: Vec::decode(dec)?,
                closed: dec.read_bool()?,
                config: GroupConfig::decode(dec)?,
            }),
            other => Err(CdrError::BadDiscriminant(u32::from(other))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_gcs::group::{FanoutMode, OrderProtocol};
    use std::time::Duration;

    #[test]
    fn bind_request_round_trips() {
        let m = CtrlMessage::BindRequest {
            group: GroupId::new("cs:0:1"),
            client: NodeId::from_index(0),
            server_group: GroupId::new("servers"),
            members: vec![NodeId::from_index(0), NodeId::from_index(3)],
            closed: false,
            config: GroupConfig::request_reply(),
        };
        assert_eq!(CtrlMessage::from_cdr(&m.to_cdr()).unwrap(), m);
    }

    #[test]
    fn closed_flag_and_ordering_round_trip() {
        let m = CtrlMessage::BindRequest {
            group: GroupId::new("g"),
            client: NodeId::from_index(9),
            server_group: GroupId::new("s"),
            members: vec![],
            closed: true,
            config: GroupConfig {
                ordering: OrderProtocol::Symmetric,
                fanout: FanoutMode::Asynchronous,
                time_silence: Duration::from_micros(1),
                ..GroupConfig::request_reply()
            },
        };
        assert_eq!(CtrlMessage::from_cdr(&m.to_cdr()).unwrap(), m);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(CtrlMessage::from_cdr(&[77, 1, 2, 3]).is_err());
    }
}
