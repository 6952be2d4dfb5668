//! Simulator harness for the group communication service.
//!
//! Hosts a [`GcsMember`] plus its [`OrbCore`] on each simulated node and
//! lets tests script group operations at chosen virtual times. Used by
//! this crate's integration tests and by downstream crates' tests; it is
//! not part of the production API surface.
//!
//! Scripted operations are injected as special control packets (the
//! simulator's only scheduling primitive), marked with a magic prefix
//! that cannot collide with GIOP traffic.

use std::collections::VecDeque;

use bytes::Bytes;

use newtop_net::sim::{NodeEvent, Outbox, Sim, SimConfig, SimNode};
use newtop_net::site::{NodeId, Site};
use newtop_net::time::SimTime;
use newtop_orb::cdr::{CdrDecode, CdrDecoder, CdrEncode, CdrEncoder, CdrError};
use newtop_orb::orb::{OrbCore, OrbIncoming};

use crate::group::{DeliveryOrder, GroupConfig, GroupId};
use crate::member::{GcsMember, GcsNet, GcsOutput};
use crate::messages::GcsMessage;
use crate::view::View;
use crate::GCS_OPERATION;

const CTRL_MAGIC: &[u8; 6] = b"NTCTRL";

/// A scripted group operation.
#[derive(Clone, Debug)]
pub enum Command {
    /// Statically create a group with known membership.
    Create {
        /// Group to create.
        group: GroupId,
        /// Its configuration.
        config: GroupConfig,
        /// Full initial membership.
        members: Vec<NodeId>,
    },
    /// Join an existing group through a contact member.
    Join {
        /// Group to join.
        group: GroupId,
        /// Configuration (must match the group's).
        config: GroupConfig,
        /// A current member to contact.
        contact: NodeId,
    },
    /// Leave a group.
    Leave {
        /// Group to leave.
        group: GroupId,
    },
    /// Multicast a payload.
    Multicast {
        /// Destination group.
        group: GroupId,
        /// Requested guarantee.
        order: DeliveryOrder,
        /// Payload.
        payload: Bytes,
    },
}

fn encode_config(enc: &mut CdrEncoder, c: &GroupConfig) {
    c.encode(enc);
}

fn decode_config(dec: &mut CdrDecoder<'_>) -> Result<GroupConfig, CdrError> {
    GroupConfig::decode(dec)
}

/// Encodes a scripted command as a magic-prefixed control packet
/// payload. Public so downstream harnesses (the durable-recovery
/// harness in `newtop-dir`) can script the same operations.
#[must_use]
pub fn encode_command(cmd: &Command) -> Bytes {
    let mut enc = CdrEncoder::new();
    for b in CTRL_MAGIC {
        enc.write_u8(*b);
    }
    match cmd {
        Command::Create {
            group,
            config,
            members,
        } => {
            enc.write_u8(0);
            group.encode(&mut enc);
            encode_config(&mut enc, config);
            members.encode(&mut enc);
        }
        Command::Join {
            group,
            config,
            contact,
        } => {
            enc.write_u8(1);
            group.encode(&mut enc);
            encode_config(&mut enc, config);
            contact.encode(&mut enc);
        }
        Command::Leave { group } => {
            enc.write_u8(2);
            group.encode(&mut enc);
        }
        Command::Multicast {
            group,
            order,
            payload,
        } => {
            enc.write_u8(3);
            group.encode(&mut enc);
            enc.write_u8(match order {
                DeliveryOrder::Causal => 0,
                DeliveryOrder::Total => 1,
            });
            enc.write_bytes(payload);
        }
    }
    enc.finish()
}

/// Decodes a scripted command from a packet payload, or `None` when the
/// payload is not a magic-prefixed control packet.
#[must_use]
pub fn decode_command(payload: &[u8]) -> Option<Command> {
    if payload.len() < CTRL_MAGIC.len() || &payload[..CTRL_MAGIC.len()] != CTRL_MAGIC {
        return None;
    }
    // Decode over the full frame (consuming the magic through the
    // decoder) so CDR alignment matches the encoder's absolute offsets.
    let mut dec = CdrDecoder::new(payload);
    for _ in 0..CTRL_MAGIC.len() {
        dec.read_u8().ok()?;
    }
    let cmd = match dec.read_u8().ok()? {
        0 => Command::Create {
            group: GroupId::decode(&mut dec).ok()?,
            config: decode_config(&mut dec).ok()?,
            members: Vec::decode(&mut dec).ok()?,
        },
        1 => Command::Join {
            group: GroupId::decode(&mut dec).ok()?,
            config: decode_config(&mut dec).ok()?,
            contact: NodeId::decode(&mut dec).ok()?,
        },
        2 => Command::Leave {
            group: GroupId::decode(&mut dec).ok()?,
        },
        3 => Command::Multicast {
            group: GroupId::decode(&mut dec).ok()?,
            order: match dec.read_u8().ok()? {
                0 => DeliveryOrder::Causal,
                _ => DeliveryOrder::Total,
            },
            payload: Bytes::from(dec.read_bytes().ok()?),
        },
        _ => return None,
    };
    Some(cmd)
}

/// A simulated node hosting its GCS member and ORB.
pub struct GcsNode {
    gcs: GcsMember,
    orb: OrbCore,
    /// Every output the member produced, stamped with virtual time.
    pub outputs: Vec<(SimTime, GcsOutput)>,
}

impl GcsNode {
    /// Creates the node state for `id`.
    #[must_use]
    pub fn new(id: NodeId) -> Self {
        GcsNode {
            gcs: GcsMember::new(id, 1 << 40),
            orb: OrbCore::new(id),
            outputs: Vec::new(),
        }
    }

    /// The member under test.
    #[must_use]
    pub fn gcs(&self) -> &GcsMember {
        &self.gcs
    }

    /// Delivered payloads for one group, in delivery order.
    #[must_use]
    pub fn delivered(&self, group: &GroupId) -> Vec<(NodeId, Bytes)> {
        self.outputs
            .iter()
            .filter_map(|(_, o)| match o {
                GcsOutput::Delivered {
                    group: g,
                    sender,
                    payload,
                    ..
                } if g == group => Some((*sender, payload.clone())),
                _ => None,
            })
            .collect()
    }

    /// Views installed for one group, in installation order.
    #[must_use]
    pub fn views(&self, group: &GroupId) -> Vec<View> {
        self.outputs
            .iter()
            .filter_map(|(_, o)| match o {
                GcsOutput::ViewInstalled { group: g, view, .. } if g == group => Some(view.clone()),
                _ => None,
            })
            .collect()
    }
}

impl SimNode for GcsNode {
    fn on_event(&mut self, now: SimTime, ev: NodeEvent, out: &mut Outbox) {
        match ev {
            NodeEvent::Start => {}
            NodeEvent::Packet(pkt) => {
                if let Some(cmd) = decode_command(&pkt.payload) {
                    let mut net = GcsNet::new(&mut self.orb, out);
                    let outputs = match cmd {
                        Command::Create {
                            group,
                            config,
                            members,
                        } => self
                            .gcs
                            .create_group(group, config, members, now, &mut net)
                            .unwrap_or_default(),
                        Command::Join {
                            group,
                            config,
                            contact,
                        } => {
                            let _ = self.gcs.join_group(group, config, contact, now, &mut net);
                            Vec::new()
                        }
                        Command::Leave { group } => self
                            .gcs
                            .leave_group(&group, now, &mut net)
                            .unwrap_or_default(),
                        Command::Multicast {
                            group,
                            order,
                            payload,
                        } => {
                            let _ = self.gcs.multicast(&group, order, payload, now, &mut net);
                            Vec::new()
                        }
                    };
                    self.outputs.extend(outputs.into_iter().map(|o| (now, o)));
                    return;
                }
                let incoming = self.orb.handle_packet(&pkt, out);
                if let Some(OrbIncoming::Upcall {
                    operation, body, ..
                }) = incoming
                {
                    if operation == GCS_OPERATION {
                        if let Ok(msg) = GcsMessage::from_cdr(&body) {
                            let mut net = GcsNet::new(&mut self.orb, out);
                            let outputs = self.gcs.on_message(msg, now, &mut net);
                            self.outputs.extend(outputs.into_iter().map(|o| (now, o)));
                        }
                    }
                }
            }
            NodeEvent::Timer(_, tag) => {
                if self.gcs.owns_tag(tag) {
                    let mut net = GcsNet::new(&mut self.orb, out);
                    let outputs = self.gcs.on_timer(tag, now, &mut net);
                    self.outputs.extend(outputs.into_iter().map(|o| (now, o)));
                }
            }
        }
    }
}

/// A scripted multi-node GCS scenario on the simulator.
pub struct GcsHarness {
    /// The underlying simulator (exposed for fault injection and custom
    /// scheduling).
    pub sim: Sim,
    nodes: Vec<NodeId>,
    /// Commands queued before their injection time.
    queued: VecDeque<()>,
}

impl GcsHarness {
    /// Creates a harness over a fresh simulator.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        GcsHarness {
            sim: Sim::new(cfg),
            nodes: Vec::new(),
            queued: VecDeque::new(),
        }
    }

    /// The simulator seed, for reproduction messages: a failing run is
    /// re-created byte-for-byte by re-running with the same seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.sim.seed()
    }

    /// Adds `count` nodes at `site`, returning their ids.
    pub fn add_nodes(&mut self, site: Site, count: usize) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            // Two-phase: the node needs its own id.
            let id = NodeId::from_index(self.next_index());
            let node = GcsNode::new(id);
            let actual = self.sim.add_node(site, Box::new(node));
            assert_eq!(actual, id, "node id allocation must be dense");
            self.nodes.push(id);
            ids.push(id);
        }
        ids
    }

    fn next_index(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Schedules a command on one node at virtual time `at`.
    pub fn command(&mut self, at: SimTime, node: NodeId, cmd: &Command) {
        let payload = encode_command(cmd);
        self.sim.schedule_packet(
            at,
            newtop_net::sim::Packet {
                src: node,
                dst: node,
                payload,
            },
        );
        let _ = &self.queued;
    }

    /// Schedules group creation on every listed member at `at`.
    pub fn create_group(
        &mut self,
        at: SimTime,
        group: &GroupId,
        config: &GroupConfig,
        members: &[NodeId],
    ) {
        for &m in members {
            self.command(
                at,
                m,
                &Command::Create {
                    group: group.clone(),
                    config: config.clone(),
                    members: members.to_vec(),
                },
            );
        }
    }

    /// Schedules a multicast from `node` at `at`.
    pub fn multicast(
        &mut self,
        at: SimTime,
        node: NodeId,
        group: &GroupId,
        order: DeliveryOrder,
        payload: impl Into<Bytes>,
    ) {
        self.command(
            at,
            node,
            &Command::Multicast {
                group: group.clone(),
                order,
                payload: payload.into(),
            },
        );
    }

    /// Schedules a join at `at`.
    pub fn join(
        &mut self,
        at: SimTime,
        node: NodeId,
        group: &GroupId,
        config: &GroupConfig,
        contact: NodeId,
    ) {
        self.command(
            at,
            node,
            &Command::Join {
                group: group.clone(),
                config: config.clone(),
                contact,
            },
        );
    }

    /// Schedules a graceful leave at `at`.
    pub fn leave(&mut self, at: SimTime, node: NodeId, group: &GroupId) {
        self.command(
            at,
            node,
            &Command::Leave {
                group: group.clone(),
            },
        );
    }

    /// Runs the simulation until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Access to a node's recorded state.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not added through this harness.
    #[must_use]
    pub fn node(&self, node: NodeId) -> &GcsNode {
        self.sim
            .node_ref::<GcsNode>(node)
            .expect("node exists and is a GcsNode")
    }

    /// Delivered `(sender, payload)` pairs at `node` for `group`.
    #[must_use]
    pub fn delivered(&self, node: NodeId, group: &GroupId) -> Vec<(NodeId, Bytes)> {
        self.node(node).delivered(group)
    }

    /// Views installed at `node` for `group`.
    #[must_use]
    pub fn views(&self, node: NodeId, group: &GroupId) -> Vec<View> {
        self.node(node).views(group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_encoding_round_trips() {
        let cmds = [
            Command::Create {
                group: GroupId::new("g"),
                config: GroupConfig::peer(),
                members: vec![NodeId::from_index(0), NodeId::from_index(1)],
            },
            Command::Join {
                group: GroupId::new("g"),
                config: GroupConfig::request_reply(),
                contact: NodeId::from_index(2),
            },
            Command::Leave {
                group: GroupId::new("g"),
            },
            Command::Multicast {
                group: GroupId::new("g"),
                order: DeliveryOrder::Total,
                payload: Bytes::from_static(b"hello"),
            },
        ];
        for cmd in &cmds {
            let encoded = encode_command(cmd);
            let decoded = decode_command(&encoded).expect("decodes");
            // Compare the round trip by re-encoding.
            assert_eq!(encode_command(&decoded), encoded);
        }
    }

    #[test]
    fn giop_frames_are_not_commands() {
        assert!(decode_command(b"GIOP frame bytes").is_none());
        assert!(decode_command(b"").is_none());
    }
}
