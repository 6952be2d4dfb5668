//! Simulator harness for durable GCS nodes: crash, cold-restart,
//! replay, rejoin.
//!
//! [`DurableGcsNode`] wraps the simulator's one NSO host, an [`NsoNode`],
//! and writes every group event its NSO reports through a
//! [`SharedStore`] (the node's stable storage, held *outside* the
//! volatile node state so it survives [`SimNode::on_restart`]). Scripted
//! group operations reach it as calls scheduled with
//! [`Sim::schedule_call`]; it intercepts only its own recovery packets
//! and hands every other event to the NSO. After a
//! crash-and-restart the node replays snapshot + log, rejoins each
//! group it was a member of through the last durably known view, and
//! fetches the deliveries it missed as *chunked delta state transfer*
//! from its contiguous-ack floor — the [`RecoveryMsg`] protocol — so a
//! rejoin ships `history - floor` records, not the full history.
//!
//! The floor is sound because recovery scenarios drive totally ordered
//! traffic: every member delivers the same per-group sequence, so the
//! recovered node's replayed history is a byte-exact prefix of any
//! surviving member's history.

use std::collections::BTreeMap;

use bytes::Bytes;

use newtop::nso::{Nso, NsoOutput};
use newtop::simnode::{NsoNode, OutputLog};
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId};
use newtop_gcs::view::View;
use newtop_net::sim::{NodeEvent, Outbox, Sim, SimConfig, SimNode};
use newtop_net::site::{NodeId, Site};
use newtop_net::time::SimTime;
use newtop_orb::cdr::{CdrDecode, CdrDecoder, CdrEncode, CdrEncoder, CdrError};

use crate::log::{DeliveredRec, LogRecord};
use crate::store::{shared_store, SharedStore};

const RCVR_MAGIC: &[u8; 6] = b"NTRCVR";

/// Deliveries per state-transfer chunk.
pub const XFER_CHUNK: usize = 8;

/// Delivered records between automatic snapshots of a node's log.
pub const SNAPSHOT_EVERY: u64 = 16;

/// The delta state-transfer protocol between a recovering node and its
/// contact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryMsg {
    /// "Send me `group`'s history beyond my floor."
    XferRequest {
        /// Group to transfer.
        group: GroupId,
        /// Deliveries the requester already holds (its replayed
        /// contiguous-ack floor).
        floor: u64,
    },
    /// One chunk of the delta, in delivery order.
    XferChunk {
        /// Group concerned.
        group: GroupId,
        /// Absolute index of the first record in this chunk.
        start: u64,
        /// The records.
        records: Vec<DeliveredRec>,
        /// Whether this is the final chunk.
        done: bool,
    },
}

impl CdrEncode for RecoveryMsg {
    fn encode(&self, enc: &mut CdrEncoder) {
        match self {
            RecoveryMsg::XferRequest { group, floor } => {
                enc.write_u8(0);
                group.encode(enc);
                enc.write_u64(*floor);
            }
            RecoveryMsg::XferChunk {
                group,
                start,
                records,
                done,
            } => {
                enc.write_u8(1);
                group.encode(enc);
                enc.write_u64(*start);
                records.encode(enc);
                enc.write_u8(u8::from(*done));
            }
        }
    }
}

impl CdrDecode for RecoveryMsg {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        match dec.read_u8()? {
            0 => Ok(RecoveryMsg::XferRequest {
                group: GroupId::decode(dec)?,
                floor: dec.read_u64()?,
            }),
            1 => Ok(RecoveryMsg::XferChunk {
                group: GroupId::decode(dec)?,
                start: dec.read_u64()?,
                records: Vec::<DeliveredRec>::decode(dec)?,
                done: match dec.read_u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(CdrError::BadDiscriminant(u32::from(other))),
                },
            }),
            other => Err(CdrError::BadDiscriminant(u32::from(other))),
        }
    }
}

/// Frames a [`RecoveryMsg`] as a magic-prefixed packet payload.
#[must_use]
pub fn encode_recovery(msg: &RecoveryMsg) -> Bytes {
    let mut enc = CdrEncoder::new();
    for b in RCVR_MAGIC {
        enc.write_u8(*b);
    }
    msg.encode(&mut enc);
    enc.finish()
}

/// Decodes a magic-prefixed recovery payload; `None` when the payload
/// is not recovery traffic, an error when it is but is malformed.
///
/// # Errors
///
/// The [`CdrError`] of a malformed recovery body.
pub fn decode_recovery(payload: &[u8]) -> Option<Result<RecoveryMsg, CdrError>> {
    if payload.len() < RCVR_MAGIC.len() || &payload[..RCVR_MAGIC.len()] != RCVR_MAGIC {
        return None;
    }
    let mut dec = CdrDecoder::new(payload);
    for _ in 0..RCVR_MAGIC.len() {
        // Cannot fail: the length check above covers the magic.
        let _ = dec.read_u8();
    }
    Some(RecoveryMsg::decode(&mut dec))
}

/// A simulated node hosting a durably logged NSO stack.
pub struct DurableGcsNode {
    id: NodeId,
    store: SharedStore,
    /// The NSO this node runs. Its [`OutputLog`] holds every output
    /// produced since the last cold start; a restart swaps in a fresh
    /// host and moves the log to [`Self::pre_crash_outputs`].
    host: NsoNode,
    /// Outputs produced before the most recent crash.
    pub pre_crash_outputs: Vec<(SimTime, NsoOutput)>,
    /// Per-group delivery history reconstructed from durable state at
    /// the last recovery.
    pub replayed: BTreeMap<GroupId, Vec<DeliveredRec>>,
    /// Per-group records received via delta transfer after recovery.
    pub delta_records: BTreeMap<GroupId, Vec<DeliveredRec>>,
    /// Per-group delta payload bytes received (the transferred-bytes
    /// side of the delta-vs-full assertion).
    pub delta_bytes: BTreeMap<GroupId, u64>,
    /// When recovery replay ran, if it has.
    pub recovered_at: Option<SimTime>,
    /// Per-group time the first post-recovery view containing this node
    /// was installed (cold-restart rejoin latency).
    pub rejoined_at: BTreeMap<GroupId, SimTime>,
    /// Whether replay found a snapshot installed.
    pub recovered_from_snapshot: bool,
    /// Log records replayed beyond the snapshot at recovery.
    pub replayed_log_records: u64,
    recover_pending: bool,
    delivered_since_snapshot: u64,
    /// Latest installed view per group (volatile).
    latest_views: BTreeMap<GroupId, View>,
    /// Delta requests waiting for the requester's rejoin view:
    /// `(requester, group, floor)`.
    pending_xfers: Vec<(NodeId, GroupId, u64)>,
}

fn fresh_host(id: NodeId) -> NsoNode {
    NsoNode::new(id, Box::new(OutputLog::default()))
}

impl DurableGcsNode {
    /// Creates the node state for `id` over `store`.
    #[must_use]
    pub fn new(id: NodeId, store: SharedStore) -> Self {
        DurableGcsNode {
            id,
            store,
            host: fresh_host(id),
            pre_crash_outputs: Vec::new(),
            replayed: BTreeMap::new(),
            delta_records: BTreeMap::new(),
            delta_bytes: BTreeMap::new(),
            recovered_at: None,
            rejoined_at: BTreeMap::new(),
            recovered_from_snapshot: false,
            replayed_log_records: 0,
            recover_pending: false,
            delivered_since_snapshot: 0,
            latest_views: BTreeMap::new(),
            pending_xfers: Vec::new(),
        }
    }

    /// The NSO this incarnation runs.
    #[must_use]
    pub fn nso(&self) -> &Nso {
        self.host.nso()
    }

    /// Every output produced since the last cold start, stamped with
    /// virtual time.
    #[must_use]
    pub fn outputs(&self) -> &[(SimTime, NsoOutput)] {
        self.host
            .app_ref::<OutputLog>()
            .map_or(&[], |log| &log.outputs)
    }

    /// Delivered `(sender, payload)` pairs for one group since the last
    /// cold start, in delivery order.
    #[must_use]
    pub fn delivered(&self, group: &GroupId) -> Vec<(NodeId, Bytes)> {
        Self::delivered_recs(self.outputs(), group)
            .into_iter()
            .map(|r| (r.sender, r.payload))
            .collect()
    }

    /// Full delivery records for one group from an output slice.
    #[must_use]
    pub fn delivered_recs(outputs: &[(SimTime, NsoOutput)], group: &GroupId) -> Vec<DeliveredRec> {
        outputs
            .iter()
            .filter_map(|(_, o)| match o {
                NsoOutput::PeerDeliver {
                    group: g,
                    sender,
                    order,
                    lamport,
                    payload,
                } if g == group => Some(DeliveredRec {
                    sender: *sender,
                    order: *order,
                    lamport: *lamport,
                    payload: payload.clone(),
                }),
                _ => None,
            })
            .collect()
    }

    /// This node's known delivery history for `group` as of its first
    /// `upto` outputs: the prefix replayed from durable state at the
    /// last recovery (empty if this node never recovered) plus what it
    /// delivered since.
    fn known_history(&self, group: &GroupId, upto: usize) -> Vec<DeliveredRec> {
        let mut history = self.replayed.get(group).cloned().unwrap_or_default();
        let outputs = self.outputs();
        history.extend(Self::delivered_recs(
            &outputs[..upto.min(outputs.len())],
            group,
        ));
        history
    }

    /// Ships `group`'s history beyond `floor`, as of the first `upto`
    /// outputs, to `to` in chunks.
    fn serve_xfer(
        &mut self,
        to: NodeId,
        group: &GroupId,
        floor: u64,
        upto: usize,
        out: &mut Outbox,
    ) {
        let history = self.known_history(group, upto);
        let from_idx = (floor as usize).min(history.len());
        let delta = &history[from_idx..];
        let chunks: Vec<&[DeliveredRec]> = if delta.is_empty() {
            vec![&[][..]]
        } else {
            delta.chunks(XFER_CHUNK).collect()
        };
        let last = chunks.len() - 1;
        for (i, chunk) in chunks.into_iter().enumerate() {
            // Replay admission: state transfer re-ships acknowledged
            // history, so it passes the flow controller outside the
            // live send window (counted, never shed).
            if let Some(flow) = self.host.nso_mut().gcs_mut().flow_of_mut(group) {
                let _ = flow.admit_replay();
            }
            let msg = RecoveryMsg::XferChunk {
                group: group.clone(),
                start: floor + (i * XFER_CHUNK) as u64,
                records: chunk.to_vec(),
                done: i == last,
            };
            out.send(to, encode_recovery(&msg));
        }
    }

    /// Stages durable records for the outputs recorded from index `from`
    /// on; the commit point is [`Self::commit`] at the end of the
    /// handling event.
    fn log_outputs(&mut self, now: SimTime, from: usize, out: &mut Outbox) {
        for i in from..self.outputs().len() {
            let record = match &self.outputs()[i].1 {
                NsoOutput::PeerDeliver {
                    group,
                    sender,
                    order,
                    lamport,
                    payload,
                } => LogRecord::Delivered {
                    group: group.clone(),
                    rec: DeliveredRec {
                        sender: *sender,
                        order: *order,
                        lamport: *lamport,
                        payload: payload.clone(),
                    },
                },
                NsoOutput::ViewChanged { group, view } => LogRecord::ViewInstalled {
                    group: group.clone(),
                    view: view.clone(),
                },
                _ => continue,
            };
            self.store.lock().unwrap().append(self.id, &record);
            match record {
                LogRecord::Delivered { .. } => self.delivered_since_snapshot += 1,
                LogRecord::ViewInstalled { group, view } => {
                    if self.recovered_at.is_some()
                        && view.contains(self.id)
                        && !self.rejoined_at.contains_key(&group)
                    {
                        self.rejoined_at.insert(group.clone(), now);
                    }
                    // A view install is the state-transfer point:
                    // virtual synchrony has flushed every pre-view
                    // message, so a delta served here — history up to
                    // and including this install — is exactly the
                    // requester's missed suffix.
                    let mut due = Vec::new();
                    self.pending_xfers.retain(|(to, pg, floor)| {
                        if *pg == group && view.contains(*to) {
                            due.push((*to, *floor));
                            false
                        } else {
                            true
                        }
                    });
                    self.latest_views.insert(group.clone(), view);
                    for (to, floor) in due {
                        self.serve_xfer(to, &group, floor, i + 1, out);
                    }
                }
                _ => {}
            }
        }
    }

    /// The fsync batch point: everything staged by this event becomes
    /// durable before the handler returns, so no delivery is ever
    /// acknowledged ahead of its flush. Also takes the periodic
    /// snapshot once enough deliveries accumulated since the last one.
    fn commit(&mut self) {
        let mut store = self.store.lock().unwrap();
        store.sync(self.id);
        if self.delivered_since_snapshot >= SNAPSHOT_EVERY {
            self.delivered_since_snapshot = 0;
            let _ = store.compact(self.id);
        }
    }

    /// Runs a scripted operation on the hosted NSO as one event of this
    /// node (see [`DurableHarness`]): stages `record` ahead of it — the
    /// durable trace of a group creation — logs what the operation
    /// produced, and commits before returning, like every handler.
    pub fn on_call(
        &mut self,
        now: SimTime,
        out: &mut Outbox,
        record: Option<LogRecord>,
        op: impl FnOnce(&mut Nso, SimTime, &mut Outbox),
    ) {
        if let Some(record) = record {
            self.store.lock().unwrap().append(self.id, &record);
        }
        let from = self.outputs().len();
        OutputLog::record_call(&mut self.host, now, out, op);
        self.log_outputs(now, from, out);
        self.commit();
    }

    fn handle_recovery_msg(&mut self, from: NodeId, msg: RecoveryMsg, out: &mut Outbox) {
        match msg {
            RecoveryMsg::XferRequest { group, floor } => {
                // Serve immediately only if the requester is already
                // back in the view; otherwise park the request until its
                // rejoin view installs, so the delta meets the rejoin at
                // the view boundary with no gap between them.
                let rejoined = self
                    .latest_views
                    .get(&group)
                    .is_some_and(|v| v.contains(from));
                if rejoined {
                    let upto = self.outputs().len();
                    self.serve_xfer(from, &group, floor, upto, out);
                } else {
                    self.pending_xfers.push((from, group, floor));
                }
            }
            RecoveryMsg::XferChunk { group, records, .. } => {
                // Transferred records carry the stamps other members saw
                // this node's pre-crash in-flight sends with; observing
                // them keeps post-recovery stamps strictly increasing.
                if let Some(max) = records.iter().map(|r| r.lamport).max() {
                    self.host.nso_mut().gcs_mut().observe_clock(max);
                }
                let bytes: u64 = records.iter().map(|r| r.payload.len() as u64).sum();
                *self.delta_bytes.entry(group.clone()).or_insert(0) += bytes;
                self.delta_records.entry(group).or_default().extend(records);
            }
        }
    }

    /// Replays durable state and rejoins every group this node was a
    /// member of, requesting the missed suffix from the lowest-ranked
    /// other member of the last durably installed view.
    fn run_recovery(&mut self, now: SimTime, out: &mut Outbox) {
        let recovered = {
            let store = self.store.lock().unwrap();
            store.recover(self.id)
        };
        let Ok(state) = recovered else {
            return;
        };
        self.recovered_at = Some(now);
        self.recovered_from_snapshot = state.from_snapshot;
        self.replayed_log_records = state.log_records_replayed;
        // Restore the Lamport clock: never stamp a post-recovery send
        // below anything in the durable history.
        let max_lamport = state
            .groups
            .values()
            .flat_map(|g| g.history.iter().map(|r| r.lamport))
            .max()
            .unwrap_or(0);
        self.host.nso_mut().gcs_mut().observe_clock(max_lamport);
        for (group, g) in state.groups {
            let floor = g.history.len() as u64;
            self.replayed.insert(group.clone(), g.history);
            let Some(view) = g.last_view else {
                continue;
            };
            if !view.contains(self.id) {
                continue;
            }
            let Some(&contact) = view.members().iter().find(|&&m| m != self.id) else {
                continue;
            };
            out.send(
                contact,
                encode_recovery(&RecoveryMsg::XferRequest {
                    group: group.clone(),
                    floor,
                }),
            );
            self.store.lock().unwrap().append(
                self.id,
                &LogRecord::Created {
                    group: group.clone(),
                    config: g.config.clone(),
                    members: vec![contact],
                },
            );
            OutputLog::record_call(&mut self.host, now, out, |nso, now, out| {
                let _ = nso.join_peer_group(group, g.config, contact, now, out);
            });
        }
    }
}

impl SimNode for DurableGcsNode {
    fn on_event(&mut self, now: SimTime, ev: NodeEvent, out: &mut Outbox) {
        // Recovery traffic is this node's own; everything else is the
        // NSO's.
        if let NodeEvent::Packet(pkt) = &ev {
            if let Some(decoded) = decode_recovery(&pkt.payload) {
                if let Ok(msg) = decoded {
                    self.handle_recovery_msg(pkt.src, msg, out);
                }
                self.commit();
                return;
            }
        }
        let from = self.outputs().len();
        let recover = matches!(ev, NodeEvent::Start) && std::mem::take(&mut self.recover_pending);
        self.host.on_event(now, ev, out);
        if recover {
            self.run_recovery(now, out);
        }
        self.log_outputs(now, from, out);
        self.commit();
    }

    fn on_restart(&mut self, _now: SimTime) {
        // Volatile state dies with the incarnation; stable storage (the
        // shared store) survives. Mid-event staged-but-unsynced bytes
        // are what a real crash loses.
        self.store.lock().unwrap().crash(self.id);
        let mut crashed = std::mem::replace(&mut self.host, fresh_host(self.id));
        if let Some(log) = crashed.app_mut::<OutputLog>() {
            self.pre_crash_outputs.append(&mut log.outputs);
        }
        self.latest_views.clear();
        self.pending_xfers.clear();
        self.recover_pending = true;
    }
}

/// A scripted multi-node durable scenario on the simulator.
pub struct DurableHarness {
    /// The underlying simulator (exposed for fault injection and custom
    /// scheduling).
    pub sim: Sim,
    /// The shared stable storage of every node.
    pub store: SharedStore,
    nodes: Vec<NodeId>,
}

impl DurableHarness {
    /// Creates a harness over a fresh simulator and a fresh store.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        DurableHarness {
            sim: Sim::new(cfg),
            store: shared_store(),
            nodes: Vec::new(),
        }
    }

    /// The simulator seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.sim.seed()
    }

    /// Adds `count` durable nodes at `site`, returning their ids.
    pub fn add_nodes(&mut self, site: Site, count: usize) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            let id = NodeId::from_index(self.nodes.len() as u32);
            let node = DurableGcsNode::new(id, self.store.clone());
            let actual = self.sim.add_node(site, Box::new(node));
            assert_eq!(actual, id, "node id allocation must be dense");
            self.nodes.push(id);
            ids.push(id);
        }
        ids
    }

    /// Schedules `op` to run on `node`'s NSO at `at`, with `record`
    /// staged ahead of it (see [`DurableGcsNode::on_call`]); a dead node
    /// drops it.
    fn call<F>(&mut self, at: SimTime, node: NodeId, record: Option<LogRecord>, op: F)
    where
        F: FnOnce(&mut Nso, SimTime, &mut Outbox) + Send + 'static,
    {
        self.sim.schedule_call(at, node, move |host, now, out| {
            if let Some(host) = host.downcast_mut::<DurableGcsNode>() {
                host.on_call(now, out, record, op);
            }
        });
    }

    /// Schedules static creation of a group on every listed member.
    pub fn create_group(
        &mut self,
        at: SimTime,
        group: &GroupId,
        config: &GroupConfig,
        members: &[NodeId],
    ) {
        for &m in members {
            let record = LogRecord::Created {
                group: group.clone(),
                config: config.clone(),
                members: members.to_vec(),
            };
            let (group, config, members) = (group.clone(), config.clone(), members.to_vec());
            self.call(at, m, Some(record), move |nso, now, out| {
                let _ = nso.create_peer_group(group, members, config, now, out);
            });
        }
    }

    /// Schedules a multicast from `node`.
    pub fn multicast(
        &mut self,
        at: SimTime,
        node: NodeId,
        group: &GroupId,
        order: DeliveryOrder,
        payload: impl Into<Bytes>,
    ) {
        let (group, payload) = (group.clone(), payload.into());
        self.call(at, node, None, move |nso, now, out| {
            if let Some(handle) = nso.handle_for(&group) {
                let _ = handle.send(nso, payload, order, now, out);
            }
        });
    }

    /// Runs the simulator to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// The durable node state of `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not added through this harness.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &DurableGcsNode {
        self.sim
            .node_ref::<DurableGcsNode>(id)
            .expect("durable node")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn peer_config() -> GroupConfig {
        GroupConfig::peer().with_time_silence(Duration::from_millis(20))
    }

    #[test]
    fn recovery_msgs_round_trip_and_reject_noise() {
        let msgs = [
            RecoveryMsg::XferRequest {
                group: GroupId::new("ga"),
                floor: 7,
            },
            RecoveryMsg::XferChunk {
                group: GroupId::new("ga"),
                start: 7,
                records: vec![DeliveredRec {
                    sender: NodeId::from_index(1),
                    order: DeliveryOrder::Total,
                    lamport: 3,
                    payload: Bytes::from_static(b"m"),
                }],
                done: true,
            },
        ];
        for msg in msgs {
            let framed = encode_recovery(&msg);
            assert_eq!(decode_recovery(&framed).unwrap().unwrap(), msg);
        }
        assert!(decode_recovery(b"not recovery traffic").is_none());
        let mut bad = encode_recovery(&RecoveryMsg::XferRequest {
            group: GroupId::new("ga"),
            floor: 0,
        })
        .to_vec();
        bad[6] = 9; // discriminant
        assert!(decode_recovery(&bad).unwrap().is_err());
    }

    #[test]
    fn crashed_node_recovers_rejoins_and_fetches_the_delta() {
        let mut h = DurableHarness::new(SimConfig::lan(11));
        let ids = h.add_nodes(Site::Lan, 3);
        let ga = GroupId::new("ga");
        h.create_group(ms(1), &ga, &peer_config(), &ids);
        // Rounds of totally ordered traffic; n2 dies mid-stream and
        // later rounds outlive its recovery.
        for round in 0..12u64 {
            for (i, &id) in ids.iter().enumerate() {
                h.multicast(
                    ms(30 + round * 120 + i as u64 * 7),
                    id,
                    &ga,
                    DeliveryOrder::Total,
                    format!("ga/n{i}/r{round}"),
                );
            }
        }
        h.sim.schedule_crash(ms(300), ids[2]);
        h.sim.schedule_restart(ms(700), ids[2]);
        h.run_until(ms(3500));

        let victim = h.node(ids[2]);
        // Replay reproduced the pre-crash delivery sequence exactly.
        let pre = DurableGcsNode::delivered_recs(&victim.pre_crash_outputs, &ga);
        assert!(!pre.is_empty(), "victim delivered nothing before crash");
        assert_eq!(victim.replayed.get(&ga).unwrap(), &pre);
        // It rejoined and kept delivering.
        assert!(
            victim.rejoined_at.contains_key(&ga),
            "victim never rejoined"
        );
        assert!(
            !victim.delivered(&ga).is_empty(),
            "victim delivered nothing after recovery"
        );
        // Delta transfer shipped only the missed suffix.
        let survivor = h.node(ids[0]);
        let full = DurableGcsNode::delivered_recs(survivor.outputs(), &ga);
        let full_bytes: u64 = full.iter().map(|r| r.payload.len() as u64).sum();
        let delta_bytes = *victim.delta_bytes.get(&ga).unwrap_or(&0);
        assert!(
            delta_bytes < full_bytes,
            "delta {delta_bytes} not smaller than full history {full_bytes}"
        );
        // The replayed prefix + fetched delta lines up with the
        // survivor's history prefix.
        // Replayed prefix + delta + post-recovery deliveries converge to
        // the never-crashed member's history, byte for byte: the delta
        // is served at the rejoin view boundary, so nothing falls in the
        // gap between state transfer and the first post-rejoin delivery.
        let delta = victim.delta_records.get(&ga).cloned().unwrap_or_default();
        assert!(!delta.is_empty(), "no records travelled as delta");
        let mut victim_total = pre.clone();
        victim_total.extend(delta);
        victim_total.extend(DurableGcsNode::delivered_recs(victim.outputs(), &ga));
        assert_eq!(
            victim_total, full,
            "victim's converged history differs from the survivor's"
        );
        // The contact served the delta through replay admission: the
        // chunks passed its flow controller outside the live window.
        assert!(
            survivor
                .nso()
                .gcs()
                .flow_of(&ga)
                .is_some_and(|f| f.replayed_count() > 0),
            "state transfer bypassed the flow controller's replay path"
        );
    }
}
