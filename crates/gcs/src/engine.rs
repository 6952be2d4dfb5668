//! The pure delivery engine: one group, one view, no runtime.
//!
//! A [`DeliveryEngine`] turns a stream of received [`DataMsg`]s (plus
//! null-message heartbeats and, for the asymmetric protocol, sequencer
//! ordering records) into a delivery sequence satisfying:
//!
//! * **per-sender FIFO** — a sender's messages are delivered in sequence
//!   order, with gaps detected for NACK-based retransmission;
//! * **causal order** — a message is delivered only after the per-sender
//!   prefixes its sender had delivered when multicasting it
//!   ([`DataMsg::deps`]);
//! * **total order** (for messages sent with
//!   [`DeliveryOrder::Total`]) — by Lamport timestamp (ties broken by
//!   member id) under the **symmetric** protocol, or by sequencer-assigned
//!   global positions under the **asymmetric** protocol. Both are
//!   causality-preserving.
//!
//! The engine also tracks stability from piggybacked acknowledgement
//! vectors (for garbage collection and the view-change flush) and
//! implements the flush itself: [`DeliveryEngine::flush_remaining`]
//! deterministically delivers everything left so all view-change survivors
//! end on the same message set (virtual synchrony).
//!
//! The symmetric protocol's delivery condition uses *effective* heard
//! timestamps: a peer's timestamp only advances once the local member
//! holds that peer's data contiguously up to the sequence the timestamp
//! was attached to. Without this, a null message racing ahead of a lost
//! data message could commit a total-order position too early.
//!
//! The asymmetric protocol's order log is bounded the same way the data
//! buffers are: [`DeliveryEngine::gc_stable`] drops the positions every
//! member has delivered, which no member can ask for again. Positions
//! stay absolute, so [`DeliveryEngine::order_log_len`] still counts every
//! position the view has ordered.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use crate::clock::DepsVector;
use crate::group::{DeliveryOrder, OrderProtocol};
use crate::member::GcsError;
use crate::messages::{ContigVector, DataMsg};
use crate::view::{canonical_members, ViewId};
use newtop_net::site::NodeId;

/// Outcome of offering a data message to the engine.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Ingest {
    /// New message, buffered.
    Accepted,
    /// Already seen (or already delivered); dropped.
    Duplicate,
}

#[derive(Debug, Default)]
struct SenderTrack {
    /// Received messages by sequence, retained until delivered *and*
    /// stable (they may be needed for retransmission or the flush).
    /// Refcounted: delivery, retransmission, and view-change unions hand
    /// out `Arc` clones instead of copying payloads.
    buffer: BTreeMap<u64, Arc<DataMsg>>,
    /// Highest contiguously received sequence.
    contig: u64,
    /// Highest delivered sequence (always ≤ `contig`).
    delivered: u64,
    /// Highest sequence known to exist (from gaps or null `last_seq`).
    max_seen: u64,
    /// Lamport timestamp of the message at `contig` (0 if none).
    contig_ts: u64,
    /// Latest null heartbeat: (timestamp, sender's last data seq).
    null_heard: Option<(u64, u64)>,
}

impl SenderTrack {
    /// The timestamp this sender is known to have passed, *restricted to
    /// what we hold contiguously* — see the module docs.
    fn effective_heard(&self) -> u64 {
        let mut ts = self.contig_ts;
        if let Some((null_ts, last_seq)) = self.null_heard {
            if last_seq <= self.contig {
                ts = ts.max(null_ts);
            }
        }
        ts
    }
}

#[derive(Debug, Default)]
struct SequencerState {
    /// Per sender: all messages with seq ≤ this have been examined
    /// (total ones assigned positions, causal ones skipped).
    processed: BTreeMap<NodeId, u64>,
    /// Next global position to assign (1-based).
    next_pos: u64,
}

/// The per-group, per-view delivery engine. See the [module docs](self).
#[derive(Debug)]
pub struct DeliveryEngine {
    me: NodeId,
    view: ViewId,
    members: Vec<NodeId>,
    protocol: OrderProtocol,
    senders: BTreeMap<NodeId, SenderTrack>,
    /// Symmetric protocol: undelivered total-order messages keyed by
    /// (lamport, sender, seq).
    total_queue: BTreeSet<(u64, NodeId, u64)>,
    /// Asymmetric protocol: the retained tail of the global order log.
    /// Index 0 holds position `order_base + 1`.
    order_log: VecDeque<(NodeId, u64)>,
    /// Order-log positions already dropped by `gc_stable` (every member
    /// had delivered them).
    order_base: u64,
    /// Sequencer only: per other member, the per-sender prefix its data
    /// messages' `deps` prove it has delivered. Bounds the order-log
    /// trim: a member that never multicasts keeps the whole log.
    peer_delivered: BTreeMap<NodeId, DepsVector>,
    /// Out-of-order ordering records awaiting earlier positions.
    pending_order: BTreeMap<u64, (NodeId, u64)>,
    /// Next global position to deliver (1-based).
    next_deliver_pos: u64,
    /// Sequencer-side state (used only while `me` is the sequencer).
    seq_state: SequencerState,
    /// acked[by][sender] = contiguous prefix `by` has acknowledged.
    acked: BTreeMap<NodeId, BTreeMap<NodeId, u64>>,
}

/// Everything needed to build a [`DeliveryEngine`] for one view of a
/// group. Replaces the old positional `DeliveryEngine::new`, which
/// panicked when `me` was missing from the member list; [`Self::build`]
/// surfaces that as [`GcsError::BadMembership`] instead.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The local member the engine delivers for.
    pub me: NodeId,
    /// The view this engine serves.
    pub view: ViewId,
    /// View membership; canonicalised (sorted, deduplicated) by `build`.
    pub members: Vec<NodeId>,
    /// Total-order protocol the view runs.
    pub protocol: OrderProtocol,
}

impl EngineConfig {
    /// Builds the engine, canonicalising `members` with the same helper
    /// the [`View`](crate::view::View) constructor uses.
    ///
    /// # Errors
    ///
    /// [`GcsError::BadMembership`] if `me` is not in `members`.
    pub fn build(self) -> Result<DeliveryEngine, GcsError> {
        let members = canonical_members(self.members);
        if members.binary_search(&self.me).is_err() {
            return Err(GcsError::BadMembership);
        }
        let senders = members
            .iter()
            .map(|&m| (m, SenderTrack::default()))
            .collect();
        Ok(DeliveryEngine {
            me: self.me,
            view: self.view,
            members,
            protocol: self.protocol,
            senders,
            total_queue: BTreeSet::new(),
            order_log: VecDeque::new(),
            order_base: 0,
            peer_delivered: BTreeMap::new(),
            pending_order: BTreeMap::new(),
            next_deliver_pos: 1,
            seq_state: SequencerState {
                processed: BTreeMap::new(),
                next_pos: 1,
            },
            acked: BTreeMap::new(),
        })
    }
}

impl DeliveryEngine {
    /// The sorted view membership.
    #[must_use]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Whether the owning member is this view's sequencer (asymmetric
    /// protocol: the lowest-id member).
    #[must_use]
    pub fn is_sequencer(&self) -> bool {
        self.members.first() == Some(&self.me)
    }

    /// The ordering protocol in force.
    #[must_use]
    pub fn protocol(&self) -> OrderProtocol {
        self.protocol
    }

    /// Offers a received data message (including the member's own, which
    /// arrive via self-loopback). Accepts an owned message or an already
    /// shared `Arc<DataMsg>`; the engine buffers the shared form.
    pub fn ingest_data(&mut self, msg: impl Into<Arc<DataMsg>>) -> Ingest {
        let msg: Arc<DataMsg> = msg.into();
        debug_assert_eq!(msg.view, self.view, "caller must filter stale views");
        // On the sequencer, a peer's `deps` are its delivered vector at
        // send time: proof of which order-log positions it can no longer
        // ask for (see `trim_order_log`).
        let proves_delivery = self.protocol == OrderProtocol::Asymmetric
            && msg.sender != self.me
            && self.is_sequencer();
        let Some(track) = self.senders.get_mut(&msg.sender) else {
            return Ingest::Duplicate; // not a member of this view
        };
        if msg.seq <= track.contig || track.buffer.contains_key(&msg.seq) {
            return Ingest::Duplicate;
        }
        track.max_seen = track.max_seen.max(msg.seq);
        let key = (msg.lamport, msg.sender, msg.seq);
        let is_total = msg.order == DeliveryOrder::Total;
        if proves_delivery {
            self.peer_delivered
                .entry(msg.sender)
                .or_default()
                .merge(&msg.deps);
        }
        track.buffer.insert(msg.seq, msg);
        // Advance the contiguous prefix.
        while let Some(next) = track.buffer.get(&(track.contig + 1)) {
            track.contig += 1;
            track.contig_ts = track.contig_ts.max(next.lamport);
        }
        if is_total && self.protocol == OrderProtocol::Symmetric {
            self.total_queue.insert(key);
        }
        Ingest::Accepted
    }

    /// Notes a null heartbeat from `sender`.
    pub fn note_null(&mut self, sender: NodeId, lamport: u64, last_seq: u64) {
        if let Some(track) = self.senders.get_mut(&sender) {
            track.max_seen = track.max_seen.max(last_seq);
            let better = match track.null_heard {
                Some((ts, _)) => lamport > ts,
                None => true,
            };
            if better {
                track.null_heard = Some((lamport, last_seq));
            }
        }
    }

    /// Folds in an acknowledgement vector piggybacked by `by`.
    pub fn apply_acks(&mut self, by: NodeId, acks: &ContigVector) {
        if !self.members.contains(&by) {
            return;
        }
        let entry = self.acked.entry(by).or_default();
        for &(sender, seq) in acks {
            let cur = entry.entry(sender).or_insert(0);
            *cur = (*cur).max(seq);
        }
    }

    /// The member's own contiguously-received vector (what it would
    /// piggyback as acks).
    #[must_use]
    pub fn contig_vector(&self) -> ContigVector {
        self.senders
            .iter()
            .filter(|(_, t)| t.contig > 0)
            .map(|(&s, t)| (s, t.contig))
            .collect()
    }

    /// The member's delivered vector (stamped as `deps` on outgoing
    /// multicasts).
    #[must_use]
    pub fn delivered_vector(&self) -> ContigVector {
        self.senders
            .iter()
            .filter(|(_, t)| t.delivered > 0)
            .map(|(&s, t)| (s, t.delivered))
            .collect()
    }

    /// Messages this member holds with sequences beyond `contig` — the
    /// state-response payload during view agreement.
    #[must_use]
    pub fn export_msgs_beyond(&self, contig: &ContigVector) -> Vec<Arc<DataMsg>> {
        let floor = |sender: NodeId| {
            contig
                .iter()
                .find(|&&(s, _)| s == sender)
                .map_or(0, |&(_, seq)| seq)
        };
        let mut out = Vec::new();
        for (&sender, track) in &self.senders {
            let fl = floor(sender);
            for (&seq, msg) in &track.buffer {
                if seq > fl {
                    out.push(Arc::clone(msg));
                }
            }
        }
        out
    }

    /// Per-sender gaps needing retransmission: `(sender, from, to)`
    /// inclusive ranges.
    #[must_use]
    pub fn missing_ranges(&self) -> Vec<(NodeId, u64, u64)> {
        let mut out = Vec::new();
        for (&sender, track) in &self.senders {
            if track.max_seen <= track.contig {
                continue;
            }
            let mut gap_start = None;
            for seq in (track.contig + 1)..=track.max_seen {
                let have = track.buffer.contains_key(&seq);
                match (have, gap_start) {
                    (false, None) => gap_start = Some(seq),
                    (true, Some(start)) => {
                        out.push((sender, start, seq - 1));
                        gap_start = None;
                    }
                    _ => {}
                }
            }
            if let Some(start) = gap_start {
                out.push((sender, start, track.max_seen));
            }
        }
        out
    }

    /// A buffered message, if still held (serves NACKs). Returned by
    /// shared reference so retransmissions can `Arc::clone` it without
    /// copying the payload.
    #[must_use]
    pub fn get_buffered(&self, sender: NodeId, seq: u64) -> Option<&Arc<DataMsg>> {
        self.senders.get(&sender)?.buffer.get(&seq)
    }

    /// First missing global order position (asymmetric protocol; triggers
    /// an order NACK at the sequencer).
    ///
    /// Two cases: a later record is buffered past a hole, or — the *tail
    /// loss* case — every known record has been consumed yet a
    /// contiguously-received total-order message is still undelivered,
    /// meaning its ordering record never arrived.
    #[must_use]
    pub fn order_gap(&self) -> Option<u64> {
        if self.protocol != OrderProtocol::Asymmetric {
            return None;
        }
        if !self.pending_order.is_empty() {
            return Some(self.order_log_len() + 1);
        }
        let consumed_all = self.next_deliver_pos > self.order_log_len();
        if consumed_all {
            let unordered_total = self.senders.values().any(|t| {
                t.buffer.iter().any(|(&seq, m)| {
                    seq <= t.contig && seq > t.delivered && m.order == DeliveryOrder::Total
                })
            });
            if unordered_total {
                return Some(self.order_log_len() + 1);
            }
        }
        None
    }

    /// Ingests sequencer ordering records starting at global position
    /// `start`.
    pub fn ingest_order(&mut self, start: u64, entries: &[(NodeId, u64)]) {
        // An ordering record proves the data message exists: make the gap
        // detector chase it (under redirection, data for other senders
        // flows through the sequencer and may be lost independently).
        for &(sender, seq) in entries {
            if let Some(track) = self.senders.get_mut(&sender) {
                track.max_seen = track.max_seen.max(seq);
            }
        }
        for (i, &e) in entries.iter().enumerate() {
            let pos = start + i as u64;
            let next = self.order_log_len() + 1;
            match pos.cmp(&next) {
                std::cmp::Ordering::Less => {} // duplicate
                std::cmp::Ordering::Equal => {
                    self.order_log.push_back(e);
                    // Drain any buffered successors.
                    loop {
                        let want = self.order_log_len() + 1;
                        match self.pending_order.remove(&want) {
                            Some(buffered) => self.order_log.push_back(buffered),
                            None => break,
                        }
                    }
                }
                std::cmp::Ordering::Greater => {
                    self.pending_order.insert(pos, e);
                }
            }
        }
    }

    /// Length of the global order log received/produced so far: every
    /// position, including those `gc_stable` has dropped.
    #[must_use]
    pub fn order_log_len(&self) -> u64 {
        self.order_base + self.order_log.len() as u64
    }

    /// Order-log entries still held in memory.
    #[cfg(test)]
    fn order_log_retained(&self) -> usize {
        self.order_log.len()
    }

    /// The order-log entry at global position `pos`, if retained.
    fn order_entry(&self, pos: u64) -> Option<(NodeId, u64)> {
        let idx = pos.checked_sub(self.order_base + 1)?;
        self.order_log.get(usize::try_from(idx).ok()?).copied()
    }

    /// A slice of the order log covering up to `max` positions from
    /// global position `from_pos`, for answering order NACKs. Returns
    /// `(start, entries)`. Dropped positions are left out, so `start` is
    /// past `from_pos` when the window begins before the retained tail:
    /// every member has delivered those positions already.
    #[must_use]
    pub fn order_log_slice(&self, from_pos: u64, max: usize) -> (u64, Vec<(NodeId, u64)>) {
        let want = from_pos.max(1);
        let end = want
            .saturating_add(u64::try_from(max).unwrap_or(u64::MAX))
            .min(self.order_log_len() + 1);
        let start = want.max(self.order_base + 1);
        let entries = (start..end)
            .map_while(|pos| self.order_entry(pos))
            .collect();
        (start, entries)
    }

    /// Sequencer duty cycle: assign global positions to newly-orderable
    /// messages. The entries are appended to the local order log *and*
    /// returned so the caller can multicast them. Call only when
    /// [`Self::is_sequencer`] is true.
    pub fn sequencer_poll(&mut self) -> Vec<(NodeId, u64)> {
        debug_assert!(self.is_sequencer());
        let mut new_entries = Vec::new();
        loop {
            let mut progressed = false;
            // Index loop: iterating `self.members` by reference would pin
            // `self` borrowed across the mutations below.
            for i in 0..self.members.len() {
                let Some(&sender) = self.members.get(i) else {
                    break;
                };
                loop {
                    let processed = *self.seq_state.processed.get(&sender).unwrap_or(&0);
                    let next_seq = processed + 1;
                    let Some(track) = self.senders.get(&sender) else {
                        break;
                    };
                    if next_seq > track.contig {
                        break;
                    }
                    let msg = track.buffer.get(&next_seq);
                    let Some(msg) = msg else {
                        // Already garbage collected: can only happen once
                        // delivered, hence already processed; skip.
                        self.seq_state.processed.insert(sender, next_seq);
                        progressed = true;
                        continue;
                    };
                    if msg.order == DeliveryOrder::Total {
                        // Respect causality: all of the message's
                        // dependencies must have been examined first.
                        let deps_ok = msg
                            .deps
                            .satisfied_by(|q| *self.seq_state.processed.get(&q).unwrap_or(&0));
                        if !deps_ok {
                            break;
                        }
                        self.order_log.push_back((sender, next_seq));
                        new_entries.push((sender, next_seq));
                        self.seq_state.next_pos += 1;
                    }
                    self.seq_state.processed.insert(sender, next_seq);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        new_entries
    }

    /// True if any received message is still awaiting delivery.
    #[must_use]
    pub fn has_undelivered(&self) -> bool {
        self.senders
            .values()
            .any(|t| t.buffer.keys().any(|&s| s > t.delivered))
    }

    /// Delivers everything currently deliverable, in order. The returned
    /// messages are `Arc` clones of the buffered copies — no payload is
    /// duplicated.
    pub fn drain_deliverable(&mut self) -> Vec<Arc<DataMsg>> {
        let mut out = Vec::new();
        loop {
            let mut progressed = false;
            progressed |= self.deliver_causal(&mut out);
            progressed |= match self.protocol {
                OrderProtocol::Symmetric => self.deliver_symmetric(&mut out),
                OrderProtocol::Asymmetric => self.deliver_asymmetric(&mut out),
            };
            if !progressed {
                break;
            }
        }
        out
    }

    /// Delivers causal-order messages whose FIFO and dependency conditions
    /// hold.
    fn deliver_causal(&mut self, out: &mut Vec<Arc<DataMsg>>) -> bool {
        let mut progressed = false;
        loop {
            let mut round = false;
            for i in 0..self.members.len() {
                let Some(&sender) = self.members.get(i) else {
                    break;
                };
                while let Some(track) = self.senders.get(&sender) {
                    let next = track.delivered + 1;
                    if next > track.contig {
                        break;
                    }
                    let Some(msg) = track.buffer.get(&next) else {
                        break;
                    };
                    if msg.order != DeliveryOrder::Causal {
                        break;
                    }
                    if !self.deps_satisfied(&msg.deps) {
                        break;
                    }
                    let msg = Arc::clone(msg);
                    self.mark_delivered(sender, next);
                    out.push(msg);
                    round = true;
                }
            }
            if !round {
                break;
            }
            progressed = true;
        }
        progressed
    }

    fn deps_satisfied(&self, deps: &crate::clock::DepsVector) -> bool {
        deps.satisfied_by(|q| self.senders.get(&q).map_or(0, |t| t.delivered))
    }

    fn mark_delivered(&mut self, sender: NodeId, seq: u64) {
        let Some(track) = self.senders.get_mut(&sender) else {
            return;
        };
        debug_assert_eq!(track.delivered + 1, seq, "FIFO delivery");
        track.delivered = seq;
    }

    /// Symmetric total order: deliver from the head of the timestamp
    /// queue while the head is safe.
    fn deliver_symmetric(&mut self, out: &mut Vec<Arc<DataMsg>>) -> bool {
        let mut progressed = false;
        while let Some(&(ts, sender, seq)) = self.total_queue.iter().next() {
            let Some(track) = self.senders.get(&sender) else {
                break;
            };
            if seq > track.contig {
                // Head not contiguously received yet (should not happen:
                // queue entries are only inserted when buffered, but a
                // flush may have consumed them).
                break;
            }
            if track.delivered + 1 != seq {
                // An earlier (causal) message from this sender must be
                // delivered first; deliver_causal handles it.
                break;
            }
            let msg = match track.buffer.get(&seq) {
                Some(m) => Arc::clone(m),
                None => {
                    self.total_queue.remove(&(ts, sender, seq));
                    continue;
                }
            };
            if !self.deps_satisfied(&msg.deps) {
                break;
            }
            // Every *other* member must have reached this timestamp: a
            // member's events carry strictly increasing timestamps and
            // `effective_heard` only counts its contiguous prefix, so
            // once `heard >= ts` no message of that member ordered before
            // `(ts, sender)` can still be missing (an equal-timestamp one
            // is already buffered and the queue's `(ts, id)` key orders
            // it correctly).
            let safe = self.members.iter().all(|&q| {
                if q == sender || q == self.me {
                    return true;
                }
                self.senders
                    .get(&q)
                    .is_some_and(|t| t.effective_heard() >= ts)
            });
            if !safe {
                break;
            }
            self.total_queue.remove(&(ts, sender, seq));
            self.mark_delivered(sender, seq);
            out.push(msg);
            progressed = true;
        }
        progressed
    }

    /// Asymmetric total order: deliver along the sequencer's global log.
    fn deliver_asymmetric(&mut self, out: &mut Vec<Arc<DataMsg>>) -> bool {
        let mut progressed = false;
        while let Some((sender, seq)) = self.order_entry(self.next_deliver_pos) {
            let Some(track) = self.senders.get(&sender) else {
                break;
            };
            if seq > track.contig {
                break; // data not yet received
            }
            if track.delivered + 1 != seq {
                break; // an earlier causal message must go first
            }
            let Some(msg) = track.buffer.get(&seq).map(Arc::clone) else {
                break;
            };
            if !self.deps_satisfied(&msg.deps) {
                break;
            }
            self.next_deliver_pos += 1;
            self.mark_delivered(sender, seq);
            out.push(msg);
            progressed = true;
        }
        progressed
    }

    /// View-change flush: deterministically delivers every remaining
    /// message (per-sender FIFO prefixes, globally by Lamport timestamp),
    /// so all survivors of the view end with the same delivery set.
    ///
    /// Messages beyond a sequence gap of a (necessarily crashed) sender
    /// are dropped: no survivor holds the gap message, and FIFO forbids
    /// skipping it.
    pub fn flush_remaining(&mut self) -> Vec<Arc<DataMsg>> {
        let mut out = Vec::new();
        loop {
            // Candidate per sender: the next FIFO message, if buffered.
            let mut best: Option<(u64, NodeId, u64)> = None;
            for (&sender, track) in &self.senders {
                let next = track.delivered + 1;
                if let Some(msg) = track.buffer.get(&next) {
                    let key = (msg.lamport, sender, next);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            let Some((_, sender, seq)) = best else {
                break;
            };
            let Some(msg) = self
                .senders
                .get(&sender)
                .and_then(|t| t.buffer.get(&seq))
                .map(Arc::clone)
            else {
                break;
            };
            self.total_queue.remove(&(msg.lamport, sender, seq));
            self.mark_delivered(sender, seq);
            out.push(msg);
        }
        out
    }

    /// Garbage-collects messages that are delivered locally and
    /// acknowledged by every member, and order-log positions every member
    /// has delivered.
    pub fn gc_stable(&mut self) {
        self.trim_order_log();
        // Disjoint field borrows: `senders` is mutated while `members`,
        // `acked`, and `me` are only read.
        for (&sender, track) in &mut self.senders {
            let mut stable = track.contig;
            for &by in &self.members {
                if by == self.me {
                    continue;
                }
                let acked = self
                    .acked
                    .get(&by)
                    .and_then(|m| m.get(&sender))
                    .copied()
                    .unwrap_or(0);
                stable = stable.min(acked);
            }
            let limit = stable.min(track.delivered);
            if limit > 0 {
                track.buffer.retain(|&seq, _| seq > limit);
            }
        }
    }

    /// Drops the order log's delivered prefix. A member NACKs only
    /// positions past its own log, and its log covers every position it
    /// has delivered, so a position every member has delivered is never
    /// asked for again. Only the sequencer answers order NACKs: any other
    /// member drops what it has delivered itself, while the sequencer
    /// also needs each other member's proof from `peer_delivered`
    /// (delivery follows the log, so a member that has delivered the
    /// message at a position has delivered every earlier one).
    fn trim_order_log(&mut self) {
        let delivered_here = self.next_deliver_pos.saturating_sub(1);
        let sequencer = self.is_sequencer();
        while self.order_base < delivered_here {
            let Some(&(sender, seq)) = self.order_log.front() else {
                break;
            };
            if sequencer && !self.delivered_by_every_peer(sender, seq) {
                break;
            }
            self.order_log.pop_front();
            self.order_base += 1;
        }
    }

    fn delivered_by_every_peer(&self, sender: NodeId, seq: u64) -> bool {
        self.members.iter().filter(|&&m| m != self.me).all(|m| {
            self.peer_delivered
                .get(m)
                .is_some_and(|d| d.get(sender) >= seq)
        })
    }

    /// Number of messages currently buffered (diagnostics / tests).
    #[must_use]
    pub fn buffered_count(&self) -> usize {
        self.senders.values().map(|t| t.buffer.len()).sum()
    }

    /// The delivered prefix of `sender` (0 if nothing yet).
    #[must_use]
    pub fn delivered_of(&self, sender: NodeId) -> u64 {
        self.senders.get(&sender).map_or(0, |t| t.delivered)
    }

    /// Ingests a batch of union messages during a view change (duplicates
    /// ignored), without delivering. Shared `Arc<DataMsg>`s are buffered
    /// as-is; owned messages are wrapped.
    pub fn ingest_union(&mut self, msgs: impl IntoIterator<Item = impl Into<Arc<DataMsg>>>) {
        for m in msgs {
            let m: Arc<DataMsg> = m.into();
            if m.view == self.view {
                let _ = self.ingest_data(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupId;
    use bytes::Bytes;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    fn msg(sender: u32, seq: u64, ts: u64, order: DeliveryOrder) -> DataMsg {
        DataMsg {
            group: GroupId::new("g"),
            view: ViewId(1),
            sender: n(sender),
            seq,
            lamport: ts,
            order,
            deps: DepsVector::new(),
            acks: vec![],
            payload: Bytes::from(format!("{sender}:{seq}")),
        }
    }

    fn msg_deps(
        sender: u32,
        seq: u64,
        ts: u64,
        order: DeliveryOrder,
        deps: &[(u32, u64)],
    ) -> DataMsg {
        let mut m = msg(sender, seq, ts, order);
        m.deps = DepsVector::from_pairs(deps.iter().map(|&(i, s)| (n(i), s)));
        m
    }

    fn engine(me: u32, members: &[u32], protocol: OrderProtocol) -> DeliveryEngine {
        EngineConfig {
            me: n(me),
            view: ViewId(1),
            members: members.iter().map(|&i| n(i)).collect(),
            protocol,
        }
        .build()
        .unwrap()
    }

    #[test]
    fn build_rejects_owner_outside_membership() {
        let err = EngineConfig {
            me: n(9),
            view: ViewId(1),
            members: vec![n(0), n(1)],
            protocol: OrderProtocol::Symmetric,
        }
        .build();
        assert_eq!(err.err(), Some(GcsError::BadMembership));
    }

    #[test]
    fn build_canonicalises_membership_like_view_new() {
        let e = EngineConfig {
            me: n(1),
            view: ViewId(1),
            members: vec![n(3), n(1), n(2), n(1)],
            protocol: OrderProtocol::Symmetric,
        }
        .build()
        .unwrap();
        assert_eq!(e.members(), &[n(1), n(2), n(3)]);
    }

    fn ids(msgs: &[Arc<DataMsg>]) -> Vec<(u32, u64)> {
        msgs.iter().map(|m| (m.sender.index(), m.seq)).collect()
    }

    // --- FIFO / reassembly --------------------------------------------

    #[test]
    fn duplicates_are_rejected() {
        let mut e = engine(0, &[0, 1], OrderProtocol::Symmetric);
        assert_eq!(
            e.ingest_data(msg(1, 1, 5, DeliveryOrder::Causal)),
            Ingest::Accepted
        );
        assert_eq!(
            e.ingest_data(msg(1, 1, 5, DeliveryOrder::Causal)),
            Ingest::Duplicate
        );
        let delivered = e.drain_deliverable();
        assert_eq!(ids(&delivered), vec![(1, 1)]);
        // Delivered and GC'd-from-contig duplicates are still duplicates.
        assert_eq!(
            e.ingest_data(msg(1, 1, 5, DeliveryOrder::Causal)),
            Ingest::Duplicate
        );
    }

    #[test]
    fn non_member_senders_are_ignored() {
        let mut e = engine(0, &[0, 1], OrderProtocol::Symmetric);
        assert_eq!(
            e.ingest_data(msg(9, 1, 5, DeliveryOrder::Causal)),
            Ingest::Duplicate
        );
    }

    #[test]
    fn out_of_order_receipt_is_reassembled() {
        let mut e = engine(0, &[0, 1], OrderProtocol::Symmetric);
        e.ingest_data(msg(1, 2, 6, DeliveryOrder::Causal));
        assert!(e.drain_deliverable().is_empty());
        assert_eq!(e.missing_ranges(), vec![(n(1), 1, 1)]);
        e.ingest_data(msg(1, 1, 5, DeliveryOrder::Causal));
        assert_eq!(ids(&e.drain_deliverable()), vec![(1, 1), (1, 2)]);
        assert!(e.missing_ranges().is_empty());
    }

    #[test]
    fn tail_loss_is_detected_via_null_last_seq() {
        let mut e = engine(0, &[0, 1], OrderProtocol::Symmetric);
        e.ingest_data(msg(1, 1, 5, DeliveryOrder::Causal));
        e.note_null(n(1), 9, 3);
        assert_eq!(e.missing_ranges(), vec![(n(1), 2, 3)]);
    }

    // --- causal order ---------------------------------------------------

    #[test]
    fn causal_deps_block_until_satisfied() {
        let mut e = engine(0, &[0, 1, 2], OrderProtocol::Symmetric);
        // Message from 2 depends on having delivered 1's first message.
        e.ingest_data(msg_deps(2, 1, 7, DeliveryOrder::Causal, &[(1, 1)]));
        assert!(e.drain_deliverable().is_empty());
        e.ingest_data(msg(1, 1, 5, DeliveryOrder::Causal));
        assert_eq!(ids(&e.drain_deliverable()), vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn causal_chain_across_three_members() {
        let mut e = engine(0, &[0, 1, 2, 3], OrderProtocol::Symmetric);
        e.ingest_data(msg_deps(3, 1, 9, DeliveryOrder::Causal, &[(2, 1)]));
        e.ingest_data(msg_deps(2, 1, 7, DeliveryOrder::Causal, &[(1, 1)]));
        assert!(e.drain_deliverable().is_empty());
        e.ingest_data(msg(1, 1, 5, DeliveryOrder::Causal));
        assert_eq!(ids(&e.drain_deliverable()), vec![(1, 1), (2, 1), (3, 1)]);
    }

    // --- symmetric total order ------------------------------------------

    #[test]
    fn symmetric_orders_by_timestamp_and_waits_for_silence() {
        let mut e = engine(0, &[0, 1, 2], OrderProtocol::Symmetric);
        e.ingest_data(msg(1, 1, 10, DeliveryOrder::Total));
        // Member 2 has not been heard past ts 10 yet: no delivery.
        assert!(e.drain_deliverable().is_empty());
        e.note_null(n(2), 11, 0);
        assert_eq!(ids(&e.drain_deliverable()), vec![(1, 1)]);
    }

    #[test]
    fn symmetric_interleaves_two_senders_by_timestamp() {
        let mut e = engine(0, &[0, 1, 2], OrderProtocol::Symmetric);
        e.ingest_data(msg(2, 1, 8, DeliveryOrder::Total));
        e.ingest_data(msg(1, 1, 10, DeliveryOrder::Total));
        e.note_null(n(1), 12, 1);
        e.note_null(n(2), 12, 1);
        // ts 8 before ts 10 regardless of receipt order.
        assert_eq!(ids(&e.drain_deliverable()), vec![(2, 1), (1, 1)]);
    }

    #[test]
    fn symmetric_ties_break_by_member_id() {
        let mut e = engine(0, &[0, 1, 2], OrderProtocol::Symmetric);
        e.ingest_data(msg(2, 1, 8, DeliveryOrder::Total));
        e.ingest_data(msg(1, 1, 8, DeliveryOrder::Total));
        e.note_null(n(1), 9, 1);
        e.note_null(n(2), 9, 1);
        assert_eq!(ids(&e.drain_deliverable()), vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn null_racing_ahead_of_lost_data_does_not_unlock() {
        // Member 1 sent data seq1 (lost) then data seq2; member 2's null
        // says ts 20. Without the effective-heard rule, 2's message could
        // deliver before 1's seq1 arrives even though seq1 has a smaller
        // timestamp.
        let mut e = engine(0, &[0, 1, 2], OrderProtocol::Symmetric);
        e.ingest_data(msg(1, 2, 6, DeliveryOrder::Total)); // seq 1 missing!
        e.ingest_data(msg(2, 1, 10, DeliveryOrder::Total));
        // Null from 1 with high ts but admitting last_seq=2: we only hold
        // seq 2 non-contiguously, so 1's effective heard stays 0.
        e.note_null(n(1), 20, 2);
        e.note_null(n(2), 21, 1);
        assert!(e.drain_deliverable().is_empty(), "must wait for 1's seq 1");
        e.ingest_data(msg(1, 1, 5, DeliveryOrder::Total));
        assert_eq!(
            ids(&e.drain_deliverable()),
            vec![(1, 1), (1, 2), (2, 1)],
            "timestamp order restored after retransmission"
        );
    }

    #[test]
    fn symmetric_two_member_group_delivers_immediately() {
        let mut e = engine(0, &[0, 1], OrderProtocol::Symmetric);
        e.ingest_data(msg(1, 1, 4, DeliveryOrder::Total));
        assert_eq!(ids(&e.drain_deliverable()), vec![(1, 1)]);
    }

    #[test]
    fn own_messages_participate_in_the_order() {
        let mut e = engine(0, &[0, 1, 2], OrderProtocol::Symmetric);
        e.ingest_data(msg(0, 1, 5, DeliveryOrder::Total)); // own, via loopback
        e.ingest_data(msg(1, 1, 7, DeliveryOrder::Total));
        e.note_null(n(1), 9, 1);
        e.note_null(n(2), 9, 0);
        assert_eq!(ids(&e.drain_deliverable()), vec![(0, 1), (1, 1)]);
    }

    // --- asymmetric total order ------------------------------------------

    #[test]
    fn sequencer_orders_and_members_follow() {
        // Node 0 is sequencer.
        let mut seq = engine(0, &[0, 1, 2], OrderProtocol::Asymmetric);
        let mut member = engine(1, &[0, 1, 2], OrderProtocol::Asymmetric);

        let m_a = msg(1, 1, 5, DeliveryOrder::Total);
        let m_b = msg(2, 1, 7, DeliveryOrder::Total);
        seq.ingest_data(m_b.clone());
        seq.ingest_data(m_a.clone());
        let entries = seq.sequencer_poll();
        assert_eq!(entries.len(), 2);
        // Sequencer delivers along its own log.
        assert_eq!(seq.drain_deliverable().len(), 2);

        // Member receives data in the opposite order plus the records.
        member.ingest_data(m_a);
        member.ingest_data(m_b);
        member.ingest_order(1, &entries);
        let delivered = member.drain_deliverable();
        assert_eq!(
            ids(&delivered),
            entries
                .iter()
                .map(|&(s, q)| (s.index(), q))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn member_waits_for_order_records() {
        let mut member = engine(1, &[0, 1], OrderProtocol::Asymmetric);
        member.ingest_data(msg(0, 1, 3, DeliveryOrder::Total));
        assert!(member.drain_deliverable().is_empty());
        member.ingest_order(1, &[(n(0), 1)]);
        assert_eq!(ids(&member.drain_deliverable()), vec![(0, 1)]);
    }

    #[test]
    fn order_gap_is_detected_and_healed() {
        let mut member = engine(1, &[0, 1], OrderProtocol::Asymmetric);
        member.ingest_data(msg(0, 1, 3, DeliveryOrder::Total));
        member.ingest_data(msg(0, 2, 4, DeliveryOrder::Total));
        member.ingest_order(2, &[(n(0), 2)]); // first record lost
        assert_eq!(member.order_gap(), Some(1));
        assert!(member.drain_deliverable().is_empty());
        member.ingest_order(1, &[(n(0), 1)]);
        assert_eq!(member.order_gap(), None);
        assert_eq!(ids(&member.drain_deliverable()), vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn sequencer_respects_causal_deps_across_senders() {
        let mut seq = engine(0, &[0, 1, 2], OrderProtocol::Asymmetric);
        // 2's message depends on 1's, but arrives first.
        seq.ingest_data(msg_deps(2, 1, 9, DeliveryOrder::Total, &[(1, 1)]));
        assert!(seq.sequencer_poll().is_empty());
        seq.ingest_data(msg(1, 1, 5, DeliveryOrder::Total));
        let entries = seq.sequencer_poll();
        assert_eq!(entries, vec![(n(1), 1), (n(2), 1)]);
    }

    #[test]
    fn causal_messages_skip_the_sequencer() {
        let mut seq = engine(0, &[0, 1], OrderProtocol::Asymmetric);
        seq.ingest_data(msg(1, 1, 5, DeliveryOrder::Causal));
        seq.ingest_data(msg(1, 2, 6, DeliveryOrder::Total));
        let entries = seq.sequencer_poll();
        assert_eq!(entries, vec![(n(1), 2)]);
        // Both deliver: causal immediately, total via the log.
        assert_eq!(ids(&seq.drain_deliverable()), vec![(1, 1), (1, 2)]);
    }

    #[test]
    fn order_log_slice_serves_nacks() {
        let mut seq = engine(0, &[0, 1], OrderProtocol::Asymmetric);
        for s in 1..=5 {
            seq.ingest_data(msg(1, s, s, DeliveryOrder::Total));
        }
        let _ = seq.sequencer_poll();
        let (start, entries) = seq.order_log_slice(2, 2);
        assert_eq!(start, 2);
        assert_eq!(entries, vec![(n(1), 2), (n(1), 3)]);
        let (_, empty) = seq.order_log_slice(99, 10);
        assert!(empty.is_empty());
    }

    /// Runs `rounds` rounds in the asymmetric view {0, 1, 2} (sequencer
    /// 0): each of `senders` multicasts one total-order message stamped
    /// with its delivered vector, every engine receives every message
    /// and the sequencer's records, then delivers and collects. Returns
    /// the engines, sequencer first.
    fn ordered_rounds(rounds: u64, senders: &[u32]) -> Vec<DeliveryEngine> {
        let mut engines: Vec<DeliveryEngine> = (0..3)
            .map(|me| engine(me, &[0, 1, 2], OrderProtocol::Asymmetric))
            .collect();
        for r in 1..=rounds {
            let msgs: Vec<Arc<DataMsg>> = senders
                .iter()
                .map(|&s| {
                    let mut m = msg(s, r, r, DeliveryOrder::Total);
                    m.deps = DepsVector::from_pairs(engines[s as usize].delivered_vector());
                    Arc::new(m)
                })
                .collect();
            for e in &mut engines {
                for m in &msgs {
                    e.ingest_data(Arc::clone(m));
                }
            }
            let start = engines[0].order_log_len() + 1;
            let entries = engines[0].sequencer_poll();
            for e in &mut engines[1..] {
                e.ingest_order(start, &entries);
            }
            for e in &mut engines {
                assert_eq!(e.drain_deliverable().len(), senders.len());
                e.gc_stable();
            }
        }
        engines
    }

    #[test]
    fn order_logs_stay_small_when_every_member_multicasts() {
        let rounds = 3_400; // 10,200 ordered messages
        let engines = ordered_rounds(rounds, &[0, 1, 2]);
        for e in &engines {
            assert_eq!(e.order_log_len(), 3 * rounds, "every position counts");
        }
        // The sequencer keeps what the last round's deps cannot prove
        // delivered; the others keep nothing they have delivered.
        assert!(engines[0].order_log_retained() <= 3);
        assert_eq!(engines[1].order_log_retained(), 0);
        assert_eq!(engines[2].order_log_retained(), 0);
    }

    #[test]
    fn a_silent_member_keeps_the_sequencers_log_whole() {
        let rounds = 200;
        let engines = ordered_rounds(rounds, &[0, 1]);
        // Member 2 never multicasts, so nothing proves what it delivered.
        assert_eq!(engines[0].order_log_retained() as u64, 2 * rounds);
        assert_eq!(engines[0].order_log_len(), 2 * rounds);
        assert_eq!(engines[2].order_log_retained(), 0);
    }

    #[test]
    fn order_nacks_are_answered_from_the_retained_positions() {
        let engines = ordered_rounds(50, &[0, 1, 2]);
        let seq = &engines[0];
        let first_kept = seq.order_log_len() - seq.order_log_retained() as u64 + 1;
        assert!(first_kept > 1, "the delivered prefix was dropped");
        // A retained position is answered with its records.
        let (start, entries) = seq.order_log_slice(first_kept, 256);
        assert_eq!(start, first_kept);
        assert_eq!(entries.len(), seq.order_log_retained());
        assert_eq!(entries.first(), Some(&(n(0), 50)));
        // A window starting in the dropped prefix yields its retained part.
        let (start, entries) = seq.order_log_slice(1, 256);
        assert_eq!(start, first_kept);
        assert_eq!(entries.len(), seq.order_log_retained());
        let (_, none) = seq.order_log_slice(1, 3);
        assert!(none.is_empty(), "the whole window was delivered everywhere");
    }

    #[test]
    fn dropped_positions_still_count_and_keep_absolute_numbering() {
        let mut engines = ordered_rounds(10, &[0, 1, 2]);
        let member = &mut engines[1];
        assert_eq!(member.order_log_len(), 30);
        assert_eq!(member.order_log_retained(), 0);
        // Records arriving again are duplicates; the next new position
        // is 31 and is ingested, and a gap past it is reported absolutely.
        member.ingest_order(30, &[(n(2), 10), (n(0), 11)]);
        assert_eq!(member.order_log_len(), 31);
        member.ingest_order(33, &[(n(2), 11)]);
        assert_eq!(member.order_gap(), Some(32));
    }

    // --- stability & GC ---------------------------------------------------

    #[test]
    fn gc_requires_all_members_acks() {
        let mut e = engine(0, &[0, 1, 2], OrderProtocol::Symmetric);
        e.ingest_data(msg(1, 1, 5, DeliveryOrder::Causal));
        assert_eq!(e.drain_deliverable().len(), 1);
        assert_eq!(e.buffered_count(), 1);
        e.gc_stable();
        assert_eq!(e.buffered_count(), 1, "no acks yet: retained");
        e.apply_acks(n(1), &vec![(n(1), 1)]);
        e.gc_stable();
        assert_eq!(e.buffered_count(), 1, "member 2 has not acked");
        e.apply_acks(n(2), &vec![(n(1), 1)]);
        e.gc_stable();
        assert_eq!(e.buffered_count(), 0, "stable and delivered: collected");
    }

    #[test]
    fn undelivered_messages_survive_gc() {
        let mut e = engine(0, &[0, 1, 2], OrderProtocol::Symmetric);
        e.ingest_data(msg(1, 1, 10, DeliveryOrder::Total)); // blocked
        e.apply_acks(n(1), &vec![(n(1), 1)]);
        e.apply_acks(n(2), &vec![(n(1), 1)]);
        e.gc_stable();
        assert_eq!(e.buffered_count(), 1);
    }

    // --- view-change support ----------------------------------------------

    #[test]
    fn export_beyond_contig_vector() {
        let mut e = engine(0, &[0, 1, 2], OrderProtocol::Symmetric);
        e.ingest_data(msg(1, 1, 5, DeliveryOrder::Causal));
        e.ingest_data(msg(1, 2, 6, DeliveryOrder::Causal));
        e.ingest_data(msg(2, 1, 7, DeliveryOrder::Causal));
        let exported = e.export_msgs_beyond(&vec![(n(1), 1)]);
        assert_eq!(ids(&exported), vec![(1, 2), (2, 1)]);
        assert_eq!(e.export_msgs_beyond(&e.contig_vector()).len(), 0);
    }

    #[test]
    fn flush_delivers_everything_in_timestamp_order() {
        // Member 3 is never heard from, so nothing is deliverable until
        // the flush.
        let mut e = engine(0, &[0, 1, 2, 3], OrderProtocol::Symmetric);
        e.ingest_data(msg(1, 1, 10, DeliveryOrder::Total)); // blocked: no nulls
        e.ingest_data(msg(2, 1, 8, DeliveryOrder::Total));
        e.ingest_data(msg(2, 2, 12, DeliveryOrder::Causal));
        assert!(e.drain_deliverable().is_empty());
        let flushed = e.flush_remaining();
        assert_eq!(ids(&flushed), vec![(2, 1), (1, 1), (2, 2)]);
        assert!(!e.has_undelivered());
    }

    #[test]
    fn flush_stops_at_gaps() {
        let mut e = engine(0, &[0, 1], OrderProtocol::Symmetric);
        e.ingest_data(msg(1, 1, 5, DeliveryOrder::Total));
        e.ingest_data(msg(1, 3, 9, DeliveryOrder::Total)); // seq 2 lost forever
        let flushed = e.flush_remaining();
        assert_eq!(ids(&flushed), vec![(1, 1)], "cannot skip the FIFO gap");
    }

    #[test]
    fn ingest_union_ignores_duplicates_and_stale_views() {
        let mut e = engine(0, &[0, 1], OrderProtocol::Symmetric);
        e.ingest_data(msg(1, 1, 5, DeliveryOrder::Causal));
        let mut stale = msg(1, 2, 6, DeliveryOrder::Causal);
        stale.view = ViewId(0);
        e.ingest_union(vec![msg(1, 1, 5, DeliveryOrder::Causal), stale]);
        assert_eq!(e.buffered_count(), 1);
    }

    #[test]
    fn delivered_vector_tracks_progress() {
        let mut e = engine(0, &[0, 1], OrderProtocol::Symmetric);
        assert!(e.delivered_vector().is_empty());
        e.ingest_data(msg(1, 1, 5, DeliveryOrder::Causal));
        e.drain_deliverable();
        assert_eq!(e.delivered_vector(), vec![(n(1), 1)]);
        assert_eq!(e.delivered_of(n(1)), 1);
    }
}
