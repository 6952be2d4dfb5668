//! Protocol invariant checking for deterministic fault campaigns.
//!
//! The paper's guarantees (§3–§4) — virtual synchrony, causality-preserving
//! total order across overlapping groups, partitionable membership — only
//! fail under crashes, partitions and loss. This crate turns the
//! deterministic simulator into a standing correctness gate in the
//! FoundationDB/TigerBeetle style: scripted scenarios run under seeded
//! [`FaultPlan`](newtop_net::faults::FaultPlan)s, per-node delivery logs
//! and view histories are extracted (from the outputs of each node's
//! NSO, hosted on an [`NsoNode`](newtop::simnode::NsoNode) like any
//! simulated application), and an [`InvariantChecker`] asserts five
//! invariants:
//!
//! 1. **Virtual synchrony** — nodes that pass through the same view
//!    transition deliver the same message set in it;
//! 2. **Total order** — per group, totally-ordered delivery sequences of
//!    any two nodes in the same epoch are prefix-compatible (equal once
//!    both closed the epoch);
//! 3. **Causal order** — per-sender FIFO everywhere, and any message a
//!    sender delivered before multicasting precedes that multicast at
//!    every node delivering both (including multi-group members);
//! 4. **No duplicates / no ghosts** — nothing is delivered twice, and
//!    everything delivered was actually sent by its claimed sender;
//! 5. **View agreement** — live nodes whose final views contain each
//!    other agree on that view exactly.
//!
//! Every violation message carries enough context (node, group, epoch)
//! for the campaign runner to print a byte-identical repro line
//! (seed + plan). See `src/bin/campaign.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod recovery;
pub mod scenario;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use bytes::Bytes;

use newtop::nso::NsoOutput;
use newtop_gcs::group::{DeliveryOrder, GroupId};
use newtop_gcs::view::View;
use newtop_net::site::NodeId;
use newtop_net::time::SimTime;

/// One multicast the workload performed, as ground truth for the ghost
/// and causality checks.
#[derive(Clone, Debug)]
pub struct SentRecord {
    /// Destination group.
    pub group: GroupId,
    /// The multicasting member.
    pub sender: NodeId,
    /// The (unique) payload.
    pub payload: Bytes,
    /// When the workload scheduled the multicast. Deliveries observed at
    /// the sender strictly before this instant are causal predecessors.
    pub scheduled_at: SimTime,
    /// Requested guarantee.
    pub order: DeliveryOrder,
}

/// One event in a node's per-group history, in observation order.
#[derive(Clone, Debug)]
pub enum LogEvent {
    /// A message was delivered to the application.
    Delivered {
        /// Virtual time of delivery.
        at: SimTime,
        /// The multicasting member.
        sender: NodeId,
        /// The guarantee it was sent with.
        order: DeliveryOrder,
        /// Its Lamport timestamp.
        lamport: u64,
        /// The payload.
        payload: Bytes,
    },
    /// A view was installed.
    View {
        /// Virtual time of installation.
        at: SimTime,
        /// The new view.
        view: View,
    },
}

/// A node's history for one group.
#[derive(Clone, Debug)]
pub struct GroupLog {
    /// The group.
    pub group: GroupId,
    /// Events in observation order.
    pub events: Vec<LogEvent>,
}

/// Everything one node observed during a run.
#[derive(Clone, Debug)]
pub struct NodeLog {
    /// The node.
    pub node: NodeId,
    /// Whether the node was still alive when the run ended (crashed
    /// nodes' histories are checked up to the crash).
    pub alive: bool,
    /// Per-group histories.
    pub groups: Vec<GroupLog>,
}

impl NodeLog {
    /// Builds a node log from the `(time, output)` stream a simulated
    /// node's NSO produced (peer deliveries and view changes; other
    /// outputs are ignored).
    #[must_use]
    pub fn from_outputs(node: NodeId, alive: bool, outputs: &[(SimTime, NsoOutput)]) -> Self {
        let mut groups: Vec<GroupLog> = Vec::new();
        let mut index: BTreeMap<GroupId, usize> = BTreeMap::new();
        let mut push = |group: &GroupId, ev: LogEvent| {
            let i = *index.entry(group.clone()).or_insert_with(|| {
                groups.push(GroupLog {
                    group: group.clone(),
                    events: Vec::new(),
                });
                groups.len() - 1
            });
            groups[i].events.push(ev);
        };
        for (at, output) in outputs {
            match output {
                NsoOutput::PeerDeliver {
                    group,
                    sender,
                    order,
                    lamport,
                    payload,
                } => push(
                    group,
                    LogEvent::Delivered {
                        at: *at,
                        sender: *sender,
                        order: *order,
                        lamport: *lamport,
                        payload: payload.clone(),
                    },
                ),
                NsoOutput::ViewChanged { group, view } => push(
                    group,
                    LogEvent::View {
                        at: *at,
                        view: view.clone(),
                    },
                ),
                _ => {}
            }
        }
        NodeLog {
            node,
            alive,
            groups,
        }
    }

    fn group(&self, group: &GroupId) -> Option<&GroupLog> {
        self.groups.iter().find(|g| &g.group == group)
    }
}

/// The five checked invariants.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Invariant {
    /// Same-view delivery sets agree.
    VirtualSynchrony,
    /// Per-group total-order prefix agreement.
    TotalOrder,
    /// Per-sender FIFO and deliver-before-send precedence.
    CausalOrder,
    /// No duplicate and no ghost deliveries.
    NoDupGhost,
    /// Surviving members with mutual final views agree on them.
    ViewAgreement,
}

impl Invariant {
    /// All invariants, in reporting order.
    pub const ALL: [Invariant; 5] = [
        Invariant::VirtualSynchrony,
        Invariant::TotalOrder,
        Invariant::CausalOrder,
        Invariant::NoDupGhost,
        Invariant::ViewAgreement,
    ];

    /// Short table label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Invariant::VirtualSynchrony => "vsync",
            Invariant::TotalOrder => "total",
            Invariant::CausalOrder => "causal",
            Invariant::NoDupGhost => "dup/ghost",
            Invariant::ViewAgreement => "view",
        }
    }

    fn idx(self) -> usize {
        Invariant::ALL.iter().position(|&i| i == self).unwrap()
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One invariant violation, with human-readable context.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: Invariant,
    /// What exactly diverged.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Per-invariant tallies of assertions made and assertions failed.
#[derive(Copy, Clone, Debug, Default)]
pub struct InvariantCounts {
    /// Assertions evaluated, indexed like [`Invariant::ALL`].
    pub checks: [u64; 5],
    /// Assertions failed, indexed like [`Invariant::ALL`].
    pub violations: [u64; 5],
}

impl InvariantCounts {
    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &InvariantCounts) {
        for i in 0..5 {
            self.checks[i] += other.checks[i];
            self.violations[i] += other.violations[i];
        }
    }
}

/// The outcome of one [`InvariantChecker::check`] pass.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Per-invariant tallies.
    pub counts: InvariantCounts,
    /// Every failed assertion, in detection order.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// True when every assertion held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: CheckReport) {
        self.counts.merge(&other.counts);
        self.violations.extend(other.violations);
    }

    fn check(&mut self, invariant: Invariant, ok: bool, detail: impl FnOnce() -> String) {
        let i = invariant.idx();
        self.counts.checks[i] += 1;
        if !ok {
            self.counts.violations[i] += 1;
            self.violations.push(Violation {
                invariant,
                detail: detail(),
            });
        }
    }
}

/// An epoch of one node's group history: the deliveries observed between
/// two view installations (or before the first / after the last).
struct Epoch<'a> {
    start: Option<&'a View>,
    end: Option<&'a View>,
    /// Indexes into the group log's events.
    deliveries: Vec<&'a LogEvent>,
}

fn epochs(log: &GroupLog) -> Vec<Epoch<'_>> {
    let mut out = Vec::new();
    let mut current = Epoch {
        start: None,
        end: None,
        deliveries: Vec::new(),
    };
    for ev in &log.events {
        match ev {
            LogEvent::Delivered { .. } => current.deliveries.push(ev),
            LogEvent::View { view, .. } => {
                // `apply_install` pushes flush deliveries *before* the
                // ViewInstalled output, so everything seen so far belongs
                // to the closing epoch.
                current.end = Some(view);
                out.push(current);
                current = Epoch {
                    start: Some(view),
                    end: None,
                    deliveries: Vec::new(),
                };
            }
        }
    }
    out.push(current);
    out
}

/// A view identity usable as a map key: partitioned sides may reuse view
/// *numbers*, so the membership is part of the identity.
fn view_key(v: &View) -> (u64, Vec<NodeId>) {
    (v.id().0, v.members().to_vec())
}

fn delivery_parts(ev: &LogEvent) -> (NodeId, &Bytes, DeliveryOrder, u64, SimTime) {
    match ev {
        LogEvent::Delivered {
            at,
            sender,
            order,
            lamport,
            payload,
        } => (*sender, payload, *order, *lamport, *at),
        LogEvent::View { .. } => unreachable!("epoch deliveries contain only deliveries"),
    }
}

fn payload_preview(p: &Bytes) -> String {
    String::from_utf8_lossy(p).into_owned()
}

/// Checks the five protocol invariants over a set of node logs.
pub struct InvariantChecker {
    logs: Vec<NodeLog>,
    sent: Vec<SentRecord>,
}

impl InvariantChecker {
    /// Creates a checker over the run's node logs and its send ground
    /// truth. Payloads are assumed unique per run (the campaign scenarios
    /// guarantee this); duplicate detection relies on it.
    #[must_use]
    pub fn new(logs: Vec<NodeLog>, sent: Vec<SentRecord>) -> Self {
        InvariantChecker { logs, sent }
    }

    /// The node logs under check.
    #[must_use]
    pub fn logs(&self) -> &[NodeLog] {
        &self.logs
    }

    /// Runs every invariant and returns the combined report.
    #[must_use]
    pub fn check(&self) -> CheckReport {
        let mut report = CheckReport::default();
        let groups = self.all_groups();
        for group in &groups {
            self.check_virtual_synchrony(group, &mut report);
            self.check_total_order(group, &mut report);
            self.check_causal_order(group, &mut report);
            self.check_dup_ghost(group, &mut report);
            self.check_view_agreement(group, &mut report);
        }
        report
    }

    fn all_groups(&self) -> Vec<GroupId> {
        let mut seen = Vec::new();
        for log in &self.logs {
            for g in &log.groups {
                if !seen.contains(&g.group) {
                    seen.push(g.group.clone());
                }
            }
        }
        seen
    }

    /// Invariant 1: nodes sharing the view transition v → v' delivered
    /// the same message set inside v (virtual synchrony, §3).
    fn check_virtual_synchrony(&self, group: &GroupId, report: &mut CheckReport) {
        type TransitionKey = ((u64, Vec<NodeId>), (u64, Vec<NodeId>));
        type EpochSet = Vec<(NodeId, Bytes)>;
        let mut by_transition: BTreeMap<TransitionKey, Vec<(NodeId, EpochSet)>> = BTreeMap::new();
        for log in &self.logs {
            let Some(glog) = log.group(group) else {
                continue;
            };
            for epoch in epochs(glog) {
                let (Some(start), Some(end)) = (epoch.start, epoch.end) else {
                    continue;
                };
                let mut set: Vec<(NodeId, Bytes)> = epoch
                    .deliveries
                    .iter()
                    .map(|ev| {
                        let (sender, payload, ..) = delivery_parts(ev);
                        (sender, payload.clone())
                    })
                    .collect();
                set.sort();
                by_transition
                    .entry((view_key(start), view_key(end)))
                    .or_default()
                    .push((log.node, set));
            }
        }
        for ((start, _end), observers) in by_transition {
            let (reference_node, reference) = &observers[0];
            for (node, set) in &observers[1..] {
                report.check(Invariant::VirtualSynchrony, set == reference, || {
                    format!(
                        "group {group}: {node} and {reference_node} passed the same \
                         transition out of view v{} but delivered different sets \
                         ({} vs {} messages)",
                        start.0,
                        set.len(),
                        reference.len(),
                    )
                });
            }
        }
    }

    /// Invariant 2: totally-ordered delivery sequences agree per epoch —
    /// equal when both nodes closed the epoch with the same view,
    /// prefix-compatible while open (§3's total order).
    fn check_total_order(&self, group: &GroupId, report: &mut CheckReport) {
        struct NodeEpoch<'a> {
            node: NodeId,
            alive: bool,
            end: Option<(u64, Vec<NodeId>)>,
            seq: Vec<(NodeId, &'a Bytes)>,
        }
        let mut by_start: BTreeMap<(u64, Vec<NodeId>), Vec<NodeEpoch<'_>>> = BTreeMap::new();
        for log in &self.logs {
            let Some(glog) = log.group(group) else {
                continue;
            };
            for epoch in epochs(glog) {
                let Some(start) = epoch.start else {
                    continue;
                };
                let seq: Vec<(NodeId, &Bytes)> = epoch
                    .deliveries
                    .iter()
                    .filter_map(|ev| {
                        let (sender, payload, order, ..) = delivery_parts(ev);
                        (order == DeliveryOrder::Total).then_some((sender, payload))
                    })
                    .collect();
                by_start
                    .entry(view_key(start))
                    .or_default()
                    .push(NodeEpoch {
                        node: log.node,
                        alive: log.alive,
                        end: epoch.end.map(view_key),
                        seq,
                    });
            }
        }
        let fmt_seq = |seq: &[(NodeId, &Bytes)]| {
            seq.iter()
                .map(|(s, p)| format!("{s}:{}", payload_preview(p)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        for (start, entries) in by_start {
            for i in 0..entries.len() {
                for j in i + 1..entries.len() {
                    let (a, b) = (&entries[i], &entries[j]);
                    let verdict = match (&a.end, &b.end) {
                        (Some(ea), Some(eb)) if ea == eb => Some(a.seq == b.seq),
                        (Some(_), Some(_)) => None, // diverged into different views
                        (None, None) => Some(is_prefix(&a.seq, &b.seq)),
                        (None, Some(_)) if a.alive => Some(is_strict_prefix(&a.seq, &b.seq)),
                        (Some(_), None) if b.alive => Some(is_strict_prefix(&b.seq, &a.seq)),
                        _ => None, // a crashed node's unfinished epoch
                    };
                    if let Some(ok) = verdict {
                        report.check(Invariant::TotalOrder, ok, || {
                            format!(
                                "group {group}: total-order divergence in epoch v{} \
                                 between {} [{}] and {} [{}]",
                                start.0,
                                a.node,
                                fmt_seq(&a.seq),
                                b.node,
                                fmt_seq(&b.seq),
                            )
                        });
                    }
                }
            }
        }
    }

    /// Invariant 3: per-sender FIFO (Lamport clocks strictly increase and
    /// payloads respect the send order), plus deliver-before-send
    /// precedence: if the sender had delivered m' (any group member,
    /// including multi-group members) before multicasting m into the same
    /// group, every node delivering both sees m' first.
    fn check_causal_order(&self, group: &GroupId, report: &mut CheckReport) {
        // Per-sender send order within the group, from the ground truth.
        let mut send_order: BTreeMap<NodeId, Vec<&Bytes>> = BTreeMap::new();
        for s in self.sent.iter().filter(|s| &s.group == group) {
            send_order.entry(s.sender).or_default().push(&s.payload);
        }
        for log in &self.logs {
            let Some(glog) = log.group(group) else {
                continue;
            };
            let mut per_sender: BTreeMap<NodeId, Vec<(u64, &Bytes)>> = BTreeMap::new();
            for ev in &glog.events {
                if let LogEvent::Delivered {
                    sender,
                    lamport,
                    payload,
                    ..
                } = ev
                {
                    per_sender
                        .entry(*sender)
                        .or_default()
                        .push((*lamport, payload));
                }
            }
            for (sender, seq) in &per_sender {
                let monotone = seq.windows(2).all(|w| w[0].0 < w[1].0);
                report.check(Invariant::CausalOrder, monotone, || {
                    format!(
                        "group {group}: {} delivered {sender}'s messages with \
                         non-increasing Lamport clocks (FIFO broken)",
                        log.node
                    )
                });
                if let Some(sent) = send_order.get(sender) {
                    let delivered: Vec<&Bytes> = seq.iter().map(|&(_, p)| p).collect();
                    report.check(
                        Invariant::CausalOrder,
                        is_subsequence(&delivered, sent),
                        || {
                            format!(
                                "group {group}: {} delivered {sender}'s messages out \
                                 of send order",
                                log.node
                            )
                        },
                    );
                }
            }
        }
        // Deliver-before-send edges, derived from each sender's own log:
        // anything the sender saw strictly before scheduling m precedes m.
        let mut edges: Vec<(&Bytes, &Bytes)> = Vec::new();
        for m in self.sent.iter().filter(|s| &s.group == group) {
            let Some(sender_log) = self
                .logs
                .iter()
                .find(|l| l.node == m.sender)
                .and_then(|l| l.group(group))
            else {
                continue;
            };
            for ev in &sender_log.events {
                if let LogEvent::Delivered { at, payload, .. } = ev {
                    if *at < m.scheduled_at && payload != &m.payload {
                        edges.push((payload, &m.payload));
                    }
                }
            }
        }
        for log in &self.logs {
            let Some(glog) = log.group(group) else {
                continue;
            };
            let mut position: BTreeMap<&Bytes, usize> = BTreeMap::new();
            let mut pos = 0usize;
            for ev in &glog.events {
                if let LogEvent::Delivered { payload, .. } = ev {
                    position.insert(payload, pos);
                    pos += 1;
                }
            }
            for (cause, effect) in &edges {
                let (Some(&pc), Some(&pe)) = (position.get(*cause), position.get(*effect)) else {
                    continue;
                };
                report.check(Invariant::CausalOrder, pc < pe, || {
                    format!(
                        "group {group}: {} delivered \"{}\" after its causal \
                         successor \"{}\"",
                        log.node,
                        payload_preview(cause),
                        payload_preview(effect),
                    )
                });
            }
        }
    }

    /// Invariant 4: no payload delivered twice at a node, and everything
    /// delivered matches a real multicast (sender included).
    fn check_dup_ghost(&self, group: &GroupId, report: &mut CheckReport) {
        let sent: BTreeSet<(NodeId, &Bytes)> = self
            .sent
            .iter()
            .filter(|s| &s.group == group)
            .map(|s| (s.sender, &s.payload))
            .collect();
        let have_ground_truth = !self.sent.is_empty();
        for log in &self.logs {
            let Some(glog) = log.group(group) else {
                continue;
            };
            let mut seen: BTreeSet<&Bytes> = BTreeSet::new();
            for ev in &glog.events {
                let LogEvent::Delivered {
                    sender, payload, ..
                } = ev
                else {
                    continue;
                };
                report.check(Invariant::NoDupGhost, seen.insert(payload), || {
                    format!(
                        "group {group}: {} delivered \"{}\" more than once",
                        log.node,
                        payload_preview(payload),
                    )
                });
                if have_ground_truth {
                    report.check(
                        Invariant::NoDupGhost,
                        sent.contains(&(*sender, payload)),
                        || {
                            format!(
                                "group {group}: {} delivered ghost message \"{}\" \
                                 (never multicast by {sender})",
                                log.node,
                                payload_preview(payload),
                            )
                        },
                    );
                }
            }
        }
    }

    /// Invariant 5: live nodes whose final views mutually include each
    /// other hold identical final views (partition-side agreement, §4).
    /// Nodes on opposite sides of an unhealed (or un-merged) partition
    /// legitimately hold different views and are not compared.
    fn check_view_agreement(&self, group: &GroupId, report: &mut CheckReport) {
        let finals: Vec<(NodeId, &View)> = self
            .logs
            .iter()
            .filter(|l| l.alive)
            .filter_map(|l| {
                let glog = l.group(group)?;
                let last = glog.events.iter().rev().find_map(|ev| match ev {
                    LogEvent::View { view, .. } => Some(view),
                    _ => None,
                })?;
                Some((l.node, last))
            })
            .collect();
        for i in 0..finals.len() {
            for j in i + 1..finals.len() {
                let (a, va) = finals[i];
                let (b, vb) = finals[j];
                if !(va.members().contains(&b) && vb.members().contains(&a)) {
                    continue;
                }
                report.check(Invariant::ViewAgreement, va == vb, || {
                    format!(
                        "group {group}: {a} ended in view v{} {:?} but {b} in \
                         v{} {:?} although each includes the other",
                        va.id().0,
                        va.members(),
                        vb.id().0,
                        vb.members(),
                    )
                });
            }
        }
    }
}

fn is_prefix<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    long[..short.len()] == *short
}

fn is_strict_prefix<T: PartialEq>(prefix: &[T], of: &[T]) -> bool {
    prefix.len() <= of.len() && of[..prefix.len()] == *prefix
}

fn is_subsequence<T: PartialEq>(needle: &[T], haystack: &[T]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

/// Log mutations used to prove the checker catches real protocol bugs
/// (campaign `--mutate`, documented in EXPERIMENTS.md). Each perturbs the
/// extracted logs the way a specific protocol defect would.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Swap two adjacent totally-ordered deliveries at one node — an
    /// ordering bug.
    SwapOrder,
    /// Deliver one message twice at one node — a dedup bug.
    DuplicateDelivery,
    /// Silently drop one mid-epoch delivery at one node — an atomicity /
    /// virtual-synchrony bug.
    DropDelivery,
    /// Remove one node's final view installation — a membership bug.
    DropView,
}

impl Mutation {
    /// All mutations.
    pub const ALL: [Mutation; 4] = [
        Mutation::SwapOrder,
        Mutation::DuplicateDelivery,
        Mutation::DropDelivery,
        Mutation::DropView,
    ];

    /// Parses a campaign CLI name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Mutation> {
        match name {
            "swap-order" => Some(Mutation::SwapOrder),
            "dup-delivery" => Some(Mutation::DuplicateDelivery),
            "drop-delivery" => Some(Mutation::DropDelivery),
            "drop-view" => Some(Mutation::DropView),
            _ => None,
        }
    }

    /// CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mutation::SwapOrder => "swap-order",
            Mutation::DuplicateDelivery => "dup-delivery",
            Mutation::DropDelivery => "drop-delivery",
            Mutation::DropView => "drop-view",
        }
    }

    /// Applies the mutation at a site where detection is *guaranteed* —
    /// a position some peer's log can be compared against under the
    /// checker's pairing rules. A corruption in an epoch no other node
    /// shares (a lone partition side, the tail past every peer's horizon)
    /// is information-theoretically invisible to a log checker, so such
    /// sites are rejected rather than counted as misses. Returns `false`
    /// when no log offered a validated site.
    pub fn apply(self, logs: &mut [NodeLog]) -> bool {
        for a in 0..logs.len() {
            for gi in 0..logs[a].groups.len() {
                let group = logs[a].groups[gi].group.clone();
                let my_alive = logs[a].alive;
                let mine = epoch_meta(&logs[a].groups[gi]);
                // Peer epoch structures for the same group.
                let peers: Vec<(bool, Vec<EpochMeta>)> = logs
                    .iter()
                    .enumerate()
                    .filter(|&(b, _)| b != a)
                    .filter_map(|(_, l)| {
                        let g = l.groups.iter().find(|g| g.group == group)?;
                        Some((l.alive, epoch_meta(g)))
                    })
                    .collect();
                match self {
                    Mutation::SwapOrder => {
                        for e in &mine {
                            // Swap two consecutive totally-ordered
                            // deliveries from different senders: a genuine
                            // order inversion, not a FIFO one.
                            for w in e.total_idx.windows(2) {
                                let (i, j) = (w[0], w[1]);
                                let same_sender = match (
                                    &logs[a].groups[gi].events[i],
                                    &logs[a].groups[gi].events[j],
                                ) {
                                    (
                                        LogEvent::Delivered { sender: sa, .. },
                                        LogEvent::Delivered { sender: sb, .. },
                                    ) => sa == sb,
                                    _ => true,
                                };
                                if same_sender {
                                    continue;
                                }
                                let p = e.total_idx.iter().position(|&x| x == i).expect("in");
                                if peer_sees_total_position(e, my_alive, &peers, p) {
                                    logs[a].groups[gi].events.swap(i, j);
                                    return true;
                                }
                            }
                        }
                    }
                    Mutation::DuplicateDelivery => {
                        // A duplicated delivery breaks the per-sender
                        // Lamport monotonicity the causal check enforces
                        // at the node itself — no peer needed.
                        if let Some(&i) = mine.iter().flat_map(|e| &e.delivery_idx).next() {
                            let copy = logs[a].groups[gi].events[i].clone();
                            logs[a].groups[gi].events.insert(i + 1, copy);
                            return true;
                        }
                    }
                    Mutation::DropDelivery => {
                        // Best site: a closed epoch a peer also closed
                        // with the same transition — virtual synchrony
                        // compares the full delivery sets, so losing any
                        // one delivery is caught.
                        for e in &mine {
                            if e.start.is_none() || e.end.is_none() || e.delivery_idx.is_empty() {
                                continue;
                            }
                            let shared = peers.iter().any(|(_, pe)| {
                                pe.iter().any(|f| f.start == e.start && f.end == e.end)
                            });
                            if shared {
                                let i = e.delivery_idx[0];
                                logs[a].groups[gi].events.remove(i);
                                return true;
                            }
                        }
                        // Fallback: drop a non-final totally-ordered
                        // delivery a peer's sequence extends past, so the
                        // total-order comparison sees divergence rather
                        // than a legal prefix.
                        for e in &mine {
                            for (p, &i) in e.total_idx.iter().enumerate() {
                                if p + 2 <= e.total_idx.len()
                                    && peer_sees_total_position(e, my_alive, &peers, p)
                                {
                                    logs[a].groups[gi].events.remove(i);
                                    return true;
                                }
                            }
                        }
                    }
                    Mutation::DropView => {
                        // Removing the final view rolls this node's
                        // recorded membership back one step. Detection
                        // needs an alive peer whose final view includes
                        // this node while the rolled-back view includes
                        // the peer — the view-agreement pairing rule.
                        if !my_alive {
                            continue;
                        }
                        let views: Vec<usize> = logs[a].groups[gi]
                            .events
                            .iter()
                            .enumerate()
                            .filter_map(|(i, ev)| matches!(ev, LogEvent::View { .. }).then_some(i))
                            .collect();
                        if views.len() < 2 {
                            continue;
                        }
                        let prev = match &logs[a].groups[gi].events[views[views.len() - 2]] {
                            LogEvent::View { view, .. } => view.clone(),
                            _ => unreachable!("filtered"),
                        };
                        let me = logs[a].node;
                        let detectable = logs.iter().enumerate().any(|(b, l)| {
                            if b == a || !l.alive {
                                return false;
                            }
                            let Some(g) = l.groups.iter().find(|g| g.group == group) else {
                                return false;
                            };
                            let last = g.events.iter().rev().find_map(|ev| match ev {
                                LogEvent::View { view, .. } => Some(view),
                                _ => None,
                            });
                            last.is_some_and(|u| {
                                u != &prev
                                    && u.members().contains(&me)
                                    && prev.members().contains(&l.node)
                            })
                        });
                        if detectable {
                            let i = views[views.len() - 1];
                            logs[a].groups[gi].events.remove(i);
                            return true;
                        }
                    }
                }
            }
        }
        false
    }
}

/// Owned epoch structure of one node's group log, for validating
/// mutation sites without holding borrows.
struct EpochMeta {
    start: Option<(u64, Vec<NodeId>)>,
    end: Option<(u64, Vec<NodeId>)>,
    /// Event indexes of all deliveries in the epoch.
    delivery_idx: Vec<usize>,
    /// Event indexes of the totally-ordered deliveries, in order.
    total_idx: Vec<usize>,
}

fn epoch_meta(glog: &GroupLog) -> Vec<EpochMeta> {
    let mut out = Vec::new();
    let mut cur = EpochMeta {
        start: None,
        end: None,
        delivery_idx: Vec::new(),
        total_idx: Vec::new(),
    };
    for (i, ev) in glog.events.iter().enumerate() {
        match ev {
            LogEvent::Delivered { order, .. } => {
                cur.delivery_idx.push(i);
                if *order == DeliveryOrder::Total {
                    cur.total_idx.push(i);
                }
            }
            LogEvent::View { view, .. } => {
                cur.end = Some(view_key(view));
                let start = Some(view_key(view));
                out.push(std::mem::replace(
                    &mut cur,
                    EpochMeta {
                        start,
                        end: None,
                        delivery_idx: Vec::new(),
                        total_idx: Vec::new(),
                    },
                ));
            }
        }
    }
    out.push(cur);
    out
}

/// Whether corrupting total-order position `p` of epoch `e` at a node
/// with liveness `my_alive` is visible to some peer under the total-order
/// pairing rules: the peer must share the epoch's starting view, reach
/// position `p` itself, and pair under a verdict the checker actually
/// computes (same closing view, both still open, or open-vs-closed with
/// the open side alive).
fn peer_sees_total_position(
    e: &EpochMeta,
    my_alive: bool,
    peers: &[(bool, Vec<EpochMeta>)],
    p: usize,
) -> bool {
    if e.start.is_none() {
        return false;
    }
    peers.iter().any(|(peer_alive, pe)| {
        pe.iter().any(|f| {
            if f.start != e.start {
                return false;
            }
            let reach = f.total_idx.len() > p;
            match (&e.end, &f.end) {
                (Some(ea), Some(eb)) => ea == eb && reach,
                (None, None) => reach,
                (None, Some(_)) => my_alive && reach,
                (Some(_), None) => *peer_alive && reach,
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_gcs::view::ViewId;

    fn nid(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    fn gid() -> GroupId {
        GroupId::new("g")
    }

    fn view(id: u64, members: &[u32]) -> View {
        View::new(
            gid(),
            ViewId(id),
            members.iter().map(|&i| nid(i)).collect::<Vec<_>>(),
        )
    }

    fn delivered(at_ms: u64, sender: u32, lamport: u64, payload: &str) -> LogEvent {
        LogEvent::Delivered {
            at: SimTime::from_millis(at_ms),
            sender: nid(sender),
            order: DeliveryOrder::Total,
            lamport,
            payload: Bytes::from(payload.to_string()),
        }
    }

    fn installed(at_ms: u64, v: &View) -> LogEvent {
        LogEvent::View {
            at: SimTime::from_millis(at_ms),
            view: v.clone(),
        }
    }

    fn log(node: u32, events: Vec<LogEvent>) -> NodeLog {
        NodeLog {
            node: nid(node),
            alive: true,
            groups: vec![GroupLog {
                group: gid(),
                events,
            }],
        }
    }

    fn sent(sender: u32, at_ms: u64, payload: &str) -> SentRecord {
        SentRecord {
            group: gid(),
            sender: nid(sender),
            payload: Bytes::from(payload.to_string()),
            scheduled_at: SimTime::from_millis(at_ms),
            order: DeliveryOrder::Total,
        }
    }

    /// Two nodes, one view, agreeing totally-ordered histories.
    fn agreeing_logs() -> (Vec<NodeLog>, Vec<SentRecord>) {
        let v = view(1, &[0, 1]);
        let events = |_: u32| {
            vec![
                installed(1, &v),
                delivered(10, 0, 1, "a"),
                delivered(20, 1, 2, "b"),
                delivered(30, 0, 3, "c"),
            ]
        };
        let logs = vec![log(0, events(0)), log(1, events(1))];
        let sends = vec![sent(0, 5, "a"), sent(1, 15, "b"), sent(0, 25, "c")];
        (logs, sends)
    }

    #[test]
    fn clean_histories_pass_all_invariants() {
        let (mut logs, sends) = agreeing_logs();
        // Close the epoch so virtual synchrony has a transition to check.
        let v2 = view(2, &[0, 1]);
        for l in &mut logs {
            l.groups[0].events.push(installed(100, &v2));
        }
        let report = InvariantChecker::new(logs, sends).check();
        assert!(report.passed(), "{:?}", report.violations);
        for i in 0..5 {
            assert!(report.counts.checks[i] > 0, "invariant {i} never checked");
        }
    }

    #[test]
    fn total_order_divergence_is_caught() {
        let (mut logs, sends) = agreeing_logs();
        // Swap b and c at node 1: both Total, different senders.
        logs[1].groups[0].events.swap(2, 3);
        let report = InvariantChecker::new(logs, sends).check();
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::TotalOrder));
    }

    #[test]
    fn missing_delivery_breaks_virtual_synchrony() {
        let (mut logs, sends) = agreeing_logs();
        let v2 = view(2, &[0, 1]);
        for l in &mut logs {
            l.groups[0].events.push(installed(100, &v2));
        }
        // Node 1 loses "b" inside the closed epoch.
        logs[1].groups[0].events.remove(2);
        let report = InvariantChecker::new(logs, sends).check();
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::VirtualSynchrony));
    }

    #[test]
    fn duplicate_and_ghost_deliveries_are_caught() {
        let (mut logs, sends) = agreeing_logs();
        let dup = logs[0].groups[0].events[1].clone();
        logs[0].groups[0].events.push(dup);
        logs[1].groups[0].events.push(delivered(99, 1, 9, "ghost"));
        let report = InvariantChecker::new(logs, sends).check();
        let dupghost = report
            .violations
            .iter()
            .filter(|v| v.invariant == Invariant::NoDupGhost)
            .count();
        assert!(dupghost >= 2, "{:?}", report.violations);
    }

    #[test]
    fn fifo_inversion_is_caught_as_causal() {
        let (mut logs, sends) = agreeing_logs();
        // Node 1 delivers node 0's "c" before "a": same sender, FIFO broken.
        let events = &mut logs[1].groups[0].events;
        events.swap(1, 3);
        let report = InvariantChecker::new(logs, sends).check();
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::CausalOrder));
    }

    #[test]
    fn deliver_before_send_edges_are_enforced() {
        // Node 0 delivered "b" (at 20ms) before sending "c" (at 25ms):
        // b ≺ c. Node 1 delivering c before b violates causality even
        // though FIFO per sender holds there.
        let v = view(1, &[0, 1]);
        let logs = vec![
            log(
                0,
                vec![
                    installed(1, &v),
                    delivered(10, 0, 1, "a"),
                    delivered(20, 1, 2, "b"),
                    delivered(30, 0, 3, "c"),
                ],
            ),
            log(
                1,
                vec![
                    installed(1, &v),
                    delivered(10, 0, 1, "a"),
                    delivered(28, 0, 3, "c"),
                    delivered(33, 1, 2, "b"),
                ],
            ),
        ];
        let sends = vec![sent(0, 5, "a"), sent(1, 15, "b"), sent(0, 25, "c")];
        let report = InvariantChecker::new(logs, sends).check();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.invariant == Invariant::CausalOrder),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn divergent_final_views_with_mutual_membership_are_caught() {
        let (mut logs, sends) = agreeing_logs();
        // Node 1 installs a different final view that still contains node 0.
        let skewed = view(7, &[0, 1]);
        logs[1].groups[0].events.push(installed(200, &skewed));
        let report = InvariantChecker::new(logs, sends).check();
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::ViewAgreement));
    }

    #[test]
    fn partitioned_final_views_are_not_compared() {
        // Two one-member views after an unhealed split: no mutual
        // membership, so no view-agreement assertion fires.
        let va = view(3, &[0]);
        let vb = view(3, &[1]);
        let logs = vec![
            log(0, vec![installed(1, &va)]),
            log(1, vec![installed(1, &vb)]),
        ];
        let report = InvariantChecker::new(logs, Vec::new()).check();
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.counts.checks[Invariant::ViewAgreement.idx()], 0);
    }

    #[test]
    fn every_mutation_is_caught_by_some_invariant() {
        for mutation in Mutation::ALL {
            let (mut logs, sends) = agreeing_logs();
            // Give the logs a closed epoch so vsync has material, and a
            // second view so DropView leaves a comparable final state.
            let v2 = view(2, &[0, 1]);
            for l in &mut logs {
                l.groups[0].events.push(installed(100, &v2));
                l.groups[0].events.push(delivered(120, 1, 4, "d"));
            }
            assert!(mutation.apply(&mut logs), "{mutation:?} found no site");
            let report = InvariantChecker::new(logs, sends).check();
            assert!(
                !report.passed(),
                "{mutation:?} slipped past every invariant"
            );
        }
    }
}
