//! The campaign's crash-recovery scenario.
//!
//! Five durable nodes host two overlapping groups — `ga` = {n0..n4} and
//! `gb` = {n1..n3} — and multicast rounds of totally ordered payloads
//! while a [`FaultPlan`] kills one member mid-stream and later issues
//! `recover(node@t)`: the simulator cold-restarts the node, which
//! replays its snapshot + log, rejoins both groups through its last
//! durably known view, and fetches the missed suffix as chunked delta
//! state transfer at the rejoin view boundary.
//!
//! On top of the five standing invariants the scenario asserts the
//! recovery-specific obligations from ISSUE.md: the replayed history is
//! byte-identical to the pre-crash delivery sequence, the delta is
//! smaller than the full history, replay went through a snapshot plus a
//! log suffix, and the victim's converged history (replay + delta +
//! post-recovery deliveries) equals a never-crashed member's byte for
//! byte.
//!
//! Traffic is totally ordered only: the contiguous-ack floor (count of
//! durably delivered records) is a sound transfer baseline exactly
//! because every member delivers the same per-group sequence. Causal
//! traffic keeps its coverage in [`GcsScenario`](crate::scenario).

use std::time::Duration;

use bytes::Bytes;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use newtop_dir::harness::{DurableGcsNode, DurableHarness};
use newtop_dir::log::DeliveredRec;
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId, OrderProtocol};
use newtop_net::faults::FaultPlan;
use newtop_net::sim::SimConfig;
use newtop_net::site::{NodeId, Site};
use newtop_net::time::SimTime;

use crate::{CheckReport, InvariantChecker, NodeLog, SentRecord};

/// Number of simulated nodes in the scenario.
pub const NODES: usize = 5;

/// One cell of the recovery campaign: a seeded run where one member is
/// killed mid-stream and later recovered from its durable state.
#[derive(Clone, Debug)]
pub struct RecoveryScenario {
    /// Simulator seed; also perturbs the send schedule.
    pub seed: u64,
    /// Total-order protocol for both groups.
    pub ordering: OrderProtocol,
    /// When the victim is killed.
    pub crash_at: Duration,
    /// When `recover(node@t)` fires.
    pub recover_at: Duration,
    /// Roster index of the victim (a member of both groups).
    pub victim: usize,
    /// Multicast rounds per member.
    pub rounds: u64,
}

impl RecoveryScenario {
    /// A scenario with the default shape: n2 (in both groups) dies at
    /// 700 ms — past the first automatic snapshot — and recovers at
    /// 1.3 s with several rounds still to come.
    #[must_use]
    pub fn new(seed: u64, ordering: OrderProtocol) -> Self {
        RecoveryScenario {
            seed,
            ordering,
            crash_at: Duration::from_millis(700),
            recover_at: Duration::from_millis(1300),
            victim: 2,
            rounds: 10,
        }
    }

    /// The fault schedule: kill the victim, then recover it.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::named("kill-recover")
            .crash(self.crash_at, self.victim)
            .recover(self.recover_at, self.victim)
    }

    /// One-line repro context; the plan clause includes the
    /// `recover nX@tms` op, so pasting the line reconstructs the fault
    /// schedule exactly.
    #[must_use]
    pub fn repro(&self) -> String {
        format!(
            "seed={} ordering={:?} recovery plan \"{}\"",
            self.seed,
            self.ordering,
            self.plan(),
        )
    }

    /// Runs the scenario to completion and extracts the evidence.
    ///
    /// # Panics
    ///
    /// Panics when the victim index is outside the roster.
    #[must_use]
    pub fn run(&self) -> RecoveryRun {
        assert!(self.victim < NODES, "victim index out of roster");
        let cfg = SimConfig::lan(self.seed);
        let mut h = DurableHarness::new(cfg);
        let roster = h.add_nodes(Site::Lan, NODES);
        let victim = roster[self.victim];
        let ga = GroupId::new("ga");
        let gb = GroupId::new("gb");
        let config = GroupConfig::peer()
            .with_ordering(self.ordering)
            .with_time_silence(Duration::from_millis(20));
        h.create_group(SimTime::from_millis(1), &ga, &config, &roster);
        h.create_group(SimTime::from_millis(1), &gb, &config, &roster[1..4]);
        self.plan().apply(&mut h.sim, &roster);

        // Totally ordered rounds with seeded jitter. Rounds keep firing
        // through the dead window (those sends to the victim are lost
        // with it) and well past the recovery point, so the victim both
        // misses traffic and delivers fresh traffic after rejoining.
        let mut jitter = StdRng::seed_from_u64(self.seed ^ 0x0dd5_7a7e);
        let mut sent: Vec<SentRecord> = Vec::new();
        let memberships: [(&GroupId, &[NodeId]); 2] = [(&ga, &roster), (&gb, &roster[1..4])];
        for round in 0..self.rounds {
            let base = 25 + round * 250;
            for (gi, (group, members)) in memberships.iter().enumerate() {
                for (k, &node) in members.iter().enumerate() {
                    let at = SimTime::from_millis(
                        base + (k as u64) * 9 + (gi as u64) * 4 + jitter.gen_range(0u64..18),
                    );
                    let payload = format!("{group}/{node}/r{round}");
                    h.multicast(at, node, group, DeliveryOrder::Total, payload.clone());
                    sent.push(SentRecord {
                        group: (*group).clone(),
                        sender: node,
                        payload: Bytes::from(payload),
                        scheduled_at: at,
                        order: DeliveryOrder::Total,
                    });
                }
            }
        }

        let last_send = 25 + self.rounds.saturating_sub(1) * 250;
        let deadline = SimTime::from_millis(last_send)
            .max(SimTime::ZERO + self.plan().quiesce_at())
            + Duration::from_millis(2500);
        h.run_until(deadline.max(SimTime::from_millis(4500)));
        sent.sort_by_key(|s| s.scheduled_at);

        // The victim's invariant log covers its post-recovery life only
        // (a cold restart starts a fresh log, exactly like a joiner);
        // its pre-crash outputs feed the byte-identity checks instead.
        let logs = roster
            .iter()
            .map(|&id| NodeLog::from_outputs(id, h.sim.is_alive(id), h.node(id).outputs()))
            .collect();

        let mut groups = Vec::new();
        {
            let v = h.node(victim);
            for group in [&ga, &gb] {
                // The survivor baseline is the lowest-ranked member of
                // the group other than the victim — the same rule the
                // recovering node uses to pick its contact.
                let members: &[NodeId] = if *group == ga { &roster } else { &roster[1..4] };
                let survivor = *members.iter().find(|&&m| m != victim).unwrap();
                groups.push(GroupEvidence {
                    group: group.clone(),
                    pre_crash: DurableGcsNode::delivered_recs(&v.pre_crash_outputs, group),
                    replayed: v.replayed.get(group).cloned().unwrap_or_default(),
                    delta: v.delta_records.get(group).cloned().unwrap_or_default(),
                    delta_bytes: v.delta_bytes.get(group).copied().unwrap_or(0),
                    post_recovery: DurableGcsNode::delivered_recs(v.outputs(), group),
                    survivor_full: DurableGcsNode::delivered_recs(
                        h.node(survivor).outputs(),
                        group,
                    ),
                    rejoined_at: v.rejoined_at.get(group).copied(),
                });
            }
            RecoveryRun {
                repro: self.repro(),
                logs,
                sent,
                groups,
                recovered_at: v.recovered_at,
                recovered_from_snapshot: v.recovered_from_snapshot,
                replayed_log_records: v.replayed_log_records,
            }
        }
    }
}

/// Per-group recovery evidence for the victim.
pub struct GroupEvidence {
    /// The group concerned.
    pub group: GroupId,
    /// What the victim delivered before the crash (ground truth for the
    /// replay byte-identity check).
    pub pre_crash: Vec<DeliveredRec>,
    /// What replay reconstructed from snapshot + log.
    pub replayed: Vec<DeliveredRec>,
    /// What arrived as delta state transfer.
    pub delta: Vec<DeliveredRec>,
    /// Payload bytes that travelled as delta.
    pub delta_bytes: u64,
    /// What the victim delivered after recovering.
    pub post_recovery: Vec<DeliveredRec>,
    /// A never-crashed member's full delivery history.
    pub survivor_full: Vec<DeliveredRec>,
    /// When the rejoin view installed at the victim, if it did.
    pub rejoined_at: Option<SimTime>,
}

/// The evidence extracted from one recovery scenario run.
pub struct RecoveryRun {
    /// Repro line for failure reports.
    pub repro: String,
    /// Per-node delivery logs (victim: post-recovery only).
    pub logs: Vec<NodeLog>,
    /// The ground-truth send schedule.
    pub sent: Vec<SentRecord>,
    /// Per-group victim evidence.
    pub groups: Vec<GroupEvidence>,
    /// When the victim's recovery replay ran.
    pub recovered_at: Option<SimTime>,
    /// Whether replay was seeded by a snapshot.
    pub recovered_from_snapshot: bool,
    /// Log records replayed beyond the snapshot.
    pub replayed_log_records: u64,
}

impl RecoveryRun {
    /// Checks the five standing invariants against the run's evidence.
    #[must_use]
    pub fn check(&self) -> CheckReport {
        InvariantChecker::new(self.logs.clone(), self.sent.clone()).check()
    }

    /// Checks the recovery-specific obligations; returns violation
    /// descriptions (empty = clean).
    #[must_use]
    pub fn recovery_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if self.recovered_at.is_none() {
            violations.push("victim never ran recovery replay".to_owned());
            return violations;
        }
        if !self.recovered_from_snapshot {
            violations.push("replay was not seeded by a snapshot".to_owned());
        }
        if self.replayed_log_records == 0 {
            violations.push("replay consumed no log suffix beyond the snapshot".to_owned());
        }
        for g in &self.groups {
            let group = &g.group;
            if g.pre_crash.is_empty() {
                violations.push(format!(
                    "{group}: victim delivered nothing before the crash"
                ));
                continue;
            }
            if g.replayed != g.pre_crash {
                violations.push(format!(
                    "{group}: replayed history ({} recs) differs from the pre-crash \
                     delivery sequence ({} recs)",
                    g.replayed.len(),
                    g.pre_crash.len()
                ));
            }
            if g.rejoined_at.is_none() {
                violations.push(format!("{group}: victim never rejoined"));
                continue;
            }
            if g.post_recovery.is_empty() {
                violations.push(format!("{group}: victim delivered nothing after rejoining"));
            }
            if g.delta.is_empty() {
                violations.push(format!("{group}: no records travelled as delta"));
            }
            let full_bytes: u64 = g.survivor_full.iter().map(|r| r.payload.len() as u64).sum();
            if g.delta_bytes >= full_bytes {
                violations.push(format!(
                    "{group}: delta bytes ({}) not smaller than the full history ({})",
                    g.delta_bytes, full_bytes
                ));
            }
            let mut converged = g.replayed.clone();
            converged.extend(g.delta.iter().cloned());
            converged.extend(g.post_recovery.iter().cloned());
            if converged != g.survivor_full {
                violations.push(format!(
                    "{group}: converged history ({} recs) differs from the survivor's \
                     ({} recs)",
                    converged.len(),
                    g.survivor_full.len()
                ));
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_clean(scenario: RecoveryScenario) -> RecoveryRun {
        let repro = scenario.repro();
        let run = scenario.run();
        let report = run.check();
        assert!(report.passed(), "{repro}: {:?}", report.violations);
        let recovery = run.recovery_violations();
        assert!(recovery.is_empty(), "{repro}: {recovery:?}");
        run
    }

    #[test]
    fn kill_and_recover_passes_under_both_orderings() {
        for ordering in [OrderProtocol::Symmetric, OrderProtocol::Asymmetric] {
            assert_clean(RecoveryScenario::new(11, ordering));
        }
    }

    #[test]
    fn recovery_repro_line_names_the_recover_clause() {
        let scenario = RecoveryScenario::new(3, OrderProtocol::Symmetric);
        let repro = scenario.repro();
        assert!(
            repro.contains("crash n2@700ms") && repro.contains("recover n2@1300ms"),
            "repro line lacks recovery clauses: {repro}"
        );
    }

    #[test]
    fn asymmetric_recovery_passes_on_a_second_seed() {
        assert_clean(RecoveryScenario::new(17, OrderProtocol::Asymmetric));
    }
}
