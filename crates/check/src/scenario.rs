//! The campaign's scripted GCS scenario.
//!
//! Five nodes host two overlapping groups — `ga` = {n0..n3} and
//! `gb` = {n2..n4}, so n2/n3 are multi-group members whose deliveries
//! must stay causally consistent across groups (§4 of the paper). Every
//! member multicasts several rounds of uniquely-tagged payloads (a mix
//! of totally-ordered and causal sends) while a [`FaultPlan`] perturbs
//! the run; afterwards the per-node logs are handed to the
//! [`InvariantChecker`].
//!
//! The schedule is fully determined by `(seed, ordering, open, plan)`:
//! re-running with the same tuple replays the run byte for byte, which
//! is what the campaign prints on failure.

use std::time::Duration;

use bytes::Bytes;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use newtop::simnode::GcsHarness;
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId, OrderProtocol};
use newtop_net::faults::FaultPlan;
use newtop_net::sim::SimConfig;
use newtop_net::site::Site;
use newtop_net::time::SimTime;

use crate::{CheckReport, InvariantChecker, NodeLog, SentRecord};

/// Number of simulated nodes in the scenario.
pub const NODES: usize = 5;

/// One cell of the campaign matrix: a seeded, fault-injected run of the
/// overlapping-group workload under one ordering protocol and one
/// binding style.
#[derive(Clone, Debug)]
pub struct GcsScenario {
    /// Simulator seed; also perturbs the send schedule.
    pub seed: u64,
    /// Total-order protocol for both groups.
    pub ordering: OrderProtocol,
    /// Open-group flavour: membership churns mid-run (n4 joins `ga`
    /// through a contact member and multicasts into it). Closed keeps
    /// the memberships static.
    pub open: bool,
    /// The fault schedule applied to the run.
    pub plan: FaultPlan,
    /// Steady-state packet loss probability (on top of plan bursts).
    pub base_drop: f64,
    /// Multicast rounds per member (6 rounds span the fault windows).
    pub rounds: u64,
}

impl GcsScenario {
    /// A scenario with the default workload shape.
    #[must_use]
    pub fn new(seed: u64, ordering: OrderProtocol, open: bool, plan: FaultPlan) -> Self {
        GcsScenario {
            seed,
            ordering,
            open,
            plan,
            base_drop: 0.0,
            rounds: 6,
        }
    }

    /// Sets steady-state packet loss (the proptest satellite runs with
    /// `drop_probability > 0` throughout).
    #[must_use]
    pub fn with_drop(mut self, probability: f64) -> Self {
        self.base_drop = probability;
        self
    }

    /// Overrides the number of multicast rounds.
    #[must_use]
    pub fn with_rounds(mut self, rounds: u64) -> Self {
        self.rounds = rounds;
        self
    }

    /// One-line repro context for assertion messages and the campaign's
    /// failure report.
    #[must_use]
    pub fn repro(&self) -> String {
        format!(
            "seed={} ordering={:?} binding={} plan \"{}\"",
            self.seed,
            self.ordering,
            if self.open { "open" } else { "closed" },
            self.plan,
        )
    }

    /// Runs the scenario to completion and extracts the evidence.
    #[must_use]
    pub fn run(&self) -> ScenarioRun {
        let mut cfg = SimConfig::lan(self.seed);
        cfg.drop_probability = self.base_drop;
        let mut h = GcsHarness::new(cfg);
        let roster = h.add_nodes(Site::Lan, NODES);
        let ga = GroupId::new("ga");
        let gb = GroupId::new("gb");
        let config = GroupConfig::peer()
            .with_ordering(self.ordering)
            .with_time_silence(Duration::from_millis(20));
        h.create_group(SimTime::from_millis(1), &ga, &config, &roster[0..4]);
        h.create_group(SimTime::from_millis(1), &gb, &config, &roster[2..5]);
        self.plan.apply(&mut h.sim, &roster);

        // The send schedule: `rounds` rounds, each member of each group
        // multicasting once per round, interleaved across groups and
        // senders with seeded jitter so different seeds exercise
        // different orderings. Every third send asks only for causal
        // delivery. Payloads are globally unique (group/sender/round).
        let mut jitter = StdRng::seed_from_u64(self.seed ^ 0x5ce0_a11a);
        let mut sent: Vec<SentRecord> = Vec::new();
        let memberships: [(&GroupId, &[newtop_net::site::NodeId]); 2] =
            [(&ga, &roster[0..4]), (&gb, &roster[2..5])];
        let mut counter = 0u64;
        for round in 0..self.rounds {
            let base = 25 + round * 280;
            for (gi, (group, members)) in memberships.iter().enumerate() {
                for (k, &node) in members.iter().enumerate() {
                    let at = SimTime::from_millis(
                        base + (k as u64) * 9 + (gi as u64) * 4 + jitter.gen_range(0u64..18),
                    );
                    let order = if counter % 3 == 2 {
                        DeliveryOrder::Causal
                    } else {
                        DeliveryOrder::Total
                    };
                    counter += 1;
                    let payload = format!("{group}/{node}/r{round}");
                    h.multicast(at, node, group, order, payload.clone());
                    sent.push(SentRecord {
                        group: (*group).clone(),
                        sender: node,
                        payload: Bytes::from(payload),
                        scheduled_at: at,
                        order,
                    });
                }
            }
        }

        if self.open {
            // Open-group churn: n4 (already in `gb`) joins `ga` and then
            // multicasts into it. Even seeds join through n2, a member
            // of both groups; odd seeds through n0, which is in `ga`
            // only. If the contact is dead under this plan the join
            // simply never completes — the invariants are checked on
            // whatever did happen.
            let contact = if self.seed.is_multiple_of(2) {
                roster[2]
            } else {
                roster[0]
            };
            h.join(SimTime::from_millis(900), roster[4], &ga, &config, contact);
            for (i, at) in [1100u64, 1250, 1400].into_iter().enumerate() {
                let payload = format!("{ga}/{}/j{i}", roster[4]);
                let at = SimTime::from_millis(at + jitter.gen_range(0u64..18));
                h.multicast(at, roster[4], &ga, DeliveryOrder::Total, payload.clone());
                sent.push(SentRecord {
                    group: ga.clone(),
                    sender: roster[4],
                    payload: Bytes::from(payload),
                    scheduled_at: at,
                    order: DeliveryOrder::Total,
                });
            }
        }

        // Saturation bursts: inside every `saturate` window of the plan
        // the `ga` members fire a dense extra salvo on top of the normal
        // rounds, overrunning the credit window while CPU costs are
        // inflated. Sends the flow controller sheds are still recorded
        // here — the invariants never require sent ⇒ delivered, so the
        // checker verifies that whatever *was* admitted stayed safe.
        for (wi, (from, until, _factor)) in self.plan.saturate_windows().iter().enumerate() {
            let start = from.as_millis() as u64;
            let span = until.saturating_sub(*from).as_millis() as u64;
            let shots = 10u64;
            for (k, &node) in roster[0..4].iter().enumerate() {
                for s in 0..shots {
                    let at = SimTime::from_millis(
                        start
                            + s * span.max(1) / shots
                            + (k as u64) * 3
                            + jitter.gen_range(0u64..7),
                    );
                    let payload = format!("{ga}/{node}/s{wi}.{s}");
                    h.multicast(at, node, &ga, DeliveryOrder::Total, payload.clone());
                    sent.push(SentRecord {
                        group: ga.clone(),
                        sender: node,
                        payload: Bytes::from(payload),
                        scheduled_at: at,
                        order: DeliveryOrder::Total,
                    });
                }
            }
        }

        // Past the last fault (quiesce_at ≤ 1.5 s) plus suspicion
        // (280 ms) and view-change margin, everything still deliverable
        // has been delivered.
        let deadline = SimTime::ZERO + self.plan.quiesce_at() + Duration::from_millis(2500);
        h.run_until(deadline.max(SimTime::from_millis(4000)));

        let logs = roster
            .iter()
            .map(|&id| NodeLog::from_outputs(id, h.sim.is_alive(id), h.outputs(id)))
            .collect();
        // The checker reads per-sender send order from this vec's order;
        // the saturation salvo was appended out of chronological order,
        // so restore it (stable: equal times keep schedule order, which
        // is how the simulator breaks ties too).
        sent.sort_by_key(|s| s.scheduled_at);
        ScenarioRun {
            repro: self.repro(),
            logs,
            sent,
        }
    }
}

/// The evidence extracted from one scenario run.
pub struct ScenarioRun {
    /// Repro line ([`GcsScenario::repro`]) for failure reports.
    pub repro: String,
    /// Per-node delivery logs and view histories.
    pub logs: Vec<NodeLog>,
    /// The ground-truth send schedule.
    pub sent: Vec<SentRecord>,
}

impl ScenarioRun {
    /// Checks all five invariants against the run's evidence.
    #[must_use]
    pub fn check(&self) -> CheckReport {
        InvariantChecker::new(self.logs.clone(), self.sent.clone()).check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_clean(scenario: GcsScenario) {
        let repro = scenario.repro();
        let run = scenario.run();
        let report = run.check();
        assert!(report.passed(), "{repro}: {:?}", report.violations);
        // The run must have produced real material for the checker.
        let delivered: usize = run
            .logs
            .iter()
            .flat_map(|l| &l.groups)
            .map(|g| g.events.len())
            .sum();
        assert!(
            delivered > 20,
            "{repro}: scenario barely delivered anything"
        );
    }

    #[test]
    fn calm_symmetric_closed_run_passes() {
        assert_clean(GcsScenario::new(
            7,
            OrderProtocol::Symmetric,
            false,
            FaultPlan::calm(),
        ));
    }

    #[test]
    fn calm_asymmetric_open_run_passes() {
        assert_clean(GcsScenario::new(
            7,
            OrderProtocol::Asymmetric,
            true,
            FaultPlan::calm(),
        ));
    }

    #[test]
    fn sequencer_kill_run_passes() {
        assert_clean(GcsScenario::new(
            11,
            OrderProtocol::Asymmetric,
            false,
            FaultPlan::named("seq-kill").kill_sequencer(Duration::from_millis(150)),
        ));
    }

    #[test]
    fn saturate_run_sheds_safely_under_both_orderings() {
        for ordering in [OrderProtocol::Symmetric, OrderProtocol::Asymmetric] {
            let scenario = GcsScenario::new(
                5,
                ordering,
                false,
                FaultPlan::named("saturate").saturate(
                    Duration::from_millis(100),
                    Duration::from_millis(700),
                    3.0,
                ),
            );
            let repro = scenario.repro();
            let run = scenario.run();
            assert!(
                run.sent.len() > 6 * 7,
                "{repro}: saturation salvo missing from the schedule"
            );
            let report = run.check();
            assert!(report.passed(), "{repro}: {:?}", report.violations);
        }
    }

    #[test]
    fn reorder_window_run_passes_under_both_orderings() {
        // The PR8 wire-model extension: a reordering window permutes
        // frame arrival order without losing or duplicating anything,
        // so the causal/total-order invariants must be untouched.
        for ordering in [OrderProtocol::Symmetric, OrderProtocol::Asymmetric] {
            assert_clean(GcsScenario::new(
                19,
                ordering,
                false,
                FaultPlan::named("reorder").reorder(
                    Duration::from_millis(80),
                    Duration::from_millis(600),
                    Duration::from_millis(5),
                ),
            ));
        }
    }

    #[test]
    fn bandwidth_cap_run_passes_under_both_orderings() {
        // A per-link bandwidth cap delays frames (FIFO per link) but
        // never drops them; the protocols must ride it out, including
        // across the open-group join.
        for ordering in [OrderProtocol::Symmetric, OrderProtocol::Asymmetric] {
            assert_clean(GcsScenario::new(
                23,
                ordering,
                true,
                FaultPlan::named("bandwidth").throttle(
                    Duration::from_millis(100),
                    Duration::from_millis(700),
                    200_000,
                ),
            ));
        }
    }

    #[test]
    fn drop_burst_open_run_passes_under_both_orderings() {
        for ordering in [OrderProtocol::Symmetric, OrderProtocol::Asymmetric] {
            assert_clean(GcsScenario::new(
                17,
                ordering,
                true,
                FaultPlan::named("drop").drop_burst(
                    Duration::from_millis(100),
                    Duration::from_millis(500),
                    0.25,
                ),
            ));
        }
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let make = || {
            GcsScenario::new(
                13,
                OrderProtocol::Symmetric,
                true,
                FaultPlan::named("drop").drop_burst(
                    Duration::from_millis(100),
                    Duration::from_millis(500),
                    0.25,
                ),
            )
        };
        let (a, b) = (make().run(), make().run());
        assert_eq!(a.sent.len(), b.sent.len());
        for (x, y) in a.logs.iter().zip(&b.logs) {
            assert_eq!(x.alive, y.alive);
            assert_eq!(x.groups.len(), y.groups.len());
            for (gx, gy) in x.groups.iter().zip(&y.groups) {
                assert_eq!(gx.events.len(), gy.events.len(), "node {} diverged", x.node);
            }
        }
    }
}
