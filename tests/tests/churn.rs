//! Randomized fault-injection ("churn") tests at the full stack: under
//! arbitrary crash timings and reply modes, every call a client issues
//! completes exactly once.

use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;

use newtop::nso::{BindOptions, Nso, NsoOutput};
use newtop::proxy::{ProxyEvent, SmartProxy};
use newtop::simnode::{NsoApp, NsoNode};
use newtop::tags;
use newtop_gcs::group::{GroupConfig, GroupId, OrderProtocol};
use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
use newtop_net::sim::{Outbox, Sim, SimConfig};
use newtop_net::site::{NodeId, Site};
use newtop_net::time::SimTime;

fn gid() -> GroupId {
    GroupId::new("churn-svc")
}

struct Server {
    members: Vec<NodeId>,
    replication: Replication,
    optimisation: OpenOptimisation,
}

impl NsoApp for Server {
    fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        nso.create_server_group(
            gid(),
            self.members.clone(),
            self.replication,
            self.optimisation,
            GroupConfig {
                ordering: OrderProtocol::Asymmetric,
                time_silence: Duration::from_millis(20),
                ..GroupConfig::request_reply()
            },
            now,
            out,
        )
        .expect("server group");
        let me = nso.node().index();
        nso.register_group_servant(
            gid(),
            Box::new(move |_op: &str, args: &[u8]| {
                let mut body = vec![me as u8];
                body.extend_from_slice(args);
                Bytes::from(body)
            }),
        );
    }

    fn on_output(&mut self, _: &mut Nso, _: NsoOutput, _: SimTime, _: &mut Outbox) {}
}

/// A closed-loop client whose smart proxy rebinds and retries.
struct Client {
    proxy: SmartProxy,
    mode: ReplyMode,
    total: usize,
    issued: usize,
    completed: Vec<u64>,
    /// Completions the proxy did not claim: a call completed twice.
    duplicates: u32,
}

const BIND_TAG: u64 = tags::APP_BASE;
const PROXY_TAG: u64 = tags::APP_BASE + 1;

impl Client {
    fn issue(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        if self.issued >= self.total || self.proxy.pending() > 0 {
            return;
        }
        let args = Bytes::from(vec![(self.issued % 251) as u8]);
        self.proxy.invoke(nso, "work", args, self.mode, now, out);
        self.issued += 1;
    }
}

impl NsoApp for Client {
    fn on_start(&mut self, _nso: &mut Nso, _now: SimTime, out: &mut Outbox) {
        out.set_timer(Duration::from_millis(5), BIND_TAG);
    }

    fn on_timer(&mut self, nso: &mut Nso, tag: u64, now: SimTime, out: &mut Outbox) {
        if tag == BIND_TAG {
            self.issue(nso, now, out);
        } else {
            self.proxy.on_timer(nso, tag, now, out);
        }
    }

    fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, now: SimTime, out: &mut Outbox) {
        match self.proxy.on_output(nso, &output, now, out) {
            Some(ProxyEvent::Complete { number, .. }) => {
                self.completed.push(number);
                self.issue(nso, now, out);
            }
            None if matches!(output, NsoOutput::InvocationComplete { .. }) => {
                self.duplicates += 1;
            }
            _ => {}
        }
    }
}

fn run_churn(
    crash_ms: u64,
    crash_which: usize,
    mode: ReplyMode,
    replication: Replication,
    optimisation: OpenOptimisation,
    seed: u64,
) -> (Vec<u64>, u32, usize) {
    let total = 60;
    let mut sim = Sim::new(SimConfig::lan(seed));
    let servers: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    for &s in &servers {
        sim.add_node(
            Site::Lan,
            Box::new(NsoNode::new(
                s,
                Box::new(Server {
                    members: servers.clone(),
                    replication,
                    optimisation,
                }),
            )),
        );
    }
    let client = NodeId::from_index(3);
    sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            client,
            Box::new(Client {
                proxy: SmartProxy::new(
                    gid(),
                    servers.clone(),
                    BindOptions::open(servers[0]).with_time_silence(Duration::from_millis(20)),
                    PROXY_TAG,
                ),
                mode,
                total,
                issued: 0,
                completed: Vec::new(),
                duplicates: 0,
            }),
        )),
    );
    sim.schedule_crash(SimTime::from_millis(crash_ms), servers[crash_which % 3]);
    sim.run_until(SimTime::from_secs(30));
    let app = sim
        .node_ref::<NsoNode>(client)
        .unwrap()
        .app_ref::<Client>()
        .unwrap();
    let mut done = app.completed.clone();
    done.sort_unstable();
    (done, app.duplicates, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A crash at any time, of any replica, under any reply mode: every
    /// call the client issues completes exactly once.
    #[test]
    fn prop_every_call_completes_exactly_once_under_crashes(
        crash_ms in 5u64..300,
        crash_which in 0usize..3,
        mode_pick in 0u8..3,
        seed in 0u64..1000,
    ) {
        let mode = match mode_pick {
            0 => ReplyMode::First,
            1 => ReplyMode::Majority,
            _ => ReplyMode::All,
        };
        let (done, duplicates, total) = run_churn(
            crash_ms,
            crash_which,
            mode,
            Replication::Active,
            OpenOptimisation::None,
            seed,
        );
        prop_assert_eq!(done, (1..=total as u64).collect::<Vec<_>>());
        prop_assert_eq!(duplicates, 0);
    }

    /// The same property for the passive-replication configuration
    /// (crashing the primary forces promotion + backlog replay).
    #[test]
    fn prop_passive_store_survives_primary_crashes(
        crash_ms in 5u64..200,
        seed in 0u64..1000,
    ) {
        let (done, duplicates, total) = run_churn(
            crash_ms,
            0, // the designated primary
            ReplyMode::First,
            Replication::Passive,
            OpenOptimisation::AsyncForwarding,
            seed,
        );
        prop_assert_eq!(done, (1..=total as u64).collect::<Vec<_>>());
        prop_assert_eq!(duplicates, 0);
    }
}
