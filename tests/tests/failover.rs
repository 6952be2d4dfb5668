//! End-to-end failure-handling tests (§4.1 of the paper): request-manager
//! crashes with rebind-and-retry, closed-group failure masking, and
//! passive-replication promotion — all driven through the full NSO stack
//! on the deterministic simulator.

use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

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
    GroupId::new("svc")
}

/// A server whose executions are counted through a shared atomic, so
/// tests can prove retries are not re-executed.
struct CountingServer {
    members: Vec<NodeId>,
    replication: Replication,
    optimisation: OpenOptimisation,
    executions: Arc<AtomicU32>,
}

impl NsoApp for CountingServer {
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
        let count = Arc::clone(&self.executions);
        let me = nso.node().index();
        nso.register_group_servant(
            gid(),
            Box::new(move |op: &str, args: &[u8]| {
                count.fetch_add(1, AtomicOrdering::SeqCst);
                let mut body = format!("{op}@{me}:").into_bytes();
                body.extend_from_slice(args);
                Bytes::from(body)
            }),
        );
    }

    fn on_output(&mut self, _: &mut Nso, _: NsoOutput, _: SimTime, _: &mut Outbox) {}
}

/// A client that keeps a numbered call stream going through the smart
/// proxy, which rebinds on broken bindings (§4.1).
struct RetryClient {
    proxy: SmartProxy,
    mode: ReplyMode,
    total_calls: usize,
    issued: usize,
    completions: Vec<(u64, Vec<(NodeId, Bytes)>)>,
    rebinds: u32,
    /// Completions the proxy did not claim: a call completed twice.
    duplicates: u32,
}

impl RetryClient {
    fn new(servers: Vec<NodeId>, mode: ReplyMode, open: bool, total_calls: usize) -> Self {
        let opts = if open {
            BindOptions::open(servers[0])
        } else {
            BindOptions::closed(servers.clone())
        }
        .with_time_silence(Duration::from_millis(20));
        RetryClient {
            proxy: SmartProxy::new(gid(), servers, opts, PROXY_TAG),
            mode,
            total_calls,
            issued: 0,
            completions: Vec::new(),
            rebinds: 0,
            duplicates: 0,
        }
    }

    fn issue(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        if self.issued >= self.total_calls || self.proxy.pending() > 0 {
            return;
        }
        let args = Bytes::from(vec![self.issued as u8]);
        self.proxy.invoke(nso, "work", args, self.mode, now, out);
        self.issued += 1;
    }
}

const BIND_TAG: u64 = tags::APP_BASE;
const PROXY_TAG: u64 = tags::APP_BASE + 1;

impl NsoApp for RetryClient {
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
            Some(ProxyEvent::Complete {
                number, replies, ..
            }) => {
                self.completions.push((number, replies));
                self.issue(nso, now, out);
            }
            Some(ProxyEvent::Rebound { broken: true }) => self.rebinds += 1,
            None if matches!(output, NsoOutput::InvocationComplete { .. }) => {
                self.duplicates += 1;
            }
            _ => {}
        }
    }
}

struct Cluster {
    sim: Sim,
    servers: Vec<NodeId>,
    client: NodeId,
    executions: Vec<Arc<AtomicU32>>,
}

fn build(
    n_servers: usize,
    replication: Replication,
    optimisation: OpenOptimisation,
    mode: ReplyMode,
    open: bool,
    total_calls: usize,
    seed: u64,
) -> Cluster {
    let mut sim = Sim::new(SimConfig::lan(seed));
    let servers: Vec<NodeId> = (0..n_servers)
        .map(|i| NodeId::from_index(i as u32))
        .collect();
    let mut executions = Vec::new();
    for &s in &servers {
        let count = Arc::new(AtomicU32::new(0));
        executions.push(Arc::clone(&count));
        sim.add_node(
            Site::Lan,
            Box::new(NsoNode::new(
                s,
                Box::new(CountingServer {
                    members: servers.clone(),
                    replication,
                    optimisation,
                    executions: count,
                }),
            )),
        );
    }
    let client = NodeId::from_index(n_servers as u32);
    sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            client,
            Box::new(RetryClient::new(servers.clone(), mode, open, total_calls)),
        )),
    );
    Cluster {
        sim,
        servers,
        client,
        executions,
    }
}

fn client_state(sim: &Sim, client: NodeId) -> (Vec<u64>, u32, u32) {
    let app = sim
        .node_ref::<NsoNode>(client)
        .unwrap()
        .app_ref::<RetryClient>()
        .unwrap();
    let mut numbers: Vec<u64> = app.completions.iter().map(|(n, _)| *n).collect();
    numbers.sort_unstable();
    (numbers, app.rebinds, app.duplicates)
}

#[test]
fn manager_crash_rebinds_and_retries_without_reexecution() {
    let total = 100;
    let mut c = build(
        3,
        Replication::Active,
        OpenOptimisation::None,
        ReplyMode::All,
        true,
        total,
        41,
    );
    // The client binds to servers[0]; kill it mid-stream.
    c.sim.schedule_crash(SimTime::from_millis(50), c.servers[0]);
    c.sim.run_until(SimTime::from_secs(20));

    let (numbers, rebinds, duplicates) = client_state(&c.sim, c.client);
    assert!(rebinds >= 1, "the broken binding must be detected");
    assert_eq!(
        numbers,
        (1..=total as u64).collect::<Vec<_>>(),
        "every call completes exactly once, including the ones caught by the crash"
    );
    assert_eq!(duplicates, 0, "no call completes twice");
    // The survivors never executed any call twice: at most one execution
    // per call each (some early ones may also have run on the crashed
    // manager before it died).
    for (i, ex) in c.executions.iter().enumerate().skip(1) {
        assert!(
            ex.load(AtomicOrdering::SeqCst) <= total as u32,
            "server {i} re-executed retried calls"
        );
    }
}

#[test]
fn closed_group_masks_a_server_crash_without_rebinding() {
    let total = 100;
    let mut c = build(
        3,
        Replication::Active,
        OpenOptimisation::None,
        ReplyMode::Majority,
        false,
        total,
        42,
    );
    c.sim.schedule_crash(SimTime::from_millis(50), c.servers[2]);
    c.sim.run_until(SimTime::from_secs(20));
    let (numbers, rebinds, duplicates) = client_state(&c.sim, c.client);
    assert_eq!(rebinds, 0, "closed groups mask failures without rebinding");
    assert_eq!(numbers, (1..=total as u64).collect::<Vec<_>>());
    assert_eq!(duplicates, 0, "no call completes twice");
}

#[test]
fn passive_primary_crash_promotes_a_backup() {
    let total = 80;
    let mut c = build(
        3,
        Replication::Passive,
        OpenOptimisation::AsyncForwarding,
        ReplyMode::First,
        true,
        total,
        43,
    );
    // The designated manager/primary is servers[0]; crash it.
    c.sim.schedule_crash(SimTime::from_millis(40), c.servers[0]);
    c.sim.run_until(SimTime::from_secs(20));
    let (numbers, rebinds, duplicates) = client_state(&c.sim, c.client);
    assert!(rebinds >= 1);
    assert_eq!(numbers, (1..=total as u64).collect::<Vec<_>>());
    assert_eq!(duplicates, 0, "no call completes twice");
    // The promoted backup replayed the backlog: its execution count covers
    // the pre-crash calls it had only logged.
    let ex1 = c.executions[1].load(AtomicOrdering::SeqCst);
    assert!(ex1 > 0, "promoted backup executed requests");
}

#[test]
fn wait_for_first_and_majority_complete_under_load() {
    for (mode, seed) in [(ReplyMode::First, 44), (ReplyMode::Majority, 45)] {
        let total = 20;
        let mut c = build(
            3,
            Replication::Active,
            OpenOptimisation::None,
            mode,
            true,
            total,
            seed,
        );
        c.sim.run_until(SimTime::from_secs(10));
        let (numbers, _, duplicates) = client_state(&c.sim, c.client);
        assert_eq!(numbers, (1..=total as u64).collect::<Vec<_>>(), "{mode:?}");
        assert_eq!(duplicates, 0, "{mode:?}: no call completes twice");
    }
}

#[test]
fn replies_identify_the_executing_servers() {
    let mut c = build(
        3,
        Replication::Active,
        OpenOptimisation::None,
        ReplyMode::All,
        true,
        5,
        46,
    );
    c.sim.run_until(SimTime::from_secs(10));
    let app = c
        .sim
        .node_ref::<NsoNode>(c.client)
        .unwrap()
        .app_ref::<RetryClient>()
        .unwrap();
    for (number, replies) in &app.completions {
        assert_eq!(replies.len(), 3, "wait-for-all gathers all three");
        for (server, body) in replies {
            let text = String::from_utf8_lossy(body);
            assert!(
                text.starts_with(&format!("work@{}", server.index())),
                "call {number}: reply {text} mislabelled"
            );
            // Active replication: all replicas computed the same call.
            assert_eq!(body.last(), Some(&((*number - 1) as u8)));
        }
    }
}

#[test]
fn contact_server_crash_retry_served_from_reply_cache() {
    // §4.1 end to end: the open-binding contact server dies mid-stream,
    // the client rebinds to the next manager and retries the stranded
    // calls with their original numbers. The surviving replicas answer
    // those retries from the reply cache — each call executes at most
    // once per replica, and the cache demonstrably absorbed at least one
    // retry — so the client completes every call exactly once.
    use newtop_net::trace::TraceEvent;
    use std::collections::HashMap;

    let seed = 47;
    let total = 40;
    let mut c = build(
        3,
        Replication::Active,
        OpenOptimisation::None,
        ReplyMode::All,
        true,
        total,
        seed,
    );
    c.sim.schedule_crash(SimTime::from_millis(60), c.servers[0]);
    c.sim.run_until(SimTime::from_secs(20));

    let (numbers, rebinds, duplicates) = client_state(&c.sim, c.client);
    assert!(rebinds >= 1, "crash must break the binding (seed={seed})");
    assert_eq!(
        numbers,
        (1..=total as u64).collect::<Vec<_>>(),
        "exactly-once completion across the rebind (seed={seed})"
    );
    assert_eq!(duplicates, 0, "no call completes twice (seed={seed})");

    let mut deduped = 0u32;
    for &s in &c.servers[1..] {
        let node = c.sim.node_ref::<NsoNode>(s).expect("server node");
        let mut executed: HashMap<u64, u32> = HashMap::new();
        for rec in node.nso().trace() {
            match rec.event {
                TraceEvent::Executed { number, .. } => {
                    *executed.entry(number).or_default() += 1;
                }
                TraceEvent::RetryDeduped { .. } => deduped += 1,
                _ => {}
            }
        }
        for (number, count) in executed {
            assert_eq!(
                count, 1,
                "server {s} executed call {number} {count} times (seed={seed})"
            );
        }
    }
    assert!(
        deduped > 0,
        "no retry hit the reply cache — the crash window missed (seed={seed})"
    );
}
