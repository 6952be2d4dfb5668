//! Metric/trace invariants across a request-manager crash with
//! rebind-and-retry (§4.1), checked end-to-end through `Nso::metrics()`
//! and `Nso::trace()`: the client records the rebind, a survivor answers
//! the retry from its reply cache (`retry_deduped`), and no server's
//! execution counter shows a re-execution.

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

struct CountingServer {
    members: Vec<NodeId>,
    executions: Arc<AtomicU32>,
}

impl NsoApp for CountingServer {
    fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        nso.create_server_group(
            gid(),
            self.members.clone(),
            Replication::Active,
            OpenOptimisation::None,
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
        nso.register_group_servant(
            gid(),
            Box::new(move |_op: &str, args: &[u8]| {
                count.fetch_add(1, AtomicOrdering::SeqCst);
                Bytes::from(args.to_vec())
            }),
        );
    }

    fn on_output(&mut self, _: &mut Nso, _: NsoOutput, _: SimTime, _: &mut Outbox) {}
}

/// The §4.1 smart-client behaviour through the smart proxy: numbered
/// call stream, rebind on broken bindings, stalled-call retries with
/// original numbers.
struct RetryClient {
    proxy: SmartProxy,
    total_calls: usize,
    issued: usize,
    completions: Vec<u64>,
    rebinds: u32,
}

const BIND_TAG: u64 = tags::APP_BASE;
const PROXY_TAG: u64 = tags::APP_BASE + 1;

impl RetryClient {
    fn issue(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        if self.issued >= self.total_calls || self.proxy.pending() > 0 {
            return;
        }
        let args = Bytes::from(vec![self.issued as u8]);
        self.proxy
            .invoke(nso, "work", args, ReplyMode::All, now, out);
        self.issued += 1;
    }
}

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
            Some(ProxyEvent::Complete { number, .. }) => {
                self.completions.push(number);
                self.issue(nso, now, out);
            }
            Some(ProxyEvent::Rebound { broken: true }) => self.rebinds += 1,
            _ => {}
        }
    }
}

#[test]
fn crash_rebind_metrics_and_trace_invariants() {
    let total = 100usize;
    let mut sim = Sim::new(SimConfig::lan(41));
    let servers: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
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
                    executions: count,
                }),
            )),
        );
    }
    let client = NodeId::from_index(3);
    sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            client,
            Box::new(RetryClient {
                proxy: SmartProxy::new(
                    gid(),
                    servers.clone(),
                    BindOptions::open(servers[0]).with_time_silence(Duration::from_millis(20)),
                    PROXY_TAG,
                ),
                total_calls: total,
                issued: 0,
                completions: Vec::new(),
                rebinds: 0,
            }),
        )),
    );
    // The client binds through servers[0]; kill it mid-stream.
    sim.schedule_crash(SimTime::from_millis(50), servers[0]);
    sim.run_until(SimTime::from_secs(20));

    let client_node = sim.node_ref::<NsoNode>(client).unwrap();
    let app = client_node.app_ref::<RetryClient>().unwrap();
    let snap = client_node.nso().metrics();
    let trace = client_node.nso().trace();

    // Every call completed exactly once despite the crash.
    let mut numbers = app.completions.clone();
    numbers.sort_unstable();
    assert_eq!(numbers, (1..=total as u64).collect::<Vec<_>>());

    // Exactly one rebind: the manager crash broke the binding once, and
    // the trace and the exact `ev.*` counter both recorded it.
    assert_eq!(app.rebinds, 1, "one manager crash, one broken binding");
    assert_eq!(snap.counter("ev.rebind"), 1);
    let rebinds: Vec<_> = trace
        .iter()
        .filter(|r| r.event.kind() == "rebind")
        .collect();
    assert_eq!(rebinds.len(), 1, "exactly one Rebind event at the client");

    // The rebound binding produced a second bind_ready, after the rebind.
    assert_eq!(snap.counter("ev.bind_ready"), 2, "initial bind + rebind");
    let last_ready = trace
        .iter()
        .rfind(|r| r.event.kind() == "bind_ready")
        .expect("bind_ready recorded");
    assert!(last_ready.at > rebinds[0].at, "rebind precedes the re-bind");

    // Client-side invocation accounting: every completion matched an
    // issue, and each measured a latency sample.
    assert_eq!(snap.counter("inv.calls_completed"), total as u64);
    let lat = snap
        .latencies
        .get("inv.latency")
        .expect("latency histogram");
    assert_eq!(lat.count, total);
    assert!(lat.mean > Duration::ZERO);

    // At least one retry crossed a view change and was answered from a
    // survivor's reply cache (§4.1 dedup) — and no survivor's execution
    // counter exceeds the call count (no re-execution).
    let mut deduped_total = 0;
    for (i, &s) in servers.iter().enumerate().skip(1) {
        let node = sim.node_ref::<NsoNode>(s).expect("survivor");
        let ssnap = node.nso().metrics();
        deduped_total += ssnap.counter("ev.retry_deduped");
        let executed = ssnap.counter("ev.executed");
        assert!(
            executed <= total as u64,
            "server {i} executed {executed} > {total}: re-executed a retry"
        );
        assert_eq!(
            executed,
            u64::from(executions[i].load(AtomicOrdering::SeqCst)),
            "ev.executed mirrors the servant's own count on server {i}"
        );
        // Retries were answered without re-execution: the dedup events
        // are visible in the survivor's trace too.
        let ded = node
            .nso()
            .trace()
            .iter()
            .filter(|r| r.event.kind() == "retry_deduped")
            .count();
        assert_eq!(ded as u64, ssnap.counter("ev.retry_deduped"));
    }
    assert!(
        deduped_total >= 1,
        "the post-rebind retries must hit a reply cache somewhere"
    );

    // The crash is visible in the survivors' failure detectors.
    let suspected: u64 = servers
        .iter()
        .skip(1)
        .filter_map(|&s| sim.node_ref::<NsoNode>(s))
        .map(|n| n.nso().metrics().counter("ev.suspected"))
        .sum();
    assert!(
        suspected >= 1,
        "someone must have suspected the dead manager"
    );
}
