//! `invoke-open` and `invoke-closed`: request-reply from one client
//! node to a three-replica, actively replicated server group over TCP
//! on 127.0.0.1, as a closed loop with K calls outstanding.
//!
//! Every replica runs the same servant: it answers with the FNV-1a
//! digest of the call's arguments, so the load generator knows each
//! reply body in advance. A call completes when the client's `Nso` reports
//! `InvocationComplete`; it fails if the API returns `Err`, if it has
//! not completed 1 s after issue, or if its replies fail the check
//! (three replies, from the three distinct servers, each body the
//! digest). A failed call is replaced at once, so K stay outstanding.

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use bytes::Bytes;
use newtop::nso::{BindOptions, NsoOutput};
use newtop_gcs::group::{GroupConfig, GroupId};
use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
use newtop_net::metrics::MetricsSnapshot;
use newtop_net::site::NodeId;
use newtop_rt::NodeHandle;

use crate::cluster::{Cluster, Net};
use crate::sys::{fnv1a, Rng};
use crate::trace::Spans;
use crate::{Until, Window, DEADLINE};

pub struct Spec {
    pub closed: bool,
    pub arg_bytes: usize,
    pub outstanding: usize,
}

/// Open binding: the client talks to request manager server 0.
pub const OPEN: Spec = Spec {
    closed: false,
    arg_bytes: 64,
    outstanding: 1,
};

/// Closed binding: the client multicasts to all three servers.
pub const CLOSED: Spec = Spec {
    closed: true,
    arg_bytes: 4096,
    outstanding: 4,
};

pub const SERVERS: u32 = 3;
/// Servers plus the client.
pub const NODES: u32 = SERVERS + 1;
/// Node id of the client; the servers are 0..SERVERS.
pub const CLIENT: usize = SERVERS as usize;
pub const NET: Net = Net::Tcp;
const OPERATION: &str = "digest";
const BIND_WAIT: Duration = Duration::from_secs(5);
/// Warm-up calls, made one at a time before any measurement.
pub const WARM_UP_CALLS: u64 = 50;

struct Call {
    op: u64,
    issued: Instant,
    expect: u64,
    span: Option<usize>,
}

/// Binding-level events seen by the load generator.
#[derive(Default)]
pub struct Events {
    pub binding_broken: u64,
    pub bind_failed: u64,
    pub view_changes: u64,
    pub rebinds: u64,
    pub late_completions: u64,
}

pub struct Service {
    spec: &'static Spec,
    pub cluster: Cluster,
    group: GroupId,
    binding: GroupId,
    servers: Vec<NodeId>,
    next_op: u64,
    /// Calls given up at the deadline; a later completion is late, not
    /// a second completion.
    given_up: HashSet<u64>,
    /// Every call number that completed, to catch a call completing
    /// twice.
    completed: HashSet<u64>,
    pub events: Events,
}

impl Service {
    /// Creates the server group on nodes 0..SERVERS of `cluster` and
    /// binds node `CLIENT` to it.
    pub fn setup(spec: &'static Spec, cluster: Cluster) -> Result<Service, String> {
        let group = GroupId::new("perfbench-service");
        let servers: Vec<NodeId> = (0..SERVERS).map(NodeId::from_index).collect();
        for node in &cluster.nodes[..CLIENT] {
            let (g, members) = (group.clone(), servers.clone());
            node.with_nso(move |nso, now, out| {
                nso.create_server_group(
                    g.clone(),
                    members,
                    Replication::Active,
                    OpenOptimisation::None,
                    GroupConfig::request_reply(),
                    now,
                    out,
                )
                .map_err(|e| e.to_string())?;
                nso.register_group_servant(
                    g,
                    Box::new(|_: &str, args: &[u8]| {
                        Bytes::copy_from_slice(&fnv1a(args).to_be_bytes())
                    }),
                );
                Ok::<(), String>(())
            })?;
        }
        let binding = bind(&cluster.nodes[CLIENT], &group, spec, &servers)?;
        Ok(Service {
            spec,
            cluster,
            group,
            binding,
            servers,
            next_op: 0,
            given_up: HashSet::new(),
            completed: HashSet::new(),
            events: Events::default(),
        })
    }

    pub fn outstanding(&self) -> usize {
        self.spec.outstanding
    }

    fn client(&self) -> &NodeHandle {
        &self.cluster.nodes[CLIENT]
    }

    /// The client node's `Nso::metrics()`.
    pub fn client_metrics(&self) -> MetricsSnapshot {
        self.client().with_nso(|nso, _, _| nso.metrics())
    }

    pub fn warm_up(&mut self, rng: &mut Rng) -> Result<(), String> {
        let w = self.run(Until::Ops(WARM_UP_CALLS), 1, rng, &mut Spans::off());
        if w.completed == 0 {
            return Err(format!("warm-up: none of {} calls completed", w.attempted));
        }
        Ok(())
    }

    /// Drives the closed loop with `k` calls outstanding until `until`
    /// stops issuing, then waits for every issued call to complete or
    /// fail.
    pub fn run(&mut self, until: Until, k: usize, rng: &mut Rng, spans: &mut Spans) -> Window {
        let mut w = Window::default();
        let mut pending: BTreeMap<u64, Call> = BTreeMap::new();
        let started = Instant::now();
        let mut slot_freed = started;
        let mut last_drain = started;
        loop {
            let now = Instant::now();
            let issuing = until.issuing(w.attempted, started, now);
            if issuing && pending.len() < k {
                if let Some((number, call)) = self.issue(rng, slot_freed, spans, &mut w) {
                    pending.insert(number, call);
                } else {
                    // The API refused the call: back off briefly rather
                    // than spin on a broken binding.
                    std::thread::sleep(Duration::from_millis(1));
                }
                continue;
            }
            if !issuing && pending.is_empty() {
                break;
            }
            let oldest_deadline = pending.values().next().map(|c| c.issued + DEADLINE);
            let wake = match (until, oldest_deadline) {
                (Until::Time(d), Some(dl)) if issuing => dl.min(started + d),
                (_, Some(dl)) => dl,
                (Until::Time(d), None) => started + d,
                (Until::Ops(_), None) => now + DEADLINE,
            };
            if let Ok(output) = self
                .client()
                .outputs()
                .recv_timeout(wake.saturating_duration_since(now))
            {
                let at = Instant::now();
                spans.push("driver.drain", last_drain, at, None, None, None);
                last_drain = at;
                if self.on_output(output, at, &mut pending, &mut w, spans) {
                    slot_freed = at;
                }
            }
            let now = Instant::now();
            while let Some(entry) = pending.first_entry() {
                if now < entry.get().issued + DEADLINE {
                    break;
                }
                let (number, call) = entry.remove_entry();
                self.given_up.insert(number);
                w.fail_deadline(call.issued, now);
                spans.end(call.span, now);
                slot_freed = now;
            }
        }
        w.secs = started.elapsed().as_secs_f64();
        w
    }

    fn issue(
        &mut self,
        rng: &mut Rng,
        slot_freed: Instant,
        spans: &mut Spans,
        w: &mut Window,
    ) -> Option<(u64, Call)> {
        let op = self.next_op;
        self.next_op += 1;
        let args = rng.bytes(self.spec.arg_bytes);
        let expect = fnv1a(&args);
        let args = Bytes::from(args);
        let binding = self.binding.clone();
        let traced = spans.is_on();
        w.attempted += 1;
        let submit = Instant::now();
        let (result, timing) = self.client().with_nso(move |nso, now, out| {
            let entered = traced.then(Instant::now);
            let result = match nso.handle_for(&binding) {
                Some(h) => h
                    .invoke(nso, OPERATION, args, ReplyMode::All, now, out)
                    .map(|call| call.number)
                    .map_err(|e| e.to_string()),
                None => Err(format!("binding {binding:?} is gone")),
            };
            (result, entered.map(|e| (e, Instant::now())))
        });
        let returned = Instant::now();
        let root = spans.push("op", submit, submit, None, Some(op), Some(CLIENT as u32));
        spans.push("driver.late", slot_freed, submit, root, Some(op), None);
        let call = spans.push("rt.with_nso", submit, returned, root, Some(op), None);
        if let Some((entered, exited)) = timing {
            spans.push("rt.cmd_wait", submit, entered, call, Some(op), None);
            spans.push("core.call", entered, exited, call, Some(op), None);
        }
        match result {
            Ok(number) => Some((
                number,
                Call {
                    op,
                    issued: submit,
                    expect,
                    span: root,
                },
            )),
            Err(e) => {
                println!("failed: op {op}: invoke returned Err: {e}");
                w.fail_api(submit, returned);
                spans.end(root, returned);
                None
            }
        }
    }

    /// Handles one client output; true if it freed a slot.
    fn on_output(
        &mut self,
        output: NsoOutput,
        at: Instant,
        pending: &mut BTreeMap<u64, Call>,
        w: &mut Window,
        spans: &mut Spans,
    ) -> bool {
        match output {
            NsoOutput::InvocationComplete { call, replies } => {
                let number = call.number;
                if !self.completed.insert(number) {
                    println!("check failed: call {call} completed twice");
                    w.violations += 1;
                    return false;
                }
                let Some(c) = pending.remove(&number) else {
                    if self.given_up.remove(&number) {
                        self.events.late_completions += 1;
                    } else {
                        println!("check failed: completion for unknown call {call}");
                        w.violations += 1;
                    }
                    return false;
                };
                spans.end(c.span, at);
                match self.check_replies(&replies, c.expect) {
                    Ok(()) => w.complete(c.issued, at),
                    Err(e) => {
                        println!("check failed: op {} (call {call}): {e}", c.op);
                        w.fail_check(c.issued, at);
                    }
                }
                true
            }
            NsoOutput::BindingBroken { group, .. } if group == self.binding => {
                self.events.binding_broken += 1;
                self.rebind();
                false
            }
            NsoOutput::BindFailed { group } if group == self.binding => {
                self.events.bind_failed += 1;
                self.rebind();
                false
            }
            NsoOutput::ViewChanged { group, view } => {
                self.events.view_changes += 1;
                // A binding that lost a member can no longer collect a
                // reply from every server: replace it.
                if group == self.binding && view.len() < self.binding_size() {
                    self.rebind();
                }
                false
            }
            _ => false,
        }
    }

    fn check_replies(&self, replies: &[(NodeId, Bytes)], expect: u64) -> Result<(), String> {
        let mut from: Vec<NodeId> = replies.iter().map(|(n, _)| *n).collect();
        from.sort_unstable();
        from.dedup();
        if replies.len() != self.servers.len() || from != self.servers {
            return Err(format!(
                "{} replies from {from:?}, expected one from each of {:?}",
                replies.len(),
                self.servers
            ));
        }
        match replies
            .iter()
            .find(|(_, body)| body[..] != expect.to_be_bytes())
        {
            Some((n, body)) => Err(format!("server {n} answered {body:?}")),
            None => Ok(()),
        }
    }

    /// Members of a whole binding group: the client and its manager, or
    /// the client and every server.
    fn binding_size(&self) -> usize {
        1 + if self.spec.closed {
            self.servers.len()
        } else {
            1
        }
    }

    /// Replaces a broken or failed binding. Calls still pending on the
    /// old one fail at their deadline.
    fn rebind(&mut self) {
        self.events.rebinds += 1;
        match bind(self.client(), &self.group, self.spec, &self.servers) {
            Ok(binding) => self.binding = binding,
            Err(e) => println!("rebind failed: {e}"),
        }
    }

    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

fn bind(
    client: &NodeHandle,
    group: &GroupId,
    spec: &Spec,
    servers: &[NodeId],
) -> Result<GroupId, String> {
    let opts = if spec.closed {
        BindOptions::closed(servers.to_vec())
    } else {
        BindOptions::open(servers[0])
    };
    let g = group.clone();
    let binding = client.with_nso(move |nso, now, out| {
        nso.bind(g, opts, now, out)
            .map(|h| h.id().clone())
            .map_err(|e| e.to_string())
    })?;
    let deadline = Instant::now() + BIND_WAIT;
    loop {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .ok_or_else(|| format!("binding {binding:?} not ready within {BIND_WAIT:?}"))?;
        match client.outputs().recv_timeout(remaining) {
            Ok(NsoOutput::BindingReady { group }) if group == binding => return Ok(binding),
            Ok(NsoOutput::BindFailed { group }) if group == binding => {
                return Err(format!("bind of {binding:?} failed"))
            }
            Ok(_) => {}
            Err(_) => {
                return Err(format!(
                    "binding {binding:?} not ready within {BIND_WAIT:?}"
                ))
            }
        }
    }
}
