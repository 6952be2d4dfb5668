//! `peer-total`: three members of a peer group on `GroupConfig::peer()`
//! defaults (symmetric total order, lively, 25 ms time-silence) over the
//! in-process channel network, fed an open loop of 1000 multicasts/s
//! round-robin over the members, 100-byte payloads.
//!
//! A multicast is due at a fixed time; its latency runs from the due
//! time to its delivery at the last member. It completes when every
//! member has delivered it once, from the member that sent it, with the
//! payload that was sent; it fails if `GroupHandle::send` returns
//! `Err`, if it is not delivered everywhere 1 s after its due time, or
//! if a delivery fails the check. After each run the three delivery
//! sequences must agree.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use bytes::Bytes;
use newtop::nso::NsoOutput;
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId};
use newtop_net::site::NodeId;

use crate::cluster::{Cluster, Net};
use crate::sys::{fnv1a, Rng};
use crate::trace::Spans;
use crate::{Until, Window, DEADLINE};

pub const MEMBERS: u32 = 3;
pub const RATE_PER_S: u32 = 1000;
pub const PAYLOAD_BYTES: usize = 100;
pub const NET: Net = Net::Channel;
/// How long the load generator sleeps between output drains when
/// nothing is due sooner.
pub const POLL: Duration = Duration::from_micros(200);
/// Warm-up multicasts, sent at the workload's rate before measurement.
pub const WARM_UP_SENDS: u64 = 50;

struct Open {
    due: Instant,
    sender: usize,
    digest: u64,
    seen: [Option<Instant>; MEMBERS as usize],
    span: Option<usize>,
}

pub struct Peers {
    pub cluster: Cluster,
    group: GroupId,
    next_op: u64,
    /// Each member's delivery order, over every run.
    sequences: Vec<Vec<u64>>,
    /// Which members delivered each multicast (bit per member).
    delivered: HashMap<u64, u8>,
    pub view_changes: u64,
}

impl Peers {
    /// Creates the peer group on every node of `cluster`.
    pub fn setup(cluster: Cluster) -> Result<Peers, String> {
        let group = GroupId::new("perfbench-peers");
        let members: Vec<NodeId> = (0..MEMBERS).map(NodeId::from_index).collect();
        for node in &cluster.nodes {
            let (g, m) = (group.clone(), members.clone());
            node.with_nso(move |nso, now, out| {
                nso.create_peer_group(g, m, GroupConfig::peer(), now, out)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            })?;
        }
        Ok(Peers {
            cluster,
            group,
            next_op: 0,
            sequences: vec![Vec::new(); MEMBERS as usize],
            delivered: HashMap::new(),
            view_changes: 0,
        })
    }

    pub fn warm_up(&mut self, rng: &mut Rng) -> Result<(), String> {
        let w = self.run(Until::Ops(WARM_UP_SENDS), rng, &mut Spans::off());
        if w.completed == 0 {
            return Err(format!(
                "warm-up: none of {} multicasts delivered",
                w.attempted
            ));
        }
        Ok(())
    }

    /// Sends on schedule until `until` stops issuing, then waits for
    /// every multicast to be delivered everywhere or to fail.
    pub fn run(&mut self, until: Until, rng: &mut Rng, spans: &mut Spans) -> Window {
        let mut w = Window::default();
        let mut open: BTreeMap<u64, Open> = BTreeMap::new();
        let period = Duration::from_secs(1) / RATE_PER_S;
        let started = Instant::now();
        let mut last_drain = started;
        let mut sent: u32 = 0;
        loop {
            let due = started + period * sent;
            let issuing = match until {
                Until::Ops(n) => u64::from(sent) < n,
                Until::Time(d) => due < started + d,
            };
            if issuing && Instant::now() >= due {
                self.send(due, rng, spans, &mut w, &mut open);
                sent += 1;
            }
            let now = Instant::now();
            spans.push("driver.drain", last_drain, now, None, None, None);
            last_drain = now;
            self.drain(&mut open, &mut w, spans);
            let now = Instant::now();
            while let Some(entry) = open.first_entry() {
                if now < entry.get().due + DEADLINE {
                    break;
                }
                let op = entry.remove_entry().1;
                w.fail_deadline(op.due, now);
                spans.end(op.span, now);
            }
            if !issuing && open.is_empty() {
                break;
            }
            let next_due = started + period * sent;
            let wake = if issuing {
                next_due.min(now + POLL)
            } else {
                now + POLL
            };
            if let Some(nap) = wake.checked_duration_since(Instant::now()) {
                std::thread::sleep(nap);
            }
        }
        w.secs = started.elapsed().as_secs_f64();
        self.check_sequences(&mut w);
        w
    }

    fn send(
        &mut self,
        due: Instant,
        rng: &mut Rng,
        spans: &mut Spans,
        w: &mut Window,
        open: &mut BTreeMap<u64, Open>,
    ) {
        let op = self.next_op;
        self.next_op += 1;
        let sender = (op % u64::from(MEMBERS)) as usize;
        let mut payload = op.to_be_bytes().to_vec();
        payload.extend_from_slice(&rng.bytes(PAYLOAD_BYTES - payload.len()));
        let digest = fnv1a(&payload);
        let payload = Bytes::from(payload);
        let group = self.group.clone();
        let traced = spans.is_on();
        w.attempted += 1;
        let submit = Instant::now();
        let (result, timing) = self.cluster.nodes[sender].with_nso(move |nso, now, out| {
            let entered = traced.then(Instant::now);
            let result = match nso.handle_for(&group) {
                Some(h) => h
                    .send(nso, payload, DeliveryOrder::Total, now, out)
                    .map_err(|e| e.to_string()),
                None => Err(format!("not a member of {group:?}")),
            };
            (result, entered.map(|e| (e, Instant::now())))
        });
        let returned = Instant::now();
        let root = spans.push("op", due, due, None, Some(op), Some(sender as u32));
        spans.push("driver.late", due, submit, root, Some(op), None);
        let call = spans.push("rt.with_nso", submit, returned, root, Some(op), None);
        if let Some((entered, exited)) = timing {
            spans.push("rt.cmd_wait", submit, entered, call, Some(op), None);
            spans.push("core.call", entered, exited, call, Some(op), None);
        }
        match result {
            Ok(()) => {
                open.insert(
                    op,
                    Open {
                        due,
                        sender,
                        digest,
                        seen: [None; MEMBERS as usize],
                        span: root,
                    },
                );
            }
            Err(e) => {
                println!("failed: multicast {op}: send returned Err: {e}");
                w.fail_api(due, returned);
                spans.end(root, returned);
            }
        }
    }

    fn drain(&mut self, open: &mut BTreeMap<u64, Open>, w: &mut Window, spans: &mut Spans) {
        for member in 0..MEMBERS as usize {
            while let Ok(output) = self.cluster.nodes[member].outputs().try_recv() {
                match output {
                    NsoOutput::PeerDeliver {
                        sender, payload, ..
                    } => self.on_deliver(member, sender, &payload, open, w, spans),
                    NsoOutput::ViewChanged { .. } => self.view_changes += 1,
                    _ => {}
                }
            }
        }
    }

    fn on_deliver(
        &mut self,
        member: usize,
        sender: NodeId,
        payload: &[u8],
        open: &mut BTreeMap<u64, Open>,
        w: &mut Window,
        spans: &mut Spans,
    ) {
        let at = Instant::now();
        let Some(op) = payload
            .get(..8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_be_bytes)
        else {
            println!(
                "check failed: member {member} delivered a {}-byte payload",
                payload.len()
            );
            w.violations += 1;
            return;
        };
        self.sequences[member].push(op);
        let mask = self.delivered.entry(op).or_default();
        if *mask & (1 << member) != 0 {
            println!("check failed: member {member} delivered multicast {op} twice");
            w.violations += 1;
            return;
        }
        *mask |= 1 << member;
        let Some(entry) = open.get_mut(&op) else {
            return;
        };
        if sender.index() as usize != entry.sender || fnv1a(payload) != entry.digest {
            println!(
                "check failed: multicast {op} reached member {member} from {sender} with a different payload"
            );
            let entry = open.remove(&op).expect("present");
            w.fail_check(entry.due, at);
            spans.end(entry.span, at);
            return;
        }
        entry.seen[member] = Some(at);
        if entry.seen.iter().all(Option::is_some) {
            let entry = open.remove(&op).expect("present");
            w.complete(entry.due, at);
            spans.end(entry.span, at);
        }
    }

    /// Total order: every member's delivery sequence is a prefix of the
    /// longest one.
    fn check_sequences(&self, w: &mut Window) {
        let longest = self
            .sequences
            .iter()
            .max_by_key(|s| s.len())
            .expect("members");
        for (member, seq) in self.sequences.iter().enumerate() {
            if let Some(i) = seq.iter().zip(longest).position(|(a, b)| a != b) {
                println!(
                    "check failed: member {member} delivered {} at position {i} where another delivered {}",
                    seq[i], longest[i]
                );
                w.violations += 1;
            }
        }
    }

    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}
