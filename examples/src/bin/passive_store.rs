//! Passive replication with the §4.2 optimisations: a key-value store
//! whose primary is the restricted-group request manager (and, under the
//! asymmetric protocol, the sequencer). Writes are answered by the
//! primary alone and forwarded one-way to the backups, which log them.
//! When the primary crashes, a backup is promoted, replays its backlog,
//! and the client rebinds and retries — without losing or duplicating any
//! write.
//!
//! ```text
//! cargo run -p newtop-examples --bin passive_store
//! ```

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;

use newtop::nso::{BindOptions, Nso, NsoOutput};
use newtop::proxy::{ProxyEvent, SmartProxy};
use newtop::simnode::{NsoApp, NsoNode};
use newtop::tags;
use newtop_gcs::group::{GroupConfig, GroupId};
use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
use newtop_net::sim::{Outbox, Sim, SimConfig};
use newtop_net::site::{NodeId, Site};
use newtop_net::time::SimTime;

fn service() -> GroupId {
    GroupId::new("kv-store")
}

struct StoreReplica {
    members: Vec<NodeId>,
}

impl NsoApp for StoreReplica {
    fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        nso.create_server_group(
            service(),
            self.members.clone(),
            Replication::Passive,
            OpenOptimisation::AsyncForwarding,
            GroupConfig::request_reply(),
            now,
            out,
        )
        .expect("server group");
        let mut data: BTreeMap<String, String> = BTreeMap::new();
        nso.register_group_servant(
            service(),
            Box::new(move |op: &str, args: &[u8]| {
                let text = String::from_utf8_lossy(args).into_owned();
                match op {
                    "put" => {
                        if let Some((k, v)) = text.split_once('=') {
                            data.insert(k.to_owned(), v.to_owned());
                        }
                        Bytes::from_static(b"ok")
                    }
                    "get" => {
                        Bytes::from(data.get(&text).cloned().unwrap_or_else(|| "<none>".into()))
                    }
                    "dump" => Bytes::from(
                        data.iter()
                            .map(|(k, v)| format!("{k}={v}"))
                            .collect::<Vec<_>>()
                            .join(","),
                    ),
                    _ => Bytes::new(),
                }
            }),
        );
    }

    fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, _now: SimTime, _out: &mut Outbox) {
        if let NsoOutput::Promoted { replayed, .. } = output {
            println!(
                "  [t] replica {} promoted to primary, replayed {replayed} logged writes",
                nso.node()
            );
        }
    }
}

/// Writes through a smart proxy, which rebinds to a backup and retries
/// the interrupted write when the primary's binding breaks.
struct StoreClient {
    proxy: SmartProxy,
    writes: Vec<&'static str>,
    step: usize,
    final_dump: Option<String>,
    log: Vec<String>,
}

impl StoreClient {
    fn next(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        let (op, args) = if self.step < self.writes.len() {
            ("put", Bytes::from(self.writes[self.step]))
        } else if self.step == self.writes.len() {
            ("dump", Bytes::new())
        } else {
            return;
        };
        self.proxy.invoke(nso, op, args, ReplyMode::First, now, out);
    }
}

impl NsoApp for StoreClient {
    fn on_start(&mut self, _nso: &mut Nso, _now: SimTime, out: &mut Outbox) {
        out.set_timer(Duration::from_millis(5), tags::APP_BASE);
    }

    fn on_timer(&mut self, nso: &mut Nso, tag: u64, now: SimTime, out: &mut Outbox) {
        if tag == tags::APP_BASE {
            self.next(nso, now, out);
        } else {
            self.proxy.on_timer(nso, tag, now, out);
        }
    }

    fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, now: SimTime, out: &mut Outbox) {
        match self.proxy.on_output(nso, &output, now, out) {
            Some(ProxyEvent::Rebound { broken: true }) => {
                self.log
                    .push("binding broken: rebinding to a backup".into());
            }
            Some(ProxyEvent::Complete { replies, .. }) => {
                if self.step < self.writes.len() {
                    self.log.push(format!(
                        "put {:<12} -> {}",
                        self.writes[self.step],
                        String::from_utf8_lossy(&replies[0].1)
                    ));
                } else {
                    self.final_dump = Some(String::from_utf8_lossy(&replies[0].1).into_owned());
                }
                self.step += 1;
                self.next(nso, now, out);
            }
            _ => {}
        }
    }
}

fn main() {
    let mut sim = Sim::new(SimConfig::lan(11));
    let servers: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    for &s in &servers {
        sim.add_node(
            Site::Lan,
            Box::new(NsoNode::new(
                s,
                Box::new(StoreReplica {
                    members: servers.clone(),
                }),
            )),
        );
    }
    let client_id = NodeId::from_index(3);
    sim.add_node(
        Site::Lan,
        Box::new(NsoNode::new(
            client_id,
            Box::new(StoreClient {
                // Bind to the designated manager (restricted group): the
                // lowest surviving server; a rebind moves to the next.
                proxy: SmartProxy::new(
                    service(),
                    servers.clone(),
                    BindOptions::open(servers[0]),
                    tags::APP_BASE + 1,
                ),
                writes: vec!["a=1", "b=2", "c=3", "d=4", "e=5", "f=6"],
                step: 0,
                final_dump: None,
                log: Vec::new(),
            }),
        )),
    );

    println!("passive replication: primary = request manager = sequencer (replica n0)");
    // Crash the primary mid-stream.
    sim.schedule_crash(SimTime::from_millis(15), servers[0]);
    println!("  [t] primary n0 crashed at t=15ms\n");
    sim.run_until(SimTime::from_secs(10));

    let client = sim
        .node_ref::<NsoNode>(client_id)
        .unwrap()
        .app_ref::<StoreClient>()
        .unwrap();
    for line in &client.log {
        println!("  {line}");
    }
    let dump = client.final_dump.clone().expect("final dump");
    println!("\nfinal store at the promoted primary: {dump}");
    assert_eq!(
        dump, "a=1,b=2,c=3,d=4,e=5,f=6",
        "no write lost or duplicated"
    );
    println!("all six writes survived the primary crash exactly once");
}
