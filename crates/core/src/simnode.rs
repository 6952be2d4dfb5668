//! Hosting an NSO (plus its application) on the deterministic simulator.
//!
//! An [`NsoNode`] wraps one [`Nso`] and an application object implementing
//! [`NsoApp`]. Packets and NSO-owned timers are routed into the NSO;
//! NSO outputs are handed to the application, which may react by calling
//! back into the NSO (reactions cascade until no outputs remain).
//! Timer tags at or above [`crate::tags::APP_BASE`] belong to the
//! application.
//!
//! [`GcsHarness`] scripts peer-group operations on a set of `NsoNode`s at
//! chosen virtual times and records what each node's NSO reports: the
//! host of the GCS protocol tests and of the invariant campaign.

use std::any::Any;

use bytes::Bytes;

use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId};
use newtop_gcs::view::View;
use newtop_net::sim::{NodeEvent, Outbox, Sim, SimConfig, SimNode};
use newtop_net::site::{NodeId, Site};
use newtop_net::time::SimTime;

use crate::nso::{Nso, NsoOutput};

/// The application half of a simulated node.
///
/// Implementations react to simulator start, NSO outputs and their own
/// timers by invoking NSO APIs.
pub trait NsoApp: Any + Send {
    /// Called once when the node starts.
    fn on_start(&mut self, _nso: &mut Nso, _now: SimTime, _out: &mut Outbox) {}

    /// Called for every NSO output.
    fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, now: SimTime, out: &mut Outbox);

    /// Called for timer tags the NSO does not own (application timers,
    /// tags ≥ [`crate::tags::APP_BASE`]).
    fn on_timer(&mut self, _nso: &mut Nso, _tag: u64, _now: SimTime, _out: &mut Outbox) {}
}

/// A simulated node hosting one NSO and its application.
pub struct NsoNode {
    nso: Nso,
    app: Box<dyn NsoApp>,
}

impl NsoNode {
    /// Creates the node state.
    #[must_use]
    pub fn new(node: NodeId, app: Box<dyn NsoApp>) -> Self {
        NsoNode {
            nso: Nso::new(node),
            app,
        }
    }

    /// The hosted NSO.
    #[must_use]
    pub fn nso(&self) -> &Nso {
        &self.nso
    }

    /// Mutable [`Self::nso`].
    pub fn nso_mut(&mut self) -> &mut Nso {
        &mut self.nso
    }

    /// Borrows the application, downcast to its concrete type.
    #[must_use]
    pub fn app_ref<T: NsoApp>(&self) -> Option<&T> {
        (&*self.app as &dyn Any).downcast_ref()
    }

    /// Mutable variant of [`Self::app_ref`].
    #[must_use]
    pub fn app_mut<T: NsoApp>(&mut self) -> Option<&mut T> {
        (&mut *self.app as &mut dyn Any).downcast_mut()
    }

    fn drain(&mut self, now: SimTime, out: &mut Outbox) {
        loop {
            let outputs = self.nso.take_outputs();
            if outputs.is_empty() {
                break;
            }
            for o in outputs {
                self.app.on_output(&mut self.nso, o, now, out);
            }
        }
    }
}

impl SimNode for NsoNode {
    fn on_event(&mut self, now: SimTime, ev: NodeEvent, out: &mut Outbox) {
        match ev {
            NodeEvent::Start => {
                self.app.on_start(&mut self.nso, now, out);
            }
            NodeEvent::Packet(pkt) => {
                self.nso.on_packet(&pkt, now, out);
            }
            NodeEvent::Timer(_, tag) => {
                if self.nso.owns_tag(tag) {
                    self.nso.on_timer(tag, now, out);
                } else {
                    self.app.on_timer(&mut self.nso, tag, now, out);
                }
            }
        }
        self.drain(now, out);
    }
}

/// An application that only records every NSO output, stamped with the
/// virtual time it surfaced at.
#[derive(Debug, Default)]
pub struct OutputLog {
    /// The outputs, in the order the node produced them.
    pub outputs: Vec<(SimTime, NsoOutput)>,
}

impl OutputLog {
    /// Runs `op` on the NSO of `host`, a node whose application is an
    /// `OutputLog`, as one event of that node (a call scheduled with
    /// [`Sim::schedule_call`]), and records what the NSO reported in the
    /// same event, as the node's own handlers do: a later record would
    /// misstamp what the call surfaced, such as a created group's first
    /// view. The log never calls back into the NSO, so one pass collects
    /// everything.
    pub fn record_call(
        host: &mut NsoNode,
        now: SimTime,
        out: &mut Outbox,
        op: impl FnOnce(&mut Nso, SimTime, &mut Outbox),
    ) {
        op(&mut host.nso, now, out);
        let produced = host.nso.take_outputs();
        if let Some(log) = host.app_mut::<OutputLog>() {
            log.outputs.extend(produced.into_iter().map(|o| (now, o)));
        }
    }
}

impl NsoApp for OutputLog {
    fn on_output(&mut self, _nso: &mut Nso, output: NsoOutput, now: SimTime, _out: &mut Outbox) {
        self.outputs.push((now, output));
    }
}

/// A scripted multi-node peer-group scenario on the simulator.
///
/// Every node is an [`NsoNode`] whose application is an [`OutputLog`].
/// Group operations are scheduled as calls into the node's [`Nso`]
/// through its peer-group API, so scripted runs exercise the stack
/// applications use.
pub struct GcsHarness {
    /// The underlying simulator (exposed for fault injection and custom
    /// scheduling).
    pub sim: Sim,
    nodes: Vec<NodeId>,
}

impl GcsHarness {
    /// Creates a harness over a fresh simulator.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Self {
        GcsHarness {
            sim: Sim::new(cfg),
            nodes: Vec::new(),
        }
    }

    /// The simulator seed, for reproduction messages: a failing run is
    /// re-created byte-for-byte by re-running with the same seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.sim.seed()
    }

    /// Adds `count` nodes at `site`, returning their ids.
    pub fn add_nodes(&mut self, site: Site, count: usize) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            // Two-phase: the node needs its own id.
            let id = NodeId::from_index(self.nodes.len() as u32);
            let node = NsoNode::new(id, Box::new(OutputLog::default()));
            let actual = self.sim.add_node(site, Box::new(node));
            assert_eq!(actual, id, "node id allocation must be dense");
            self.nodes.push(id);
            ids.push(id);
        }
        ids
    }

    /// Schedules `op` to run on `node`'s NSO at `at` (see
    /// [`Sim::schedule_call`]); a dead node drops it.
    fn call<F>(&mut self, at: SimTime, node: NodeId, op: F)
    where
        F: FnOnce(&mut Nso, SimTime, &mut Outbox) + Send + 'static,
    {
        self.sim.schedule_call(at, node, move |host, now, out| {
            if let Some(host) = host.downcast_mut::<NsoNode>() {
                OutputLog::record_call(host, now, out, op);
            }
        });
    }

    /// Schedules group creation on every listed member at `at`.
    pub fn create_group(
        &mut self,
        at: SimTime,
        group: &GroupId,
        config: &GroupConfig,
        members: &[NodeId],
    ) {
        for &m in members {
            let (group, config, members) = (group.clone(), config.clone(), members.to_vec());
            self.call(at, m, move |nso, now, out| {
                let _ = nso.create_peer_group(group, members, config, now, out);
            });
        }
    }

    /// Schedules a multicast from `node` at `at`.
    pub fn multicast(
        &mut self,
        at: SimTime,
        node: NodeId,
        group: &GroupId,
        order: DeliveryOrder,
        payload: impl Into<Bytes>,
    ) {
        let (group, payload) = (group.clone(), payload.into());
        self.call(at, node, move |nso, now, out| {
            if let Some(handle) = nso.handle_for(&group) {
                let _ = handle.send(nso, payload, order, now, out);
            }
        });
    }

    /// Schedules a join of `group` through `contact` at `at`.
    pub fn join(
        &mut self,
        at: SimTime,
        node: NodeId,
        group: &GroupId,
        config: &GroupConfig,
        contact: NodeId,
    ) {
        let (group, config) = (group.clone(), config.clone());
        self.call(at, node, move |nso, now, out| {
            let _ = nso.join_peer_group(group, config, contact, now, out);
        });
    }

    /// Schedules a graceful leave at `at`.
    pub fn leave(&mut self, at: SimTime, node: NodeId, group: &GroupId) {
        let group = group.clone();
        self.call(at, node, move |nso, now, out| {
            let _ = nso.leave_peer_group(&group, now, out);
        });
    }

    /// Runs the simulation until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    fn host(&self, node: NodeId) -> &NsoNode {
        self.sim
            .node_ref::<NsoNode>(node)
            .expect("node was added through this harness")
    }

    /// The NSO hosted on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not added through this harness.
    #[must_use]
    pub fn node(&self, node: NodeId) -> &Nso {
        self.host(node).nso()
    }

    /// Every output `node`'s NSO produced, stamped with virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not added through this harness.
    #[must_use]
    pub fn outputs(&self, node: NodeId) -> &[(SimTime, NsoOutput)] {
        &self
            .host(node)
            .app_ref::<OutputLog>()
            .expect("harness nodes run an OutputLog")
            .outputs
    }

    /// Delivered `(sender, payload)` pairs at `node` for `group`, in
    /// delivery order.
    #[must_use]
    pub fn delivered(&self, node: NodeId, group: &GroupId) -> Vec<(NodeId, Bytes)> {
        self.outputs(node)
            .iter()
            .filter_map(|(_, o)| match o {
                NsoOutput::PeerDeliver {
                    group: g,
                    sender,
                    payload,
                    ..
                } if g == group => Some((*sender, payload.clone())),
                _ => None,
            })
            .collect()
    }

    /// Views installed at `node` for `group`, in installation order.
    #[must_use]
    pub fn views(&self, node: NodeId, group: &GroupId) -> Vec<View> {
        self.outputs(node)
            .iter()
            .filter_map(|(_, o)| match o {
                NsoOutput::ViewChanged { group: g, view } if g == group => Some(view.clone()),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nso::BindOptions;
    use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};

    struct Server {
        members: Vec<NodeId>,
    }

    impl NsoApp for Server {
        fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
            nso.create_server_group(
                GroupId::new("svc"),
                self.members.clone(),
                Replication::Active,
                OpenOptimisation::None,
                GroupConfig::request_reply(),
                now,
                out,
            )
            .unwrap();
            let me = nso.node().index();
            nso.register_group_servant(
                GroupId::new("svc"),
                Box::new(move |op: &str, _args: &[u8]| Bytes::from(format!("{op}@{me}"))),
            );
        }

        fn on_output(&mut self, _: &mut Nso, _: NsoOutput, _: SimTime, _: &mut Outbox) {}
    }

    struct Client {
        servers: Vec<NodeId>,
        open: bool,
        mode: ReplyMode,
        replies: Option<Vec<(NodeId, Bytes)>>,
    }

    impl NsoApp for Client {
        fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
            let opts = if self.open {
                BindOptions::open(self.servers[0])
            } else {
                BindOptions::closed(self.servers.clone())
            };
            nso.bind(GroupId::new("svc"), opts, now, out).unwrap();
        }

        fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, now: SimTime, out: &mut Outbox) {
            match output {
                NsoOutput::BindingReady { group } => {
                    let binding = nso.handle_for(&group).unwrap();
                    binding
                        .invoke(nso, "get", Bytes::new(), self.mode, now, out)
                        .unwrap();
                }
                NsoOutput::InvocationComplete { replies, .. } => {
                    self.replies = Some(replies);
                }
                _ => {}
            }
        }
    }

    fn run(open: bool, mode: ReplyMode) -> Vec<(NodeId, Bytes)> {
        let mut sim = Sim::new(SimConfig::default());
        let servers: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
        for &s in &servers {
            sim.add_node(
                Site::Lan,
                Box::new(NsoNode::new(
                    s,
                    Box::new(Server {
                        members: servers.clone(),
                    }),
                )),
            );
        }
        let c = NodeId::from_index(3);
        sim.add_node(
            Site::Lan,
            Box::new(NsoNode::new(
                c,
                Box::new(Client {
                    servers: servers.clone(),
                    open,
                    mode,
                    replies: None,
                }),
            )),
        );
        sim.run_until(SimTime::from_secs(10));
        sim.node_ref::<NsoNode>(c)
            .unwrap()
            .app_ref::<Client>()
            .unwrap()
            .replies
            .clone()
            .expect("invocation completed")
    }

    #[test]
    fn open_group_wait_for_all_collects_three() {
        let replies = run(true, ReplyMode::All);
        assert_eq!(replies.len(), 3);
        for (node, body) in &replies {
            assert_eq!(&body[..], format!("get@{}", node.index()).as_bytes());
        }
    }

    #[test]
    fn open_group_wait_for_first_collects_one() {
        let replies = run(true, ReplyMode::First);
        assert_eq!(replies.len(), 1);
    }

    #[test]
    fn closed_group_wait_for_all_collects_three() {
        let replies = run(false, ReplyMode::All);
        assert_eq!(replies.len(), 3);
    }

    #[test]
    fn closed_group_majority_collects_two() {
        let replies = run(false, ReplyMode::Majority);
        assert_eq!(replies.len(), 2);
    }
}
