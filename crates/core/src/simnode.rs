//! Hosting an NSO (plus its application) on the deterministic simulator.
//!
//! An [`NsoNode`] wraps one [`Nso`] and an application object implementing
//! [`NsoApp`]. Packets and NSO-owned timers are routed into the NSO;
//! NSO outputs are handed to the application, which may react by calling
//! back into the NSO (reactions cascade until no outputs remain).
//! Timer tags at or above [`crate::tags::APP_BASE`] belong to the
//! application.

use std::any::Any;

use newtop_net::sim::{NodeEvent, Outbox, SimNode};
use newtop_net::site::NodeId;
use newtop_net::time::SimTime;

use crate::nso::{Nso, NsoOptions, NsoOutput};

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
    /// Creates the node state with the default [`NsoOptions`].
    #[must_use]
    pub fn new(node: NodeId, app: Box<dyn NsoApp>) -> Self {
        NsoNode::with_options(node, NsoOptions::default(), app)
    }

    /// Creates the node state with explicit [`NsoOptions`] (send-path
    /// batching).
    #[must_use]
    pub fn with_options(node: NodeId, opts: NsoOptions, app: Box<dyn NsoApp>) -> Self {
        NsoNode {
            nso: Nso::with_options(node, opts),
            app,
        }
    }

    /// The hosted NSO.
    #[must_use]
    pub fn nso(&self) -> &Nso {
        &self.nso
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nso::BindOptions;
    use bytes::Bytes;
    use newtop_gcs::group::{GroupConfig, GroupId};
    use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
    use newtop_net::sim::{Sim, SimConfig};
    use newtop_net::site::Site;

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
