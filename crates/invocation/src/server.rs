//! The server side of request-reply invocation: execution, request
//! management, reply collection, retry deduplication and passive backups.
//!
//! One [`ServerCore`] runs in each member of a server group. It plays two
//! roles at once:
//!
//! * **replica** — executes `Forwarded` requests delivered in the server
//!   group's total order (or logs them, as a passive backup);
//! * **request manager** — for the client/server groups where this node
//!   is the bound server: distributes client requests into the server
//!   group, gathers `ServerReply`s (one/majority/all), relays the answer,
//!   and caches it so a rebound client's retry is answered without
//!   re-execution (§4.1).
//!
//! It also implements the §4.2 optimisations (restricted group is a
//! binding policy — see [`ServerCore::designated_manager`] — and
//! asynchronous forwarding short-circuits wait-for-first requests), and
//! the group-to-group manager role of Fig. 6.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use bytes::Bytes;

use newtop_flow::MAX_PENDING_CALLS;
use newtop_gcs::group::GroupId;
use newtop_net::site::NodeId;
use newtop_net::trace::TraceEvent;

use crate::api::{CallId, InvCommand, InvMessage, OpenOptimisation, Replication, ReplyMode};

/// The application executor: maps `(operation, args)` to a marshalled
/// result. Supplied by the owning NSO at event-handling time so the core
/// stays decoupled from servant registration.
pub type Exec<'a> = &'a mut dyn FnMut(&str, &[u8]) -> Bytes;

#[derive(Clone, Debug)]
enum CachedReply {
    Direct(Bytes),
    Relayed(Vec<(NodeId, Bytes)>),
}

#[derive(Clone, Debug)]
struct ManagedCall {
    client_group: GroupId,
    mode: ReplyMode,
    needed: usize,
    replies: Vec<(NodeId, Bytes)>,
    /// `Some((monitor_group, origin_group, number))` when this call was
    /// forwarded on behalf of a client *group* (Fig. 6).
    g2g: Option<(GroupId, GroupId, u64)>,
}

#[derive(Clone, Debug)]
struct ClientGroupState {
    /// The bound client (diagnostics; requests carry the client in their
    /// call id).
    #[allow(dead_code)]
    client: NodeId,
    /// True if this client/server group contains every server (closed
    /// style); false for an open two-member group.
    closed: bool,
}

#[derive(Clone, Debug)]
struct MonitorState {
    origin: GroupId,
    /// Numbers already forwarded into the server group (duplicates from
    /// the other origin-group members are filtered, §4.3).
    forwarded: BTreeSet<u64>,
}

/// Server-side invocation state machine. See the [module docs](self).
pub struct ServerCore {
    node: NodeId,
    server_group: GroupId,
    server_members: Vec<NodeId>,
    replication: Replication,
    optimisation: OpenOptimisation,
    client_groups: BTreeMap<GroupId, ClientGroupState>,
    monitor_groups: BTreeMap<GroupId, MonitorState>,
    managed: BTreeMap<CallId, ManagedCall>,
    reply_cache: BTreeMap<NodeId, (u64, CachedReply)>,
    /// Passive backups: requests logged for replay on promotion. Bounded
    /// by [`MAX_PENDING_CALLS`]; the oldest entry is dropped on overflow.
    backlog: Vec<(CallId, String, Bytes)>,
    /// Backlog entries dropped by the bound since creation.
    backlog_shed: u64,
    /// Per client: the last executed call number and its result (§4.1:
    /// "servers retain the data of the last reply message"), so a retried
    /// call is answered without re-execution.
    last_exec: BTreeMap<NodeId, (u64, Bytes)>,
    /// Counter for synthesising call ids on the g2g forwarded leg.
    next_local_call: u64,
    /// Protocol events produced by handlers, drained (and timestamped) by
    /// the owning NSO via [`ServerCore::take_events`].
    events: Vec<TraceEvent>,
}

impl fmt::Debug for ServerCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerCore")
            .field("node", &self.node)
            .field("server_group", &self.server_group)
            .field("client_groups", &self.client_groups.len())
            .field("managed", &self.managed.len())
            .field("backlog", &self.backlog.len())
            .finish()
    }
}

impl ServerCore {
    /// Creates the server core for one member of `server_group`.
    #[must_use]
    pub fn new(
        node: NodeId,
        server_group: GroupId,
        replication: Replication,
        optimisation: OpenOptimisation,
    ) -> Self {
        ServerCore {
            node,
            server_group,
            server_members: vec![node],
            replication,
            optimisation,
            client_groups: BTreeMap::new(),
            monitor_groups: BTreeMap::new(),
            managed: BTreeMap::new(),
            reply_cache: BTreeMap::new(),
            backlog: Vec::new(),
            backlog_shed: 0,
            last_exec: BTreeMap::new(),
            next_local_call: 1,
            events: Vec::new(),
        }
    }

    /// Drains the protocol events produced since the last call. The owner
    /// timestamps them into its observability log; the core itself has no
    /// clock.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// The owning node.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The server group this replica belongs to.
    #[must_use]
    pub fn server_group(&self) -> &GroupId {
        &self.server_group
    }

    /// Updates the server group's membership (call on every view change).
    ///
    /// Outstanding reply collections are re-quorated against the surviving
    /// replicas — a dead replica will never answer — and any call thereby
    /// satisfied is finished; the returned commands relay its replies.
    pub fn set_server_view(&mut self, members: Vec<NodeId>) -> Vec<InvCommand> {
        self.server_members = members;
        self.server_members.sort_unstable();
        let repliers = if self.replication == Replication::Passive {
            1
        } else {
            self.server_members.len()
        };
        let ready: Vec<CallId> = self
            .managed
            .iter_mut()
            .filter_map(|(&call, m)| {
                m.needed = m.mode.needed(repliers).max(1);
                (m.replies.len() >= m.needed).then_some(call)
            })
            .collect();
        let mut commands = Vec::new();
        for call in ready {
            commands.extend(self.finish_managed(call));
        }
        commands
    }

    /// Completes a managed call whose quorum is met: relay the replies and
    /// cache them for retries.
    fn finish_managed(&mut self, call: CallId) -> Vec<InvCommand> {
        let Some(m) = self.managed.remove(&call) else {
            return Vec::new();
        };
        match m.g2g {
            None => {
                self.reply_cache.insert(
                    call.client,
                    (call.number, CachedReply::Relayed(m.replies.clone())),
                );
                self.events.push(TraceEvent::ReplyCollected {
                    client: call.client,
                    number: call.number,
                });
                vec![InvCommand::multicast(
                    m.client_group,
                    &InvMessage::RelayedReply {
                        call,
                        replies: m.replies,
                    },
                )]
            }
            Some((monitor, origin, number)) => vec![InvCommand::multicast(
                monitor,
                &InvMessage::G2gReply {
                    origin,
                    number,
                    replies: m.replies,
                },
            )],
        }
    }

    /// The designated request manager under the restricted-group
    /// optimisation: the lowest-ranked live server (which the asymmetric
    /// protocol also makes the sequencer, and passive replication the
    /// primary — §4.2).
    #[must_use]
    pub fn designated_manager(&self) -> Option<NodeId> {
        self.server_members.first().copied()
    }

    /// Whether this node is the current primary (passive replication).
    #[must_use]
    pub fn is_primary(&self) -> bool {
        self.designated_manager() == Some(self.node)
    }

    /// The replication discipline of this server group.
    #[must_use]
    pub fn replication(&self) -> Replication {
        self.replication
    }

    /// The open-group optimisation in force.
    #[must_use]
    pub fn optimisation(&self) -> OpenOptimisation {
        self.optimisation
    }

    /// Registers a client/server group this node serves.
    pub fn register_client_group(&mut self, group: GroupId, client: NodeId, closed: bool) {
        self.client_groups
            .insert(group, ClientGroupState { client, closed });
    }

    /// Forgets a client/server group (disbanded).
    pub fn remove_client_group(&mut self, group: &GroupId) {
        self.client_groups.remove(group);
        self.managed.retain(|_, m| &m.client_group != group);
    }

    /// Registers a client monitor group (Fig. 6): this node is the
    /// request manager for group-to-group calls originating from
    /// `origin`.
    pub fn register_monitor_group(&mut self, monitor: GroupId, origin: GroupId) {
        self.monitor_groups.insert(
            monitor,
            MonitorState {
                origin,
                forwarded: BTreeSet::new(),
            },
        );
    }

    /// Number of requests logged by a passive backup.
    #[must_use]
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Backlog entries dropped by the bound since creation.
    #[must_use]
    pub fn backlog_shed_count(&self) -> u64 {
        self.backlog_shed
    }

    /// Passive replication: replay the logged requests after promotion to
    /// primary. Returns how many were executed.
    pub fn promote(&mut self, exec: Exec<'_>) -> usize {
        let backlog = std::mem::take(&mut self.backlog);
        let mut count = 0;
        for (call, op, args) in backlog {
            if self.execute_once(call, &op, &args, exec).is_some() {
                count += 1;
            }
        }
        self.events.push(TraceEvent::Promoted {
            group: self.server_group.as_str().to_string(),
            replayed: count,
        });
        count
    }

    /// Handles a message delivered in `group` (a server, client/server or
    /// monitor group), returning the commands to execute. The host
    /// unmarshals the message at its ingest boundary, where it counts
    /// malformed input.
    pub fn on_decoded(
        &mut self,
        group: &GroupId,
        sender: NodeId,
        msg: InvMessage,
        exec: Exec<'_>,
    ) -> Vec<InvCommand> {
        match msg {
            InvMessage::Request {
                call,
                op,
                args,
                mode,
            } => self.on_request(group, call, &op, args, mode, exec),
            InvMessage::Forwarded {
                call,
                op,
                args,
                mode: _,
                manager,
                no_reply,
            } => self.on_forwarded(group, call, &op, args, manager, no_reply, exec),
            InvMessage::ServerReply {
                call,
                replier,
                result,
            } => self.on_server_reply(group, call, replier, result),
            InvMessage::G2gRequest {
                origin,
                number,
                op,
                args,
                mode,
            } => self.on_g2g_request(group, sender, origin, number, &op, args, mode),
            // Client-side messages; nothing for a server to do.
            InvMessage::RelayedReply { .. }
            | InvMessage::DirectReply { .. }
            | InvMessage::G2gReply { .. } => Vec::new(),
        }
    }

    /// A client request arrived in a client/server group.
    fn on_request(
        &mut self,
        group: &GroupId,
        call: CallId,
        op: &str,
        args: Bytes,
        mode: ReplyMode,
        exec: Exec<'_>,
    ) -> Vec<InvCommand> {
        if call.client == self.node {
            return Vec::new(); // our own multicast looping back
        }
        let Some(cg) = self.client_groups.get(group) else {
            return Vec::new(); // not a group we serve
        };
        let closed = cg.closed;
        // Retry deduplication (§4.1): answer repeats from the cache, drop
        // stale numbers.
        match self.reply_cache.get(&call.client) {
            Some((cached_num, cached)) if *cached_num == call.number => {
                self.events.push(TraceEvent::RetryDeduped {
                    client: call.client,
                    number: call.number,
                });
                return match cached {
                    CachedReply::Direct(result) => {
                        if mode == ReplyMode::OneWay {
                            Vec::new()
                        } else {
                            vec![InvCommand::direct(
                                call.client,
                                &InvMessage::DirectReply {
                                    call,
                                    replier: self.node,
                                    result: result.clone(),
                                },
                            )]
                        }
                    }
                    CachedReply::Relayed(replies) => vec![InvCommand::multicast(
                        group.clone(),
                        &InvMessage::RelayedReply {
                            call,
                            replies: replies.clone(),
                        },
                    )],
                };
            }
            Some((cached_num, _)) if *cached_num > call.number => return Vec::new(),
            _ => {}
        }
        if closed {
            self.handle_closed_request(group, call, op, &args, mode, exec)
        } else {
            self.handle_open_request(group, call, op, args, mode, exec)
        }
    }

    /// Executes a call at most once per client call number, answering
    /// retries from the retained last result. Returns `None` for stale
    /// (older-than-last) calls.
    fn execute_once(
        &mut self,
        call: CallId,
        op: &str,
        args: &[u8],
        exec: Exec<'_>,
    ) -> Option<Bytes> {
        match self.last_exec.get(&call.client) {
            Some((num, result)) if *num == call.number => {
                let result = result.clone();
                self.events.push(TraceEvent::RetryDeduped {
                    client: call.client,
                    number: call.number,
                });
                Some(result)
            }
            Some((num, _)) if *num > call.number => None,
            _ => {
                let result = exec(op, args);
                self.last_exec
                    .insert(call.client, (call.number, result.clone()));
                self.events.push(TraceEvent::Executed {
                    client: call.client,
                    number: call.number,
                });
                Some(result)
            }
        }
    }

    /// Closed group: every server received the request in total order;
    /// execute and reply straight to the client.
    fn handle_closed_request(
        &mut self,
        _group: &GroupId,
        call: CallId,
        op: &str,
        args: &[u8],
        mode: ReplyMode,
        exec: Exec<'_>,
    ) -> Vec<InvCommand> {
        let Some(result) = self.execute_once(call, op, args, exec) else {
            return Vec::new();
        };
        self.reply_cache.insert(
            call.client,
            (call.number, CachedReply::Direct(result.clone())),
        );
        if mode == ReplyMode::OneWay {
            return Vec::new();
        }
        vec![InvCommand::direct(
            call.client,
            &InvMessage::DirectReply {
                call,
                replier: self.node,
                result,
            },
        )]
    }

    /// Open group: this node is the request manager for the call
    /// (Fig. 4 steps (i)–(ii)).
    fn handle_open_request(
        &mut self,
        group: &GroupId,
        call: CallId,
        op: &str,
        args: Bytes,
        mode: ReplyMode,
        exec: Exec<'_>,
    ) -> Vec<InvCommand> {
        let mut commands = Vec::new();
        self.events.push(TraceEvent::RequestForwarded {
            client: call.client,
            number: call.number,
        });
        let async_first =
            self.optimisation == OpenOptimisation::AsyncForwarding && mode == ReplyMode::First;
        if async_first {
            // §4.2: answer from here, forward one-way.
            let Some(result) = self.execute_once(call, op, &args, exec) else {
                return Vec::new();
            };
            let replies = vec![(self.node, result)];
            self.reply_cache.insert(
                call.client,
                (call.number, CachedReply::Relayed(replies.clone())),
            );
            commands.push(InvCommand::multicast(
                group.clone(),
                &InvMessage::RelayedReply { call, replies },
            ));
            commands.push(InvCommand::multicast(
                self.server_group.clone(),
                &InvMessage::Forwarded {
                    call,
                    op: op.to_owned(),
                    args,
                    mode,
                    manager: self.node,
                    no_reply: true,
                },
            ));
            return commands;
        }
        let no_reply = mode == ReplyMode::OneWay;
        if !no_reply {
            let repliers = if self.replication == Replication::Passive {
                1 // only the primary answers
            } else {
                self.server_members.len()
            };
            self.managed.insert(
                call,
                ManagedCall {
                    client_group: group.clone(),
                    mode,
                    needed: mode.needed(repliers).max(1),
                    replies: Vec::new(),
                    g2g: None,
                },
            );
        }
        commands.push(InvCommand::multicast(
            self.server_group.clone(),
            &InvMessage::Forwarded {
                call,
                op: op.to_owned(),
                args,
                mode,
                manager: self.node,
                no_reply,
            },
        ));
        commands
    }

    /// A forwarded request delivered in the server group's total order
    /// (Fig. 4 step (ii)→(iii)).
    #[allow(clippy::too_many_arguments)]
    fn on_forwarded(
        &mut self,
        group: &GroupId,
        call: CallId,
        op: &str,
        args: Bytes,
        _manager: NodeId,
        no_reply: bool,
        exec: Exec<'_>,
    ) -> Vec<InvCommand> {
        if group != &self.server_group {
            return Vec::new();
        }
        let passive_backup = self.replication == Replication::Passive && !self.is_primary();
        if passive_backup {
            // Receive but do not act upon (§4.2); kept for promotion. The
            // decoded frame already owns the argument bytes, so the backlog
            // shares them instead of re-copying.
            let seen = self
                .last_exec
                .get(&call.client)
                .is_some_and(|(num, _)| *num >= call.number);
            if !seen {
                if self.backlog.len() >= MAX_PENDING_CALLS {
                    // Keep the newest requests: on promotion the primary's
                    // reply cache masks re-sent old calls, while a dropped
                    // recent call is retried by its client (§4.1).
                    self.backlog.remove(0);
                    self.backlog_shed += 1;
                }
                self.backlog.push((call, op.to_owned(), args));
            }
            return Vec::new();
        }
        let Some(result) = self.execute_once(call, op, &args, exec) else {
            return Vec::new();
        };
        if no_reply {
            return Vec::new();
        }
        // Every replica multicasts its reply within the server group
        // (Fig. 4(iii)); the manager collects.
        vec![InvCommand::multicast(
            self.server_group.clone(),
            &InvMessage::ServerReply {
                call,
                replier: self.node,
                result,
            },
        )]
    }

    /// A replica's reply delivered in the server group (Fig. 4 step
    /// (iii)→(iv)): the manager gathers one/majority/all and relays.
    fn on_server_reply(
        &mut self,
        group: &GroupId,
        call: CallId,
        replier: NodeId,
        result: Bytes,
    ) -> Vec<InvCommand> {
        if group != &self.server_group {
            return Vec::new();
        }
        let Some(m) = self.managed.get_mut(&call) else {
            return Vec::new(); // not the manager for this call
        };
        if m.replies.iter().any(|(n, _)| *n == replier) {
            return Vec::new();
        }
        m.replies.push((replier, result));
        if m.replies.len() < m.needed {
            return Vec::new();
        }
        self.finish_managed(call)
    }

    /// A group-to-group request copy delivered in a monitor group. The
    /// manager forwards the first copy into the server group and filters
    /// the rest (§4.3).
    #[allow(clippy::too_many_arguments)]
    fn on_g2g_request(
        &mut self,
        group: &GroupId,
        _sender: NodeId,
        origin: GroupId,
        number: u64,
        op: &str,
        args: Bytes,
        mode: ReplyMode,
    ) -> Vec<InvCommand> {
        let Some(ms) = self.monitor_groups.get_mut(group) else {
            return Vec::new(); // not the manager of this monitor group
        };
        if ms.origin != origin || !ms.forwarded.insert(number) {
            return Vec::new(); // duplicate copy filtered out
        }
        let call = CallId {
            client: self.node,
            number: self.next_local_call,
        };
        self.next_local_call += 1;
        if mode != ReplyMode::OneWay {
            let repliers = if self.replication == Replication::Passive {
                1
            } else {
                self.server_members.len()
            };
            self.managed.insert(
                call,
                ManagedCall {
                    client_group: group.clone(),
                    mode,
                    needed: mode.needed(repliers).max(1),
                    replies: Vec::new(),
                    g2g: Some((group.clone(), origin, number)),
                },
            );
        }
        vec![InvCommand::multicast(
            self.server_group.clone(),
            &InvMessage::Forwarded {
                call,
                op: op.to_owned(),
                args,
                mode,
                manager: self.node,
                no_reply: mode == ReplyMode::OneWay,
            },
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_orb::cdr::CdrDecode;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    fn gs() -> GroupId {
        GroupId::new("servers")
    }

    fn cs() -> GroupId {
        GroupId::new("cs")
    }

    /// An executor that answers `"{op}:{node}"` and counts invocations.
    fn counting_exec(node: u32, count: &mut u32) -> impl FnMut(&str, &[u8]) -> Bytes + '_ {
        move |op: &str, _args: &[u8]| {
            *count += 1;
            Bytes::from(format!("{op}:{node}"))
        }
    }

    fn active_server(node: u32) -> ServerCore {
        let mut s = ServerCore::new(n(node), gs(), Replication::Active, OpenOptimisation::None);
        s.set_server_view(vec![n(1), n(2), n(3)]);
        s
    }

    fn request(call_no: u64, mode: ReplyMode) -> InvMessage {
        InvMessage::Request {
            call: CallId {
                client: n(0),
                number: call_no,
            },
            op: "rand".to_owned(),
            args: Bytes::new(),
            mode,
        }
    }

    #[test]
    fn open_manager_forwards_into_server_group() {
        let mut s = active_server(1);
        s.register_client_group(cs(), n(0), false);
        let mut count = 0;
        let cmds = {
            let mut exec = counting_exec(1, &mut count);
            s.on_decoded(&cs(), n(0), request(1, ReplyMode::All), &mut exec)
        };
        assert_eq!(count, 0, "manager does not execute at request time");
        assert_eq!(cmds.len(), 1);
        let InvCommand::Multicast { group, payload } = &cmds[0] else {
            panic!("expected multicast");
        };
        assert_eq!(group, &gs());
        assert!(matches!(
            InvMessage::from_cdr(payload).unwrap(),
            InvMessage::Forwarded {
                no_reply: false,
                ..
            }
        ));
    }

    #[test]
    fn replicas_execute_forwarded_and_reply_in_group() {
        let mut s = active_server(2);
        let fwd = InvMessage::Forwarded {
            call: CallId {
                client: n(0),
                number: 1,
            },
            op: "rand".to_owned(),
            args: Bytes::new(),
            mode: ReplyMode::All,
            manager: n(1),
            no_reply: false,
        };
        let mut count = 0;
        let cmds = {
            let mut exec = counting_exec(2, &mut count);
            s.on_decoded(&gs(), n(1), fwd.clone(), &mut exec)
        };
        assert_eq!(count, 1);
        let InvCommand::Multicast { group, payload } = &cmds[0] else {
            panic!("expected multicast");
        };
        assert_eq!(group, &gs());
        let InvMessage::ServerReply {
            replier, result, ..
        } = InvMessage::from_cdr(payload).unwrap()
        else {
            panic!("expected server reply");
        };
        assert_eq!(replier, n(2));
        assert_eq!(&result[..], b"rand:2");
        // Re-delivery (a retried call) does not re-execute, but the
        // retained reply is resent so the new manager can collect it.
        let cmds = {
            let mut exec = counting_exec(2, &mut count);
            s.on_decoded(&gs(), n(1), fwd, &mut exec)
        };
        assert_eq!(count, 1, "no re-execution on retry");
        assert_eq!(cmds.len(), 1, "cached reply resent");
    }

    #[test]
    fn manager_collects_and_relays_wait_for_all() {
        let mut s = active_server(1);
        s.register_client_group(cs(), n(0), false);
        let mut exec = |op: &str, _: &[u8]| Bytes::from(format!("{op}:1"));
        s.on_decoded(&cs(), n(0), request(1, ReplyMode::All), &mut exec);
        let call = CallId {
            client: n(0),
            number: 1,
        };
        let mut relay = Vec::new();
        for replier in [1u32, 2, 3] {
            let reply = InvMessage::ServerReply {
                call,
                replier: n(replier),
                result: Bytes::from(format!("r{replier}")),
            };
            relay = s.on_decoded(&gs(), n(replier), reply, &mut exec);
        }
        assert_eq!(relay.len(), 1, "relayed only after all three replies");
        let InvCommand::Multicast { group, payload } = &relay[0] else {
            panic!("expected multicast");
        };
        assert_eq!(group, &cs());
        let InvMessage::RelayedReply { replies, .. } = InvMessage::from_cdr(payload).unwrap()
        else {
            panic!("expected relayed reply");
        };
        assert_eq!(replies.len(), 3);
    }

    #[test]
    fn manager_retry_is_served_from_cache() {
        let mut s = active_server(1);
        s.register_client_group(cs(), n(0), false);
        let mut exec = |op: &str, _: &[u8]| Bytes::from(format!("{op}:1"));
        s.on_decoded(&cs(), n(0), request(1, ReplyMode::First), &mut exec);
        let call = CallId {
            client: n(0),
            number: 1,
        };
        let reply = InvMessage::ServerReply {
            call,
            replier: n(2),
            result: Bytes::from_static(b"r"),
        };
        s.on_decoded(&gs(), n(2), reply, &mut exec);
        // The client rebinds (or the reply was lost) and retries: the
        // cached answer comes back without touching the server group.
        let cmds = s.on_decoded(&cs(), n(0), request(1, ReplyMode::First), &mut exec);
        assert_eq!(cmds.len(), 1);
        let InvCommand::Multicast { group, payload } = &cmds[0] else {
            panic!("expected multicast");
        };
        assert_eq!(group, &cs());
        assert!(matches!(
            InvMessage::from_cdr(payload).unwrap(),
            InvMessage::RelayedReply { .. }
        ));
        // An older (stale) call number is dropped entirely.
        let mut s2cmds = s.on_decoded(&cs(), n(0), request(0, ReplyMode::First), &mut exec);
        assert!(s2cmds.is_empty());
        s2cmds.clear();
    }

    #[test]
    fn closed_group_servers_reply_directly() {
        let mut s = active_server(2);
        s.register_client_group(cs(), n(0), true);
        let mut count = 0;
        let cmds = {
            let mut exec = counting_exec(2, &mut count);
            s.on_decoded(&cs(), n(0), request(1, ReplyMode::All), &mut exec)
        };
        assert_eq!(count, 1, "closed group: execute immediately");
        assert_eq!(cmds.len(), 1);
        let InvCommand::Direct { to, payload } = &cmds[0] else {
            panic!("expected direct reply");
        };
        assert_eq!(*to, n(0));
        assert!(matches!(
            InvMessage::from_cdr(payload).unwrap(),
            InvMessage::DirectReply { .. }
        ));
        // A retry of the same call is answered from the cache without
        // re-execution.
        let cmds = {
            let mut exec = counting_exec(2, &mut count);
            s.on_decoded(&cs(), n(0), request(1, ReplyMode::All), &mut exec)
        };
        assert_eq!(count, 1);
        assert_eq!(cmds.len(), 1);
    }

    #[test]
    fn one_way_requests_produce_no_replies() {
        let mut s = active_server(2);
        s.register_client_group(cs(), n(0), true);
        let mut count = 0;
        let cmds = {
            let mut exec = counting_exec(2, &mut count);
            s.on_decoded(&cs(), n(0), request(1, ReplyMode::OneWay), &mut exec)
        };
        assert_eq!(count, 1, "one-way still executes");
        assert!(cmds.is_empty());
    }

    #[test]
    fn async_forwarding_answers_immediately_and_forwards_one_way() {
        let mut s = ServerCore::new(
            n(1),
            gs(),
            Replication::Passive,
            OpenOptimisation::AsyncForwarding,
        );
        s.set_server_view(vec![n(1), n(2), n(3)]);
        s.register_client_group(cs(), n(0), false);
        let mut count = 0;
        let cmds = {
            let mut exec = counting_exec(1, &mut count);
            s.on_decoded(&cs(), n(0), request(1, ReplyMode::First), &mut exec)
        };
        assert_eq!(count, 1, "primary executes at request time");
        assert_eq!(cmds.len(), 2);
        let InvCommand::Multicast {
            group: g0,
            payload: p0,
        } = &cmds[0]
        else {
            panic!()
        };
        assert_eq!(g0, &cs());
        assert!(matches!(
            InvMessage::from_cdr(p0).unwrap(),
            InvMessage::RelayedReply { .. }
        ));
        let InvCommand::Multicast {
            group: g1,
            payload: p1,
        } = &cmds[1]
        else {
            panic!()
        };
        assert_eq!(g1, &gs());
        assert!(matches!(
            InvMessage::from_cdr(p1).unwrap(),
            InvMessage::Forwarded { no_reply: true, .. }
        ));
    }

    #[test]
    fn passive_backups_log_and_replay_on_promotion() {
        let mut s = ServerCore::new(
            n(2),
            gs(),
            Replication::Passive,
            OpenOptimisation::AsyncForwarding,
        );
        s.set_server_view(vec![n(1), n(2), n(3)]);
        assert!(!s.is_primary());
        let fwd = |num: u64| InvMessage::Forwarded {
            call: CallId {
                client: n(0),
                number: num,
            },
            op: "set".to_owned(),
            args: Bytes::new(),
            mode: ReplyMode::First,
            manager: n(1),
            no_reply: true,
        };
        let mut count = 0;
        {
            let mut exec = counting_exec(2, &mut count);
            for i in 1..=3 {
                assert!(s.on_decoded(&gs(), n(1), fwd(i), &mut exec).is_empty());
            }
        }
        assert_eq!(count, 0, "backups receive but do not act (§4.2)");
        assert_eq!(s.backlog_len(), 3);
        // The primary crashes; this backup is promoted.
        s.set_server_view(vec![n(2), n(3)]);
        assert!(s.is_primary());
        let promoted = {
            let mut exec = counting_exec(2, &mut count);
            s.promote(&mut exec)
        };
        assert_eq!(promoted, 3);
        assert_eq!(count, 3, "backlog replayed exactly once");
        assert_eq!(s.backlog_len(), 0);
    }

    #[test]
    fn passive_backlog_is_bounded_dropping_the_oldest() {
        let mut s = ServerCore::new(
            n(2),
            gs(),
            Replication::Passive,
            OpenOptimisation::AsyncForwarding,
        );
        s.set_server_view(vec![n(1), n(2), n(3)]);
        let fwd = |num: u64| InvMessage::Forwarded {
            call: CallId {
                client: n(0),
                number: num,
            },
            op: "set".to_owned(),
            args: Bytes::new(),
            mode: ReplyMode::First,
            manager: n(1),
            no_reply: true,
        };
        let mut count = 0;
        {
            let mut exec = counting_exec(2, &mut count);
            for i in 1..=MAX_PENDING_CALLS as u64 + 2 {
                s.on_decoded(&gs(), n(1), fwd(i), &mut exec);
            }
        }
        assert_eq!(s.backlog_len(), MAX_PENDING_CALLS, "bounded at the cap");
        assert_eq!(s.backlog_shed_count(), 2, "oldest two dropped");
        s.set_server_view(vec![n(2), n(3)]);
        let promoted = {
            let mut exec = counting_exec(2, &mut count);
            s.promote(&mut exec)
        };
        assert_eq!(
            promoted, MAX_PENDING_CALLS,
            "only the retained newest calls replay"
        );
    }

    #[test]
    fn g2g_manager_filters_duplicates_and_forwards_once() {
        let gx = GroupId::new("gx");
        let gz = GroupId::new("gz");
        let mut s = active_server(1);
        s.register_monitor_group(gz.clone(), gx.clone());
        let req = |_from: u32| InvMessage::G2gRequest {
            origin: gx.clone(),
            number: 1,
            op: "tally".to_owned(),
            args: Bytes::new(),
            mode: ReplyMode::All,
        };
        let mut exec = |_: &str, _: &[u8]| Bytes::new();
        let cmds = s.on_decoded(&gz, n(5), req(5), &mut exec);
        assert_eq!(cmds.len(), 1, "first copy forwarded");
        let InvCommand::Multicast { group, .. } = &cmds[0] else {
            panic!()
        };
        assert_eq!(group, &gs());
        // Copies from the other gx members are filtered.
        assert!(s.on_decoded(&gz, n(6), req(6), &mut exec).is_empty());
        assert!(s.on_decoded(&gz, n(7), req(7), &mut exec).is_empty());
    }

    #[test]
    fn g2g_replies_fan_out_through_the_monitor_group() {
        let gx = GroupId::new("gx");
        let gz = GroupId::new("gz");
        let mut s = active_server(1);
        s.set_server_view(vec![n(1), n(2)]);
        s.register_monitor_group(gz.clone(), gx.clone());
        let mut exec = |_: &str, _: &[u8]| Bytes::new();
        let req = InvMessage::G2gRequest {
            origin: gx.clone(),
            number: 1,
            op: "tally".to_owned(),
            args: Bytes::new(),
            mode: ReplyMode::All,
        };
        let cmds = s.on_decoded(&gz, n(5), req, &mut exec);
        let InvCommand::Multicast { payload, .. } = &cmds[0] else {
            panic!()
        };
        let InvMessage::Forwarded { call, .. } = InvMessage::from_cdr(payload).unwrap() else {
            panic!()
        };
        // Both servers reply.
        let mut out = Vec::new();
        for replier in [1u32, 2] {
            let reply = InvMessage::ServerReply {
                call,
                replier: n(replier),
                result: Bytes::from(format!("r{replier}")),
            };
            out = s.on_decoded(&gs(), n(replier), reply, &mut exec);
        }
        assert_eq!(out.len(), 1);
        let InvCommand::Multicast { group, payload } = &out[0] else {
            panic!()
        };
        assert_eq!(group, &gz, "reply multicast in the monitor group");
        let InvMessage::G2gReply {
            origin,
            number,
            replies,
        } = InvMessage::from_cdr(payload).unwrap()
        else {
            panic!()
        };
        assert_eq!(origin, gx);
        assert_eq!(number, 1);
        assert_eq!(replies.len(), 2);
    }

    #[test]
    fn unrelated_groups_and_garbage_are_ignored() {
        let mut s = active_server(1);
        let mut exec = |_: &str, _: &[u8]| Bytes::new();
        assert!(s
            .on_decoded(
                &GroupId::new("other"),
                n(0),
                request(1, ReplyMode::All),
                &mut exec
            )
            .is_empty());
        // Garbage fails to unmarshal at the host's ingest boundary, which
        // counts it; a client-side message that reaches a server is
        // ignored.
        assert!(InvMessage::from_cdr(b"garbage").is_err());
        let relayed = InvMessage::RelayedReply {
            call: CallId {
                client: n(0),
                number: 1,
            },
            replies: vec![],
        };
        assert!(s.on_decoded(&gs(), n(0), relayed, &mut exec).is_empty());
    }
}
