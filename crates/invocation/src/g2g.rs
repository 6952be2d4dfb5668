//! Group-to-group invocation, client-group side (Fig. 6).
//!
//! Every member of a client group gx holds a [`G2gCaller`] attached to a
//! *client monitor group* gz = gx ∪ {request manager}. When the members
//! of gx decide to invoke the server group (each triggered by the same
//! totally-ordered event in gx, so their call counters agree), each
//! multicasts the request in gz; the manager filters the duplicates,
//! forwards one into the server group, and multicasts the collected
//! replies back in gz, where every gx member receives them atomically.

use std::collections::BTreeMap;

use bytes::Bytes;

use newtop_flow::MAX_PENDING_CALLS;
use newtop_gcs::group::GroupId;
use newtop_net::site::NodeId;

use crate::api::{InvCommand, InvMessage, ReplyMode};
use crate::client::ClientError;

/// A completed group-to-group call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct G2gComplete {
    /// The origin (client) group.
    pub origin: GroupId,
    /// The origin group's call counter value.
    pub number: u64,
    /// `(server, result)` pairs.
    pub replies: Vec<(NodeId, Bytes)>,
}

/// The per-member client side of group-to-group invocation.
#[derive(Debug)]
pub struct G2gCaller {
    node: NodeId,
    origin: GroupId,
    monitor: GroupId,
    next_number: u64,
    /// Bounded by [`MAX_PENDING_CALLS`]; calls beyond it shed.
    pending: BTreeMap<u64, ()>,
    /// Replies that arrived before this member issued its own copy of the
    /// call (possible: the group reply may be totally ordered before a
    /// slow member's request copy). Bounded like `pending`.
    early: BTreeMap<u64, Vec<(NodeId, Bytes)>>,
    /// Calls shed by the admission bound since creation.
    shed: u64,
}

impl G2gCaller {
    /// Creates the caller for a member of `origin` attached to the
    /// monitor group `monitor`.
    #[must_use]
    pub fn new(node: NodeId, origin: GroupId, monitor: GroupId) -> Self {
        G2gCaller {
            node,
            origin,
            monitor,
            next_number: 1,
            pending: BTreeMap::new(),
            early: BTreeMap::new(),
            shed: 0,
        }
    }

    /// Calls shed by the pending-call bound since creation.
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// The owning node.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The origin (client) group.
    #[must_use]
    pub fn origin(&self) -> &GroupId {
        &self.origin
    }

    /// The monitor group this caller multicasts in.
    #[must_use]
    pub fn monitor(&self) -> &GroupId {
        &self.monitor
    }

    /// Call numbers awaiting replies.
    #[must_use]
    pub fn pending(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.pending.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Issues the group's next call. All origin-group members must invoke
    /// in the same relative order (e.g. driven by a totally-ordered
    /// trigger in the origin group) so their counters agree.
    ///
    /// If the group's reply already arrived (another member's copy was
    /// forwarded and answered before this member invoked), the completion
    /// is returned immediately.
    ///
    /// # Errors
    ///
    /// [`ClientError::Overloaded`] if the pending-call table is full. The
    /// call counter is *not* consumed, so the member stays in step with
    /// the rest of the origin group: the manager forwards another member's
    /// copy, the reply buffers here as an early arrival, and this member's
    /// retried invoke completes from the buffer.
    pub fn invoke(
        &mut self,
        op: &str,
        args: Bytes,
        mode: ReplyMode,
    ) -> Result<(u64, Vec<InvCommand>, Option<G2gComplete>), ClientError> {
        if mode != ReplyMode::OneWay && self.pending.len() >= MAX_PENDING_CALLS {
            self.shed += 1;
            return Err(ClientError::Overloaded(self.monitor.clone()));
        }
        let number = self.next_number;
        self.next_number += 1;
        let msg = InvMessage::G2gRequest {
            origin: self.origin.clone(),
            number,
            op: op.to_owned(),
            args,
            mode,
        };
        let commands = vec![InvCommand::multicast(self.monitor.clone(), &msg)];
        if mode == ReplyMode::OneWay {
            return Ok((number, commands, None));
        }
        if let Some(replies) = self.early.remove(&number) {
            return Ok((
                number,
                commands,
                Some(G2gComplete {
                    origin: self.origin.clone(),
                    number,
                    replies,
                }),
            ));
        }
        self.pending.insert(number, ());
        Ok((number, commands, None))
    }

    /// Feeds a message delivered in the monitor group, already
    /// unmarshalled by the host. Returns the completion if this was the
    /// awaited reply; every other message (request copies, foreign or
    /// duplicate replies) is ignored.
    pub fn on_delivered(&mut self, group: &GroupId, msg: InvMessage) -> Option<G2gComplete> {
        if group != &self.monitor {
            return None;
        }
        let InvMessage::G2gReply {
            origin,
            number,
            replies,
        } = msg
        else {
            return None;
        };
        if origin != self.origin {
            return None;
        }
        if self.pending.remove(&number).is_none() {
            // Not yet invoked here (or a duplicate): buffer fresh replies
            // for numbers we have not issued, up to the same admission
            // bound as `pending`; drop true duplicates and overflow.
            if number >= self.next_number
                && !self.early.contains_key(&number)
                && self.early.len() < MAX_PENDING_CALLS
            {
                self.early.insert(number, replies);
            }
            return None;
        }
        Some(G2gComplete {
            origin,
            number,
            replies,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop_orb::cdr::CdrDecode;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    fn caller() -> G2gCaller {
        G2gCaller::new(n(5), GroupId::new("gx"), GroupId::new("gz"))
    }

    #[test]
    fn invoke_numbers_are_sequential() {
        let mut c = caller();
        let (n1, cmds, _) = c.invoke("op", Bytes::new(), ReplyMode::All).unwrap();
        let (n2, _, _) = c.invoke("op", Bytes::new(), ReplyMode::All).unwrap();
        assert_eq!((n1, n2), (1, 2));
        assert_eq!(c.pending(), vec![1, 2]);
        let InvCommand::Multicast { group, .. } = &cmds[0] else {
            panic!()
        };
        assert_eq!(group, &GroupId::new("gz"));
    }

    #[test]
    fn one_way_does_not_wait() {
        let mut c = caller();
        let (_, cmds, _) = c.invoke("op", Bytes::new(), ReplyMode::OneWay).unwrap();
        assert_eq!(cmds.len(), 1);
        assert!(c.pending().is_empty());
    }

    #[test]
    fn reply_completes_exactly_once() {
        let mut c = caller();
        let (number, _, _) = c.invoke("op", Bytes::new(), ReplyMode::All).unwrap();
        let reply = InvMessage::G2gReply {
            origin: GroupId::new("gx"),
            number,
            replies: vec![(n(1), Bytes::from_static(b"r"))],
        };
        let done = c.on_delivered(&GroupId::new("gz"), reply.clone()).unwrap();
        assert_eq!(done.number, number);
        assert_eq!(done.replies.len(), 1);
        // Duplicate is ignored.
        assert!(c.on_delivered(&GroupId::new("gz"), reply).is_none());
    }

    #[test]
    fn foreign_replies_are_ignored() {
        let mut c = caller();
        let (number, _, _) = c.invoke("op", Bytes::new(), ReplyMode::All).unwrap();
        let wrong_origin = InvMessage::G2gReply {
            origin: GroupId::new("other"),
            number,
            replies: vec![],
        };
        assert!(c.on_delivered(&GroupId::new("gz"), wrong_origin).is_none());
        let wrong_group = InvMessage::G2gReply {
            origin: GroupId::new("gx"),
            number,
            replies: vec![],
        };
        assert!(c
            .on_delivered(&GroupId::new("elsewhere"), wrong_group)
            .is_none());
        assert_eq!(c.pending(), vec![number]);
    }

    #[test]
    fn early_reply_completes_at_invoke_time() {
        let mut c = caller();
        // The group's reply for call 1 arrives before this member invokes.
        let reply = InvMessage::G2gReply {
            origin: GroupId::new("gx"),
            number: 1,
            replies: vec![(n(9), Bytes::from_static(b"r"))],
        };
        assert!(c.on_delivered(&GroupId::new("gz"), reply).is_none());
        let (number, _, done) = c.invoke("op", Bytes::new(), ReplyMode::All).unwrap();
        assert_eq!(number, 1);
        let done = done.expect("buffered reply surfaces at invoke");
        assert_eq!(done.replies.len(), 1);
        assert!(c.pending().is_empty());
    }

    #[test]
    fn own_request_copies_are_not_replies() {
        let mut c = caller();
        let (_number, cmds, _) = c.invoke("op", Bytes::new(), ReplyMode::All).unwrap();
        let InvCommand::Multicast { payload, .. } = &cmds[0] else {
            panic!()
        };
        // Seeing another member's (or our own) request copy does nothing.
        let copy = InvMessage::from_cdr(payload).unwrap();
        assert!(c.on_delivered(&GroupId::new("gz"), copy).is_none());
    }

    #[test]
    fn shed_call_keeps_the_counter_in_step() {
        let mut c = caller();
        for _ in 0..MAX_PENDING_CALLS {
            c.invoke("op", Bytes::new(), ReplyMode::All).unwrap();
        }
        assert_eq!(
            c.invoke("op", Bytes::new(), ReplyMode::All),
            Err(ClientError::Overloaded(GroupId::new("gz")))
        );
        assert_eq!(c.shed_count(), 1);
        // The group meanwhile answered the next call (the other members
        // issued it); the reply buffers as an early arrival because the
        // counter was not consumed by the shed...
        let next = MAX_PENDING_CALLS as u64 + 1;
        let reply = InvMessage::G2gReply {
            origin: GroupId::new("gx"),
            number: next,
            replies: vec![(n(9), Bytes::from_static(b"r"))],
        };
        assert!(c.on_delivered(&GroupId::new("gz"), reply).is_none());
        // ...and call 1 completing frees a slot, so the retried invoke
        // takes the next number and completes from the buffer.
        let one = InvMessage::G2gReply {
            origin: GroupId::new("gx"),
            number: 1,
            replies: vec![],
        };
        assert!(c.on_delivered(&GroupId::new("gz"), one).is_some());
        let (number, _, done) = c.invoke("op", Bytes::new(), ReplyMode::All).unwrap();
        assert_eq!(number, next);
        assert!(done.is_some());
    }
}
