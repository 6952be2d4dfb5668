//! The smart proxy: the one client-side implementation of binding,
//! rebinding and retry.
//!
//! §2.1 of the paper: "a client application can be provided with a smart
//! proxy for the server that automatically does the rebinding as
//! suggested here", and §4.1's retry discipline (same call number,
//! servers deduplicate from their retained last reply). A [`SmartProxy`]
//! packages that policy so applications just call
//! [`SmartProxy::invoke`] and feed it the NSO's outputs and their fired
//! timers:
//!
//! * the first call starts the binding, in the shape its [`BindOptions`]
//!   name; calls made before the binding is ready are queued;
//! * a call still unanswered [`RETRY_AFTER`] after its last send is sent
//!   again with the same call number (a lost request or reply is
//!   recovered). One retry timer serves every call: it is armed for the
//!   oldest outstanding call's next deadline;
//! * on a broken binding or a failed bind it rebinds and, once the new
//!   binding is up, re-sends every outstanding call with its original
//!   number. An open binding moves to the next listed replica, a
//!   directory-resolved open binding moves up one rank, and any other
//!   target is bound again as it is;
//! * a `bind` that returns an error is tried again at the next timer tick;
//! * after 2 × max(replicas, 2) failed or broken bindings in a row,
//!   [`ProxyEvent::GaveUp`] is reported.
//!
//! The proxy reacts only to outputs for the binding group its own
//! [`Nso::bind`] returned and to completions of its own calls, and it
//! owns one application timer tag, so several proxies share one NSO.

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;

use newtop_gcs::group::GroupId;
use newtop_invocation::api::ReplyMode;
use newtop_net::sim::Outbox;
use newtop_net::site::NodeId;
use newtop_net::time::SimTime;

use crate::nso::{BindOptions, BindTarget, GroupHandle, Nso, NsoOutput, ResolveStyle};

/// How long a call may stay unanswered after its last send before the
/// proxy sends it again with the same number. Far above any fault-free
/// LAN response time, so it fires only when a request or reply was lost;
/// a spurious retry costs bandwidth, never correctness (the server reply
/// cache deduplicates).
pub const RETRY_AFTER: Duration = Duration::from_millis(100);

/// Things the proxy reports to the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProxyEvent {
    /// A binding is up; outstanding calls were re-sent and queued calls
    /// issued.
    Ready,
    /// A call completed.
    Complete {
        /// The proxy-level call number (as returned by
        /// [`SmartProxy::invoke`]).
        number: u64,
        /// When the call was first sent over a binding (response times
        /// are measured from here).
        issued_at: SimTime,
        /// `(server, result)` pairs.
        replies: Vec<(NodeId, Bytes)>,
    },
    /// The proxy is rebinding.
    Rebound {
        /// True when an established binding broke (§4.1); false when a
        /// bind attempt failed.
        broken: bool,
    },
    /// Every replica has been tried without success.
    GaveUp,
}

/// A call as the application made it, until it is sent.
#[derive(Debug)]
struct Call {
    number: u64,
    op: String,
    args: Bytes,
    mode: ReplyMode,
}

/// An issued call awaiting completion. The NSO core keeps the request
/// itself for re-sends.
#[derive(Debug)]
struct Sent {
    number: u64,
    first_sent: SimTime,
    last_sent: SimTime,
}

#[derive(Clone, Debug)]
enum State {
    /// No call made yet; the first [`SmartProxy::invoke`] binds.
    New,
    /// The last `bind` returned an error (retried at the next timer
    /// tick).
    Unbound,
    /// `bind` returned this binding group; waiting for it to come up.
    Binding(GroupId),
    Bound(GroupHandle),
    Failed,
}

/// Automatic bind/rebind/retry for one replicated service. See the
/// [module docs](self).
#[derive(Debug)]
pub struct SmartProxy {
    server_group: GroupId,
    servers: Vec<NodeId>,
    opts: BindOptions,
    timer_tag: u64,
    state: State,
    failures_in_a_row: usize,
    /// Calls not yet issued (no binding yet).
    queued: Vec<Call>,
    /// Issued calls by the NSO core's call number.
    outstanding: BTreeMap<u64, Sent>,
    next_number: u64,
    timer_armed: bool,
    retries: u32,
}

impl SmartProxy {
    /// Creates a proxy for `server_group`, whose replicas are `servers`,
    /// bound in the shape `opts` names. `timer_tag` is the application
    /// timer tag the proxy owns; feed its firings to
    /// [`SmartProxy::on_timer`].
    #[must_use]
    pub fn new(
        server_group: GroupId,
        servers: Vec<NodeId>,
        opts: BindOptions,
        timer_tag: u64,
    ) -> Self {
        SmartProxy {
            server_group,
            servers,
            opts,
            timer_tag,
            state: State::New,
            failures_in_a_row: 0,
            queued: Vec::new(),
            outstanding: BTreeMap::new(),
            next_number: 1,
            timer_armed: false,
            retries: 0,
        }
    }

    /// Invokes an operation; returns the proxy-level call number matched
    /// by the eventual [`ProxyEvent::Complete`]. Queued until the binding
    /// is ready; the first call starts the binding.
    pub fn invoke(
        &mut self,
        nso: &mut Nso,
        op: &str,
        args: Bytes,
        mode: ReplyMode,
        now: SimTime,
        out: &mut Outbox,
    ) -> u64 {
        let call = Call {
            number: self.next_number,
            op: op.to_owned(),
            args,
            mode,
        };
        self.next_number += 1;
        let number = call.number;
        match self.state.clone() {
            State::Bound(binding) => self.issue(nso, &binding, call, now, out),
            State::New => {
                self.queued.push(call);
                self.bind(nso, now, out);
            }
            _ => self.queued.push(call),
        }
        number
    }

    /// Number of calls issued or queued but not yet complete.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.outstanding.len() + self.queued.len()
    }

    /// Calls the retry timer has sent again.
    #[must_use]
    pub fn retries(&self) -> u32 {
        self.retries
    }

    fn bind(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        match nso.bind(self.server_group.clone(), self.opts.clone(), now, out) {
            Ok(handle) => self.state = State::Binding(handle.id().clone()),
            Err(_) => {
                self.state = State::Unbound;
                self.arm(RETRY_AFTER, out);
            }
        }
    }

    /// The target of the next binding after this one failed.
    fn rotated(&self) -> BindTarget {
        match &self.opts.target {
            BindTarget::Open { manager } => {
                let next = self
                    .servers
                    .iter()
                    .position(|s| s == manager)
                    .and_then(|i| (i + 1).checked_rem(self.servers.len()))
                    .and_then(|i| self.servers.get(i));
                BindTarget::Open {
                    manager: next.copied().unwrap_or(*manager),
                }
            }
            BindTarget::Resolve {
                name,
                directory,
                style: ResolveStyle::Open { rank },
            } => BindTarget::Resolve {
                name: name.clone(),
                directory: directory.clone(),
                style: ResolveStyle::Open {
                    rank: rank.wrapping_add(1),
                },
            },
            other => other.clone(),
        }
    }

    fn issue(
        &mut self,
        nso: &mut Nso,
        binding: &GroupHandle,
        call: Call,
        now: SimTime,
        out: &mut Outbox,
    ) {
        // The NSO's client core allocates its own call numbers; the proxy
        // maps them back to its own. (`invoke` only fails if the binding
        // raced away — the call is then re-queued.)
        match binding.invoke(nso, &call.op, call.args.clone(), call.mode, now, out) {
            Ok(id) => {
                self.outstanding.insert(
                    id.number,
                    Sent {
                        number: call.number,
                        first_sent: now,
                        last_sent: now,
                    },
                );
                self.arm(RETRY_AFTER, out);
            }
            Err(_) => self.queued.push(call),
        }
    }

    fn arm(&mut self, delay: Duration, out: &mut Outbox) {
        if !self.timer_armed {
            self.timer_armed = true;
            out.set_timer(delay, self.timer_tag);
        }
    }

    fn owns(&self, group: &GroupId) -> bool {
        match &self.state {
            State::Binding(g) => g == group,
            State::Bound(binding) => binding.id() == group,
            State::New | State::Unbound | State::Failed => false,
        }
    }

    /// Feeds one NSO output. Returns an event when the output concerned
    /// this proxy; an `InvocationComplete` that returns `None` was not
    /// this proxy's call.
    pub fn on_output(
        &mut self,
        nso: &mut Nso,
        output: &NsoOutput,
        now: SimTime,
        out: &mut Outbox,
    ) -> Option<ProxyEvent> {
        match output {
            NsoOutput::BindingReady { group } if self.owns(group) => {
                let binding = nso.handle_for(group)?;
                self.state = State::Bound(binding.clone());
                self.failures_in_a_row = 0;
                // Re-send outstanding calls with their original numbers
                // (servers deduplicate), then flush the queue.
                for (&number, sent) in &mut self.outstanding {
                    let _ = binding.retry(nso, number, now, out);
                    sent.last_sent = now;
                }
                if !self.outstanding.is_empty() {
                    self.arm(RETRY_AFTER, out);
                }
                for call in std::mem::take(&mut self.queued) {
                    self.issue(nso, &binding, call, now, out);
                }
                Some(ProxyEvent::Ready)
            }
            NsoOutput::BindFailed { group } | NsoOutput::BindingBroken { group, .. }
                if self.owns(group) =>
            {
                self.failures_in_a_row += 1;
                if self.failures_in_a_row >= self.servers.len().max(2) * 2 {
                    self.state = State::Failed;
                    return Some(ProxyEvent::GaveUp);
                }
                self.opts.target = self.rotated();
                self.bind(nso, now, out);
                Some(ProxyEvent::Rebound {
                    broken: matches!(output, NsoOutput::BindingBroken { .. }),
                })
            }
            NsoOutput::InvocationComplete { call, replies } => {
                let sent = self.outstanding.remove(&call.number)?;
                Some(ProxyEvent::Complete {
                    number: sent.number,
                    issued_at: sent.first_sent,
                    replies: replies.clone(),
                })
            }
            _ => None,
        }
    }

    /// Feeds a fired timer; tags other than the proxy's own are ignored.
    pub fn on_timer(&mut self, nso: &mut Nso, tag: u64, now: SimTime, out: &mut Outbox) {
        if tag != self.timer_tag {
            return;
        }
        self.timer_armed = false;
        match self.state.clone() {
            State::Unbound => self.bind(nso, now, out),
            State::Bound(binding) => {
                for (&number, sent) in &mut self.outstanding {
                    if now.saturating_since(sent.last_sent) >= RETRY_AFTER {
                        if binding.retry(nso, number, now, out).is_ok() {
                            self.retries += 1;
                        }
                        sent.last_sent = now;
                    }
                }
                let oldest = self.outstanding.values().map(|s| s.last_sent).min();
                if let Some(last_sent) = oldest {
                    let deadline = last_sent + RETRY_AFTER;
                    self.arm(deadline.saturating_since(now), out);
                }
            }
            // A binding in flight re-sends everything once it is up.
            State::New | State::Binding(_) | State::Failed => {}
        }
    }
}
