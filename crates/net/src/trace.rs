//! Structured protocol-event tracing.
//!
//! Every protocol layer above the substrate records typed
//! [`TraceEvent`]s into a bounded [`TraceLog`]: view installations,
//! failure suspicions, NACKs and retransmissions, sequencer ordering
//! batches, time-silence nulls, request forwarding, reply collection,
//! client rebinds and reply-cache dedups. Timestamps are the host
//! runtime's [`SimTime`] — virtual time under the simulator, wall-clock
//! elapsed time under the threaded runtime — so traces from either
//! runtime read identically.
//!
//! The log is a ring: when full, the oldest records are dropped (and
//! counted), so tracing is always safe to leave on. Aggregate per-kind
//! counts live in the metrics registry (see
//! [`crate::metrics::Observability::record`]), which never drops.

use std::collections::VecDeque;
use std::fmt;

use crate::site::NodeId;
use crate::time::SimTime;

/// A typed protocol event. Group identifiers are carried as strings so
/// the substrate stays independent of the group-communication layer's
/// types.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A group installed a new view.
    ViewInstalled {
        /// The group.
        group: String,
        /// The installed view's number.
        view: u64,
        /// Members in the view.
        members: usize,
    },
    /// The failure detector suspected a member.
    Suspected {
        /// The group the suspicion was raised in.
        group: String,
        /// The suspected member.
        suspect: NodeId,
    },
    /// A negative acknowledgement was sent to recover missing messages.
    NackSent {
        /// The group.
        group: String,
        /// The member asked to retransmit.
        to: NodeId,
        /// Messages requested.
        count: usize,
    },
    /// Stored messages were retransmitted in answer to a NACK.
    Retransmit {
        /// The group.
        group: String,
        /// The member that asked.
        to: NodeId,
        /// Messages retransmitted.
        count: usize,
    },
    /// The sequencer multicast a batch of ordering records (asymmetric
    /// protocol).
    SequencerBatch {
        /// The group.
        group: String,
        /// Ordering records in the batch.
        records: usize,
    },
    /// A time-silence null message was sent (liveness heartbeat).
    TimeSilenceNull {
        /// The group.
        group: String,
    },
    /// A request manager forwarded a client request into the server
    /// group (open binding).
    RequestForwarded {
        /// The requesting client.
        client: NodeId,
        /// The client's call number.
        number: u64,
    },
    /// A request manager finished collecting a call's replies and
    /// relayed the result to the client.
    ReplyCollected {
        /// The requesting client.
        client: NodeId,
        /// The client's call number.
        number: u64,
    },
    /// A server executed a request (at-most-once per call per replica).
    Executed {
        /// The requesting client.
        client: NodeId,
        /// The client's call number.
        number: u64,
    },
    /// A retried request was answered from the reply cache without
    /// re-execution (§4.1 deduplication).
    RetryDeduped {
        /// The requesting client.
        client: NodeId,
        /// The client's call number.
        number: u64,
    },
    /// A client's open binding broke (its request manager vanished) and
    /// the application will rebind (§4.1).
    Rebind {
        /// The broken client/server group.
        group: String,
        /// The manager that disappeared.
        manager: NodeId,
    },
    /// A binding completed and is ready for invocations.
    BindReady {
        /// The client/server group.
        group: String,
    },
    /// A binding attempt failed.
    BindFailed {
        /// The client/server group that failed.
        group: String,
    },
    /// A passive-replication backup was promoted to primary and replayed
    /// its backlog.
    Promoted {
        /// The server group.
        group: String,
        /// Backlogged requests replayed.
        replayed: usize,
    },
    /// An incoming message body failed to unmarshal and was dropped
    /// (also counted under the `decode.malformed` metric).
    MalformedDropped {
        /// The ORB operation the body arrived under.
        operation: String,
    },
}

impl TraceEvent {
    /// The event's kind as a stable snake-case name — also the suffix of
    /// its auto-maintained `ev.*` counter.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        let name = self.counter_name();
        name.strip_prefix("ev.").unwrap_or(name)
    }

    /// The name of the event's `ev.*` counter: `"ev."` followed by
    /// [`Self::kind`]. A static string, so recording an event builds no
    /// counter name.
    #[must_use]
    pub fn counter_name(&self) -> &'static str {
        match self {
            TraceEvent::ViewInstalled { .. } => "ev.view_installed",
            TraceEvent::Suspected { .. } => "ev.suspected",
            TraceEvent::NackSent { .. } => "ev.nack_sent",
            TraceEvent::Retransmit { .. } => "ev.retransmit",
            TraceEvent::SequencerBatch { .. } => "ev.sequencer_batch",
            TraceEvent::TimeSilenceNull { .. } => "ev.time_silence_null",
            TraceEvent::RequestForwarded { .. } => "ev.request_forwarded",
            TraceEvent::ReplyCollected { .. } => "ev.reply_collected",
            TraceEvent::Executed { .. } => "ev.executed",
            TraceEvent::RetryDeduped { .. } => "ev.retry_deduped",
            TraceEvent::Rebind { .. } => "ev.rebind",
            TraceEvent::BindReady { .. } => "ev.bind_ready",
            TraceEvent::BindFailed { .. } => "ev.bind_failed",
            TraceEvent::Promoted { .. } => "ev.promoted",
            TraceEvent::MalformedDropped { .. } => "ev.malformed_dropped",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::ViewInstalled {
                group,
                view,
                members,
            } => write!(f, "view_installed {group} v{view} ({members} members)"),
            TraceEvent::Suspected { group, suspect } => {
                write!(f, "suspected {suspect} in {group}")
            }
            TraceEvent::NackSent { group, to, count } => {
                write!(f, "nack_sent to {to} in {group} ({count} msgs)")
            }
            TraceEvent::Retransmit { group, to, count } => {
                write!(f, "retransmit {count} msgs to {to} in {group}")
            }
            TraceEvent::SequencerBatch { group, records } => {
                write!(f, "sequencer_batch {records} records in {group}")
            }
            TraceEvent::TimeSilenceNull { group } => write!(f, "time_silence_null in {group}"),
            TraceEvent::RequestForwarded { client, number } => {
                write!(f, "request_forwarded {client}#{number}")
            }
            TraceEvent::ReplyCollected { client, number } => {
                write!(f, "reply_collected {client}#{number}")
            }
            TraceEvent::Executed { client, number } => write!(f, "executed {client}#{number}"),
            TraceEvent::RetryDeduped { client, number } => {
                write!(f, "retry_deduped {client}#{number}")
            }
            TraceEvent::Rebind { group, manager } => {
                write!(f, "rebind {group} (manager {manager} gone)")
            }
            TraceEvent::BindReady { group } => write!(f, "bind_ready {group}"),
            TraceEvent::BindFailed { group } => write!(f, "bind_failed {group}"),
            TraceEvent::Promoted { group, replayed } => {
                write!(f, "promoted in {group} ({replayed} replayed)")
            }
            TraceEvent::MalformedDropped { operation } => {
                write!(f, "malformed_dropped ({operation} body)")
            }
        }
    }
}

/// One timestamped trace record.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// When the event happened (runtime time base).
    pub at: SimTime,
    /// The event.
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12?}] {}", self.at, self.event)
    }
}

/// Default ring capacity of a [`TraceLog`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// A bounded ring of [`TraceRecord`]s.
#[derive(Clone, Debug)]
pub struct TraceLog {
    records: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceLog {
    /// A log with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// A log holding at most `capacity` records.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            records: VecDeque::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest when full.
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord { at, event });
    }

    /// Records retained (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Records currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained records of one kind (oldest first).
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceRecord> {
        self.records.iter().filter(move |r| r.event.kind() == kind)
    }

    /// Count of retained records of one kind. Note this undercounts once
    /// the ring has dropped records; the `ev.*` counters in the metrics
    /// registry are exact.
    #[must_use]
    pub fn count_kind(&self, kind: &str) -> usize {
        self.of_kind(kind).count()
    }

    /// Copies out all retained records.
    #[must_use]
    pub fn to_vec(&self) -> Vec<TraceRecord> {
        self.records.iter().cloned().collect()
    }

    /// Discards all retained records (the dropped count is kept).
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn records_and_filters() {
        let mut log = TraceLog::new();
        log.record(
            SimTime::from_millis(1),
            TraceEvent::Suspected {
                group: "g".into(),
                suspect: n(2),
            },
        );
        log.record(
            SimTime::from_millis(2),
            TraceEvent::TimeSilenceNull { group: "g".into() },
        );
        assert_eq!(log.len(), 2);
        assert_eq!(log.count_kind("suspected"), 1);
        assert_eq!(log.count_kind("time_silence_null"), 1);
        assert_eq!(log.count_kind("rebind"), 0);
        assert!(log.iter().next().unwrap().at < log.iter().last().unwrap().at);
    }

    #[test]
    fn ring_drops_oldest() {
        let mut log = TraceLog::with_capacity(2);
        for i in 0..5u64 {
            log.record(
                SimTime::from_millis(i),
                TraceEvent::TimeSilenceNull {
                    group: format!("g{i}"),
                },
            );
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let first = log.iter().next().unwrap();
        assert_eq!(first.at, SimTime::from_millis(3));
    }

    #[test]
    fn counter_names_are_ev_dot_kind() {
        let group = || "g".to_owned();
        let every_variant = [
            TraceEvent::ViewInstalled {
                group: group(),
                view: 1,
                members: 3,
            },
            TraceEvent::Suspected {
                group: group(),
                suspect: n(2),
            },
            TraceEvent::NackSent {
                group: group(),
                to: n(2),
                count: 1,
            },
            TraceEvent::Retransmit {
                group: group(),
                to: n(2),
                count: 1,
            },
            TraceEvent::SequencerBatch {
                group: group(),
                records: 2,
            },
            TraceEvent::TimeSilenceNull { group: group() },
            TraceEvent::RequestForwarded {
                client: n(1),
                number: 7,
            },
            TraceEvent::ReplyCollected {
                client: n(1),
                number: 7,
            },
            TraceEvent::Executed {
                client: n(1),
                number: 7,
            },
            TraceEvent::RetryDeduped {
                client: n(1),
                number: 7,
            },
            TraceEvent::Rebind {
                group: group(),
                manager: n(0),
            },
            TraceEvent::BindReady { group: group() },
            TraceEvent::BindFailed { group: group() },
            TraceEvent::Promoted {
                group: group(),
                replayed: 0,
            },
            TraceEvent::MalformedDropped {
                operation: "gcs".to_owned(),
            },
        ];
        for event in &every_variant {
            assert_eq!(
                event.counter_name(),
                format!("ev.{}", event.kind()),
                "{event:?}"
            );
        }
        // The names the benchmark's per-layer report reads.
        let names: Vec<&str> = every_variant.iter().map(TraceEvent::counter_name).collect();
        for read in [
            "ev.time_silence_null",
            "ev.nack_sent",
            "ev.retransmit",
            "ev.view_installed",
            "ev.suspected",
            "ev.request_forwarded",
            "ev.executed",
            "ev.reply_collected",
        ] {
            assert!(names.contains(&read), "{read} is gone");
        }
    }

    #[test]
    fn kinds_are_stable() {
        let e = TraceEvent::Rebind {
            group: "b".into(),
            manager: n(0),
        };
        assert_eq!(e.kind(), "rebind");
        assert!(e.to_string().contains("rebind"));
    }
}
