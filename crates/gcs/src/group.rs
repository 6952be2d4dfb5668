//! Group identity and configuration.
//!
//! A group is created with a [`GroupConfig`] choosing its total-order
//! technique ([`OrderProtocol`]) and its liveness regime ([`Liveness`]),
//! the two customisation axes §3 of the paper exposes to applications,
//! plus the time-silence period behind both and the multicast fan-out
//! style ([`FanoutMode`], §2.2). `GroupConfig`'s CDR encoding is the one
//! wire and storage form of these settings.

use std::fmt;
use std::time::Duration;

use newtop_orb::cdr::{CdrDecode, CdrDecoder, CdrEncode, CdrEncoder, CdrError};

/// Names a group. Members of the same group use the same id everywhere.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(String);

impl GroupId {
    /// Creates a group id from a name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        GroupId(name.into())
    }

    /// The name as a string.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for GroupId {
    fn from(s: &str) -> Self {
        GroupId::new(s)
    }
}

impl From<String> for GroupId {
    fn from(s: String) -> Self {
        GroupId(s)
    }
}

impl CdrEncode for GroupId {
    fn encode(&self, enc: &mut CdrEncoder) {
        enc.write_string(&self.0);
    }
}

impl CdrDecode for GroupId {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        Ok(GroupId(dec.read_string()?))
    }
}

/// The delivery guarantee requested for one multicast.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum DeliveryOrder {
    /// Causal order: delivered after everything that happened-before it.
    Causal,
    /// Causality-preserving total order: all members deliver in the same
    /// order, consistent with causality.
    Total,
}

impl DeliveryOrder {
    pub(crate) fn code(self) -> u8 {
        match self {
            DeliveryOrder::Causal => 0,
            DeliveryOrder::Total => 1,
        }
    }

    pub(crate) fn from_code(c: u8) -> Result<Self, CdrError> {
        match c {
            0 => Ok(DeliveryOrder::Causal),
            1 => Ok(DeliveryOrder::Total),
            other => Err(CdrError::BadDiscriminant(u32::from(other))),
        }
    }
}

/// How total order is enforced in a group (§1, §3 of the paper).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum OrderProtocol {
    /// All members run a deterministic ordering algorithm over Lamport
    /// timestamps; progress requires periodic protocol messages from every
    /// member (the time-silence nulls). Best for lively peer groups.
    Symmetric,
    /// One member (the sequencer — the lowest-ranked member of the current
    /// view) decides the order. Best for request-reply style groups.
    Asymmetric,
}

/// How a multicast's per-member invocations are issued (§2.2, §5.2).
///
/// Present-day ORBs only offer one-to-one invocation, so a multicast is a
/// loop of per-member invocations. Made **synchronously** ("in turn to
/// all the members"), each invocation's round trip gates the next — the
/// paper's request-reply path. The **asynchronous** mode models the
/// deferred/oneway invocations the peer-participation experiments used
/// ("multicasting by using the asynchronous method invocation
/// operation"): invocations are issued back-to-back without waiting.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FanoutMode {
    /// Sequential synchronous invocations; round trips chain.
    Synchronous,
    /// Back-to-back asynchronous invocations; only sender CPU serialises.
    Asynchronous,
}

/// Whether the time-silence and failure-suspicion machinery runs
/// permanently or only while application messages are in flight (§3).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Liveness {
    /// Time-silence and suspicion active for the whole group lifetime.
    /// Appropriate for peer groups.
    Lively,
    /// Active only while undelivered application messages exist (plus a
    /// short linger); shut down when the group goes quiet. Appropriate
    /// for request-reply groups.
    EventDriven,
}

/// A member unheard-from for this many time-silence periods is suspected
/// to have failed. A loaded member's heartbeats queue behind its traffic,
/// so suspicion must tolerate that.
const SUSPICION_MULTIPLE: u32 = 14;

/// Per-group configuration: the four settings an application chooses for
/// each group (§2.2, §3, §5.2). Every other protocol timing and bound of a
/// group is a constant of `newtop-gcs`: the suspicion multiple (14
/// time-silence periods), the NACK delay (10 ms), the view-change timeout
/// (150 ms), the credit-based send window (64 multicasts outstanding) and
/// the view-change send buffer (128 multicasts).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupConfig {
    /// Total-order technique.
    pub ordering: OrderProtocol,
    /// Liveness regime.
    pub liveness: Liveness,
    /// Multicast fan-out style.
    pub fanout: FanoutMode,
    /// The time-silence period: a member that has sent nothing for this
    /// long emits an "I am alive" null message (while the mechanism is
    /// active).
    pub time_silence: Duration,
}

impl GroupConfig {
    /// A request-reply flavoured configuration: asymmetric ordering,
    /// event-driven liveness.
    #[must_use]
    pub fn request_reply() -> Self {
        GroupConfig {
            ordering: OrderProtocol::Asymmetric,
            liveness: Liveness::EventDriven,
            ..GroupConfig::default()
        }
    }

    /// A peer-group flavoured configuration: symmetric ordering, lively.
    #[must_use]
    pub fn peer() -> Self {
        GroupConfig {
            ordering: OrderProtocol::Symmetric,
            liveness: Liveness::Lively,
            fanout: FanoutMode::Asynchronous,
            ..GroupConfig::default()
        }
    }

    /// Sets the ordering protocol.
    #[must_use]
    pub fn with_ordering(mut self, ordering: OrderProtocol) -> Self {
        self.ordering = ordering;
        self
    }

    /// Sets the liveness regime.
    #[must_use]
    pub fn with_liveness(mut self, liveness: Liveness) -> Self {
        self.liveness = liveness;
        self
    }

    /// Sets the time-silence period.
    #[must_use]
    pub fn with_time_silence(mut self, period: Duration) -> Self {
        self.time_silence = period;
        self
    }

    /// The suspicion timeout implied by the configuration: a member
    /// unheard-from for 14 time-silence periods is suspected.
    #[must_use]
    pub fn suspicion_timeout(&self) -> Duration {
        self.time_silence * SUSPICION_MULTIPLE
    }

    /// The smallest time-silence period at which this configuration's
    /// failure detector is safe on a network whose worst one-way delay
    /// (base latency + jitter + any expected transient spike) is
    /// `worst_one_way`.
    ///
    /// A peer observes consecutive heartbeats up to
    /// `time_silence + 2·worst_one_way` apart (one heartbeat maximally
    /// delayed, the previous one not). Doubling that gap as slack for
    /// queueing behind real traffic and requiring the suspicion timeout
    /// to cover it — `m·ts ≥ 2·(ts + 2·D)` — solves to
    /// `ts ≥ 4·D / (m − 2)`, which with m = 14 is `ts ≥ D / 3`. See
    /// DESIGN.md §11 for the derivation and the false-suspicion-storm
    /// regression that pins it.
    #[must_use]
    pub fn recommended_time_silence(&self, worst_one_way: Duration) -> Duration {
        let denom = u128::from(SUSPICION_MULTIPLE - 2);
        let nanos = worst_one_way.as_nanos().saturating_mul(4).div_ceil(denom);
        Duration::from_nanos(nanos.min(u128::from(u64::MAX)) as u64).max(Duration::from_millis(1))
    }
}

impl CdrEncode for GroupConfig {
    fn encode(&self, enc: &mut CdrEncoder) {
        enc.write_u8(match self.ordering {
            OrderProtocol::Symmetric => 0,
            OrderProtocol::Asymmetric => 1,
        });
        enc.write_u8(match self.liveness {
            Liveness::Lively => 0,
            Liveness::EventDriven => 1,
        });
        enc.write_u8(match self.fanout {
            FanoutMode::Synchronous => 0,
            FanoutMode::Asynchronous => 1,
        });
        enc.write_u64(self.time_silence.as_micros() as u64);
    }
}

impl CdrDecode for GroupConfig {
    fn decode(dec: &mut CdrDecoder<'_>) -> Result<Self, CdrError> {
        let ordering = match dec.read_u8()? {
            0 => OrderProtocol::Symmetric,
            1 => OrderProtocol::Asymmetric,
            other => return Err(CdrError::BadDiscriminant(u32::from(other))),
        };
        let liveness = match dec.read_u8()? {
            0 => Liveness::Lively,
            1 => Liveness::EventDriven,
            other => return Err(CdrError::BadDiscriminant(u32::from(other))),
        };
        let fanout = match dec.read_u8()? {
            0 => FanoutMode::Synchronous,
            1 => FanoutMode::Asynchronous,
            other => return Err(CdrError::BadDiscriminant(u32::from(other))),
        };
        Ok(GroupConfig {
            ordering,
            liveness,
            fanout,
            time_silence: Duration::from_micros(dec.read_u64()?),
        })
    }
}

impl Default for GroupConfig {
    /// Asymmetric, event-driven, synchronous fan-out, 25 ms time-silence.
    fn default() -> Self {
        GroupConfig {
            ordering: OrderProtocol::Asymmetric,
            liveness: Liveness::EventDriven,
            fanout: FanoutMode::Synchronous,
            time_silence: Duration::from_millis(25),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_id_round_trips_via_cdr() {
        let g = GroupId::new("servers");
        let b = g.to_cdr();
        assert_eq!(GroupId::from_cdr(&b).unwrap(), g);
        assert_eq!(g.to_string(), "servers");
    }

    #[test]
    fn delivery_order_codes_round_trip() {
        for o in [DeliveryOrder::Causal, DeliveryOrder::Total] {
            assert_eq!(DeliveryOrder::from_code(o.code()).unwrap(), o);
        }
        assert!(DeliveryOrder::from_code(9).is_err());
    }

    #[test]
    fn group_config_round_trips_via_cdr() {
        for cfg in [
            GroupConfig::default(),
            GroupConfig::peer()
                .with_liveness(Liveness::EventDriven)
                .with_time_silence(Duration::from_micros(7)),
            GroupConfig::request_reply().with_time_silence(Duration::from_millis(3)),
        ] {
            let b = cfg.to_cdr();
            // Three discriminant bytes, padding to 8, the period.
            assert_eq!(b.len(), 16);
            assert_eq!(GroupConfig::from_cdr(&b).unwrap(), cfg);
        }
        // A bad ordering, liveness or fan-out discriminant is rejected,
        // not defaulted.
        for at in 0..3 {
            let mut b = GroupConfig::default().to_cdr().to_vec();
            b[at] = 9;
            assert!(matches!(
                GroupConfig::from_cdr(&b),
                Err(CdrError::BadDiscriminant(9))
            ));
        }
    }

    #[test]
    fn presets_match_the_paper() {
        let rr = GroupConfig::request_reply();
        assert_eq!(rr.ordering, OrderProtocol::Asymmetric);
        assert_eq!(rr.liveness, Liveness::EventDriven);
        let peer = GroupConfig::peer();
        assert_eq!(peer.ordering, OrderProtocol::Symmetric);
        assert_eq!(peer.liveness, Liveness::Lively);
    }

    #[test]
    fn builder_methods_compose() {
        let c = GroupConfig::default()
            .with_ordering(OrderProtocol::Symmetric)
            .with_liveness(Liveness::Lively)
            .with_time_silence(Duration::from_millis(10));
        assert_eq!(c.ordering, OrderProtocol::Symmetric);
        assert_eq!(c.suspicion_timeout(), Duration::from_millis(140));
    }

    #[test]
    fn recommended_time_silence_satisfies_the_tuning_rule() {
        let c = GroupConfig::default();
        for worst_ms in [1u64, 12, 47, 120, 500] {
            let d = Duration::from_millis(worst_ms);
            let ts = c.recommended_time_silence(d);
            let tuned = GroupConfig::default().with_time_silence(ts);
            // m·ts ≥ 2·(ts + 2·D): the timeout covers twice the
            // worst observable heartbeat gap.
            assert!(
                tuned.suspicion_timeout() >= (ts + d * 2) * 2,
                "rule violated at D={worst_ms}ms: ts={ts:?}"
            );
        }
        // A sub-millisecond answer is floored at 1 ms.
        assert_eq!(
            c.recommended_time_silence(Duration::from_micros(10)),
            Duration::from_millis(1)
        );
    }
}
