//! Credit-based flow control and bounded backpressure queues for NewTop.
//!
//! The paper's protocol engine (Morgan & Shrivastava, DSN 2000) assumes
//! buffers never fill; this crate supplies the missing overload layer in
//! two parts:
//!
//! * [`FlowController`] — a per-group, per-view *send window*. A sender
//!   may have at most `window` multicasts outstanding (sent but not yet
//!   acknowledged by every current member). Credits replenish from the
//!   contiguous-acknowledgement vectors the GCS already piggybacks on
//!   data and null messages, so the paper's time-silence mechanism
//!   carries flow control for free. When the window is exhausted the
//!   send is *shed* with a typed outcome instead of buffering without
//!   bound.
//! * [`queue`] — a bounded MPMC channel with an overload-shedding
//!   `try_send`, a backpressuring blocking `send`, and shed/peak-depth
//!   statistics. It replaces the unbounded channels previously used by
//!   the in-process network, the TCP endpoint and the threaded runtime.
//!
//! The crate is dependency-free (std only) and generic over the member
//! identifier so every layer of the stack can use it without cycles.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod queue;

use std::collections::BTreeMap;

/// The most in-flight invocations a client, caller group or passive
/// server backlog holds before shedding new calls.
pub const MAX_PENDING_CALLS: usize = 256;

/// Default size of the bounded queues.
///
/// Transports and runtimes size their queues from `queue_capacity`. The
/// other bounds of the stack are constants: the invocation layer's
/// [`MAX_PENDING_CALLS`], and the GCS's per-group send window and
/// view-change buffer in `newtop-gcs`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FlowConfig {
    /// Capacity of each bounded transport/runtime queue.
    pub queue_capacity: usize,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            queue_capacity: 1024,
        }
    }
}

/// The outcome of asking the flow controller for a send credit.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Admission {
    /// A credit was granted; the caller may send.
    Granted,
    /// The send window is full; the send was shed (counted in
    /// [`FlowController::shed_count`]).
    Shed,
}

impl Admission {
    /// True if the credit was granted.
    #[must_use]
    pub fn is_granted(self) -> bool {
        matches!(self, Admission::Granted)
    }
}

/// Credit-based sender-side flow control for one group.
///
/// Tracks, per view, how many multicasts this member has sent and the
/// contiguous prefix each *other* member has acknowledged. The number in
/// flight is `sent − min(acked)`; a send credit is granted only while
/// that stays below the window. Acknowledgements arrive for free on the
/// GCS's piggybacked contiguous-ack vectors, and a view change resets
/// the ledger (the new view renumbers from sequence 1, and virtual
/// synchrony settles the old view's messages).
///
/// Generic over the member identifier `M` so the crate stays
/// dependency-free; the GCS instantiates it with its node id type.
#[derive(Clone, Debug)]
pub struct FlowController<M: Ord + Copy> {
    window: u64,
    views_installed: u64,
    sent: u64,
    acked: BTreeMap<M, u64>,
    shed: u64,
    peak_in_flight: u64,
    replayed: u64,
}

impl<M: Ord + Copy> FlowController<M> {
    /// Creates a controller with the given window and no peers (every
    /// credit granted until the first view installs).
    #[must_use]
    pub fn new(window: u64) -> Self {
        FlowController {
            window: window.max(1),
            views_installed: 0,
            sent: 0,
            acked: BTreeMap::new(),
            shed: 0,
            peak_in_flight: 0,
            replayed: 0,
        }
    }

    /// Installs a new view: the send/ack ledger resets (the GCS
    /// renumbers from sequence 1 per view) and credits are granted
    /// against the new membership. `peers` must be the view's members
    /// *excluding* this sender; duplicates are ignored.
    pub fn install_view<I: IntoIterator<Item = M>>(&mut self, peers: I) {
        self.views_installed += 1;
        self.sent = 0;
        self.acked = peers.into_iter().map(|p| (p, 0)).collect();
    }

    /// Requests a send credit. On [`Admission::Granted`] the caller must
    /// send exactly one multicast (the controller counts it as in
    /// flight); on [`Admission::Shed`] the caller must drop the send and
    /// report the overload upward.
    pub fn try_acquire(&mut self) -> Admission {
        if self.in_flight() >= self.window {
            self.shed += 1;
            return Admission::Shed;
        }
        self.sent += 1;
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight());
        Admission::Granted
    }

    /// Admits one *replay* send — state-transfer or log-replay traffic
    /// that re-ships history the group already acknowledged. Replays are
    /// always granted and never counted as in flight: the window bounds
    /// *new* multicasts awaiting acknowledgement, and charging recovery
    /// traffic against it would let a large delta starve live sends (or
    /// a full window stall a rejoin indefinitely). Replays are counted
    /// separately in [`FlowController::replayed_count`] so observability
    /// still sees the volume.
    pub fn admit_replay(&mut self) -> Admission {
        self.replayed += 1;
        Admission::Granted
    }

    /// Replay sends admitted outside the window (across all views).
    #[must_use]
    pub fn replayed_count(&self) -> u64 {
        self.replayed
    }

    /// Records that `peer` has contiguously acknowledged this sender's
    /// messages up to sequence `upto` (in the current view). Higher
    /// water marks replenish credits; stale or unknown-peer values are
    /// ignored, and the mark is clamped to what was actually sent.
    pub fn on_ack(&mut self, peer: M, upto: u64) {
        let sent = self.sent;
        if let Some(mark) = self.acked.get_mut(&peer) {
            *mark = (*mark).max(upto.min(sent));
        }
    }

    /// Multicasts sent in this view that some member has not yet
    /// acknowledged. Zero when the group has no other members (a
    /// singleton delivers to itself immediately).
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        let floor = self.acked.values().copied().min().unwrap_or(self.sent);
        self.sent.saturating_sub(floor)
    }

    /// Send credits currently available.
    #[must_use]
    pub fn credits(&self) -> u64 {
        self.window.saturating_sub(self.in_flight())
    }

    /// The configured window.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Sends shed because the window was exhausted (across all views).
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Records externally shed work (e.g. a view-change buffer overflow)
    /// in this controller's shed counter so one counter covers the
    /// group.
    pub fn note_shed(&mut self) {
        self.shed += 1;
    }

    /// Highest in-flight count observed after any granted send.
    #[must_use]
    pub fn peak_in_flight(&self) -> u64 {
        self.peak_in_flight
    }

    /// Number of views installed into this controller.
    #[must_use]
    pub fn views_installed(&self) -> u64 {
        self.views_installed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_grants_then_sheds() {
        let mut fc: FlowController<u32> = FlowController::new(3);
        fc.install_view([1, 2]);
        for _ in 0..3 {
            assert_eq!(fc.try_acquire(), Admission::Granted);
        }
        assert_eq!(fc.in_flight(), 3);
        assert_eq!(fc.credits(), 0);
        assert_eq!(fc.try_acquire(), Admission::Shed);
        assert_eq!(fc.shed_count(), 1);
        assert_eq!(fc.peak_in_flight(), 3);
    }

    #[test]
    fn replay_admission_bypasses_a_full_window() {
        let mut fc: FlowController<u32> = FlowController::new(2);
        fc.install_view([1, 2]);
        assert!(fc.try_acquire().is_granted());
        assert!(fc.try_acquire().is_granted());
        assert_eq!(fc.try_acquire(), Admission::Shed);
        // Recovery traffic is still admitted, and admitting it neither
        // consumes live credits nor inflates the in-flight count.
        assert!(fc.admit_replay().is_granted());
        assert_eq!(fc.replayed_count(), 1);
        assert_eq!(fc.in_flight(), 2);
        assert_eq!(fc.credits(), 0);
        // Live sends remain shed until a real ack replenishes.
        assert_eq!(fc.try_acquire(), Admission::Shed);
        fc.on_ack(1, 2);
        fc.on_ack(2, 2);
        assert!(fc.try_acquire().is_granted());
    }

    #[test]
    fn acks_replenish_credits_at_the_slowest_member() {
        let mut fc: FlowController<u32> = FlowController::new(2);
        fc.install_view([1, 2]);
        assert!(fc.try_acquire().is_granted());
        assert!(fc.try_acquire().is_granted());
        assert_eq!(fc.try_acquire(), Admission::Shed);

        // One fast member acking does not help: the window is governed
        // by the slowest member's contiguous prefix.
        fc.on_ack(1, 2);
        assert_eq!(fc.in_flight(), 2);
        assert_eq!(fc.try_acquire(), Admission::Shed);

        // Once the slow member catches up, credits return.
        fc.on_ack(2, 1);
        assert_eq!(fc.in_flight(), 1);
        assert!(fc.try_acquire().is_granted());
    }

    #[test]
    fn ack_is_clamped_and_unknown_peers_ignored() {
        let mut fc: FlowController<u32> = FlowController::new(4);
        fc.install_view([1]);
        assert!(fc.try_acquire().is_granted());
        // An ack beyond what was sent clamps to `sent`.
        fc.on_ack(1, 99);
        assert_eq!(fc.in_flight(), 0);
        // A non-member's ack changes nothing.
        assert!(fc.try_acquire().is_granted());
        fc.on_ack(7, 99);
        assert_eq!(fc.in_flight(), 1);
    }

    #[test]
    fn view_change_resets_the_ledger() {
        let mut fc: FlowController<u32> = FlowController::new(2);
        fc.install_view([1, 2]);
        assert!(fc.try_acquire().is_granted());
        assert!(fc.try_acquire().is_granted());
        assert_eq!(fc.try_acquire(), Admission::Shed);

        // The view changes (member 2 crashed): old in-flight messages
        // are settled by virtual synchrony, the ledger restarts, and a
        // full window of credits is available against the new view.
        fc.install_view([1]);
        assert_eq!(fc.in_flight(), 0);
        assert_eq!(fc.views_installed(), 2);
        assert!(fc.try_acquire().is_granted());
        assert!(fc.try_acquire().is_granted());
        assert_eq!(fc.try_acquire(), Admission::Shed);
        // Shed counts accumulate across views.
        assert_eq!(fc.shed_count(), 2);

        // Acks in the new view count from 1 again.
        fc.on_ack(1, 2);
        assert_eq!(fc.in_flight(), 0);
    }

    #[test]
    fn singleton_views_never_shed() {
        let mut fc: FlowController<u32> = FlowController::new(1);
        fc.install_view(std::iter::empty());
        for _ in 0..100 {
            assert!(fc.try_acquire().is_granted());
        }
        assert_eq!(fc.in_flight(), 0);
        assert_eq!(fc.shed_count(), 0);
    }
}
