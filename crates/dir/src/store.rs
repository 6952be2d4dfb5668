//! The durable store: per-node framed log + snapshot with an explicit
//! staged/synced boundary.
//!
//! The store models a node's stable storage, so it lives *outside* the
//! simulated node's volatile state — harness nodes hold a
//! [`SharedStore`] handle that survives crash/restart. Writes go
//! through two stages:
//!
//! * [`DurableStore::append`] stages a record (an OS buffer write);
//! * [`DurableStore::sync`] moves everything staged to the synced log
//!   (the fsync). Appends are cheap, so callers batch: one sync per
//!   handled event covers every record the event produced.
//!
//! A crash ([`DurableStore::crash`]) discards staged bytes — exactly
//! what a real machine loses — and recovery reads only the synced
//! prefix. The `newtop-analyze` durability rule enforces the calling
//! convention: no handler may acknowledge an append without a reachable
//! sync.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use newtop_net::site::NodeId;

use crate::log::{append_frame, LogError, LogRecord};
use crate::recovery::{replay, RecoveredState};
use crate::snapshot::NodeSnapshot;

/// One node's stable storage.
#[derive(Debug, Default)]
struct NodeDurable {
    /// The latest installed snapshot, framed, if any.
    snapshot: Option<Vec<u8>>,
    /// Synced log frames (records since the snapshot).
    log: Vec<u8>,
    /// Staged-but-unsynced log frames; lost on crash.
    staged: Vec<u8>,
    /// Records in the synced log.
    log_records: u64,
    /// Records staged.
    staged_records: u64,
    /// Syncs performed (one per fsync batch).
    syncs: u64,
}

/// The durable stores of every node in a scenario.
#[derive(Debug, Default)]
pub struct DurableStore {
    nodes: BTreeMap<u32, NodeDurable>,
}

/// A store handle shared between harness nodes and the scenario driver.
pub type SharedStore = Arc<Mutex<DurableStore>>;

/// Creates a fresh shared store.
#[must_use]
pub fn shared_store() -> SharedStore {
    Arc::new(Mutex::new(DurableStore::default()))
}

impl DurableStore {
    fn slot(&mut self, node: NodeId) -> &mut NodeDurable {
        self.nodes.entry(node.index()).or_default()
    }

    /// Stages one record on `node`'s log. Not durable until
    /// [`DurableStore::sync`].
    pub fn append(&mut self, node: NodeId, record: &LogRecord) {
        let slot = self.slot(node);
        append_frame(&mut slot.staged, record);
        slot.staged_records += 1;
    }

    /// Makes everything staged on `node` durable (the fsync point).
    pub fn sync(&mut self, node: NodeId) {
        let slot = self.slot(node);
        if slot.staged.is_empty() {
            return;
        }
        slot.log.append(&mut slot.staged);
        slot.log_records += slot.staged_records;
        slot.staged_records = 0;
        slot.syncs += 1;
    }

    /// Models the crash: staged bytes are lost, synced state survives.
    pub fn crash(&mut self, node: NodeId) {
        let slot = self.slot(node);
        slot.staged.clear();
        slot.staged_records = 0;
    }

    /// Replays `node`'s synced state (snapshot, then the log suffix).
    ///
    /// # Errors
    ///
    /// Any [`LogError`] from the snapshot or a log frame.
    pub fn recover(&self, node: NodeId) -> Result<RecoveredState, LogError> {
        match self.nodes.get(&node.index()) {
            Some(slot) => replay(slot.snapshot.as_deref(), &slot.log),
            None => Ok(RecoveredState::default()),
        }
    }

    /// Compacts `node`'s durable state: materialises the synced log into
    /// a snapshot, installs it and truncates the log. Staged bytes are
    /// untouched (they sync after the snapshot point).
    ///
    /// # Errors
    ///
    /// Any [`LogError`] from reading the state back.
    pub fn compact(&mut self, node: NodeId) -> Result<(), LogError> {
        let state = self.recover(node)?;
        let snap: NodeSnapshot = state.into_snapshot();
        let mut framed = Vec::new();
        append_frame(&mut framed, &snap);
        let slot = self.slot(node);
        slot.snapshot = Some(framed);
        slot.log.clear();
        slot.log_records = 0;
        Ok(())
    }

    /// `(snapshot bytes, synced log bytes, synced log records)` for
    /// `node` — the replay cost a cold restart pays.
    #[must_use]
    pub fn durable_size(&self, node: NodeId) -> (usize, usize, u64) {
        match self.nodes.get(&node.index()) {
            Some(slot) => (
                slot.snapshot.as_ref().map_or(0, Vec::len),
                slot.log.len(),
                slot.log_records,
            ),
            None => (0, 0, 0),
        }
    }

    /// Syncs performed on `node` so far.
    #[must_use]
    pub fn syncs(&self, node: NodeId) -> u64 {
        self.nodes.get(&node.index()).map_or(0, |s| s.syncs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::DeliveredRec;
    use bytes::Bytes;
    use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId};

    fn delivered(group: &GroupId, n: u64) -> LogRecord {
        LogRecord::Delivered {
            group: group.clone(),
            rec: DeliveredRec {
                sender: NodeId::from_index(0),
                order: DeliveryOrder::Total,
                lamport: n,
                payload: Bytes::from(format!("m{n}")),
            },
        }
    }

    #[test]
    fn staged_writes_die_with_the_crash_synced_ones_survive() {
        let mut store = DurableStore::default();
        let me = NodeId::from_index(0);
        let ga = GroupId::new("ga");
        store.append(
            me,
            &LogRecord::Created {
                group: ga.clone(),
                config: GroupConfig::peer(),
                members: vec![me],
            },
        );
        store.append(me, &delivered(&ga, 1));
        store.sync(me);
        store.append(me, &delivered(&ga, 2)); // staged, never synced
        store.crash(me);
        let state = store.recover(me).unwrap();
        let g = state.groups.get(&ga).unwrap();
        assert_eq!(g.history.len(), 1);
        assert_eq!(g.history[0].lamport, 1);
    }

    #[test]
    fn compaction_preserves_recovery_and_truncates_the_log() {
        let mut store = DurableStore::default();
        let me = NodeId::from_index(0);
        let ga = GroupId::new("ga");
        store.append(
            me,
            &LogRecord::Created {
                group: ga.clone(),
                config: GroupConfig::peer(),
                members: vec![me],
            },
        );
        for n in 1..=5 {
            store.append(me, &delivered(&ga, n));
        }
        store.sync(me);
        let before = store.recover(me).unwrap();
        store.compact(me).unwrap();
        let (snap_bytes, log_bytes, log_records) = store.durable_size(me);
        assert!(snap_bytes > 0);
        assert_eq!((log_bytes, log_records), (0, 0));
        // Post-compaction appends land in the (now short) log.
        store.append(me, &delivered(&ga, 6));
        store.sync(me);
        let after = store.recover(me).unwrap();
        assert_eq!(after.groups[&ga].history.len(), 6);
        assert_eq!(
            &after.groups[&ga].history[..5],
            &before.groups[&ga].history[..]
        );
    }
}
