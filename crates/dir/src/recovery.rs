//! Crash recovery: replaying snapshot + log into a usable state.
//!
//! [`replay`] folds a node's durable bytes — the framed
//! [`NodeSnapshot`], if one was installed, followed by every synced [`LogRecord`] — into a
//! [`RecoveredState`]: per group, the configuration to rejoin with, the
//! last installed view (whose members are the rejoin contacts) and the
//! full delivery history. The history length is the group's
//! *contiguous-ack floor*: on a totally ordered stream every member
//! delivers the same prefix, so a rejoining node only needs the suffix
//! beyond its floor — the delta the state-transfer protocol ships.

use std::collections::BTreeMap;

use newtop::directory::GroupRecord;
use newtop_gcs::group::{GroupConfig, GroupId};
use newtop_gcs::view::View;
use newtop_net::site::NodeId;

use crate::log::{read_all, read_frame, DeliveredRec, LogError, LogRecord};
use crate::snapshot::{GroupSnapshot, NodeSnapshot};

/// One group's recovered state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveredGroup {
    /// Configuration to rejoin with.
    pub config: GroupConfig,
    /// Membership known at creation (empty for a join).
    pub members_at_create: Vec<NodeId>,
    /// The last view installed before the crash, if any.
    pub last_view: Option<View>,
    /// Every delivery made before the crash, in delivery order. Its
    /// length is the contiguous-ack floor for delta transfer.
    pub history: Vec<DeliveredRec>,
}

/// Everything a cold-restarting node can reconstruct from disk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveredState {
    /// Per-group state.
    pub groups: BTreeMap<GroupId, RecoveredGroup>,
    /// The directory record table (directory members only).
    pub dir: Vec<GroupRecord>,
    /// Log records replayed beyond the snapshot (the incremental cost a
    /// snapshot saves; EXPERIMENTS.md reports this).
    pub log_records_replayed: u64,
    /// Whether a snapshot seeded the replay.
    pub from_snapshot: bool,
}

impl RecoveredState {
    /// The delta-transfer floor for `group`: deliveries already held.
    #[must_use]
    pub fn floor(&self, group: &GroupId) -> u64 {
        self.groups.get(group).map_or(0, |g| g.history.len() as u64)
    }

    /// Materialises the state as a snapshot (the compaction step).
    #[must_use]
    pub fn into_snapshot(self) -> NodeSnapshot {
        NodeSnapshot {
            groups: self
                .groups
                .into_iter()
                .map(|(group, g)| GroupSnapshot {
                    group,
                    config: g.config,
                    members_at_create: g.members_at_create,
                    last_view: g.last_view,
                    history: g.history,
                })
                .collect(),
            dir: self.dir,
        }
    }

    fn apply(&mut self, record: LogRecord) {
        match record {
            LogRecord::Created {
                group,
                config,
                members,
            } => {
                self.groups
                    .entry(group)
                    .and_modify(|g| {
                        g.config = config.clone();
                    })
                    .or_insert_with(|| RecoveredGroup {
                        config,
                        members_at_create: members,
                        last_view: None,
                        history: Vec::new(),
                    });
            }
            LogRecord::Delivered { group, rec } => {
                if let Some(g) = self.groups.get_mut(&group) {
                    g.history.push(rec);
                }
            }
            LogRecord::ViewInstalled { group, view } => {
                if let Some(g) = self.groups.get_mut(&group) {
                    g.last_view = Some(view);
                }
            }
            LogRecord::DirRecord { record } => {
                match self.dir.iter_mut().find(|r| r.name == record.name) {
                    Some(existing) => {
                        if record.view >= existing.view {
                            *existing = record;
                        }
                    }
                    None => self.dir.push(record),
                }
            }
        }
    }
}

/// Replays a framed snapshot (if any) and a framed log into state.
///
/// # Errors
///
/// Any [`LogError`] from the snapshot frame or a log frame.
pub fn replay(snapshot: Option<&[u8]>, log: &[u8]) -> Result<RecoveredState, LogError> {
    let mut state = RecoveredState::default();
    if let Some(framed) = snapshot {
        let (snap, _) = read_frame::<NodeSnapshot>(framed)?;
        state.from_snapshot = true;
        state.dir = snap.dir;
        for g in snap.groups {
            state.groups.insert(
                g.group.clone(),
                RecoveredGroup {
                    config: g.config,
                    members_at_create: g.members_at_create,
                    last_view: g.last_view,
                    history: g.history,
                },
            );
        }
    }
    for record in read_all::<LogRecord>(log)? {
        state.apply(record);
        state.log_records_replayed += 1;
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::append_frame;
    use bytes::Bytes;
    use newtop_gcs::group::DeliveryOrder;
    use newtop_gcs::view::ViewId;

    #[test]
    fn replay_folds_log_over_snapshot() {
        let ga = GroupId::new("ga");
        let me = NodeId::from_index(0);
        let rec = |n: u64| DeliveredRec {
            sender: me,
            order: DeliveryOrder::Total,
            lamport: n,
            payload: Bytes::from(format!("m{n}")),
        };
        let snap = NodeSnapshot {
            groups: vec![GroupSnapshot {
                group: ga.clone(),
                config: GroupConfig::peer(),
                members_at_create: vec![me],
                last_view: Some(View::new(ga.clone(), ViewId(1), vec![me])),
                history: vec![rec(1), rec(2)],
            }],
            dir: Vec::new(),
        };
        let mut snap_buf = Vec::new();
        append_frame(&mut snap_buf, &snap);
        let mut log_buf = Vec::new();
        append_frame(
            &mut log_buf,
            &LogRecord::Delivered {
                group: ga.clone(),
                rec: rec(3),
            },
        );
        append_frame(
            &mut log_buf,
            &LogRecord::ViewInstalled {
                group: ga.clone(),
                view: View::new(ga.clone(), ViewId(2), vec![me]),
            },
        );
        let state = replay(Some(&snap_buf), &log_buf).unwrap();
        assert!(state.from_snapshot);
        assert_eq!(state.log_records_replayed, 2);
        assert_eq!(state.floor(&ga), 3);
        let g = &state.groups[&ga];
        assert_eq!(g.history.len(), 3);
        assert_eq!(g.last_view.as_ref().unwrap().id(), ViewId(2));
    }

    #[test]
    fn corrupt_log_surfaces_an_error() {
        let ga = GroupId::new("ga");
        let mut log_buf = Vec::new();
        append_frame(
            &mut log_buf,
            &LogRecord::Created {
                group: ga,
                config: GroupConfig::peer(),
                members: Vec::new(),
            },
        );
        let last = log_buf.len() - 1;
        log_buf[last] ^= 0xFF;
        assert!(replay(None, &log_buf).is_err());
    }
}
