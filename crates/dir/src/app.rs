//! Hosting the directory on simulated nodes.
//!
//! [`DirectoryApp`] is the [`NsoApp`] that turns a node into a directory
//! member: it answers [`DIR_OPERATION`] requests from a plain ORB
//! servant, replicates staged registrations through the directory's own
//! peer group with total order, and applies records in delivery order so
//! every member's table converges identically.
//!
//! [`register_service`] is the server-side half: one plain invocation
//! carrying a [`DirRequest::Register`] for the service's current view.

use std::time::Duration;

use bytes::Bytes;

use newtop::directory::{DirRequest, GroupRecord, DIR_OBJECT_KEY, DIR_OPERATION};
use newtop::nso::{GroupHandle, Nso, NsoOutput};
use newtop::simnode::NsoApp;
use newtop::tags;
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId};
use newtop_net::sim::Outbox;
use newtop_net::site::NodeId;
use newtop_net::time::SimTime;
use newtop_orb::cdr::{CdrDecode, CdrEncode};
use newtop_orb::ior::ObjectRef;
use newtop_orb::orb::RequestId;
use newtop_orb::servant::ServantError;

use crate::directory::SharedDirectory;

/// The directory group's well-known name. The `#` prefix keeps it out of
/// the service namespace (service names become their group ids).
pub const DIR_GROUP: &str = "#dir";

/// Timer tag for the replication pump.
const PUMP_TAG: u64 = tags::APP_BASE + 7;

/// One directory member: plain-ORB front end, peer-group replication.
pub struct DirectoryApp {
    /// Every directory member (the bootstrap set clients are given).
    pub members: Vec<NodeId>,
    /// The directory group's configuration (total order required).
    pub config: GroupConfig,
    /// The record table, shared with the servant closure.
    pub state: SharedDirectory,
    /// How often staged registrations are flushed into the group.
    pub pump: Duration,
    peer: Option<GroupHandle>,
}

impl DirectoryApp {
    /// Creates a directory member over `members` with a 5 ms pump.
    #[must_use]
    pub fn new(members: Vec<NodeId>, state: SharedDirectory) -> Self {
        DirectoryApp {
            members,
            config: GroupConfig::peer(),
            state,
            pump: Duration::from_millis(5),
            peer: None,
        }
    }

    fn flush_staged(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        let Some(peer) = self.peer.clone() else {
            return;
        };
        let staged = {
            // A panicking writer elsewhere poisons the mutex but leaves
            // the table itself consistent (every mutation is atomic at
            // the record level), so recover the data instead of
            // propagating the panic into the protocol path.
            let mut state = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.take_staged()
        };
        for record in staged {
            let _ = peer.send(nso, record.to_cdr(), DeliveryOrder::Total, now, out);
        }
    }
}

impl NsoApp for DirectoryApp {
    fn on_start(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        let state = self.state.clone();
        nso.register_plain_servant(
            DIR_OBJECT_KEY,
            Box::new(move |op: &str, args: &[u8]| {
                if op != DIR_OPERATION {
                    return Err(ServantError::BadOperation(op.to_owned()));
                }
                state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .handle_raw(args)
                    .map_err(|_| ServantError::User(Bytes::from_static(b"malformed dir request")))
            }),
        );
        let peer = nso
            .create_peer_group(
                GroupId::new(DIR_GROUP),
                self.members.clone(),
                self.config.clone(),
                now,
                out,
            )
            .expect("directory group creation");
        self.peer = Some(peer);
        out.set_timer(self.pump, PUMP_TAG);
    }

    fn on_timer(&mut self, nso: &mut Nso, tag: u64, now: SimTime, out: &mut Outbox) {
        if tag == PUMP_TAG {
            self.flush_staged(nso, now, out);
            out.set_timer(self.pump, PUMP_TAG);
        }
    }

    fn on_output(&mut self, _nso: &mut Nso, output: NsoOutput, _now: SimTime, _out: &mut Outbox) {
        if let NsoOutput::PeerDeliver { group, payload, .. } = output {
            if group.as_str() != DIR_GROUP {
                return;
            }
            if let Ok(record) = GroupRecord::from_cdr(&payload) {
                self.state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .apply(record);
            }
        }
    }
}

/// Registers (or re-registers) a service with the directory: one plain
/// invocation carrying the record to `contact`, any directory member.
/// The reply surfaces as [`NsoOutput::PlainReply`]; callers that care
/// can match the returned [`RequestId`], but registration is idempotent
/// (stale views lose on apply) so fire-and-forget is the normal mode.
pub fn register_service(
    nso: &mut Nso,
    contact: NodeId,
    record: GroupRecord,
    out: &mut Outbox,
) -> RequestId {
    let body = DirRequest::Register { record }.to_cdr();
    nso.plain_invoke(
        &ObjectRef::new(contact, DIR_OBJECT_KEY),
        DIR_OPERATION,
        body,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::shared_directory;
    use newtop_gcs::view::ViewId;

    #[test]
    fn poisoned_state_still_applies_records() {
        // Regression: the state mutex used to be locked with
        // `.expect("directory lock")`, so one panicking writer turned
        // every later delivery into a panic. Poison recovery keeps the
        // member applying records.
        let state = shared_directory();
        let poisoner = state.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the directory lock");
        })
        .join();
        assert!(state.lock().is_err(), "mutex should be poisoned");

        let mut app = DirectoryApp::new(vec![NodeId::from_index(0)], state.clone());
        let mut nso = Nso::new(NodeId::from_index(0));
        let mut out = Outbox::detached(0);
        let record = GroupRecord {
            name: "svc".to_owned(),
            config: GroupConfig::default(),
            members: vec![NodeId::from_index(1)],
            view: ViewId::default(),
        };
        app.on_output(
            &mut nso,
            NsoOutput::PeerDeliver {
                group: GroupId::new(DIR_GROUP),
                sender: NodeId::from_index(0),
                order: DeliveryOrder::Total,
                lamport: 1,
                payload: record.to_cdr(),
            },
            SimTime::ZERO,
            &mut out,
        );
        let applied = state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .records();
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].name, "svc");
    }
}
