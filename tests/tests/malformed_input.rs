//! Malformed-input corpus: every wire decode boundary must return a
//! typed error, never panic.
//!
//! The NewTop stack has four unmarshalling surfaces fed directly by
//! network input: GIOP frames ([`GiopMessage::from_frame`]), the raw CDR
//! primitive reads ([`CdrDecoder`]), and the `CdrDecode` message roots —
//! [`GcsMessage`] (plus its component types), [`InvMessage`],
//! [`CtrlMessage`], and the IOR types. The durability subsystem adds
//! three more fed by disk or recovery traffic: CRC-framed [`LogRecord`]s
//! ([`read_frame`]), [`NodeSnapshot`]s, and the [`RecoveryMsg`] transfer
//! frames — plus the directory's [`DirRequest`]/[`DirReply`] bodies,
//! which arrive as plain ORB arguments from arbitrary clients. A peer
//! (or a corrupted link, or a half-written log file) can hand any byte
//! string to any of them, so the contract checked here is:
//!
//! * **truncation** — every strict prefix of a valid encoding decodes to
//!   `Err`, not a panic and not a bogus `Ok`;
//! * **corruption** — flipping any single byte of a valid encoding never
//!   panics (it may still decode: payload bytes are opaque);
//! * **garbage** — a fixed adversarial corpus (bad tags, oversized
//!   length prefixes, misleading headers) plus proptest byte soup never
//!   panics, and the targeted entries fail with the expected error;
//! * **resource safety** — a length prefix of `u32::MAX` is rejected by
//!   bound checks before any allocation is sized from it.
//!
//! This is the dynamic counterpart of `newtop-analyze`'s static
//! panic-freedom rule: the analyzer proves the decode call graph uses no
//! unwrap/expect/indexing, this test proves the error paths those sites
//! were rewritten into actually fire.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use newtop::control::CtrlMessage;
use newtop::directory::{DirReply, DirRequest, GroupRecord};
use newtop_dir::harness::{decode_recovery, encode_recovery, RecoveryMsg};
use newtop_dir::log::{append_frame, read_frame, DeliveredRec, LogRecord};
use newtop_dir::snapshot::{GroupSnapshot, NodeSnapshot};
use newtop_gcs::clock::DepsVector;
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId};
use newtop_gcs::messages::{DataMsg, GcsMessage, NullMsg};
use newtop_gcs::view::{View, ViewId};
use newtop_invocation::api::{CallId, InvMessage, ReplyMode};
use newtop_net::site::NodeId;
use newtop_orb::cdr::{CdrDecode, CdrDecoder, CdrEncode, CdrEncoder, CdrError};
use newtop_orb::giop::{GiopMessage, ReplyStatus, SystemException};
use newtop_orb::ior::{GroupObjectRef, ObjectKey, ObjectRef};
use proptest::prelude::*;

/// One decode boundary: feed it bytes, get `Ok(debug-repr)` or
/// `Err(error-string)` — anything but a panic.
type DecodeFn = fn(&[u8]) -> Result<String, String>;

fn via_cdr<T: CdrDecode + std::fmt::Debug>(data: &[u8]) -> Result<String, String> {
    T::from_cdr(data)
        .map(|v| format!("{v:?}"))
        .map_err(|e| e.to_string())
}

fn via_giop(data: &[u8]) -> Result<String, String> {
    GiopMessage::from_frame(data)
        .map(|v| format!("{v:?}"))
        .map_err(|e| e.to_string())
}

/// Drives every primitive read the stack's decoders are built from;
/// errors are the expected outcome on most inputs.
fn via_primitives(data: &[u8]) -> Result<String, String> {
    let mut dec = CdrDecoder::new(data);
    let _ = dec.read_u8();
    let _ = dec.read_bool();
    let _ = dec.read_u16();
    let _ = dec.read_u32();
    let _ = dec.read_u64();
    let _ = dec.read_i32();
    let _ = dec.read_i64();
    let _ = dec.read_f64();
    let _ = dec.read_string();
    let _ = dec.read_bytes();
    let _ = dec.read_seq_len();
    Ok(format!("remaining={}", dec.remaining()))
}

/// The CRC-framed durable-log read boundary: frame header + checksum +
/// CDR payload, all attacker- (or torn-write-) controlled.
fn via_log_frame(data: &[u8]) -> Result<String, String> {
    read_frame::<LogRecord>(data)
        .map(|(v, used)| format!("{v:?}@{used}"))
        .map_err(|e| e.to_string())
}

/// The recovery-transfer frame boundary: a wrong magic is `None` (not
/// recovery traffic), a right magic with a bad body must be `Err`.
fn via_recovery(data: &[u8]) -> Result<String, String> {
    match decode_recovery(data) {
        None => Err("not a recovery frame".to_string()),
        Some(r) => r.map(|v| format!("{v:?}")).map_err(|e| e.to_string()),
    }
}

/// Every network-facing decoder, by name.
fn decoders() -> Vec<(&'static str, DecodeFn)> {
    vec![
        ("GiopMessage::from_frame", via_giop),
        ("CdrDecoder primitives", via_primitives),
        ("GcsMessage", via_cdr::<GcsMessage>),
        ("DataMsg", via_cdr::<DataMsg>),
        ("NullMsg", via_cdr::<NullMsg>),
        ("View", via_cdr::<View>),
        ("ViewId", via_cdr::<ViewId>),
        ("GroupId", via_cdr::<GroupId>),
        ("InvMessage", via_cdr::<InvMessage>),
        ("CtrlMessage", via_cdr::<CtrlMessage>),
        ("CallId", via_cdr::<CallId>),
        ("ObjectKey", via_cdr::<ObjectKey>),
        ("ObjectRef", via_cdr::<ObjectRef>),
        ("GroupObjectRef", via_cdr::<GroupObjectRef>),
        ("LogRecord", via_cdr::<LogRecord>),
        ("DeliveredRec", via_cdr::<DeliveredRec>),
        ("log read_frame", via_log_frame),
        ("GroupSnapshot", via_cdr::<GroupSnapshot>),
        ("NodeSnapshot", via_cdr::<NodeSnapshot>),
        ("GroupRecord", via_cdr::<GroupRecord>),
        ("DirRequest", via_cdr::<DirRequest>),
        ("DirReply", via_cdr::<DirReply>),
        ("decode_recovery", via_recovery),
    ]
}

fn node(i: u32) -> NodeId {
    NodeId::from_index(i)
}

/// A binding-control request for client/server group `cs:5:1` (client
/// 5, server group `replicas` on node 1, open style) whose
/// `GroupConfig` carries the given ordering, liveness and fan-out bytes
/// and a 25 ms time-silence period, written field by field so that a
/// byte no encoder produces can be sent.
fn bind_request_with_config_bytes(ordering: u8, liveness: u8, fanout: u8) -> Bytes {
    let mut enc = CdrEncoder::new();
    enc.write_u8(0); // the BindRequest tag
    GroupId::new("cs:5:1").encode(&mut enc);
    node(5).encode(&mut enc);
    GroupId::new("replicas").encode(&mut enc);
    vec![node(5), node(1)].encode(&mut enc);
    enc.write_bool(false);
    enc.write_u8(ordering);
    enc.write_u8(liveness);
    enc.write_u8(fanout);
    enc.write_u64(25_000);
    enc.finish()
}

fn sample_data_msg() -> DataMsg {
    let mut deps = DepsVector::new();
    deps.set(node(1), 3);
    deps.set(node(2), 7);
    DataMsg {
        group: GroupId::new("replicas"),
        view: ViewId(4),
        sender: node(1),
        seq: 9,
        lamport: 41,
        order: DeliveryOrder::Total,
        deps,
        acks: vec![(node(1), 8), (node(2), 9)],
        payload: Bytes::from_static(b"state delta"),
    }
}

/// A valid encoding of every message shape the stack puts on the wire,
/// paired with the decoder that must reject its mutations gracefully.
fn samples() -> Vec<(&'static str, Bytes, DecodeFn)> {
    let group = GroupId::new("replicas");
    let view = View::new(group.clone(), ViewId(4), vec![node(1), node(2), node(3)]);
    let data = Arc::new(sample_data_msg());
    let call = CallId {
        client: node(5),
        number: 11,
    };
    let mut out: Vec<(&'static str, Bytes, DecodeFn)> = vec![
        (
            "giop-request",
            GiopMessage::Request {
                request_id: 77,
                object_key: ObjectKey::new("nso"),
                operation: "gcs".into(),
                response_expected: false,
                body: Bytes::from_static(b"payload"),
            }
            .to_frame(),
            via_giop,
        ),
        (
            "giop-reply-system-exception",
            GiopMessage::Reply {
                request_id: 78,
                status: ReplyStatus::SystemException(SystemException::ObjectNotExist),
                body: Bytes::new(),
            }
            .to_frame(),
            via_giop,
        ),
        ("view", view.to_cdr(), via_cdr::<View>),
        ("group-id", group.to_cdr(), via_cdr::<GroupId>),
        (
            "object-ref",
            ObjectRef::new(node(2), ObjectKey::new("servant")).to_cdr(),
            via_cdr::<ObjectRef>,
        ),
        (
            "group-object-ref",
            GroupObjectRef::new(vec![
                ObjectRef::new(node(1), ObjectKey::new("a")),
                ObjectRef::new(node(2), ObjectKey::new("b")),
            ])
            .expect("non-empty member list")
            .to_cdr(),
            via_cdr::<GroupObjectRef>,
        ),
        (
            "ctrl-bind-request",
            CtrlMessage::BindRequest {
                group: GroupId::new("cs:alice:replicas"),
                client: node(5),
                server_group: group.clone(),
                members: vec![node(5), node(1), node(2)],
                closed: true,
                config: GroupConfig::request_reply().with_time_silence(Duration::from_millis(50)),
            }
            .to_cdr(),
            via_cdr::<CtrlMessage>,
        ),
    ];

    let gcs_msgs: Vec<(&'static str, GcsMessage)> = vec![
        ("gcs-data", GcsMessage::Data(Arc::clone(&data))),
        (
            "gcs-null",
            GcsMessage::Null(NullMsg {
                group: group.clone(),
                view: ViewId(4),
                sender: node(2),
                lamport: 40,
                last_seq: 6,
                acks: vec![(node(1), 8)],
            }),
        ),
        (
            "gcs-nack",
            GcsMessage::Nack {
                group: group.clone(),
                view: ViewId(4),
                from: node(2),
                sender: node(1),
                from_seq: 3,
                to_seq: 5,
            },
        ),
        (
            "gcs-seq-order",
            GcsMessage::SeqOrder {
                group: group.clone(),
                view: ViewId(4),
                sender: node(1),
                lamport: 44,
                start: 17,
                entries: vec![(node(1), 9), (node(2), 4)],
            },
        ),
        (
            "gcs-order-nack",
            GcsMessage::OrderNack {
                group: group.clone(),
                view: ViewId(4),
                from: node(3),
                from_order_seq: 12,
            },
        ),
        (
            "gcs-join",
            GcsMessage::Join {
                group: group.clone(),
                joiner: node(9),
            },
        ),
        (
            "gcs-leave",
            GcsMessage::Leave {
                group: group.clone(),
                view: ViewId(4),
                leaver: node(3),
            },
        ),
        (
            "gcs-suspect",
            GcsMessage::Suspect {
                group: group.clone(),
                view: ViewId(4),
                from: node(1),
                suspects: vec![node(3)],
                joiners: vec![node(9)],
            },
        ),
        (
            "gcs-propose",
            GcsMessage::Propose {
                group: group.clone(),
                attempt: 2,
                coordinator: node(1),
                candidates: vec![node(1), node(2), node(9)],
                old_view: ViewId(4),
                coord_contig: vec![(node(1), 9), (node(2), 6)],
            },
        ),
        (
            "gcs-state-resp",
            GcsMessage::StateResp {
                group: group.clone(),
                attempt: 2,
                from: node(2),
                contig: vec![(node(1), 9)],
                msgs: vec![Arc::clone(&data)],
            },
        ),
        (
            "gcs-install",
            GcsMessage::Install {
                group: group.clone(),
                attempt: 2,
                view: view.clone(),
                msgs: vec![data],
            },
        ),
    ];
    for (name, msg) in gcs_msgs {
        out.push((name, msg.to_cdr(), via_cdr::<GcsMessage>));
    }

    let inv_msgs: Vec<(&'static str, InvMessage)> = vec![
        (
            "inv-request",
            InvMessage::Request {
                call,
                op: "put".into(),
                args: Bytes::from_static(b"k=v"),
                mode: ReplyMode::Majority,
            },
        ),
        (
            "inv-forwarded",
            InvMessage::Forwarded {
                call,
                op: "put".into(),
                args: Bytes::from_static(b"k=v"),
                mode: ReplyMode::All,
                manager: node(1),
                no_reply: false,
            },
        ),
        (
            "inv-server-reply",
            InvMessage::ServerReply {
                call,
                replier: node(2),
                result: Bytes::from_static(b"ok"),
            },
        ),
        (
            "inv-relayed-reply",
            InvMessage::RelayedReply {
                call,
                replies: vec![
                    (node(1), Bytes::from_static(b"ok")),
                    (node(2), Bytes::new()),
                ],
            },
        ),
        (
            "inv-direct-reply",
            InvMessage::DirectReply {
                call,
                replier: node(1),
                result: Bytes::from_static(b"ok"),
            },
        ),
        (
            "inv-g2g-request",
            InvMessage::G2gRequest {
                origin: GroupId::new("clients"),
                number: 3,
                op: "sum".into(),
                args: Bytes::from_static(b"1,2"),
                mode: ReplyMode::First,
            },
        ),
        (
            "inv-g2g-reply",
            InvMessage::G2gReply {
                origin: GroupId::new("clients"),
                number: 3,
                replies: vec![(node(1), Bytes::from_static(b"3"))],
            },
        ),
    ];
    for (name, msg) in inv_msgs {
        out.push((name, msg.to_cdr(), via_cdr::<InvMessage>));
    }

    // Durability + directory surfaces (PR 9): log records as raw CDR and
    // as CRC-framed log entries, snapshots, directory bodies, and the
    // recovery-transfer frames.
    let record = GroupRecord::from_view("svc", GroupConfig::request_reply(), &view);
    let delivered = DeliveredRec {
        sender: node(1),
        order: DeliveryOrder::Total,
        lamport: 42,
        payload: Bytes::from_static(b"state delta"),
    };
    let log_records: Vec<(&'static str, LogRecord)> = vec![
        (
            "log-created",
            LogRecord::Created {
                group: group.clone(),
                config: GroupConfig::peer(),
                members: vec![node(1), node(2)],
            },
        ),
        (
            "log-delivered",
            LogRecord::Delivered {
                group: group.clone(),
                rec: delivered.clone(),
            },
        ),
        (
            "log-view-installed",
            LogRecord::ViewInstalled {
                group: group.clone(),
                view: view.clone(),
            },
        ),
        (
            "log-dir-record",
            LogRecord::DirRecord {
                record: record.clone(),
            },
        ),
    ];
    for (name, rec) in &log_records {
        out.push((name, rec.to_cdr(), via_cdr::<LogRecord>));
    }
    let mut framed = Vec::new();
    append_frame(&mut framed, &log_records[1].1);
    out.push(("log-frame-delivered", Bytes::from(framed), via_log_frame));
    out.push((
        "node-snapshot",
        NodeSnapshot {
            groups: vec![GroupSnapshot {
                group: group.clone(),
                config: GroupConfig::peer(),
                members_at_create: vec![node(1), node(2), node(3)],
                last_view: Some(view.clone()),
                history: vec![delivered.clone()],
            }],
            dir: vec![record.clone()],
        }
        .to_cdr(),
        via_cdr::<NodeSnapshot>,
    ));
    out.push((
        "dir-request-register",
        DirRequest::Register {
            record: record.clone(),
        }
        .to_cdr(),
        via_cdr::<DirRequest>,
    ));
    out.push((
        "dir-request-resolve",
        DirRequest::Resolve { name: "svc".into() }.to_cdr(),
        via_cdr::<DirRequest>,
    ));
    out.push((
        "dir-reply-found",
        DirReply::Found {
            record: record.clone(),
        }
        .to_cdr(),
        via_cdr::<DirReply>,
    ));
    out.push((
        "dir-reply-notfound",
        DirReply::NotFound { name: "svc".into() }.to_cdr(),
        via_cdr::<DirReply>,
    ));
    out.push((
        "recovery-xfer-request",
        encode_recovery(&RecoveryMsg::XferRequest {
            group: group.clone(),
            floor: 7,
        }),
        via_recovery,
    ));
    out.push((
        "recovery-xfer-chunk",
        encode_recovery(&RecoveryMsg::XferChunk {
            group,
            start: 8,
            records: vec![delivered.clone(), delivered],
            done: true,
        }),
        via_recovery,
    ));
    out
}

#[test]
fn every_strict_prefix_of_a_valid_encoding_errors() {
    for (name, bytes, decode) in samples() {
        // Sanity: the untruncated encoding round-trips.
        assert!(decode(&bytes).is_ok(), "{name}: full encoding must decode");
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len]).is_err(),
                "{name}: truncation to {len}/{} bytes decoded Ok",
                bytes.len()
            );
        }
    }
}

#[test]
fn single_byte_corruption_never_panics() {
    for (name, bytes, decode) in samples() {
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= 0xFF;
            // Ok is acceptable (payload bytes are opaque); the harness
            // turns any panic into a failure of this test.
            let _ = decode(&corrupt);
        }
        let _ = name;
    }
}

#[test]
fn fixed_garbage_corpus_never_panics() {
    let corpus: Vec<Vec<u8>> = vec![
        vec![],
        vec![0],
        vec![0xFF],
        vec![0; 64],
        vec![0xFF; 64],
        vec![0xAA; 7],
        // Maximal length prefixes wherever a count is read first.
        vec![0xFF, 0xFF, 0xFF, 0xFF],
        vec![0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0],
        // Plausible tag followed by nothing.
        vec![3],
        vec![10],
        // GIOP-shaped prefixes with wrong continuations.
        b"GIOP".to_vec(),
        b"GIOPxxxx".to_vec(),
        b"OOPS\x01\x00".to_vec(),
    ];
    for buf in &corpus {
        for (name, decode) in decoders() {
            // Must return, not panic; most entries error but e.g. eight
            // zero bytes are a perfectly valid ViewId.
            let _ = (name, decode(buf));
        }
    }
}

#[test]
fn bad_discriminants_are_typed_errors() {
    // Unknown top-level tags.
    assert!(GcsMessage::from_cdr(&[200]).is_err());
    assert!(InvMessage::from_cdr(&[9]).is_err());
    assert!(CtrlMessage::from_cdr(&[7]).is_err());

    // A binding-control request whose group configuration carries an
    // unknown ordering, liveness or fan-out byte. The hand-written layout
    // is the encoder's: known bytes decode to the request it encodes.
    assert_eq!(
        CtrlMessage::from_cdr(&bind_request_with_config_bytes(1, 1, 0)).unwrap(),
        CtrlMessage::BindRequest {
            group: GroupId::new("cs:5:1"),
            client: node(5),
            server_group: GroupId::new("replicas"),
            members: vec![node(5), node(1)],
            closed: false,
            config: GroupConfig::request_reply(),
        }
    );
    for bytes in [(9, 1, 0), (1, 9, 0), (1, 1, 9)] {
        assert_eq!(
            CtrlMessage::from_cdr(&bind_request_with_config_bytes(bytes.0, bytes.1, bytes.2)),
            Err(CdrError::BadDiscriminant(9)),
            "config bytes {bytes:?}"
        );
    }

    // A DataMsg whose delivery-order code is out of range: valid fields
    // up to the order byte, then 9.
    let mut enc = CdrEncoder::new();
    GroupId::new("g").encode(&mut enc);
    ViewId(1).encode(&mut enc);
    node(1).encode(&mut enc);
    enc.write_u64(1);
    enc.write_u64(1);
    enc.write_u8(9);
    assert!(DataMsg::from_cdr(&enc.finish()).is_err());

    // A Reply frame whose status discriminant is 3: corrupt a valid
    // frame in place. Offset = 4 (magic) + 1 (version) + 1 (type) +
    // 8 (request id) = 14, a big-endian u32.
    let frame = GiopMessage::Reply {
        request_id: 1,
        status: ReplyStatus::NoException,
        body: Bytes::new(),
    }
    .to_frame();
    let mut bad = frame.to_vec();
    bad[14..18].copy_from_slice(&3u32.to_be_bytes());
    assert!(GiopMessage::from_frame(&bad).is_err());

    // An oversized counted length must be rejected by the bound check
    // (LengthOverflow), not fed to an allocator.
    assert!(GroupId::from_cdr(&[0xFF, 0xFF, 0xFF, 0xFF]).is_err());

    // Durability + directory discriminants.
    assert!(LogRecord::from_cdr(&[4]).is_err());
    assert!(DirRequest::from_cdr(&[5]).is_err());
    assert!(DirReply::from_cdr(&[3]).is_err());
    // A DeliveredRec whose delivery-order code is out of range.
    let mut enc = CdrEncoder::new();
    node(1).encode(&mut enc);
    enc.write_u8(9);
    assert!(DeliveredRec::from_cdr(&enc.finish()).is_err());
    // A recovery frame with a good magic and a bad message tag: the
    // magic is 6 bytes, so the discriminant is at offset 6.
    let mut bad = encode_recovery(&RecoveryMsg::XferRequest {
        group: GroupId::new("g"),
        floor: 0,
    })
    .to_vec();
    bad[6] = 9;
    assert!(decode_recovery(&bad).unwrap().is_err());
}

#[test]
fn log_frames_enforce_checksum_and_bounds() {
    let rec = LogRecord::Delivered {
        group: GroupId::new("g"),
        rec: DeliveredRec {
            sender: node(1),
            order: DeliveryOrder::Causal,
            lamport: 3,
            payload: Bytes::from_static(b"x"),
        },
    };
    let mut buf = Vec::new();
    append_frame(&mut buf, &rec);
    let (back, used) = read_frame::<LogRecord>(&buf).expect("intact frame");
    assert_eq!(back, rec);
    assert_eq!(used, buf.len());

    // A single flipped payload bit is a checksum error, not a decode of
    // corrupted content.
    let mut corrupt = buf.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    assert!(matches!(
        read_frame::<LogRecord>(&corrupt),
        Err(newtop_dir::log::LogError::BadCrc { .. })
    ));

    // A truncated checksum (or any partial header) is Truncated.
    assert!(matches!(
        read_frame::<LogRecord>(&buf[..6]),
        Err(newtop_dir::log::LogError::Truncated)
    ));

    // A length prefix of u32::MAX is rejected by the frame cap before
    // any allocation is sized from it.
    let mut oversized = buf;
    oversized[..4].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(matches!(
        read_frame::<LogRecord>(&oversized),
        Err(newtop_dir::log::LogError::Oversized(_))
    ));
}

#[test]
fn nso_counts_and_traces_malformed_bodies() {
    use newtop::nso::Nso;
    use newtop_gcs::{GCS_OPERATION, NSO_OBJECT_KEY};
    use newtop_net::sim::{Outbox, Packet};
    use newtop_net::time::SimTime;

    let mut nso = Nso::new(node(0));
    let mut out = Outbox::detached(0);
    // A well-formed GIOP frame whose GCS body is garbage: the decode
    // failure must surface as a counted, traced drop — never a panic.
    let frame = GiopMessage::Request {
        request_id: 1,
        object_key: ObjectKey::new(NSO_OBJECT_KEY),
        operation: GCS_OPERATION.to_string(),
        response_expected: false,
        body: Bytes::from_static(&[0xFF; 32]),
    }
    .to_frame();
    let pkt = Packet {
        src: node(1),
        dst: node(0),
        payload: frame,
    };
    nso.on_packet(&pkt, SimTime::ZERO, &mut out);
    assert_eq!(nso.metrics().counter("decode.malformed"), 1);
    assert!(nso
        .trace()
        .iter()
        .any(|r| r.event.kind() == "malformed_dropped"));
}

#[test]
fn a_serving_nso_refuses_a_bind_request_with_an_unknown_config() {
    use newtop::nso::Nso;
    use newtop::INV_CTRL_OPERATION;
    use newtop_gcs::NSO_OBJECT_KEY;
    use newtop_invocation::api::{OpenOptimisation, Replication};
    use newtop_net::sim::{Outbox, Packet};
    use newtop_net::time::SimTime;

    let mut nso = Nso::new(node(1));
    let mut out = Outbox::detached(0);
    nso.create_server_group(
        GroupId::new("replicas"),
        vec![node(1)],
        Replication::Active,
        OpenOptimisation::None,
        GroupConfig::request_reply(),
        SimTime::ZERO,
        &mut out,
    )
    .expect("a one-member server group");
    // Client 5 asks node 1 to create `cs:5:1`, first with an unknown
    // fan-out byte, then with a well-formed configuration.
    let ctrl = |nso: &mut Nso, request_id: u64, body: Bytes| -> ReplyStatus {
        let frame = GiopMessage::Request {
            request_id,
            object_key: ObjectKey::new(NSO_OBJECT_KEY),
            operation: INV_CTRL_OPERATION.to_string(),
            response_expected: true,
            body,
        }
        .to_frame();
        let pkt = Packet {
            src: node(5),
            dst: node(1),
            payload: frame,
        };
        let mut out = Outbox::detached(0);
        nso.on_packet(&pkt, SimTime::ZERO, &mut out);
        let sends = out.into_parts().sends;
        assert_eq!(sends.len(), 1, "one reply to the client");
        assert_eq!(sends[0].0, node(5));
        match GiopMessage::from_frame(&sends[0].1) {
            Ok(GiopMessage::Reply {
                request_id: r,
                status,
                ..
            }) if r == request_id => status,
            other => panic!("expected the reply to request {request_id}, got {other:?}"),
        }
    };
    let status = ctrl(&mut nso, 1, bind_request_with_config_bytes(1, 1, 9));
    assert_ne!(status, ReplyStatus::NoException);
    assert_eq!(nso.metrics().counter("decode.malformed"), 1);
    assert!(nso
        .trace()
        .iter()
        .any(|r| r.event.kind() == "malformed_dropped"));
    assert!(nso.view_of(&GroupId::new("cs:5:1")).is_none());

    let status = ctrl(&mut nso, 2, bind_request_with_config_bytes(1, 1, 0));
    assert_eq!(status, ReplyStatus::NoException);
    assert_eq!(nso.metrics().counter("decode.malformed"), 1);
    assert!(nso.view_of(&GroupId::new("cs:5:1")).is_some());
}

#[test]
fn a_malformed_invocation_in_a_monitor_group_is_counted() {
    use newtop::nso::{Nso, NsoOutput};
    use newtop_gcs::{GCS_OPERATION, NSO_OBJECT_KEY};
    use newtop_net::sim::{Outbox, Packet};
    use newtop_net::time::SimTime;

    // Node 0 is a member of origin group `gx`, attached to the monitor
    // group `gz` whose request manager is node 1.
    let (gx, gz) = (GroupId::new("gx"), GroupId::new("gz"));
    let mut nso = Nso::new(node(0));
    let mut out = Outbox::detached(0);
    nso.setup_monitor_group(
        gz.clone(),
        gx.clone(),
        node(1),
        GroupId::new("replicas"),
        vec![node(0), node(1)],
        GroupConfig::request_reply(),
        SimTime::ZERO,
        &mut out,
    )
    .expect("node 0 joins as a caller");
    // The manager's multicasts in `gz`, hand-built: a GCS data message
    // inside a oneway GIOP request to node 0's NSO.
    let mut deliver = |nso: &mut Nso, seq: u64, payload: Bytes| {
        let msg = DataMsg {
            group: gz.clone(),
            view: ViewId(1),
            sender: node(1),
            seq,
            lamport: seq,
            order: DeliveryOrder::Causal,
            deps: DepsVector::new(),
            acks: vec![],
            payload,
        };
        let frame = GiopMessage::Request {
            request_id: seq,
            object_key: ObjectKey::new(NSO_OBJECT_KEY),
            operation: GCS_OPERATION.to_string(),
            response_expected: false,
            body: GcsMessage::Data(Arc::new(msg)).to_cdr(),
        }
        .to_frame();
        let pkt = Packet {
            src: node(1),
            dst: node(0),
            payload: frame,
        };
        nso.on_packet(&pkt, SimTime::ZERO, &mut out);
    };
    deliver(&mut nso, 1, Bytes::from_static(&[0xFF; 32]));
    assert_eq!(nso.metrics().counter("decode.malformed"), 1);
    assert!(nso
        .trace()
        .iter()
        .any(|r| r.event.kind() == "malformed_dropped"));

    // A well-formed reply in the same group reaches the caller: the
    // group's answer to call 1 buffers, and node 0's call 1 completes
    // from it.
    let reply = InvMessage::G2gReply {
        origin: gx.clone(),
        number: 1,
        replies: vec![(node(1), Bytes::from_static(b"r"))],
    };
    deliver(&mut nso, 2, reply.to_cdr());
    assert_eq!(nso.metrics().counter("decode.malformed"), 1);
    nso.take_outputs();
    let mut out = Outbox::detached(0);
    nso.g2g_invoke(
        &gz,
        "op",
        Bytes::new(),
        ReplyMode::All,
        SimTime::ZERO,
        &mut out,
    )
    .expect("the caller is attached");
    assert!(nso
        .take_outputs()
        .iter()
        .any(|o| matches!(o, NsoOutput::G2gComplete { number: 1, .. })));
}

proptest! {
    /// Byte soup into every decoder: no panic, no runaway allocation.
    #[test]
    fn prop_random_bytes_never_panic(
        buf in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        for (_name, decode) in decoders() {
            let _ = decode(&buf);
        }
    }

    /// Random slices of a valid GcsMessage encoding with random
    /// overwrites: decoders must stay total.
    #[test]
    fn prop_mutated_valid_encodings_never_panic(
        which in 0usize..18,
        cut in any::<u16>(),
        pos in any::<u16>(),
        val in any::<u8>(),
    ) {
        let all = samples();
        let (_name, bytes, decode) = &all[which % all.len()];
        let mut buf = bytes.to_vec();
        if !buf.is_empty() {
            let p = pos as usize % buf.len();
            buf[p] = val;
            buf.truncate(1 + cut as usize % buf.len());
        }
        let _ = decode(&buf);
    }
}
