//! Criterion micro-benchmarks of the substrate: CDR marshalling, the
//! group-communication wire codec, the delivery engine's ordering
//! pipelines, the clock primitives, and directory resolves.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use newtop::directory::{DirReply, DirRequest, GroupRecord};
use newtop_dir::directory::DirectoryState;
use newtop_gcs::clock::{DepsVector, LamportClock};
use newtop_gcs::engine::EngineConfig;
use newtop_gcs::group::{DeliveryOrder, GroupConfig, GroupId, OrderProtocol};
use newtop_gcs::messages::{DataMsg, GcsMessage};
use newtop_gcs::view::ViewId;
use newtop_net::site::NodeId;
use newtop_orb::cdr::{CdrDecode, CdrDecoder, CdrEncode, CdrEncoder};
use newtop_orb::giop::GiopMessage;
use newtop_orb::ior::ObjectKey;

fn n(i: u32) -> NodeId {
    NodeId::from_index(i)
}

fn data_msg(sender: u32, seq: u64, ts: u64) -> DataMsg {
    DataMsg {
        group: GroupId::new("bench"),
        view: ViewId(1),
        sender: n(sender),
        seq,
        lamport: ts,
        order: DeliveryOrder::Total,
        deps: DepsVector::from_pairs([(n(0), seq.saturating_sub(1))]),
        acks: vec![(n(0), seq.saturating_sub(1)), (n(1), seq.saturating_sub(1))],
        payload: Bytes::from_static(&[0u8; 100]),
    }
}

fn bench_cdr(c: &mut Criterion) {
    let mut g = c.benchmark_group("cdr");
    g.throughput(Throughput::Elements(1));
    g.bench_function("encode_mixed", |b| {
        b.iter(|| {
            let mut enc = CdrEncoder::new();
            enc.write_u64(0xDEAD_BEEF);
            enc.write_string("operation-name");
            enc.write_bytes(&[7u8; 100]);
            enc.write_u32(42);
            enc.finish()
        });
    });
    let buf = {
        let mut enc = CdrEncoder::new();
        enc.write_u64(0xDEAD_BEEF);
        enc.write_string("operation-name");
        enc.write_bytes(&[7u8; 100]);
        enc.write_u32(42);
        enc.finish()
    };
    g.bench_function("decode_mixed", |b| {
        b.iter(|| {
            let mut dec = CdrDecoder::new(&buf);
            let a = dec.read_u64().unwrap();
            let s = dec.read_string().unwrap();
            let v = dec.read_bytes().unwrap();
            let x = dec.read_u32().unwrap();
            (a, s, v, x)
        });
    });
    g.finish();
}

fn bench_giop(c: &mut Criterion) {
    let mut g = c.benchmark_group("giop");
    let msg = GiopMessage::Request {
        request_id: 7,
        object_key: ObjectKey::new("newtop-nso"),
        operation: "gcs".to_owned(),
        response_expected: false,
        body: Bytes::from_static(&[1u8; 128]),
    };
    g.bench_function("frame_request", |b| b.iter(|| msg.to_frame()));
    let frame = msg.to_frame();
    g.bench_function("parse_request", |b| {
        b.iter(|| GiopMessage::from_frame(&frame).unwrap())
    });
    let wire = GcsMessage::Data(data_msg(1, 9, 100).into());
    g.bench_function("gcs_data_encode", |b| b.iter(|| wire.to_cdr()));
    let body = wire.to_cdr();
    g.bench_function("gcs_data_decode", |b| {
        b.iter(|| GcsMessage::from_cdr(&body).unwrap())
    });
    g.finish();
}

fn bench_engine_symmetric(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_symmetric");
    g.throughput(Throughput::Elements(100));
    g.bench_function("ingest_and_drain_100", |b| {
        b.iter_batched(
            || {
                EngineConfig {
                    me: n(0),
                    view: ViewId(1),
                    members: vec![n(0), n(1), n(2)],
                    protocol: OrderProtocol::Symmetric,
                }
                .build()
                .unwrap()
            },
            |mut e| {
                for i in 1..=100u64 {
                    let _ = e.ingest_data(data_msg(1, i, i * 2));
                    e.note_null(n(2), i * 2 + 1, 0);
                    let _ = e.drain_deliverable();
                }
                e
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_engine_asymmetric(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_asymmetric");
    g.throughput(Throughput::Elements(100));
    g.bench_function("sequencer_order_100", |b| {
        b.iter_batched(
            || {
                EngineConfig {
                    me: n(0),
                    view: ViewId(1),
                    members: vec![n(0), n(1), n(2)],
                    protocol: OrderProtocol::Asymmetric,
                }
                .build()
                .unwrap()
            },
            |mut e| {
                for i in 1..=100u64 {
                    let _ = e.ingest_data(data_msg(1, i, i * 2));
                    let _ = e.sequencer_poll();
                    let _ = e.drain_deliverable();
                }
                e
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("follower_deliver_100", |b| {
        b.iter_batched(
            || {
                let mut e = EngineConfig {
                    me: n(1),
                    view: ViewId(1),
                    members: vec![n(0), n(1), n(2)],
                    protocol: OrderProtocol::Asymmetric,
                }
                .build()
                .unwrap();
                for i in 1..=100u64 {
                    let _ = e.ingest_data(data_msg(2, i, i * 2));
                }
                e
            },
            |mut e| {
                let entries: Vec<(NodeId, u64)> = (1..=100).map(|i| (n(2), i)).collect();
                e.ingest_order(1, &entries);
                e.drain_deliverable()
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_clocks(c: &mut Criterion) {
    let mut g = c.benchmark_group("clocks");
    g.bench_function("lamport_tick_observe", |b| {
        let mut clock = LamportClock::new();
        b.iter(|| {
            clock.observe(clock.value() + 3);
            clock.tick()
        });
    });
    g.bench_function("deps_merge_and_check", |b| {
        let a = DepsVector::from_pairs((0..8).map(|i| (n(i), u64::from(i) + 1)));
        let other = DepsVector::from_pairs((4..12).map(|i| (n(i), u64::from(i) * 2)));
        b.iter(|| {
            let mut m = a.clone();
            m.merge(&other);
            m.satisfied_by(|q| u64::from(q.index()) * 3)
        });
    });
    g.finish();
}

/// Resolve round trips through one member's table of 64 groups: decode
/// the request, look the name up, encode the reply — the servant-side
/// cost of a cache-miss `bind`.
fn bench_directory(c: &mut Criterion) {
    const RECORDS: usize = 64;
    let mut g = c.benchmark_group("directory");
    g.throughput(Throughput::Elements(1));
    let mut state = DirectoryState::default();
    for i in 0..RECORDS {
        state.apply(GroupRecord {
            name: format!("svc-{i}"),
            config: GroupConfig::request_reply(),
            members: (0..3u32).map(NodeId::from_index).collect(),
            view: ViewId(1),
        });
    }
    let requests: Vec<Bytes> = (0..RECORDS)
        .map(|i| {
            DirRequest::Resolve {
                name: format!("svc-{i}"),
            }
            .to_cdr()
        })
        .collect();
    let mut found = 0u64;
    g.bench_function("resolve_64_records", |b| {
        let mut next = 0usize;
        b.iter(|| {
            let reply = state
                .handle_raw(&requests[next % RECORDS])
                .expect("well-formed request");
            next += 1;
            if matches!(DirReply::from_cdr(&reply), Ok(DirReply::Found { .. })) {
                found += 1;
            }
        });
    });
    assert!(
        found > 0 && found == state.resolves,
        "every resolve must hit ({found} of {} found)",
        state.resolves
    );
    g.finish();
}

criterion_group!(
    benches,
    bench_cdr,
    bench_giop,
    bench_engine_symmetric,
    bench_engine_asymmetric,
    bench_clocks,
    bench_directory
);
criterion_main!(benches);
