//! Criterion bench: L2CAP frame encode/decode throughput.
use btcore::{Cid, Identifier, Psm};
use criterion::{criterion_group, criterion_main, Criterion};
use l2cap::command::{Command, ConnectionRequest};
use l2cap::packet::{parse_signaling, signaling_frame, L2capFrame};

fn bench_codec(c: &mut Criterion) {
    let frame = signaling_frame(
        Identifier(1),
        &Command::ConnectionRequest(ConnectionRequest {
            psm: Psm::SDP,
            scid: Cid(0x0040),
        }),
    );
    let bytes = frame.to_bytes();
    c.bench_function("encode_connection_request_frame", |b| {
        b.iter(|| std::hint::black_box(frame.to_bytes()))
    });
    c.bench_function("decode_connection_request_frame", |b| {
        b.iter(|| {
            let f = L2capFrame::parse(std::hint::black_box(&bytes)).unwrap();
            std::hint::black_box(parse_signaling(&f).unwrap().command())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_millis(600)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_codec
}
criterion_main!(benches);
