//! Criterion micro-benchmarks for the process wire codec: CRC-32 at the
//! sizes the system checksums (a ~140 B job payload, a ~1.35 KB checkpoint,
//! a 64 KiB buffer) and one job frame's encode plus `FrameBuffer` decode —
//! the per-job codec cost every round pays on the master and the worker.

use criterion::{criterion_group, criterion_main, Criterion};
use mw_framework::transport::{wire, Frame, FrameBuffer, FrameKind};
use std::hint::black_box;
use stoch_eval::codec::{crc32, Writer};
use stoch_eval::objective::SampleStream;
use stoch_eval::sampler::GaussianStream;

fn bench_wire(c: &mut Criterion) {
    let bytes: Vec<u8> = (0..64 * 1024u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    for (name, len) in [
        ("crc32_140B", 140),
        ("crc32_1350B", 1350),
        ("crc32_64KiB", 64 * 1024),
    ] {
        let data = &bytes[..len];
        c.bench_function(name, |b| b.iter(|| black_box(crc32(black_box(data)))));
    }

    let mut stream = GaussianStream::new(2.0, 1.0, 7);
    stream.extend(10.0);
    let mut w = Writer::new();
    stream
        .save_state(&mut w)
        .unwrap_or_else(|e| panic!("save_state: {e}"));
    let payload = wire::encode_job("gaussian.v1", 3, 1.5, &w.into_bytes());
    let mut fb = FrameBuffer::new();
    c.bench_function("job_frame_encode_decode", |b| {
        b.iter(|| {
            let frame = Frame::new(FrameKind::Job, 42, payload.clone());
            fb.extend(&frame.encode());
            black_box(fb.try_frame())
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_wire
);
criterion_main!(benches);
