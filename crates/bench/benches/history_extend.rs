//! Per-entry cost of the compact verifier history: bounded ring ingest
//! (ring slot write + rollup update + one SHA-256 extend of the entry's
//! running digest; an eviction hashes nothing) against the unbounded
//! history, which pays the same one extend per entry.
//!
//! Three window shapes — 1, 8 and 64 retained entries — at the arrival
//! pattern the fleet actually produces: strictly increasing timestamps
//! (collections arrive in order per device on a lossless link). `ring/N`
//! holds resident state at N and evicts on every ingest once warm;
//! `unbounded` grows its window without bound. With one extend per entry on
//! both sides the two should run at parity. A separate `extend_digest`
//! benchmark prices the raw PCR-style hash-chain step on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use erasmus_core::MeasurementVerdict;
use erasmus_core::{extend_digest, DeviceHistory, DeviceId, HistoryEntry, HistoryMode};
use erasmus_sim::SimTime;

/// Entries ingested per iteration: enough that the warm-up (filling the
/// window) is noise and the steady-state eviction path dominates.
const STREAM_LEN: u64 = 4_096;

fn entry(sequence: u64) -> HistoryEntry {
    HistoryEntry {
        timestamp: SimTime::from_secs(10 * sequence),
        verdict: MeasurementVerdict::Healthy,
        collected_at: SimTime::from_secs(10 * sequence + 5),
    }
}

fn bench_history_extend(c: &mut Criterion) {
    let mut group = c.benchmark_group("history_extend");
    group.throughput(Throughput::Elements(STREAM_LEN));

    for &capacity in &[1usize, 8, 64] {
        group.bench_with_input(
            BenchmarkId::new("ring", capacity),
            &capacity,
            |b, &capacity| {
                b.iter(|| {
                    let mut history =
                        DeviceHistory::with_mode(DeviceId::new(1), HistoryMode::Ring(capacity));
                    for sequence in 0..STREAM_LEN {
                        history.observe(entry(sequence));
                    }
                    std::hint::black_box(*history.head_digest())
                });
            },
        );
    }

    // The same stream into an unbounded history. There is no capacity
    // axis — it keeps everything — but running it at the same stream
    // length makes the per-entry numbers directly comparable.
    group.bench_function("unbounded", |b| {
        b.iter(|| {
            let mut history = DeviceHistory::new(DeviceId::new(1));
            for sequence in 0..STREAM_LEN {
                history.observe(entry(sequence));
            }
            std::hint::black_box(*history.head_digest())
        });
    });

    // The raw chain step: one SHA-256 over (digest || entry fields). This
    // is the floor for ring ingest at capacity 1 — everything above it is
    // ring bookkeeping.
    group.throughput(Throughput::Elements(1));
    group.bench_function("extend_digest", |b| {
        let mut digest = [0u8; 32];
        let mut sequence = 0u64;
        b.iter(|| {
            let e = entry(sequence);
            sequence += 1;
            digest = extend_digest(
                &digest,
                e.timestamp.as_nanos(),
                0,
                e.collected_at.as_nanos(),
            );
            std::hint::black_box(digest)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_history_extend);
criterion_main!(benches);
