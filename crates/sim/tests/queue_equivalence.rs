//! Property test: the calendar queue delivers the exact event order of the
//! binary-heap oracle — same times, same FIFO tie-break — over arbitrary
//! interleaved push/pop sequences.
//!
//! The fleet harness schedules only on the calendar queue; this property
//! is what keeps its timelines equal to those of the binary heap it
//! replaced. The golden fleet fingerprints in
//! `crates/bench/tests/fleet_determinism.rs` were captured while both
//! queues could still drive a fleet run, and matched under either.

use erasmus_sim::{CalendarQueue, HeapEventQueue, SimTime};
use proptest::collection::vec;
use proptest::prelude::*;

/// One step of an interleaved workload: push at a time derived from the
/// draw, or pop.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u64),
    Pop,
}

/// Strategy: (raw nanos draw, shape selector) → Op. The time distributions
/// deliberately cover the calendar queue's structural cases:
/// * dense same-instant bursts (FIFO ties),
/// * in-wheel times (< one revolution ≈ 17.2 s),
/// * far-future overflow times (minutes to hours),
/// * multi-lap aliases (same wheel slot, different lap).
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u64..1 << 44, 0u32..10).prop_map(|(raw, shape)| match shape {
        0..=2 => Op::Pop,
        // Bursty: collapse to one of 8 instants inside ~2 s.
        3 | 4 => Op::Push((raw % 8) * 250_000_000),
        // Uniform in-wheel: anywhere in the first ~17 s.
        5..=7 => Op::Push(raw % 17_000_000_000),
        // Far future: up to ~4.8 hours out — forced through overflow.
        8 => Op::Push(raw),
        // Lap alias: fixed slot, variable lap (wheel span = 2^34 ns).
        _ => Op::Push((5u64 << 24) + (raw % 16) * (1u64 << 34)),
    })
}

proptest! {
    #[test]
    fn calendar_matches_heap_oracle(ops in vec(op_strategy(), 0..600)) {
        let mut calendar: CalendarQueue<u64> = CalendarQueue::new();
        let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut payload = 0u64;
        for op in ops {
            match op {
                Op::Push(nanos) => {
                    let time = SimTime::from_nanos(nanos);
                    calendar.push(time, payload);
                    heap.push(time, payload);
                    payload += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(calendar.pop(), heap.pop());
                }
            }
            prop_assert_eq!(calendar.len(), heap.len());
        }
        // Drain the tails: the full remaining order must agree too.
        loop {
            let a = calendar.pop();
            let b = heap.pop();
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn same_instant_storms_stay_fifo(
        burst in vec(0u64..4, 1..400),
        pop_every in 2u64..6,
    ) {
        // Every push lands on one of at most four instants; the oracle
        // comparison therefore exercises pure sequence-number tie-breaking
        // under drain-time insertion (pops interleaved with pushes at the
        // instant being drained).
        let mut calendar: CalendarQueue<u64> = CalendarQueue::new();
        let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
        for (i, slot) in burst.iter().enumerate() {
            let time = SimTime::from_secs(*slot);
            calendar.push(time, i as u64);
            heap.push(time, i as u64);
            if i as u64 % pop_every == 0 {
                prop_assert_eq!(calendar.pop(), heap.pop());
            }
        }
        loop {
            let a = calendar.pop();
            let b = heap.pop();
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn clear_mid_stream_keeps_backends_aligned(
        before in vec(0u64..20_000_000_000, 0..100),
        after in vec(0u64..20_000_000_000, 0..100),
    ) {
        // A clear (the fleet harness's churn-epoch reset path) must leave
        // both backends in agreeing states: empty, with sequence numbering
        // still monotonic so later pushes order identically.
        let mut calendar: CalendarQueue<u64> = CalendarQueue::new();
        let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut payload = 0u64;
        for nanos in before {
            let time = SimTime::from_nanos(nanos);
            calendar.push(time, payload);
            heap.push(time, payload);
            payload += 1;
        }
        calendar.clear();
        heap.clear();
        prop_assert!(calendar.is_empty());
        prop_assert_eq!(calendar.pop(), None);
        for nanos in after {
            let time = SimTime::from_nanos(nanos);
            calendar.push(time, payload);
            heap.push(time, payload);
            payload += 1;
        }
        loop {
            let a = calendar.pop();
            let b = heap.pop();
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
    }
}
