//! Property tests: the bounded ring history against an unbounded oracle.
//!
//! The compact history must be a *lossy view with honest books*, never a
//! different timeline: in-order arrival produces identical lifetime tallies
//! and head digests to the unbounded model, arbitrary arrival keeps every
//! conservation law, and `merge_from` over a shard split reproduces the
//! sequential-ingest state bit for bit (including the hash chain). Style
//! follows `queue_equivalence.rs` in the sim crate: generate arbitrary
//! workloads, drive implementation and oracle side by side.

use erasmus_core::{
    decode_hub_snapshot, encode_hub_snapshot, extend_digest, DeviceHistory, DeviceId, HistoryEntry,
    HistoryMode, MeasurementVerdict, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use erasmus_sim::SimTime;
use proptest::collection::vec;
use proptest::prelude::*;

const VERDICTS: [MeasurementVerdict; 3] = [
    MeasurementVerdict::Healthy,
    MeasurementVerdict::Compromised,
    MeasurementVerdict::Forged,
];

/// The worst-verdict-wins order shared with `DeviceHistory`.
fn rank(verdict: MeasurementVerdict) -> u8 {
    match verdict {
        MeasurementVerdict::Healthy => 0,
        MeasurementVerdict::Compromised => 1,
        MeasurementVerdict::Forged => 2,
    }
}

fn entry(ts_secs: u64, selector: u8) -> HistoryEntry {
    HistoryEntry {
        timestamp: SimTime::from_secs(ts_secs),
        verdict: VERDICTS[usize::from(selector) % VERDICTS.len()],
        collected_at: SimTime::from_secs(ts_secs + 5),
    }
}

/// Arbitrary arrival stream: timestamps collide on purpose (dedup and
/// verdict-upgrade paths) and arrive in any order (stale-discard path).
fn arb_timeline() -> impl Strategy<Value = Vec<HistoryEntry>> {
    vec((0u64..256, any::<u8>()), 0..64)
        .prop_map(|draws| draws.into_iter().map(|(ts, v)| entry(ts, v)).collect())
}

fn lifetime_verdicts(history: &DeviceHistory) -> usize {
    VERDICTS.iter().map(|v| history.count(*v)).sum()
}

fn fold(prev: &[u8; 32], entries: &[HistoryEntry]) -> [u8; 32] {
    entries.iter().fold(*prev, |digest, e| {
        extend_digest(
            &digest,
            e.timestamp.as_nanos(),
            rank(e.verdict),
            e.collected_at.as_nanos(),
        )
    })
}

/// The ring's window and hash chain as first specified: the head is
/// re-folded from the sealed chain on demand, and an eviction extends the
/// chain by the evicted entry. An independent model of what running
/// digests must reproduce bit for bit.
struct ChainModel {
    capacity: usize,
    ring: Vec<HistoryEntry>,
    chain: [u8; 32],
    evictions: u64,
}

impl ChainModel {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ring: Vec::new(),
            chain: [0u8; 32],
            evictions: 0,
        }
    }

    fn observe(&mut self, e: &HistoryEntry) {
        match self
            .ring
            .binary_search_by_key(&e.timestamp, |r| r.timestamp)
        {
            Ok(i) => {
                if rank(e.verdict) > rank(self.ring[i].verdict) {
                    self.ring[i] = e.clone();
                }
            }
            Err(0) if self.evictions > 0 && !self.ring.is_empty() => {}
            Err(i) => {
                self.ring.insert(i, e.clone());
                if self.ring.len() > self.capacity {
                    let evicted = self.ring.remove(0);
                    self.chain = fold(&self.chain, &[evicted]);
                    self.evictions += 1;
                }
            }
        }
    }

    fn head(&self) -> [u8; 32] {
        fold(&self.chain, &self.ring)
    }
}

/// A one-device ring-mode hub snapshot (v2 layout, no dedup flows) written
/// by hand: rollup figures from `history`'s accessors, chain, head and
/// window from `model`.
fn model_snapshot(history: &DeviceHistory, model: &ChainModel) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SNAPSHOT_MAGIC.to_be_bytes());
    out.push(SNAPSHOT_VERSION);
    out.push(1); // ring mode
    out.extend_from_slice(&(model.capacity as u32).to_be_bytes());
    out.extend_from_slice(&[0u8; 24]); // ingested, rejected, duplicates
    out.extend_from_slice(&0u32.to_be_bytes()); // flows
    out.extend_from_slice(&1u32.to_be_bytes()); // devices
    out.extend_from_slice(&history.device().value().to_be_bytes());
    let counters = [
        history.collections(),
        history.len() as u64,
        model.evictions,
        history.stale_discards(),
        history.count(MeasurementVerdict::Healthy) as u64,
        history.count(MeasurementVerdict::Compromised) as u64,
        history.count(MeasurementVerdict::Forged) as u64,
    ];
    for counter in counters {
        out.extend_from_slice(&counter.to_be_bytes());
    }
    match history
        .first_compromise()
        .zip(history.first_compromise_detected_at())
    {
        Some((measured, detected)) => {
            out.push(1);
            out.extend_from_slice(&measured.as_nanos().to_be_bytes());
            out.extend_from_slice(&detected.as_nanos().to_be_bytes());
        }
        None => out.push(0),
    }
    if let Some(first) = history.first_timestamp() {
        out.extend_from_slice(&first.as_nanos().to_be_bytes());
    }
    out.extend_from_slice(&model.chain);
    out.extend_from_slice(&model.head());
    out.extend_from_slice(&(model.ring.len() as u32).to_be_bytes());
    for e in &model.ring {
        out.extend_from_slice(&e.timestamp.as_nanos().to_be_bytes());
        out.extend_from_slice(&e.collected_at.as_nanos().to_be_bytes());
        out.push(rank(e.verdict));
    }
    out
}

proptest! {
    /// In-order, duplicate-free arrival: the ring is exactly the unbounded
    /// oracle with the oldest entries folded into the chain — same lifetime
    /// tallies, same head digest, retained window equal to the oracle's
    /// newest suffix.
    #[test]
    fn in_order_ring_matches_the_unbounded_oracle(
        entries in arb_timeline(),
        capacity in 1usize..8,
    ) {
        let mut entries = entries;
        entries.sort_by_key(|e| e.timestamp);
        entries.dedup_by_key(|e| e.timestamp);
        let device = DeviceId::new(7);
        let mut ring = DeviceHistory::with_mode(device, HistoryMode::Ring(capacity));
        let mut oracle = DeviceHistory::new(device);
        for e in &entries {
            ring.observe(e.clone());
            oracle.observe(e.clone());
        }

        prop_assert_eq!(ring.stale_discards(), 0);
        prop_assert_eq!(ring.len(), oracle.len());
        for verdict in VERDICTS {
            prop_assert_eq!(ring.count(verdict), oracle.count(verdict));
        }
        prop_assert_eq!(ring.first_timestamp(), oracle.first_timestamp());
        prop_assert_eq!(ring.last_timestamp(), oracle.last_timestamp());
        prop_assert_eq!(ring.first_compromise(), oracle.first_compromise());
        prop_assert_eq!(ring.head_digest(), oracle.head_digest());
        prop_assert!(ring.verify_chain());
        prop_assert_eq!(
            ring.evictions() + ring.resident_len() as u64,
            ring.len() as u64,
            "conservation: evictions + resident == entries"
        );

        let tail: Vec<HistoryEntry> = oracle
            .entries()
            .skip(oracle.resident_len() - ring.resident_len())
            .cloned()
            .collect();
        let resident: Vec<HistoryEntry> = ring.entries().cloned().collect();
        prop_assert_eq!(resident, tail, "ring retains the newest suffix");
    }

    /// Arbitrary arrival (shuffled, duplicated): every conservation law
    /// holds, the chain always verifies, and whenever nothing was discarded
    /// as stale the head still matches the unbounded oracle.
    #[test]
    fn arbitrary_arrival_keeps_the_books(
        entries in arb_timeline(),
        capacity in 1usize..8,
    ) {
        let device = DeviceId::new(3);
        let mut ring = DeviceHistory::with_mode(device, HistoryMode::Ring(capacity));
        let mut oracle = DeviceHistory::new(device);
        for e in &entries {
            ring.observe(e.clone());
            oracle.observe(e.clone());
        }

        prop_assert!(ring.verify_chain());
        prop_assert!(oracle.verify_chain());
        prop_assert_eq!(oracle.evictions(), 0);
        prop_assert_eq!(oracle.stale_discards(), 0);
        prop_assert!(ring.resident_len() <= capacity);
        prop_assert_eq!(lifetime_verdicts(&ring), ring.len());
        prop_assert_eq!(
            ring.evictions() + ring.resident_len() as u64,
            ring.len() as u64
        );
        // A bounded ring can only lose distinct timestamps to stale
        // discards, never invent them.
        prop_assert!(ring.len() <= oracle.len());
        prop_assert!(ring.len() as u64 + ring.stale_discards() >= oracle.len() as u64);
        if ring.stale_discards() == 0 {
            prop_assert_eq!(ring.head_digest(), oracle.head_digest());
            prop_assert_eq!(ring.len(), oracle.len());
        }
    }

    /// Shard split: ingest a prefix into a ring, the suffix into an
    /// unbounded sibling (a recovering shard), merge — the result must be
    /// bit-identical to one ring ingesting the whole timeline, hash chain
    /// included.
    #[test]
    fn merge_from_matches_sequential_ingest(
        entries in arb_timeline(),
        capacity in 1usize..8,
        split_selector in 0usize..64,
    ) {
        let mut entries = entries;
        entries.sort_by_key(|e| e.timestamp);
        entries.dedup_by_key(|e| e.timestamp);
        let split = split_selector % (entries.len() + 1);
        let device = DeviceId::new(9);

        let mut sequential = DeviceHistory::with_mode(device, HistoryMode::Ring(capacity));
        for e in &entries {
            sequential.observe(e.clone());
        }

        let mut left = DeviceHistory::with_mode(device, HistoryMode::Ring(capacity));
        for e in &entries[..split] {
            left.observe(e.clone());
        }
        let mut right = DeviceHistory::new(device);
        for e in &entries[split..] {
            right.observe(e.clone());
        }

        prop_assert!(left.merge_from(&right));
        prop_assert_eq!(left, sequential);
    }

    /// Running digests against the chain model, for K in {1, 4, 8}: any
    /// arrival stream (in order or not, with downgrades and stale
    /// discards), optionally split across two rings and merged, leaves the
    /// sealed chain, the head and the window exactly where re-folding puts
    /// them, and the snapshot is byte for byte the one the model writes.
    #[test]
    fn running_digests_match_the_chain_model(
        entries in arb_timeline(),
        capacity_selector in 0usize..3,
        split_selector in 0usize..128,
    ) {
        let capacity = [1, 4, 8][capacity_selector];
        let device = DeviceId::new(11);
        // A split point inside the stream makes the case a merge.
        let split = split_selector.min(entries.len());
        let mut history = DeviceHistory::with_mode(device, HistoryMode::Ring(capacity));
        let mut model = ChainModel::new(capacity);
        for e in &entries[..split] {
            history.observe(e.clone());
            model.observe(e);
        }
        if split < entries.len() {
            let mut other = DeviceHistory::with_mode(device, HistoryMode::Ring(capacity));
            let mut other_model = ChainModel::new(capacity);
            for e in &entries[split..] {
                other.observe(e.clone());
                other_model.observe(e);
            }
            prop_assert!(history.merge_from(&other));
            for e in &other_model.ring {
                model.observe(e);
            }
        }

        prop_assert_eq!(history.chain_digest(), &model.chain);
        prop_assert_eq!(history.head_digest(), &model.head());
        prop_assert_eq!(history.evictions(), model.evictions);
        let resident: Vec<HistoryEntry> = history.entries().cloned().collect();
        prop_assert_eq!(&resident, &model.ring);
        prop_assert!(history.verify_chain());

        let bytes = model_snapshot(&history, &model);
        let restored = decode_hub_snapshot(&bytes).expect("the model's snapshot decodes");
        prop_assert_eq!(restored.history(device), Some(&history));
        prop_assert_eq!(encode_hub_snapshot(&restored), bytes);
    }

    /// Merging two rings with overlapping (or disjoint) retained windows:
    /// the books stay balanced, the chain verifies, and any timestamp
    /// retained on both sides keeps the worse verdict.
    #[test]
    fn merge_across_overlapping_windows_keeps_the_books(
        left_entries in arb_timeline(),
        right_entries in arb_timeline(),
        capacity in 1usize..8,
    ) {
        let device = DeviceId::new(5);
        let mut left = DeviceHistory::with_mode(device, HistoryMode::Ring(capacity));
        for e in &left_entries {
            left.observe(e.clone());
        }
        let mut right = DeviceHistory::with_mode(device, HistoryMode::Ring(capacity));
        for e in &right_entries {
            right.observe(e.clone());
        }
        let entries_before = left.len();

        prop_assert!(left.merge_from(&right));

        prop_assert!(left.verify_chain());
        prop_assert!(left.len() >= entries_before);
        prop_assert!(left.resident_len() <= capacity);
        prop_assert_eq!(lifetime_verdicts(&left), left.len());
        prop_assert_eq!(
            left.evictions() + left.resident_len() as u64,
            left.len() as u64
        );
        for theirs in right.entries() {
            if let Some(mine) = left
                .entries()
                .find(|mine| mine.timestamp == theirs.timestamp)
            {
                prop_assert!(
                    rank(mine.verdict) >= rank(theirs.verdict),
                    "worst verdict wins on the shared window"
                );
            }
        }
    }
}

#[test]
fn merge_from_refuses_a_different_device() {
    let mut left = DeviceHistory::with_mode(DeviceId::new(1), HistoryMode::Ring(4));
    let right = DeviceHistory::new(DeviceId::new(2));
    assert!(!left.merge_from(&right));
}
