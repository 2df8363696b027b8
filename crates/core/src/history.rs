//! Verifier-side device history: the state timeline reconstructed from
//! successive collections, in O(ring capacity) memory per device.
//!
//! ERASMUS's selling point is that the verifier obtains the prover's *entire
//! history* of measurements rather than a single point-in-time snapshot.
//! Early versions of this crate stored that history literally — every entry
//! in an unbounded `BTreeMap` — which capped fleet runs at a few thousand
//! devices. [`DeviceHistory`] now keeps compact state instead:
//!
//! * a fixed-size **ring** of the K most recent entries (the operator-facing
//!   window: spans, gaps, per-entry verdicts),
//! * a **rollup** of lifetime tallies that survive eviction (entry and
//!   verdict counts, first/last timestamps, first-compromise evidence),
//! * a PCR-style **hash chain**: every entry extends a 32-byte digest,
//!   `H_new = SHA256(H_old || t || verdict || collected_at)`, so the entire
//!   timeline authenticates from one digest no matter how many entries have
//!   been evicted.
//!
//! The chain is split in two: [`DeviceHistory::chain_digest`] covers the
//! sealed prefix (entries already evicted from the ring, folded in eviction
//! order) and [`DeviceHistory::head_digest`] covers the whole timeline.
//! Each resident entry carries the running digest of the timeline up to
//! and including it, `running[i] == fold(chain, ring[..=i])`, and the head
//! is the newest running digest (the chain itself when the ring is empty).
//! So every entry is hashed exactly once: an in-order arrival is one
//! extend, and an eviction hashes nothing — by the PCR extend property the
//! evicted entry's running digest *is* the new sealed chain, bit-identical
//! to extending the old chain by it. Out-of-order inserts and verdict
//! downgrades re-fold from the changed entry onwards.
//! [`DeviceHistory::verify_chain`] re-derives every running digest from
//! the chain.
//!
//! [`HistoryMode::Unbounded`] retains every entry (the pre-compaction
//! behaviour, still the default for [`DeviceHistory::new`]);
//! [`HistoryMode::Ring`] caps the resident window.

use std::collections::VecDeque;

use erasmus_crypto::{Digest, Sha256};
use erasmus_sim::{SimDuration, SimTime};

use crate::ids::DeviceId;
use crate::report::{CollectionReport, MeasurementVerdict};

/// One point of the reconstructed timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// When the prover took the measurement.
    pub timestamp: SimTime,
    /// What the verifier concluded about it.
    pub verdict: MeasurementVerdict,
    /// When the verifier learned about it (collection time).
    pub collected_at: SimTime,
}

/// A contiguous run of measurements sharing the same verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistorySpan {
    /// Verdict shared by every measurement in the span.
    pub verdict: MeasurementVerdict,
    /// Timestamp of the first measurement in the span.
    pub start: SimTime,
    /// Timestamp of the last measurement in the span.
    pub end: SimTime,
    /// Number of measurements in the span.
    pub measurements: usize,
}

/// Retention policy for a [`DeviceHistory`]'s resident entry window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryMode {
    /// Keep every entry ever recorded (the original behaviour). Memory
    /// grows linearly with the device's lifetime.
    Unbounded,
    /// Keep only the most recent entries, up to the given capacity; older
    /// entries are sealed into the hash chain and evicted. Memory is
    /// O(capacity) per device regardless of lifetime.
    Ring(usize),
}

impl HistoryMode {
    /// The resident-window capacity, or `None` when unbounded.
    pub fn capacity(self) -> Option<usize> {
        match self {
            HistoryMode::Unbounded => None,
            HistoryMode::Ring(capacity) => Some(capacity),
        }
    }
}

/// Extends a history chain digest by one entry:
/// `SHA256(prev || t_be || verdict_tag || collected_at_be)`.
///
/// `verdict_tag` uses the same 0/1/2 encoding as the snapshot codec
/// (healthy/compromised/forged — the severity order). This is the single
/// fold primitive behind both [`DeviceHistory::chain_digest`] and
/// [`DeviceHistory::head_digest`]; it is exported so external tooling (the
/// snapshot fuzz model, swarm aggregation) can recompute chains from raw
/// wire fields without a `DeviceHistory` in hand.
pub fn extend_digest(
    prev: &[u8; 32],
    timestamp_nanos: u64,
    verdict_tag: u8,
    collected_at_nanos: u64,
) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(prev);
    hasher.update(&timestamp_nanos.to_be_bytes());
    hasher.update(&[verdict_tag]);
    hasher.update(&collected_at_nanos.to_be_bytes());
    hasher.finalize()
}

fn extend_with_entry(prev: &[u8; 32], entry: &HistoryEntry) -> [u8; 32] {
    extend_digest(
        prev,
        entry.timestamp.as_nanos(),
        severity(entry.verdict),
        entry.collected_at.as_nanos(),
    )
}

/// One slot of the resident window: an entry and the running digest of the
/// timeline up to and including it, `fold(chain, ring[..=i])`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Resident {
    pub(crate) entry: HistoryEntry,
    pub(crate) running: [u8; 32],
}

/// Lifetime tallies that survive ring eviction. Every field is monotone
/// under ingestion, which keeps the rollup order-independent where the
/// resident window cannot be.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct HistoryRollup {
    /// Distinct measurements ever recorded (resident + evicted).
    pub(crate) entries: u64,
    /// Entries sealed into the chain and dropped from the ring.
    pub(crate) evictions: u64,
    /// Measurements discarded because they predate the retained window of a
    /// ring that has already evicted (late, reordered deliveries).
    pub(crate) stale_discards: u64,
    /// Lifetime verdict tallies; a worst-verdict downgrade of a resident
    /// entry moves one count between buckets.
    pub(crate) healthy: u64,
    /// See [`HistoryRollup::healthy`].
    pub(crate) compromised: u64,
    /// See [`HistoryRollup::healthy`].
    pub(crate) forged: u64,
    /// Earliest measurement timestamp ever recorded.
    pub(crate) first_timestamp: Option<SimTime>,
    /// Earliest measurement timestamp that ever carried a non-healthy
    /// verdict.
    pub(crate) first_compromise_at: Option<SimTime>,
    /// Earliest collection time at which non-healthy evidence was seen.
    pub(crate) compromise_detected_at: Option<SimTime>,
}

impl HistoryRollup {
    fn verdict_count_mut(&mut self, verdict: MeasurementVerdict) -> &mut u64 {
        match verdict {
            MeasurementVerdict::Healthy => &mut self.healthy,
            MeasurementVerdict::Compromised => &mut self.compromised,
            MeasurementVerdict::Forged => &mut self.forged,
        }
    }

    fn verdict_count(&self, verdict: MeasurementVerdict) -> u64 {
        match verdict {
            MeasurementVerdict::Healthy => self.healthy,
            MeasurementVerdict::Compromised => self.compromised,
            MeasurementVerdict::Forged => self.forged,
        }
    }

    fn note_compromise(&mut self, measured: SimTime, collected: SimTime) {
        self.first_compromise_at = Some(match self.first_compromise_at {
            Some(at) => at.min(measured),
            None => measured,
        });
        self.compromise_detected_at = Some(match self.compromise_detected_at {
            Some(at) => at.min(collected),
            None => collected,
        });
    }
}

/// The reconstructed state timeline of one device, in compact form.
///
/// # Example
///
/// ```
/// use erasmus_core::{history::DeviceHistory, DeviceId, HistoryMode};
///
/// let history = DeviceHistory::with_mode(DeviceId::new(1), HistoryMode::Ring(16));
/// assert!(history.is_empty());
/// assert!(history.first_compromise().is_none());
/// assert!(history.verify_chain());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceHistory {
    pub(crate) device: DeviceId,
    pub(crate) mode: HistoryMode,
    /// Resident window, strictly ascending by timestamp, each entry with
    /// its running digest. In ring mode the allocation never exceeds the
    /// capacity: a full ring evicts before it inserts.
    pub(crate) ring: VecDeque<Resident>,
    /// Digest of the sealed (evicted) prefix, folded in eviction order.
    /// All-zero until the first eviction.
    pub(crate) chain: [u8; 32],
    pub(crate) collections: u64,
    pub(crate) rollup: HistoryRollup,
}

impl DeviceHistory {
    /// Creates an empty, unbounded history for `device`.
    pub fn new(device: DeviceId) -> Self {
        Self::with_mode(device, HistoryMode::Unbounded)
    }

    /// Creates an empty history for `device` under the given retention
    /// mode. A `Ring(0)` capacity is treated as `Ring(1)` — an empty
    /// resident window would make every query blind.
    pub fn with_mode(device: DeviceId, mode: HistoryMode) -> Self {
        let mode = match mode {
            HistoryMode::Ring(capacity) => HistoryMode::Ring(capacity.max(1)),
            HistoryMode::Unbounded => HistoryMode::Unbounded,
        };
        Self {
            device,
            mode,
            ring: VecDeque::new(),
            chain: [0u8; 32],
            collections: 0,
            rollup: HistoryRollup::default(),
        }
    }

    /// The device this history belongs to.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// The retention mode this history was created with.
    pub fn mode(&self) -> HistoryMode {
        self.mode
    }

    /// Number of distinct measurements ever recorded, resident or evicted.
    /// (Identical to the resident count in unbounded mode.)
    pub fn len(&self) -> usize {
        usize::try_from(self.rollup.entries).unwrap_or(usize::MAX)
    }

    /// Whether no measurement has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.rollup.entries == 0
    }

    /// Number of entries currently resident in the ring.
    pub fn resident_len(&self) -> usize {
        self.ring.len()
    }

    /// Number of entries sealed into the chain and evicted from the ring.
    /// Conservation: `evictions() + resident_len() == len()`.
    pub fn evictions(&self) -> u64 {
        self.rollup.evictions
    }

    /// Number of measurements discarded for predating an already-evicted
    /// window (late, reordered deliveries in ring mode).
    pub fn stale_discards(&self) -> u64 {
        self.rollup.stale_discards
    }

    /// Number of collection reports folded in.
    pub fn collections(&self) -> u64 {
        self.collections
    }

    /// Digest of the sealed (evicted) prefix of the timeline. All-zero
    /// until the first eviction.
    pub fn chain_digest(&self) -> &[u8; 32] {
        &self.chain
    }

    /// Digest of the entire timeline: the sealed prefix extended by every
    /// resident entry. This is the device's PCR — it authenticates the
    /// full history in 32 bytes and is invariant under eviction.
    pub fn head_digest(&self) -> &[u8; 32] {
        self.ring
            .back()
            .map_or(&self.chain, |resident| &resident.running)
    }

    /// Re-derives every running digest from the sealed chain and the
    /// resident window and checks each against the stored one, so a
    /// corrupted record anywhere in the window is caught. O(resident
    /// entries).
    pub fn verify_chain(&self) -> bool {
        let mut digest = self.chain;
        self.ring.iter().all(|resident| {
            digest = extend_with_entry(&digest, &resident.entry);
            digest == resident.running
        })
    }

    /// Re-derives the running digests from `index` to the newest entry.
    fn refold_from(&mut self, index: usize) {
        let mut digest = match index.checked_sub(1) {
            Some(previous) => self.ring[previous].running,
            None => self.chain,
        };
        for resident in self.ring.range_mut(index..) {
            digest = extend_with_entry(&digest, &resident.entry);
            resident.running = digest;
        }
    }

    /// Makes room for one more resident entry in a ring that is not full.
    /// Grows like `VecDeque` would, but never past the capacity, so a ring
    /// of K entries ends up allocated at exactly K slots.
    fn reserve_slot(&mut self) {
        if let HistoryMode::Ring(capacity) = self.mode {
            let len = self.ring.len();
            if len == self.ring.capacity() {
                self.ring.reserve_exact(len.max(4).min(capacity - len));
            }
        }
    }

    /// Folds a collection report into the history.
    ///
    /// Measurements already known (same timestamp) keep their existing
    /// verdict unless the new report downgrades them (e.g. a re-collected
    /// measurement now fails verification, which indicates tampering after
    /// the fact).
    ///
    /// Reports about a *different* device are rejected wholesale: nothing is
    /// recorded, [`DeviceHistory::collections`] does not advance, and the
    /// call returns `false`. Mixing devices' timelines would corrupt the
    /// reconstruction (a healthy neighbour could mask a compromise window);
    /// route multi-device fleets through [`crate::VerifierHub`] instead.
    pub fn ingest(&mut self, report: &CollectionReport) -> bool {
        if report.device() != self.device {
            return false;
        }
        self.collections += 1;
        // Provers answer `latest k` newest-first; replay the report oldest-
        // first so a bounded ring never mistakes an in-report older entry
        // for one behind the sealed window. Unbounded histories are order-
        // invariant, so this changes nothing there.
        let mut entries: Vec<HistoryEntry> = report
            .measurements()
            .iter()
            .map(|vm| HistoryEntry {
                timestamp: vm.measurement.timestamp(),
                verdict: vm.verdict,
                collected_at: report.collected_at(),
            })
            .collect();
        entries.sort_by_key(|entry| entry.timestamp);
        for entry in entries {
            self.observe(entry);
        }
        true
    }

    /// Records one verified measurement under the worst-verdict-wins rule
    /// shared by [`DeviceHistory::ingest`] and [`DeviceHistory::merge_from`]:
    /// a known timestamp keeps its verdict unless the incoming one is more
    /// alarming; a fresh timestamp extends the hash chain; in ring mode a
    /// timestamp older than an already-evicted window is counted as a stale
    /// discard and dropped.
    ///
    /// Each change costs one chain extend per running digest it moves: an
    /// in-order arrival extends once, an eviction costs nothing (the
    /// evicted entry's running digest *is* the new sealed chain), and an
    /// out-of-order insert or a downgrade re-folds from the changed entry.
    pub fn observe(&mut self, entry: HistoryEntry) {
        match self
            .ring
            .binary_search_by_key(&entry.timestamp, |resident| resident.entry.timestamp)
        {
            Ok(index) => {
                let resident = &mut self.ring[index].entry;
                let old = resident.verdict;
                if severity(entry.verdict) > severity(old) {
                    resident.verdict = entry.verdict;
                    resident.collected_at = entry.collected_at;
                    *self.rollup.verdict_count_mut(old) -= 1;
                    *self.rollup.verdict_count_mut(entry.verdict) += 1;
                    self.rollup
                        .note_compromise(entry.timestamp, entry.collected_at);
                    self.refold_from(index);
                }
            }
            Err(mut index) => {
                if index == 0 && self.rollup.evictions > 0 && !self.ring.is_empty() {
                    // Ring mode, and the entry predates the retained
                    // window: the chain has already sealed past it.
                    self.rollup.stale_discards += 1;
                    return;
                }
                self.rollup.entries += 1;
                *self.rollup.verdict_count_mut(entry.verdict) += 1;
                self.rollup.first_timestamp = Some(match self.rollup.first_timestamp {
                    Some(at) => at.min(entry.timestamp),
                    None => entry.timestamp,
                });
                if entry.verdict != MeasurementVerdict::Healthy {
                    self.rollup
                        .note_compromise(entry.timestamp, entry.collected_at);
                }
                if self.mode.capacity() == Some(self.ring.len()) {
                    // A full ring evicts its oldest entry before inserting.
                    self.rollup.evictions += 1;
                    if index == 0 {
                        // The arrival is older than every resident entry
                        // (possible only before the first eviction): it is
                        // the one sealed, and every running digest moves.
                        self.chain = extend_with_entry(&self.chain, &entry);
                        self.refold_from(0);
                        return;
                    }
                    let evicted = self.ring.pop_front().expect("a full ring is non-empty");
                    self.chain = evicted.running;
                    index -= 1;
                } else {
                    self.reserve_slot();
                }
                self.ring.insert(
                    index,
                    Resident {
                        entry,
                        running: [0u8; 32],
                    },
                );
                self.refold_from(index);
            }
        }
    }

    /// Merges another history of the *same* device into this one, entry by
    /// entry, using the same worst-verdict-wins rule as
    /// [`DeviceHistory::ingest`]. Collection counts, stale-discard counts
    /// and the monotone rollup minima (first timestamp, first compromise)
    /// are combined; `other`'s resident entries are re-observed under
    /// `self`'s retention mode.
    ///
    /// When `other` has already evicted entries, those entries cannot be
    /// replayed: their lifetime tallies stay with `other`, and chain
    /// equality with a sequentially-ingested history is only guaranteed
    /// while `other` is un-evicted (the fleet runtime never merges two
    /// histories of the same device that both wrapped — devices live on
    /// exactly one shard).
    ///
    /// Returns `false` (and changes nothing) when `other` belongs to a
    /// different device. Used by [`crate::VerifierHub::merge`] to combine the
    /// per-shard hubs of a partitioned fleet run.
    pub fn merge_from(&mut self, other: &DeviceHistory) -> bool {
        if other.device != self.device {
            return false;
        }
        self.collections += other.collections;
        self.rollup.stale_discards += other.rollup.stale_discards;
        if let Some(at) = other.rollup.first_timestamp {
            self.rollup.first_timestamp = Some(match self.rollup.first_timestamp {
                Some(mine) => mine.min(at),
                None => at,
            });
        }
        if let (Some(at), Some(detected)) = (
            other.rollup.first_compromise_at,
            other.rollup.compromise_detected_at,
        ) {
            self.rollup.note_compromise(at, detected);
        }
        for entry in other.entries() {
            self.observe(entry.clone());
        }
        true
    }

    /// Resident entries in timestamp order.
    pub fn entries(&self) -> impl Iterator<Item = &HistoryEntry> {
        self.ring.iter().map(|resident| &resident.entry)
    }

    /// Timestamp of the earliest measurement ever recorded (survives
    /// eviction).
    pub fn first_timestamp(&self) -> Option<SimTime> {
        self.rollup.first_timestamp
    }

    /// Timestamp of the most recent measurement recorded.
    pub fn last_timestamp(&self) -> Option<SimTime> {
        self.ring.back().map(|resident| resident.entry.timestamp)
    }

    /// The timestamp of the earliest measurement showing compromise or
    /// tampering, if any (survives eviction).
    pub fn first_compromise(&self) -> Option<SimTime> {
        self.rollup.first_compromise_at
    }

    /// The time at which the verifier *learned* of the first compromise:
    /// the earliest collection time that carried non-healthy evidence.
    pub fn first_compromise_detected_at(&self) -> Option<SimTime> {
        self.rollup.compromise_detected_at
    }

    /// Detection latency: from the first incriminating measurement to the
    /// collection that delivered it.
    pub fn detection_latency(&self) -> Option<SimDuration> {
        match (self.first_compromise(), self.first_compromise_detected_at()) {
            (Some(measured), Some(collected)) => {
                Some(collected.saturating_duration_since(measured))
            }
            _ => None,
        }
    }

    /// Lifetime number of measurements with a given verdict (survives
    /// eviction; a resident downgrade moves one count between buckets).
    pub fn count(&self, verdict: MeasurementVerdict) -> usize {
        usize::try_from(self.rollup.verdict_count(verdict)).unwrap_or(usize::MAX)
    }

    /// Collapses the resident window into contiguous spans of equal
    /// verdict. Allocation-free: spans are produced lazily off the ring.
    pub fn spans(&self) -> impl Iterator<Item = HistorySpan> + '_ {
        let mut entries = self.entries().peekable();
        std::iter::from_fn(move || {
            let first = entries.next()?;
            let mut span = HistorySpan {
                verdict: first.verdict,
                start: first.timestamp,
                end: first.timestamp,
                measurements: 1,
            };
            while let Some(next) = entries.peek() {
                if next.verdict != span.verdict {
                    break;
                }
                span.end = next.timestamp;
                span.measurements += 1;
                entries.next();
            }
            Some(span)
        })
    }

    /// Largest gap between consecutive resident measurement timestamps, if
    /// at least two are retained. Large gaps relative to `T_M` point at
    /// deleted evidence or an undersized buffer. Allocation-free.
    pub fn largest_gap(&self) -> Option<SimDuration> {
        self.entries()
            .zip(self.entries().skip(1))
            .map(|(earlier, later)| later.timestamp.duration_since(earlier.timestamp))
            .max()
    }
}

/// Orders verdicts by how alarming they are, for the "keep the worst verdict"
/// rule in [`DeviceHistory::ingest`]. Doubles as the chain verdict tag —
/// the same 0/1/2 values the snapshot codec writes.
fn severity(verdict: MeasurementVerdict) -> u8 {
    match verdict {
        MeasurementVerdict::Healthy => 0,
        MeasurementVerdict::Compromised => 1,
        MeasurementVerdict::Forged => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProverConfig;
    use crate::protocol::CollectionRequest;
    use crate::prover::Prover;
    use crate::verifier::Verifier;
    use erasmus_crypto::MacAlgorithm;
    use erasmus_hw::{DeviceKey, DeviceProfile};

    fn provision() -> (Prover, Verifier) {
        let key = DeviceKey::from_bytes([0x44u8; 32]);
        let config = ProverConfig::builder()
            .measurement_interval(SimDuration::from_secs(10))
            .buffer_slots(16)
            .build()
            .expect("valid config");
        let prover = Prover::new(
            DeviceId::new(1),
            DeviceProfile::msp430_8mhz(1024),
            key.clone(),
            config,
        )
        .expect("provisioning");
        let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);
        verifier.learn_reference_image(prover.mcu().app_memory());
        verifier.set_expected_interval(SimDuration::from_secs(10));
        (prover, verifier)
    }

    fn collect_into(
        history: &mut DeviceHistory,
        prover: &mut Prover,
        verifier: &mut Verifier,
        at_secs: u64,
        k: usize,
    ) {
        prover
            .run_until(SimTime::from_secs(at_secs))
            .expect("measurements");
        let response =
            prover.handle_collection(&CollectionRequest::latest(k), SimTime::from_secs(at_secs));
        let report = verifier
            .verify_collection(&response, SimTime::from_secs(at_secs))
            .expect("report");
        assert!(
            history.ingest(&report),
            "report matches the history's device"
        );
    }

    fn healthy_at(secs: u64) -> HistoryEntry {
        HistoryEntry {
            timestamp: SimTime::from_secs(secs),
            verdict: MeasurementVerdict::Healthy,
            collected_at: SimTime::from_secs(secs + 5),
        }
    }

    #[test]
    fn accumulates_and_deduplicates_across_collections() {
        let (mut prover, mut verifier) = provision();
        let mut history = DeviceHistory::new(DeviceId::new(1));
        collect_into(&mut history, &mut prover, &mut verifier, 60, 6);
        // Overlapping second collection re-delivers some measurements.
        collect_into(&mut history, &mut prover, &mut verifier, 120, 12);
        assert_eq!(history.collections(), 2);
        assert_eq!(history.len(), 12); // measurements at 10..120, deduplicated
        assert!(history.first_compromise().is_none());
        assert_eq!(history.count(MeasurementVerdict::Healthy), 12);
        assert_eq!(history.largest_gap(), Some(SimDuration::from_secs(10)));
        assert_eq!(history.spans().count(), 1);
        assert!(history.verify_chain());
        assert_eq!(history.evictions(), 0);
        assert_eq!(history.resident_len(), 12);
    }

    #[test]
    fn compromise_window_is_reconstructed() {
        let (mut prover, mut verifier) = provision();
        let mut history = DeviceHistory::new(DeviceId::new(1));
        collect_into(&mut history, &mut prover, &mut verifier, 60, 6);

        // Persistent implant lands at t = 73 s.
        prover
            .run_until(SimTime::from_secs(73))
            .expect("measurements");
        prover
            .mcu_mut()
            .write_app_memory(0, b"implant")
            .expect("infect");
        collect_into(&mut history, &mut prover, &mut verifier, 120, 6);

        assert_eq!(history.first_compromise(), Some(SimTime::from_secs(80)));
        assert_eq!(
            history.first_compromise_detected_at(),
            Some(SimTime::from_secs(120))
        );
        assert_eq!(
            history.detection_latency(),
            Some(SimDuration::from_secs(40))
        );
        let spans: Vec<HistorySpan> = history.spans().collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].verdict, MeasurementVerdict::Healthy);
        assert_eq!(spans[0].measurements, 7); // t = 10..70
        assert_eq!(spans[1].verdict, MeasurementVerdict::Compromised);
        assert_eq!(spans[1].start, SimTime::from_secs(80));
        assert_eq!(spans[1].end, SimTime::from_secs(120));
    }

    #[test]
    fn wrong_device_reports_are_rejected() {
        let (mut prover, mut verifier) = provision();
        prover
            .run_until(SimTime::from_secs(40))
            .expect("measurements");
        let response =
            prover.handle_collection(&CollectionRequest::latest(4), SimTime::from_secs(40));
        let report = verifier
            .verify_collection(&response, SimTime::from_secs(40))
            .expect("report");

        // The prover is device 1; this history tracks device 2.
        let mut other = DeviceHistory::new(DeviceId::new(2));
        assert!(!other.ingest(&report));
        assert!(other.is_empty(), "rejected report must record nothing");
        assert_eq!(other.collections(), 0, "rejected report must not count");

        // The right history still accepts it.
        let mut own = DeviceHistory::new(DeviceId::new(1));
        assert!(own.ingest(&report));
        assert_eq!(own.len(), 4);
        assert_eq!(own.collections(), 1);
    }

    #[test]
    fn merge_from_combines_same_device_histories() {
        let (mut prover, mut verifier) = provision();
        let mut first = DeviceHistory::new(DeviceId::new(1));
        collect_into(&mut first, &mut prover, &mut verifier, 60, 6);

        let mut second = DeviceHistory::new(DeviceId::new(1));
        collect_into(&mut second, &mut prover, &mut verifier, 120, 6);

        assert!(first.merge_from(&second));
        assert_eq!(first.len(), 12); // t = 10..120, disjoint halves
        assert_eq!(first.collections(), 2);
        assert_eq!(first.largest_gap(), Some(SimDuration::from_secs(10)));
        assert!(first.verify_chain());

        // Device mismatch leaves the target untouched.
        let stranger = DeviceHistory::new(DeviceId::new(7));
        assert!(!first.merge_from(&stranger));
        assert_eq!(first.len(), 12);
        assert_eq!(first.collections(), 2);
    }

    #[test]
    fn empty_history_queries() {
        let history = DeviceHistory::new(DeviceId::new(9));
        assert!(history.is_empty());
        assert_eq!(history.len(), 0);
        assert!(history.spans().next().is_none());
        assert!(history.largest_gap().is_none());
        assert!(history.detection_latency().is_none());
        assert!(history.first_timestamp().is_none());
        assert!(history.last_timestamp().is_none());
        assert_eq!(history.device(), DeviceId::new(9));
        assert_eq!(history.chain_digest(), &[0u8; 32]);
        assert_eq!(history.head_digest(), &[0u8; 32]);
        assert!(history.verify_chain());
    }

    #[test]
    fn worst_verdict_wins_on_reingestion() {
        let (mut prover, mut verifier) = provision();
        let mut history = DeviceHistory::new(DeviceId::new(1));
        collect_into(&mut history, &mut prover, &mut verifier, 40, 4);
        assert_eq!(history.count(MeasurementVerdict::Healthy), 4);

        // Malware later replaces the stored measurement for t = 30 with a
        // forgery; a second collection re-delivers that slot.
        let slot = prover.buffer().slot_for(SimTime::from_secs(30));
        prover.buffer_mut().tamper_replace(
            slot,
            crate::Measurement::from_parts(
                SimTime::from_secs(30),
                [0u8; 32],
                erasmus_crypto::MacTag::new(vec![0u8; 32]),
            ),
        );
        collect_into(&mut history, &mut prover, &mut verifier, 80, 8);
        assert_eq!(history.count(MeasurementVerdict::Forged), 1);
        // The forged verdict replaced the previously healthy one for t = 30.
        let entry = history
            .entries()
            .find(|e| e.timestamp == SimTime::from_secs(30))
            .expect("entry exists");
        assert_eq!(entry.verdict, MeasurementVerdict::Forged);
        // The downgrade rewrote the resident window, so the head must have
        // been refolded over it.
        assert!(history.verify_chain());
    }

    #[test]
    fn ring_evicts_oldest_and_seals_the_chain() {
        let mut ring = DeviceHistory::with_mode(DeviceId::new(3), HistoryMode::Ring(4));
        let mut unbounded = DeviceHistory::new(DeviceId::new(3));
        for secs in (10..=80).step_by(10) {
            ring.observe(healthy_at(secs));
            unbounded.observe(healthy_at(secs));
        }
        assert_eq!(ring.len(), 8, "lifetime count survives eviction");
        assert_eq!(ring.resident_len(), 4);
        assert_eq!(ring.evictions(), 4);
        assert_eq!(
            ring.evictions() + ring.resident_len() as u64,
            ring.len() as u64
        );
        assert_eq!(ring.first_timestamp(), Some(SimTime::from_secs(10)));
        assert_eq!(ring.last_timestamp(), Some(SimTime::from_secs(80)));
        assert_eq!(
            ring.entries().next().map(|e| e.timestamp),
            Some(SimTime::from_secs(50)),
            "resident window holds the most recent K"
        );
        assert!(ring.verify_chain());
        assert_ne!(ring.chain_digest(), &[0u8; 32]);
        // The head authenticates the whole timeline: eviction must not
        // change it, so ring and unbounded heads agree.
        assert_eq!(ring.head_digest(), unbounded.head_digest());
        assert_eq!(unbounded.evictions(), 0);
        assert_eq!(unbounded.chain_digest(), &[0u8; 32]);
    }

    #[test]
    fn ring_discards_stale_arrivals_behind_the_sealed_window() {
        let mut history = DeviceHistory::with_mode(DeviceId::new(4), HistoryMode::Ring(2));
        for secs in [10, 20, 30, 40] {
            history.observe(healthy_at(secs));
        }
        assert_eq!(history.evictions(), 2);
        let head_before = *history.head_digest();
        // t = 15 predates the retained window [30, 40]: sealed history
        // cannot be rewritten, so the arrival is counted and dropped.
        history.observe(healthy_at(15));
        assert_eq!(history.stale_discards(), 1);
        assert_eq!(history.len(), 4, "stale arrivals do not count as entries");
        assert_eq!(history.head_digest(), &head_before);
        assert!(history.verify_chain());
        // A duplicate of a resident entry is still a dedup, not a discard.
        history.observe(healthy_at(30));
        assert_eq!(history.stale_discards(), 1);
        assert_eq!(history.len(), 4);
    }

    #[test]
    fn out_of_order_arrivals_refold_the_head() {
        let mut in_order = DeviceHistory::new(DeviceId::new(5));
        let mut shuffled = DeviceHistory::new(DeviceId::new(5));
        for secs in [10, 20, 30, 40] {
            in_order.observe(healthy_at(secs));
        }
        for secs in [30, 10, 40, 20] {
            shuffled.observe(healthy_at(secs));
        }
        assert_eq!(in_order, shuffled, "same set, same compact state");
        assert!(shuffled.verify_chain());
        assert_eq!(in_order.head_digest(), shuffled.head_digest());
    }

    proptest::proptest! {
        /// A corrupted running digest anywhere in the window, or a
        /// corrupted sealed chain under a non-empty window, fails
        /// `verify_chain`.
        #[test]
        fn verify_chain_catches_any_corrupted_digest(
            arrivals in proptest::collection::vec((0u64..64, 0u8..3), 1..48),
            capacity_selector in 0usize..3,
            byte in 0usize..32,
        ) {
            let capacity = [1, 4, 8][capacity_selector];
            let mut history =
                DeviceHistory::with_mode(DeviceId::new(8), HistoryMode::Ring(capacity));
            for (secs, verdict) in arrivals {
                history.observe(HistoryEntry {
                    verdict: [
                        MeasurementVerdict::Healthy,
                        MeasurementVerdict::Compromised,
                        MeasurementVerdict::Forged,
                    ][usize::from(verdict)],
                    ..healthy_at(secs)
                });
            }
            proptest::prop_assert!(history.verify_chain());
            for index in 0..history.resident_len() {
                let mut corrupted = history.clone();
                corrupted.ring[index].running[byte] ^= 1;
                proptest::prop_assert!(!corrupted.verify_chain(), "running digest {index}");
            }
            let mut corrupted = history.clone();
            corrupted.chain[byte] ^= 1;
            proptest::prop_assert!(!corrupted.verify_chain(), "sealed chain");
        }
    }

    #[test]
    fn full_ring_never_allocates_past_its_capacity() {
        for capacity in [1, 3, 4, 5, 8, 64] {
            let mut history =
                DeviceHistory::with_mode(DeviceId::new(2), HistoryMode::Ring(capacity));
            for secs in 1..=3 * capacity as u64 {
                history.observe(healthy_at(10 * secs));
            }
            assert_eq!(history.resident_len(), capacity);
            assert_eq!(history.ring.capacity(), capacity, "K = {capacity}");
        }
    }

    #[test]
    fn merge_matches_sequential_ingest_chain() {
        let mut sequential = DeviceHistory::with_mode(DeviceId::new(6), HistoryMode::Ring(3));
        let mut left = DeviceHistory::with_mode(DeviceId::new(6), HistoryMode::Ring(3));
        let mut right = DeviceHistory::new(DeviceId::new(6));
        for secs in [10, 20, 30] {
            sequential.observe(healthy_at(secs));
            left.observe(healthy_at(secs));
        }
        for secs in [40, 50] {
            sequential.observe(healthy_at(secs));
            right.observe(healthy_at(secs));
        }
        assert!(left.merge_from(&right));
        assert_eq!(left, sequential);
        assert!(left.verify_chain());
    }
}
