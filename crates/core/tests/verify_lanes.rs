//! Property tests: the verifier's 8-lane tag checks against a
//! per-measurement oracle.
//!
//! `Verifier` checks a response's tags eight at a time and pads a ragged
//! last chunk. Neither may be observable: for responses of 1–20
//! measurements (every ragged tail, on one side of a chunk boundary or
//! two), under all three MAC algorithms, with tags flipped or truncated,
//! digests flipped, authentic-but-foreign digests and future timestamps,
//! both `verify_collection` and `verify_frame_response` must return the
//! report an oracle built on the scalar `Measurement::verify_keyed` predicts:
//! every per-measurement verdict, `missing`, freshness and the overall
//! verdict.

use erasmus_core::{
    encode_collection_batch, AttestationVerdict, CollectionReport, CollectionResponse, DeviceId,
    FrameView, Measurement, MeasurementVerdict, MemoryDigest, Verifier,
};
use erasmus_crypto::{KeyedMac, MacAlgorithm, MacTag};
use erasmus_hw::DeviceKey;
use erasmus_sim::{SimDuration, SimTime};
use proptest::collection::vec;
use proptest::prelude::*;

const ALGORITHMS: [MacAlgorithm; 3] = [
    MacAlgorithm::HmacSha256,
    MacAlgorithm::KeyedBlake2s,
    MacAlgorithm::HmacSha1,
];
const INTERVAL: SimDuration = SimDuration::from_secs(10);
const REFERENCE: MemoryDigest = [0xA5; 32];
const DEVICE: DeviceId = DeviceId::new(7);

/// What the oracle predicts for one collection.
#[derive(Debug, PartialEq, Eq)]
struct Expected {
    measurements: Vec<(Measurement, MeasurementVerdict)>,
    verdict: AttestationVerdict,
    missing: usize,
    freshness: SimDuration,
}

impl Expected {
    fn of(report: &CollectionReport) -> Self {
        Self {
            measurements: report
                .measurements()
                .iter()
                .map(|vm| (vm.measurement.clone(), vm.verdict))
                .collect(),
            verdict: report.verdict(),
            missing: report.missing(),
            freshness: report.freshness(),
        }
    }
}

/// The verifier's rules, one measurement at a time, with the scalar MAC.
struct Oracle {
    keyed: KeyedMac,
    reference: Option<MemoryDigest>,
    last_collection: Option<SimTime>,
}

impl Oracle {
    fn verify(&mut self, measurements: &[Measurement], now: SimTime) -> Expected {
        let verdicts: Vec<MeasurementVerdict> = measurements
            .iter()
            .map(|m| {
                if !m.verify_keyed(&self.keyed) || m.timestamp() > now {
                    MeasurementVerdict::Forged
                } else if self.reference.is_some_and(|r| *m.digest() != r) {
                    MeasurementVerdict::Compromised
                } else {
                    MeasurementVerdict::Healthy
                }
            })
            .collect();
        let out_of_order = measurements
            .windows(2)
            .any(|pair| pair[1].timestamp() >= pair[0].timestamp());
        let expected = self.last_collection.map_or(0, |last| {
            (now.saturating_duration_since(last).as_nanos() / INTERVAL.as_nanos()) as usize
        });
        let usable = measurements
            .iter()
            .zip(&verdicts)
            .filter(|(m, verdict)| {
                **verdict != MeasurementVerdict::Forged
                    && self.last_collection.is_none_or(|last| m.timestamp() > last)
            })
            .count();
        let missing = expected.saturating_sub(usable);
        let verdict =
            if out_of_order || missing > 0 || verdicts.contains(&MeasurementVerdict::Forged) {
                AttestationVerdict::TamperingDetected
            } else if verdicts.contains(&MeasurementVerdict::Compromised) {
                AttestationVerdict::CompromiseDetected
            } else {
                AttestationVerdict::AllHealthy
            };
        let newest = measurements.iter().map(Measurement::timestamp).max();
        self.last_collection = Some(now);
        Expected {
            measurements: measurements.iter().cloned().zip(verdicts).collect(),
            verdict,
            missing,
            freshness: newest.map_or(SimDuration::ZERO, |t| now.saturating_duration_since(t)),
        }
    }
}

/// One measurement taken at `at`, then damaged as `mutation` selects
/// (five damage kinds in sixteen; the rest stay honest).
fn measurement(keyed: &KeyedMac, at: SimTime, now: SimTime, mutation: u8) -> Measurement {
    let honest = Measurement::from_digest_keyed(keyed, at, REFERENCE);
    let tag = honest.tag().as_bytes();
    let pick = usize::from(mutation / 16);
    match mutation % 16 {
        // A flipped tag byte.
        0 => {
            let mut flipped = tag.to_vec();
            flipped[pick % tag.len()] ^= 1 << (mutation % 7);
            Measurement::from_parts(at, REFERENCE, MacTag::new(flipped))
        }
        // A flipped digest byte under the old tag.
        1 => {
            let mut digest = REFERENCE;
            digest[pick % digest.len()] ^= 0x80;
            Measurement::from_parts(at, digest, *honest.tag())
        }
        // An authentic measurement of a foreign image.
        2 => Measurement::from_digest_keyed(keyed, at, [mutation; 32]),
        // A truncated (but never empty: the codec rejects those) tag.
        3 => {
            let kept = 1 + pick % (tag.len() - 1);
            Measurement::from_parts(at, REFERENCE, MacTag::new(&tag[..kept]))
        }
        // An authentic measurement from the verifier's future.
        4 => Measurement::from_digest_keyed(
            keyed,
            now + SimDuration::from_nanos(1 + u64::from(mutation)),
            REFERENCE,
        ),
        _ => honest,
    }
}

/// Runs a sequence of collections through the struct path, the frame path
/// and the oracle, each with its own verifier state, and compares them.
fn check_sequence(alg: MacAlgorithm, with_reference: bool, collections: &[(usize, Vec<u8>)]) {
    let key = DeviceKey::derive(b"verify-lanes", DEVICE.value());
    let mut struct_verifier = Verifier::new(key.clone(), alg);
    struct_verifier.set_expected_interval(INTERVAL);
    let mut oracle = Oracle {
        keyed: alg.with_key(key.as_bytes()),
        reference: None,
        last_collection: None,
    };
    if with_reference {
        struct_verifier.set_reference_digest(REFERENCE);
        oracle.reference = Some(REFERENCE);
    }
    let mut frame_verifier = struct_verifier.clone();

    for (round, (len, mutations)) in collections.iter().enumerate() {
        // Collections 10 T_M apart, so the coverage rule sees both
        // complete and short responses.
        let now = SimTime::from_secs(300 + 100 * round as u64);
        // Newest first, one per T_M, ending at the collection time.
        let measurements: Vec<Measurement> = (0..*len)
            .map(|slot| {
                let at = SimTime::from_nanos(now.as_nanos() - slot as u64 * INTERVAL.as_nanos());
                measurement(&oracle.keyed, at, now, mutations[slot % mutations.len()])
            })
            .collect();
        let response = CollectionResponse {
            device: DEVICE,
            measurements,
            prover_time: SimDuration::ZERO,
        };
        let expected = oracle.verify(&response.measurements, now);

        let report = struct_verifier
            .verify_collection(&response, now)
            .expect("non-empty response");
        assert_eq!(
            Expected::of(&report),
            expected,
            "{alg} struct path, len {len}"
        );
        assert_eq!(report.device(), DEVICE);
        assert_eq!(report.collected_at(), now);

        let bytes = encode_collection_batch(std::slice::from_ref(&response));
        let frame = FrameView::parse(&bytes).expect("valid frame");
        let view = frame.responses().next().expect("one response");
        let report = frame_verifier
            .verify_frame_response(&view, now)
            .expect("non-empty response");
        assert_eq!(
            Expected::of(&report),
            expected,
            "{alg} frame path, len {len}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random damage across responses of 1–20 measurements, under every
    /// algorithm, with and without a reference digest, over several
    /// collections so the coverage (`missing`) rule sees a history.
    #[test]
    fn lane_verification_matches_the_scalar_oracle(
        selector in 0usize..6,
        collections in vec((1usize..=20, vec(any::<u8>(), 1..24)), 1..4),
    ) {
        check_sequence(ALGORITHMS[selector % 3], selector >= 3, &collections);
    }
}

/// Every response length from 1 to 20 — every ragged tail — with a single
/// flipped tag in every position: exactly that measurement is forged.
#[test]
fn a_single_bad_tag_is_pinned_to_its_lane_at_every_length() {
    for alg in ALGORITHMS {
        for len in 1..=20usize {
            for bad in 0..len {
                let mutations: Vec<u8> = (0..len)
                    .map(|slot| if slot == bad { 16 } else { 15 })
                    .collect();
                check_sequence(alg, true, &[(len, mutations)]);
            }
        }
    }
}
