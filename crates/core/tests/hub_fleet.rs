//! Fleet-scale exercise of the verifier-side history hub: many devices, many
//! collection rounds, strict per-device isolation — the path where a missing
//! device-ID check in `DeviceHistory::ingest` would silently cross-pollinate
//! timelines — and the property that the struct fold (`verify_collection` +
//! one `ingest` per report) and the frame fold (encoded batch frames through
//! `ingest_sequenced_frame` + `verify_frame_response`) leave identical
//! histories on a hostile fleet.

use erasmus_core::{
    encode_collection_batch_into, CollectionReport, CollectionRequest, CollectionResponse,
    DeviceHistory, DeviceId, HistoryMode, Malware, MalwareBehavior, MeasurementVerdict, Prover,
    ProverConfig, TamperStrategy, Verifier, VerifierHub,
};
use erasmus_crypto::MacAlgorithm;
use erasmus_hw::{DeviceKey, DeviceProfile};
use erasmus_sim::{SimDuration, SimTime};
use proptest::collection::vec;
use proptest::prelude::*;

const INTERVAL: SimDuration = SimDuration::from_secs(10);
const DEVICES: u64 = 32;
const ROUNDS: u64 = 3;
const PER_ROUND: usize = 4;

fn provision(id: u64) -> (Prover, Verifier) {
    let key = DeviceKey::derive(b"hub-fleet-test", id);
    let config = ProverConfig::builder()
        .measurement_interval(INTERVAL)
        .buffer_slots(PER_ROUND)
        .build()
        .expect("valid config");
    let prover = Prover::new(
        DeviceId::new(id),
        DeviceProfile::msp430_8mhz(256),
        key.clone(),
        config,
    )
    .expect("provisioning");
    let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);
    verifier.learn_reference_image(prover.mcu().app_memory());
    verifier.set_expected_interval(INTERVAL);
    (prover, verifier)
}

fn collect(prover: &mut Prover, verifier: &mut Verifier, at: SimTime) -> CollectionReport {
    prover.run_until(at).expect("measurements");
    let response = prover.handle_collection(&CollectionRequest::latest(PER_ROUND), at);
    verifier.verify_collection(&response, at).expect("report")
}

#[test]
fn hub_keeps_per_device_histories_isolated_across_a_fleet() {
    let mut fleet: Vec<(Prover, Verifier)> = (0..DEVICES).map(provision).collect();
    let mut hub = VerifierHub::new();

    let round_span = INTERVAL * PER_ROUND as u64;
    for round in 1..=ROUNDS {
        let horizon = SimTime::ZERO + round_span * round;
        for (prover, verifier) in fleet.iter_mut() {
            assert!(hub.ingest(&collect(prover, verifier, horizon)));
        }
    }

    assert_eq!(hub.len(), DEVICES as usize);
    assert_eq!(hub.ingested(), DEVICES * ROUNDS);
    assert_eq!(hub.rejected(), 0);
    assert_eq!(hub.total_collections(), DEVICES * ROUNDS);
    // Every device owns exactly its own PER_ROUND × ROUNDS measurements; a
    // cross-device leak would inflate one history and starve another.
    assert_eq!(hub.total_entries(), DEVICES * ROUNDS * PER_ROUND as u64);
    for id in 0..DEVICES {
        let history = hub.history(DeviceId::new(id)).expect("tracked");
        assert_eq!(history.device(), DeviceId::new(id));
        assert_eq!(history.len(), ROUNDS as usize * PER_ROUND);
        assert_eq!(history.collections(), ROUNDS);
        assert_eq!(
            history.count(MeasurementVerdict::Healthy),
            ROUNDS as usize * PER_ROUND
        );
        assert_eq!(history.largest_gap(), Some(INTERVAL));
    }
    assert!(hub.all_healthy());
    assert!(hub.compromised_devices().is_empty());
}

#[test]
fn one_compromised_device_does_not_taint_its_neighbours() {
    let mut fleet: Vec<(Prover, Verifier)> = (0..8).map(provision).collect();
    let mut hub = VerifierHub::new();

    // Device 5 picks up a persistent implant before the collection round.
    fleet[5].0.run_until(SimTime::from_secs(15)).expect("run");
    fleet[5]
        .0
        .mcu_mut()
        .write_app_memory(0, b"implant")
        .expect("infect");

    let horizon = SimTime::ZERO + INTERVAL * PER_ROUND as u64;
    for (prover, verifier) in fleet.iter_mut() {
        assert!(hub.ingest(&collect(prover, verifier, horizon)));
    }

    assert_eq!(hub.compromised_devices(), vec![DeviceId::new(5)]);
    assert!(!hub.all_healthy());
    let sick = hub.history(DeviceId::new(5)).expect("tracked");
    assert_eq!(sick.first_compromise(), Some(SimTime::from_secs(20)));
    for id in (0..8).filter(|&id| id != 5) {
        let healthy = hub.history(DeviceId::new(id)).expect("tracked");
        assert!(healthy.first_compromise().is_none(), "device {id} tainted");
        assert_eq!(healthy.count(MeasurementVerdict::Healthy), PER_ROUND);
    }
}

#[test]
fn direct_history_rejects_a_neighbours_report() {
    // The regression the hub protects against: feeding device 1's report
    // into device 0's history must be a no-op, not a silent merge.
    let (mut p0, mut v0) = provision(0);
    let (mut p1, mut v1) = provision(1);
    let at = SimTime::ZERO + INTERVAL * PER_ROUND as u64;
    let own = collect(&mut p0, &mut v0, at);
    let foreign = collect(&mut p1, &mut v1, at);

    let mut history = DeviceHistory::new(DeviceId::new(0));
    assert!(history.ingest(&own));
    assert!(!history.ingest(&foreign));
    assert_eq!(history.len(), PER_ROUND);
    assert_eq!(history.collections(), 1);
}

/// One device's adversary in the fold-equivalence property: the round it is
/// infected in (`None`: never), whether the implant is mobile or
/// persistent, and how it tampers with the measurement store.
#[derive(Debug, Clone, Copy)]
struct Adversary {
    round: Option<u64>,
    mobile: bool,
    tamper: TamperStrategy,
}

fn adversary_strategy() -> impl Strategy<Value = Adversary> {
    (0u64..ROUNDS * 2, any::<bool>(), 0u8..4).prop_map(|(round, mobile, tamper)| Adversary {
        // Half the draws land past the last round: a healthy device.
        round: (round < ROUNDS).then_some(round + 1),
        mobile,
        tamper: match tamper {
            0 => TamperStrategy::None,
            1 => TamperStrategy::ClearBuffer,
            2 => TamperStrategy::DeleteIncriminating,
            _ => TamperStrategy::ForgeReplacements,
        },
    })
}

/// Runs `prover` to the collection instant of `round`, letting `adversary`
/// act mid-round, and returns its collection response.
fn respond(
    prover: &mut Prover,
    adversary: &Adversary,
    round: u64,
    at: SimTime,
) -> CollectionResponse {
    if adversary.round == Some(round) {
        let round_start = at - INTERVAL * PER_ROUND as u64;
        let arrive = round_start + SimDuration::from_secs(15);
        let behavior = if adversary.mobile {
            MalwareBehavior::Mobile {
                dwell: SimDuration::from_secs(12),
            }
        } else {
            MalwareBehavior::Persistent
        };
        let mut malware = Malware::new(behavior, adversary.tamper);
        prover.run_until(arrive).expect("measurements");
        malware.infect(prover, arrive).expect("infect");
        let leave = arrive + SimDuration::from_secs(12);
        prover.run_until(leave).expect("measurements");
        if adversary.mobile {
            malware.depart(prover, leave).expect("depart");
        } else {
            malware.apply_tampering(prover, leave);
        }
    }
    prover.run_until(at).expect("measurements");
    prover.handle_collection(&CollectionRequest::latest(PER_ROUND), at)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn struct_and_frame_folds_agree_on_a_hostile_fleet(
        adversaries in vec(adversary_strategy(), 2..12),
        bursts in vec(1usize..6, 1..8),
        capacity in 0usize..6,
    ) {
        // Capacity 0 selects unbounded retention; 1..=5 rings small enough
        // to evict within the run.
        let mode = match capacity {
            0 => HistoryMode::Unbounded,
            k => HistoryMode::Ring(k),
        };
        let devices = adversaries.len() as u64;
        let mut provers = Vec::new();
        let mut struct_verifiers = Vec::new();
        for id in 0..devices {
            let (prover, verifier) = provision(id);
            provers.push(prover);
            struct_verifiers.push(verifier);
        }
        let mut frame_verifiers = struct_verifiers.clone();
        let mut struct_hub = VerifierHub::with_history(mode);
        let mut frame_hub = VerifierHub::with_history(mode);
        let mut frame = Vec::new();
        let mut sequence = 0u64;
        let mut burst_sizes = bursts.iter().copied().cycle();

        let round_span = INTERVAL * PER_ROUND as u64;
        for round in 1..=ROUNDS {
            let at = SimTime::ZERO + round_span * round;
            let responses: Vec<CollectionResponse> = provers
                .iter_mut()
                .zip(&adversaries)
                .map(|(prover, adversary)| respond(prover, adversary, round, at))
                .collect();
            let mut rest: &[CollectionResponse] = &responses;
            while !rest.is_empty() {
                let size = burst_sizes.next().expect("cycled").min(rest.len());
                let (burst, tail) = rest.split_at(size);
                rest = tail;

                // An emptied buffer verifies to no report on either path.
                let reports: Vec<CollectionReport> = burst
                    .iter()
                    .filter_map(|response| {
                        struct_verifiers[response.device.value() as usize]
                            .verify_collection(response, at)
                            .ok()
                    })
                    .collect();
                for report in &reports {
                    prop_assert!(struct_hub.ingest(report));
                }

                frame.clear();
                encode_collection_batch_into(&mut frame, burst);
                let outcome = frame_hub
                    .ingest_sequenced_frame(7, sequence, &frame, |view| {
                        frame_verifiers[view.device().value() as usize]
                            .verify_frame_response(&view, at)
                            .ok()
                    })
                    .expect("harness frame decodes")
                    .expect("fresh sequence");
                sequence += 1;
                prop_assert_eq!(outcome.responses, burst.len() as u64);
                prop_assert_eq!(outcome.accepted, reports.len() as u64);
            }
        }

        // Only the frame hub has dedup windows, so compare what the folds
        // produced rather than the whole hubs.
        prop_assert_eq!(frame_hub.ingested(), struct_hub.ingested());
        prop_assert_eq!(frame_hub.rejected(), struct_hub.rejected());
        prop_assert_eq!(frame_hub.total_entries(), struct_hub.total_entries());
        prop_assert_eq!(frame_hub.len(), struct_hub.len());
        for id in 0..devices {
            let device = DeviceId::new(id);
            let (framed, folded) = (frame_hub.history(device), struct_hub.history(device));
            prop_assert_eq!(framed, folded);
            prop_assert_eq!(
                framed.map(DeviceHistory::head_digest),
                folded.map(DeviceHistory::head_digest)
            );
            let (frame_v, struct_v) = (&frame_verifiers[id as usize], &struct_verifiers[id as usize]);
            prop_assert_eq!(frame_v.last_collection(), struct_v.last_collection());
        }
        prop_assert_eq!(frame_hub.compromised_devices(), struct_hub.compromised_devices());
    }
}
