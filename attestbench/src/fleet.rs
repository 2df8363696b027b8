//! One shard of the fleet: its provers, their verifiers and a verifier hub,
//! driven round by round through the libraries' public functions.
//!
//! A round is two phases, each run by every shard at once on its own thread:
//! the prove phase (malware events, self-measurements, collections or
//! on-demand exchanges, batch-frame encoding) and the verify phase (frame
//! delivery into the hub with faults injected, on-demand verification, the
//! crash-restore round). Every library call is bracketed by a tracer span.

use erasmus_core::{
    decode_hub_snapshot, encode_collection_batch_into, encode_hub_snapshot, CollectionRequest,
    CollectionResponse, DecodeError, DeviceId, FrameIngest, FrameView, HistoryMode, Malware,
    MalwareBehavior, MeasurementVerdict, OnDemandRequest, OnDemandResponse, Prover, ProverConfig,
    TamperStrategy, Verifier, VerifierHub, MAX_BATCH_RESPONSES,
};
use erasmus_crypto::MacAlgorithm;
use erasmus_hw::{DeviceKey, DeviceProfile};
use erasmus_sim::{Corruption, FaultDraw, NetworkModel, SimTime};

use crate::plan::{self, Infection, Workload, BUFFER_SLOTS, RING_CAPACITY, T_M};
use crate::trace::{Layer, Tracer};

const ALGORITHM: MacAlgorithm = MacAlgorithm::HmacSha256;
/// Round whose per-device spans are recorded (round 0 is a partial window).
const DETAIL_ROUND: u32 = 1;

/// Work and outcome counters of one shard.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub self_measurements: u64,
    pub collections: u64,
    pub frames: u64,
    pub frame_bytes: u64,
    /// Bytes handed to the hub's frame decoder: pristine, duplicated and
    /// structurally damaged copies.
    pub decoded_bytes: u64,
    pub responses_sent: u64,
    pub measurements_sent: u64,
    pub frames_accepted: u64,
    pub responses_ingested: u64,
    pub measurements_verified: u64,
    pub non_healthy: u64,
    pub on_demand: u64,
    pub on_demand_measurements: u64,
    pub replays_rejected: u64,
    pub dropped: u64,
    pub duplicates_injected: u64,
    pub corrupt_structural: u64,
    pub corrupt_payload: u64,
    pub decode_rejects: u64,
    pub tamper_rejects: u64,
    pub snapshot_bytes: u64,
    pub snapshots: u64,
    pub infected: u64,
    pub departed: u64,
    /// Operations whose outcome was wrong (the run is then incorrect).
    pub failures: u64,
    pub first_failure: Option<String>,
}

impl Counters {
    fn fail(&mut self, what: String) {
        self.failures += 1;
        self.first_failure.get_or_insert(what);
    }

    pub fn add(&mut self, other: &Counters) {
        macro_rules! sum {
            ($($field:ident),*) => { $(self.$field += other.$field;)* };
        }
        sum!(
            self_measurements,
            collections,
            frames,
            frame_bytes,
            decoded_bytes,
            responses_sent,
            measurements_sent,
            frames_accepted,
            responses_ingested,
            measurements_verified,
            non_healthy,
            on_demand,
            on_demand_measurements,
            replays_rejected,
            dropped,
            duplicates_injected,
            corrupt_structural,
            corrupt_payload,
            decode_rejects,
            tamper_rejects,
            snapshot_bytes,
            snapshots,
            infected,
            departed,
            failures
        );
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
    }
}

/// An infected device's malware and how far its plan has played out.
struct Infected {
    plan: Infection,
    malware: Malware,
    entered: bool,
    left: bool,
}

impl Infected {
    /// Next pending malware event: infection, then (mobile only) departure.
    fn next_event(&self) -> Option<SimTime> {
        if !self.entered {
            Some(self.plan.at)
        } else if self.left {
            None
        } else {
            self.plan.departs
        }
    }
}

/// Everything one thread owns.
pub struct Shard {
    index: usize,
    base: usize,
    provers: Vec<Prover>,
    verifiers: Vec<Verifier>,
    malware: Vec<Option<Infected>>,
    pub hub: VerifierHub,
    pub tracer: Tracer,
    pub counters: Counters,
    responses: Vec<CollectionResponse>,
    frames: Vec<Vec<u8>>,
    frames_used: usize,
    on_demand: Vec<(usize, OnDemandRequest, OnDemandResponse)>,
    frame_seq: u64,
}

impl Shard {
    /// Provisions the shard's devices: per device a derived key, a prover
    /// holding the generated image, and a verifier that learned the image's
    /// reference digest.
    pub fn provision(
        workload: &Workload,
        seed: u64,
        index: usize,
        images: &[u8],
        mut tracer: Tracer,
    ) -> Result<Shard, String> {
        let range = workload.shard_range(index);
        let master = plan::master_secret(seed);
        let mut provers = Vec::with_capacity(range.len());
        let mut verifiers = Vec::with_capacity(range.len());
        tracer.begin(Layer::Setup);
        for device in range.clone() {
            let image = &images[device * workload.image_bytes..(device + 1) * workload.image_bytes];
            let key = tracer.span(Layer::HwKeyDerive, || {
                DeviceKey::derive(&master, device as u64)
            });
            let prover = tracer.span(Layer::ProverNew, || {
                let config = ProverConfig::builder()
                    .mac_algorithm(ALGORITHM)
                    .measurement_interval(T_M)
                    .buffer_slots(BUFFER_SLOTS)
                    .phase_offset(plan::phase(seed, device))
                    .build()?;
                Prover::new(
                    DeviceId::new(device as u64),
                    DeviceProfile::msp430_8mhz(workload.image_bytes),
                    key.clone(),
                    config,
                )
            });
            let mut prover =
                prover.map_err(|err| format!("device {device}: provisioning failed: {err}"))?;
            tracer
                .span(Layer::ProverLoadImage, || {
                    prover.mcu_mut().write_app_memory(0, image)
                })
                .map_err(|err| format!("device {device}: image load failed: {err}"))?;
            let mut verifier = tracer.span(Layer::VerifierNew, || {
                let mut verifier = Verifier::new(key, ALGORITHM);
                verifier.set_expected_interval(T_M);
                verifier
            });
            tracer.span(Layer::VerifierLearnReference, || {
                verifier.learn_reference_image(image)
            });
            provers.push(prover);
            verifiers.push(verifier);
        }
        tracer.end();
        let malware = if workload.hostile.is_some() {
            range
                .clone()
                .map(|device| {
                    plan::infection(workload, seed, device).map(|plan| {
                        let behavior = match plan.departs {
                            Some(departs) => MalwareBehavior::Mobile {
                                dwell: departs.duration_since(plan.at),
                            },
                            None => MalwareBehavior::Persistent,
                        };
                        let tamper = if plan.forges {
                            TamperStrategy::ForgeReplacements
                        } else {
                            TamperStrategy::None
                        };
                        Infected {
                            plan,
                            malware: Malware::new(behavior, tamper),
                            entered: false,
                            left: false,
                        }
                    })
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok(Shard {
            index,
            base: range.start,
            provers,
            verifiers,
            malware,
            hub: VerifierHub::with_history(HistoryMode::Ring(RING_CAPACITY)),
            tracer,
            counters: Counters::default(),
            responses: Vec::new(),
            frames: Vec::new(),
            frames_used: 0,
            on_demand: Vec::new(),
            frame_seq: 0,
        })
    }

    /// Prove phase of `round`: every device measures what is due by the
    /// collection instant, then answers a collection (or an on-demand
    /// request), and the answers are encoded into batch frames.
    pub fn prove(&mut self, workload: &Workload, seed: u64, round: u32, link: &NetworkModel) {
        let at = workload.collection_at(round);
        self.tracer.set_group(round, round == DETAIL_ROUND);
        self.tracer.begin(Layer::PhaseProve);
        self.responses.clear();
        self.on_demand.clear();
        let request = CollectionRequest::latest(BUFFER_SLOTS);
        for local in 0..self.provers.len() {
            let device = self.base + local;
            self.measure_until(local, at);
            if plan::on_demand(workload, seed, device, round) {
                self.exchange_on_demand(local, at);
                continue;
            }
            if workload.hostile.is_some() {
                let delivery = self.tracer.span(Layer::SimNetwork, || {
                    link.sample(device as u64, u64::from(round))
                });
                if !delivery.is_delivered() {
                    self.counters.dropped += 1;
                    continue;
                }
            }
            let prover = &mut self.provers[local];
            let response = self.tracer.span(Layer::ProverHandleCollection, || {
                prover.handle_collection(&request, at)
            });
            self.counters.collections += 1;
            self.responses.push(response);
        }
        self.frames_used = 0;
        for chunk in self.responses.chunks(MAX_BATCH_RESPONSES) {
            if self.frames_used == self.frames.len() {
                self.frames.push(Vec::new());
            }
            let frame = &mut self.frames[self.frames_used];
            frame.clear();
            self.tracer.span(Layer::EncodingEncodeBatch, || {
                encode_collection_batch_into(frame, chunk)
            });
            self.frames_used += 1;
            self.counters.frames += 1;
            self.counters.frame_bytes += frame.len() as u64;
            self.counters.responses_sent += chunk.len() as u64;
            self.counters.measurements_sent += chunk
                .iter()
                .map(|response| response.measurements.len() as u64)
                .sum::<u64>();
        }
        self.tracer.end();
    }

    /// Takes every measurement due on device `local` up to `at`, playing
    /// its malware events in time order between them.
    fn measure_until(&mut self, local: usize, at: SimTime) {
        let prover = &mut self.provers[local];
        let mut infected = self.malware.get_mut(local).and_then(Option::as_mut);
        loop {
            let due = prover.next_measurement_due();
            if let Some(infected) = infected.as_deref_mut() {
                if let Some(event) = infected.next_event().filter(|&t| t <= at && t <= due) {
                    let counters = &mut self.counters;
                    let outcome = self.tracer.span(Layer::MalwareEvent, || {
                        if infected.entered {
                            infected.left = true;
                            counters.departed += 1;
                            infected.malware.depart(prover, event)
                        } else {
                            infected.entered = true;
                            counters.infected += 1;
                            infected.malware.infect(prover, event)
                        }
                    });
                    if let Err(err) = outcome {
                        self.counters.fail(format!(
                            "device {}: malware event failed: {err}",
                            self.base + local
                        ));
                    }
                    continue;
                }
            }
            if due > at {
                break;
            }
            match self
                .tracer
                .span(Layer::ProverSelfMeasure, || prover.self_measure(due))
            {
                Ok(_) => self.counters.self_measurements += 1,
                Err(err) => {
                    self.counters.fail(format!(
                        "device {}: self-measurement failed: {err}",
                        self.base + local
                    ));
                    break;
                }
            }
        }
        // Persistent forging malware replaces its evidence before every
        // collection; mobile malware does so when it leaves.
        if let Some(infected) = infected {
            if infected.entered && infected.plan.forges && infected.plan.departs.is_none() {
                self.tracer.span(Layer::MalwareEvent, || {
                    infected.malware.apply_tampering(prover, at)
                });
            }
        }
    }

    /// ERASMUS+OD exchange: an authenticated request, the prover's fresh
    /// measurement plus history, and a replay of the same request that the
    /// prover must refuse.
    fn exchange_on_demand(&mut self, local: usize, at: SimTime) {
        let device = self.base + local;
        let verifier = &mut self.verifiers[local];
        let prover = &mut self.provers[local];
        let request = self.tracer.span(Layer::VerifierMakeOnDemand, || {
            verifier.make_on_demand_request(BUFFER_SLOTS, at)
        });
        let answer = self.tracer.span(Layer::ProverHandleOnDemand, || {
            prover.handle_on_demand(&request, at)
        });
        let replay = self.tracer.span(Layer::ProverHandleOnDemand, || {
            prover.handle_on_demand(&request, at)
        });
        self.counters.on_demand += 1;
        match answer {
            Ok(response) => {
                self.counters.self_measurements += 1;
                self.on_demand.push((local, request, response));
            }
            Err(err) => self
                .counters
                .fail(format!("device {device}: on-demand request refused: {err}")),
        }
        match replay {
            Err(_) => self.counters.replays_rejected += 1,
            Ok(_) => self.counters.fail(format!(
                "device {device}: replayed on-demand request accepted"
            )),
        }
    }

    /// Verify phase of `round`: delivers the encoded frames into the hub
    /// (with the seeded corruptions and duplicates), verifies the on-demand
    /// answers and, on the crash round, restores the hub from a snapshot.
    pub fn verify(&mut self, workload: &Workload, round: u32, link: &NetworkModel) {
        let at = workload.collection_at(round);
        self.tracer.begin(Layer::PhaseVerify);
        let flow = self.index as u64;
        for frame in 0..self.frames_used {
            let seq = self.frame_seq;
            self.frame_seq += 1;
            let faults = if workload.hostile.is_some() {
                self.tracer
                    .span(Layer::SimNetwork, || link.sample_faults(flow, seq))
            } else {
                FaultDraw::CLEAN
            };
            if let Some(corruption) = faults.corrupt {
                self.deliver_corrupt(frame, flow, seq, corruption, at);
            }
            self.deliver(frame, flow, seq, at);
            if faults.duplicate.is_some() {
                self.deliver_echo(frame, flow, seq);
            }
        }
        for (local, request, response) in std::mem::take(&mut self.on_demand) {
            let verifier = &mut self.verifiers[local];
            let report = self.tracer.span(Layer::VerifierVerifyOnDemand, || {
                verifier.verify_on_demand(&request, &response, at)
            });
            match report {
                Ok(report) => {
                    self.counters.on_demand_measurements += report.measurements().len() as u64;
                    let hub = &mut self.hub;
                    if !self
                        .tracer
                        .span(Layer::HubIngestReport, || hub.ingest(&report))
                    {
                        self.counters.fail(format!(
                            "device {}: hub refused on-demand report",
                            self.base + local
                        ));
                    }
                }
                Err(err) => self.counters.fail(format!(
                    "device {}: on-demand answer failed verification: {err}",
                    self.base + local
                )),
            }
        }
        if workload
            .hostile
            .is_some_and(|hostile| hostile.crash_after_round == round)
        {
            self.crash_restore();
        }
        self.tracer.end();
    }

    /// Feeds a pristine frame through `ingest_sequenced_frame`, verifying
    /// each response in the callback. The time from the call to the first
    /// callback and between callbacks is the hub's decode, the time inside
    /// callbacks the verifier's, and the time after the last callback the
    /// hub's fold of the reports into the device histories.
    fn deliver(&mut self, frame: usize, flow: u64, seq: u64, at: SimTime) {
        let Shard {
            base,
            verifiers,
            hub,
            tracer,
            counters,
            frames,
            ..
        } = self;
        let base = *base;
        counters.decoded_bytes += frames[frame].len() as u64;
        let start = if tracer.is_on() { tracer.now() } else { 0 };
        tracer.begin_at(Layer::HubIngestFrame, start);
        let mut mark = start;
        let mut callbacks = 0u64;
        let outcome = hub.ingest_sequenced_frame(flow, seq, &frames[frame], |view| {
            if tracer.is_on() {
                let now = tracer.now();
                tracer.record(Layer::HubDecode, mark, now, callbacks == 0);
                tracer.begin_at(Layer::VerifierVerifyFrame, now);
            }
            callbacks += 1;
            let report = (view.device().value() as usize)
                .checked_sub(base)
                .and_then(|local| verifiers.get_mut(local))
                .and_then(|verifier| verifier.verify_frame_response(&view, at).ok());
            if let Some(report) = &report {
                let measurements = report.measurements();
                counters.measurements_verified += measurements.len() as u64;
                counters.non_healthy += measurements
                    .iter()
                    .filter(|verified| verified.verdict != MeasurementVerdict::Healthy)
                    .count() as u64;
            }
            if tracer.is_on() {
                mark = tracer.now();
                tracer.end_at(mark);
            }
            report
        });
        if tracer.is_on() {
            let now = tracer.now();
            if callbacks == 0 {
                tracer.record(Layer::HubDecode, mark, now, true);
            } else {
                tracer.record(Layer::HubFold, mark, now, true);
            }
            tracer.end_at(now);
        }
        match outcome {
            Ok(Some(ingest)) => {
                counters.frames_accepted += 1;
                counters.responses_ingested += ingest.responses;
                if ingest.verify_failed > 0 || ingest.rejected > 0 {
                    counters.fail(format!(
                        "shard {flow} frame {seq}: {} responses failed verification, {} rejected",
                        ingest.verify_failed, ingest.rejected
                    ));
                }
            }
            Ok(None) => counters.fail(format!(
                "shard {flow} frame {seq}: fresh frame dropped as a duplicate"
            )),
            Err(err) => counters.fail(format!(
                "shard {flow} frame {seq}: clean frame failed decode: {err}"
            )),
        }
    }

    /// Re-delivers an already accepted frame; the dedup window must drop it
    /// before any verification.
    fn deliver_echo(&mut self, frame: usize, flow: u64, seq: u64) {
        self.counters.duplicates_injected += 1;
        let bytes = &self.frames[frame];
        self.counters.decoded_bytes += bytes.len() as u64;
        let (outcome, verified) =
            ingest_unverified(&mut self.hub, &mut self.tracer, flow, seq, bytes);
        if !matches!(outcome, Ok(None)) || verified {
            self.counters.fail(format!(
                "shard {flow} frame {seq}: duplicate copy was not dropped"
            ));
        }
    }

    /// Delivers a damaged copy of a frame before its pristine copy.
    /// Structural damage (a flipped first byte) must fail the hub's strict
    /// decoder and leave the dedup window untouched. Payload damage (a
    /// flipped byte of the first digest in the frame) keeps the framing
    /// intact and must surface as exactly one more forged measurement than
    /// the pristine response has; both are checked on copies of the
    /// device's verifier, since the collector discards the frame and
    /// retransmits.
    fn deliver_corrupt(
        &mut self,
        frame: usize,
        flow: u64,
        seq: u64,
        corruption: Corruption,
        at: SimTime,
    ) {
        let mut damaged = self.frames[frame].clone();
        let target = if corruption.structural {
            None
        } else {
            self.first_digest(frame)
        };
        let Some((response, offset)) = target else {
            self.counters.corrupt_structural += 1;
            damaged[0] ^= corruption.mask;
            self.counters.decoded_bytes += damaged.len() as u64;
            let (outcome, verified) =
                ingest_unverified(&mut self.hub, &mut self.tracer, flow, seq, &damaged);
            match outcome {
                Err(_) if !verified => self.counters.decode_rejects += 1,
                _ => self.counters.fail(format!(
                    "shard {flow} frame {seq}: structurally damaged frame decoded"
                )),
            }
            return;
        };
        self.counters.corrupt_payload += 1;
        damaged[offset] ^= corruption.mask;
        let base = self.base;
        let verifiers = &self.verifiers;
        let pristine = &self.frames[frame];
        let flagged = self.tracer.span(Layer::VerifierRejectCorrupt, || {
            let forged = |bytes: &[u8]| {
                let parsed = FrameView::parse(bytes).ok()?;
                let view = parsed.responses().nth(response)?;
                let local = (view.device().value() as usize).checked_sub(base)?;
                let report = verifiers
                    .get(local)?
                    .clone()
                    .verify_frame_response(&view, at)
                    .ok()?;
                Some(
                    report
                        .measurements()
                        .iter()
                        .filter(|verified| verified.verdict == MeasurementVerdict::Forged)
                        .count(),
                )
            };
            Some(forged(&damaged)? == forged(pristine)? + 1)
        });
        if flagged == Some(true) {
            self.counters.tamper_rejects += 1;
        } else {
            self.counters.fail(format!(
                "shard {flow} frame {seq}: damaged digest not flagged as forged"
            ));
        }
    }

    /// The first response of `frame` from an uninfected device that carries
    /// evidence (so none of its measurements is forged already), as its
    /// index in the frame, and the offset of its first digest in the encoded
    /// bytes. The digest is found by its bytes, so the frame layout stays
    /// the encoder's business.
    fn first_digest(&self, frame: usize) -> Option<(usize, usize)> {
        let start = frame * MAX_BATCH_RESPONSES;
        let end = (start + MAX_BATCH_RESPONSES).min(self.responses.len());
        let (response, digest) = self
            .responses
            .get(start..end)?
            .iter()
            .enumerate()
            .filter(|(_, response)| self.infection(response.device.value() as usize).is_none())
            .find_map(|(index, response)| Some((index, response.measurements.first()?.digest())))?;
        let offset = self.frames[frame]
            .windows(digest.len())
            .position(|window| window == digest.as_slice())?;
        Some((response, offset))
    }

    /// Crashes the hub and restores it from a snapshot, which must equal
    /// the live hub.
    fn crash_restore(&mut self) {
        let hub = &self.hub;
        let bytes = self
            .tracer
            .span(Layer::EncodingSnapshotEncode, || encode_hub_snapshot(hub));
        let restored = self.tracer.span(Layer::EncodingSnapshotDecode, || {
            decode_hub_snapshot(&bytes)
        });
        self.counters.snapshots += 1;
        self.counters.snapshot_bytes += bytes.len() as u64;
        match restored {
            Ok(restored) if restored == self.hub => self.hub = restored,
            Ok(_) => self.counters.fail(format!(
                "shard {}: restored hub differs from the live hub",
                self.index
            )),
            Err(err) => self.counters.fail(format!(
                "shard {}: hub snapshot failed to decode: {err}",
                self.index
            )),
        }
    }

    /// Planned infection of global device `device`, if this shard owns it.
    pub fn infection(&self, device: usize) -> Option<&Infection> {
        let local = device.checked_sub(self.base)?;
        self.malware
            .get(local)?
            .as_ref()
            .map(|infected| &infected.plan)
    }
}

/// Hands `bytes` to the hub with a callback that verifies nothing, for
/// copies the hub must turn away before verification (duplicates and
/// structurally damaged frames). The whole call is the hub's decode.
/// Returns the hub's answer and whether the callback ran.
fn ingest_unverified(
    hub: &mut VerifierHub,
    tracer: &mut Tracer,
    flow: u64,
    seq: u64,
    bytes: &[u8],
) -> (Result<Option<FrameIngest>, DecodeError>, bool) {
    let mut called = false;
    let start = if tracer.is_on() { tracer.now() } else { 0 };
    tracer.begin_at(Layer::HubIngestFrame, start);
    let outcome = hub.ingest_sequenced_frame(flow, seq, bytes, |_| {
        called = true;
        None
    });
    if tracer.is_on() {
        let now = tracer.now();
        tracer.record(Layer::HubDecode, start, now, true);
        tracer.end_at(now);
    }
    (outcome, called)
}
