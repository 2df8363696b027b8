//! Workload definitions and the seeded inputs the libraries receive: keys,
//! memory images, measurement phases, the infection plan and the fault plan.
//! Everything here is a pure function of the workload and `--seed`.

use erasmus_sim::{NetworkConfig, NetworkModel, SimDuration, SimTime};

/// Measurement period `T_M` of every device.
pub const T_M: SimDuration = SimDuration::from_secs(10);
/// Rolling-buffer slots on every prover; every collection asks for all of
/// them.
pub const BUFFER_SLOTS: usize = 8;
/// Resident entries each verifier-side history keeps before sealing older
/// ones into its hash chain.
pub const RING_CAPACITY: usize = 4;
/// Shards the fleet is split into; each shard is run by one thread.
pub const SHARDS: usize = 2;
/// Children per node of the swarm aggregation tree.
pub const AGGREGATION_FANOUT: usize = 16;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub devices: usize,
    pub image_bytes: usize,
    /// Collection period `T_C` in multiples of `T_M`.
    pub collect_every: u64,
    /// Rounds a run completes even when `--seconds` has already passed.
    pub min_rounds: u32,
    pub hostile: Option<Hostile>,
}

/// The adversarial part of the `hostile` workload.
#[derive(Debug, Clone, Copy)]
pub struct Hostile {
    /// Share of devices that get infected.
    pub infected: f64,
    /// Infections start within the first this-many rounds.
    pub infection_rounds: u64,
    /// Device-to-collector loss probability per collection.
    pub loss: f64,
    /// Collector-to-hub frame duplication and corruption probabilities.
    pub duplicate: f64,
    pub corrupt: f64,
    /// Share of devices asked an on-demand request per round, instead of a
    /// plain collection.
    pub on_demand: f64,
    /// Round after which every shard hub crashes and restores from a
    /// snapshot.
    pub crash_after_round: u32,
}

// Why each workload exists is recorded in BENCHMARK.json and
// attestbench/README.md.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fleet_collect",
        devices: 50_000,
        image_bytes: 256,
        collect_every: 4,
        min_rounds: 2,
        hostile: None,
    },
    Workload {
        name: "measure_heavy",
        devices: 2_000,
        image_bytes: 16 * 1024,
        collect_every: 8,
        min_rounds: 2,
        hostile: None,
    },
    Workload {
        name: "hostile",
        devices: 20_000,
        image_bytes: 1024,
        collect_every: 4,
        min_rounds: 5,
        hostile: Some(Hostile {
            infected: 0.10,
            infection_rounds: 2,
            // The repository's fault mix (README, CI fault-injection runs):
            // loss 0.05, duplicate 0.02, corrupt 0.01.
            loss: 0.05,
            duplicate: 0.02,
            corrupt: 0.01,
            // About 64 of the 20 000 devices per round, the request count of
            // the README's `perfbench --on-demand 64` example.
            on_demand: 0.0032,
            crash_after_round: 1,
        }),
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|workload| workload.name == name)
    }

    pub fn period(&self) -> SimDuration {
        T_M * self.collect_every
    }

    /// Collection instant of round `round` (rounds are zero-based).
    pub fn collection_at(&self, round: u32) -> SimTime {
        SimTime::ZERO + self.period() * (u64::from(round) + 1)
    }

    /// Device index range owned by `shard`.
    pub fn shard_range(&self, shard: usize) -> std::ops::Range<usize> {
        let per = self.devices.div_ceil(SHARDS);
        (shard * per).min(self.devices)..((shard + 1) * per).min(self.devices)
    }
}

/// SplitMix64 finaliser: the benchmark's own generator, independent of the
/// simulator's RNG.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic draw for `(seed, stream, a, b)`.
pub fn draw(seed: u64, stream: u64, a: u64, b: u64) -> u64 {
    mix(mix(mix(seed ^ stream.wrapping_mul(0x632b_e59b_d9b4_e019)) ^ a) ^ b)
}

/// Uniform draw in `[0, 1)`.
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

const PHASE_STREAM: u64 = 1;
const IMAGE_STREAM: u64 = 2;
const INFECTION_STREAM: u64 = 3;
const ON_DEMAND_STREAM: u64 = 4;
const LOSS_STREAM: u64 = 5;
const FAULT_STREAM: u64 = 6;

/// Master secret every device key is derived from.
pub fn master_secret(seed: u64) -> [u8; 16] {
    let mut secret = [0u8; 16];
    secret[..8].copy_from_slice(b"attestbn");
    secret[8..].copy_from_slice(&seed.to_be_bytes());
    secret
}

/// Phase offset of `device` within `T_M`: never zero, so no measurement
/// coincides with a collection instant.
pub fn phase(seed: u64, device: usize) -> SimDuration {
    let span = T_M.as_nanos() - 1;
    SimDuration::from_nanos(1 + draw(seed, PHASE_STREAM, device as u64, 0) % span)
}

/// Fills `image` with the healthy memory image of `device`.
pub fn fill_image(seed: u64, device: usize, image: &mut [u8]) {
    for (word, chunk) in image.chunks_mut(8).enumerate() {
        let bits = draw(seed, IMAGE_STREAM, device as u64, word as u64).to_le_bytes();
        chunk.copy_from_slice(&bits[..chunk.len()]);
    }
}

/// One planned infection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Infection {
    pub at: SimTime,
    /// `None` for persistent malware; the departure time for mobile malware.
    pub departs: Option<SimTime>,
    /// Whether the malware replaces incriminating measurements with forged
    /// ones (`TamperStrategy::ForgeReplacements`) instead of leaving them.
    pub forges: bool,
}

impl Infection {
    /// Whether the malware is resident at `t`: from the infection instant
    /// (inclusive) to the departure instant (exclusive).
    pub fn resident(&self, t: SimTime) -> bool {
        self.at <= t && self.departs.is_none_or(|departs| t < departs)
    }
}

/// The infection planned for `device`, if any.
pub fn infection(workload: &Workload, seed: u64, device: usize) -> Option<Infection> {
    let hostile = workload.hostile?;
    let roll = |index| unit(draw(seed, INFECTION_STREAM, device as u64, index));
    if roll(0) >= hostile.infected {
        return None;
    }
    let window = workload.period().as_nanos() * hostile.infection_rounds;
    let at = SimTime::from_nanos((roll(1) * window as f64) as u64);
    let departs = if roll(2) < 0.5 {
        // Mobile malware dwells between T_M/2 and 3·T_M, so part of it
        // leaves before any measurement sees it.
        let dwell = T_M.as_nanos() / 2 + (roll(3) * (T_M.as_nanos() * 5 / 2) as f64) as u64;
        Some(at + SimDuration::from_nanos(dwell))
    } else {
        None
    };
    Some(Infection {
        at,
        departs,
        forges: roll(4) < 0.5,
    })
}

/// Whether `device` gets an on-demand request instead of a plain collection
/// in `round`.
pub fn on_demand(workload: &Workload, seed: u64, device: usize, round: u32) -> bool {
    workload.hostile.is_some_and(|hostile| {
        unit(draw(
            seed,
            ON_DEMAND_STREAM,
            device as u64,
            u64::from(round),
        )) < hostile.on_demand
    })
}

/// Device-to-collector link: seeded collection loss.
pub fn device_link(workload: &Workload, seed: u64) -> NetworkModel {
    let loss = workload.hostile.map_or(0.0, |hostile| hostile.loss);
    NetworkModel::new(
        NetworkConfig {
            loss,
            ..NetworkConfig::IDEAL
        },
        mix(seed ^ LOSS_STREAM),
    )
}

/// Collector-to-hub link: seeded frame duplication and corruption.
pub fn frame_link(workload: &Workload, seed: u64) -> NetworkModel {
    let (duplicate, corrupt) = workload
        .hostile
        .map_or((0.0, 0.0), |hostile| (hostile.duplicate, hostile.corrupt));
    NetworkModel::new(
        NetworkConfig {
            duplicate,
            corrupt,
            ..NetworkConfig::IDEAL
        },
        mix(seed ^ FAULT_STREAM),
    )
}

/// What the plan says about an infected device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Whether its residency covered a measurement instant.
    pub covered: bool,
    /// The collection at which the verifier first receives a measurement
    /// taken during residency, if one arrives within the run.
    pub detected_at: Option<SimTime>,
}

/// The benchmark's own model of an infected device: whether a measurement
/// was taken while its malware was resident, and at which collection the
/// verifier first receives such a measurement.
///
/// It replays the device's rolling buffer (slot `⌊t / T_M⌋ mod n`, newest
/// `n` answered per collection) from the plan alone: scheduled measurements
/// at `T_M + phase + j·T_M`, on-demand measurements at the collection
/// instant, lost collections. The library is never consulted, so the
/// detection gate compares two independent derivations.
pub fn expected_detection(
    workload: &Workload,
    seed: u64,
    device: usize,
    infection: &Infection,
    rounds: u32,
    delivered: impl Fn(usize, u32) -> bool,
) -> Expected {
    let mut slots: [Option<(SimTime, bool)>; BUFFER_SLOTS] = [None; BUFFER_SLOTS];
    let mut expected = Expected {
        covered: false,
        detected_at: None,
    };
    let mut store = |slots: &mut [Option<(SimTime, bool)>; BUFFER_SLOTS], t: SimTime| {
        let slot = (t.as_nanos() / T_M.as_nanos()) as usize % BUFFER_SLOTS;
        let bad = infection.resident(t);
        expected.covered |= bad;
        slots[slot] = Some((t, bad));
    };
    let mut next = SimTime::ZERO + T_M + phase(seed, device);
    for round in 0..rounds {
        let at = workload.collection_at(round);
        while next <= at {
            store(&mut slots, next);
            next += T_M;
        }
        let answered = if on_demand(workload, seed, device, round) {
            store(&mut slots, at);
            true
        } else {
            delivered(device, round)
        };
        if answered && slots.iter().flatten().any(|&(_, bad)| bad) {
            expected.detected_at = Some(at);
            break;
        }
    }
    expected
}
