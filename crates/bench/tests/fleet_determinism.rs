//! The sharded fleet engine must be a pure partition of the work: thread
//! count changes wall-clock, never the simulated protocol. These tests pin
//! the determinism contract the `BENCH_fleet.json` scaling sweep relies
//! on — including for lossy, churning and on-demand timelines, whose
//! per-device draws are keyed by the global device index and therefore
//! independent of the partition.

use erasmus_bench::fleet::{self, scaling, FleetConfig, FleetReport};
use erasmus_crypto::MacAlgorithm;
use erasmus_sim::{NetworkConfig, SimDuration};

fn config(algorithm: MacAlgorithm) -> FleetConfig {
    FleetConfig::new(96, 3, 2, 512, 4, algorithm)
}

fn lossy_config() -> FleetConfig {
    let mut config = config(MacAlgorithm::HmacSha256);
    config.network = NetworkConfig {
        base_latency: SimDuration::ZERO,
        jitter: SimDuration::ZERO,
        loss: 0.05,
        ..NetworkConfig::IDEAL
    };
    config.seed = 42;
    config
}

/// The acceptance scenario from the reliability work: loss, duplication,
/// reordering and corruption all on at once, with enough ARQ budget to
/// recover every report.
fn faulty_config() -> FleetConfig {
    let mut config = config(MacAlgorithm::HmacSha256);
    // Four rounds give the 1% corruption draw enough frame transmissions
    // to fire at this seed, so the live reject paths are exercised.
    config.rounds = 4;
    config.network = NetworkConfig {
        base_latency: SimDuration::from_millis(10),
        jitter: SimDuration::from_millis(5),
        loss: 0.05,
        duplicate: 0.02,
        reorder: 0.02,
        corrupt: 0.01,
    };
    config.retries = 6;
    config.seed = 42;
    config
}

/// The hostile timeline of the scheduler and golden-fingerprint tests:
/// every fault of [`faulty_config`] plus churn, on-demand traffic and a
/// hub crash per shard.
fn hostile_config() -> FleetConfig {
    let mut config = faulty_config();
    config.churn = 0.25;
    config.on_demand = 16;
    config.hub_crashes = 1;
    config
}

/// What a run concluded, as fixed numbers: the fleet's aggregation root
/// plus the ledgers that shape the timeline.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint<'a> {
    root_digest: &'a str,
    history_entries: u64,
    verifications_total: u64,
    collections_ingested: u64,
    hub_batches: u64,
    largest_batch: u64,
    events_scheduled: u64,
    queue_pushes: u64,
    queue_pops: u64,
    retry_histogram: &'a [u64],
}

impl<'a> Fingerprint<'a> {
    fn of(report: &'a FleetReport) -> Self {
        Self {
            root_digest: &report.aggregation.root_digest,
            history_entries: report.history_entries,
            verifications_total: report.verifications_total,
            collections_ingested: report.collections_ingested,
            hub_batches: report.hub_batches,
            largest_batch: report.largest_batch,
            events_scheduled: report.events_scheduled,
            queue_pushes: report.queue.pushes,
            queue_pops: report.queue.pops,
            retry_histogram: &report.retry_histogram,
        }
    }
}

/// Golden fingerprints of `config(HmacSha256)` at 1 and 4 threads. They
/// were captured while the fleet runtime still offered struct delivery,
/// the binary-heap scheduler, unbounded history and a scalar measurement
/// path, and every combination of those modes — with ring(64) history too
/// — reproduced them at lane widths 1 and 8. With the modes deleted, these
/// constants are what detects a change in behaviour.
const LOSSLESS_GOLDEN: [(usize, Fingerprint<'static>); 2] = [
    (
        1,
        Fingerprint {
            root_digest: "c57fbc1769b8312831fe503753a49874145d7fb9a5e8956d40ced975e0850866",
            history_entries: 576,
            verifications_total: 576,
            collections_ingested: 192,
            hub_batches: 8,
            largest_batch: 24,
            events_scheduled: 576,
            queue_pushes: 408,
            queue_pops: 408,
            retry_histogram: &[192],
        },
    ),
    (
        4,
        Fingerprint {
            root_digest: "c57fbc1769b8312831fe503753a49874145d7fb9a5e8956d40ced975e0850866",
            history_entries: 576,
            verifications_total: 576,
            collections_ingested: 192,
            hub_batches: 32,
            largest_batch: 6,
            events_scheduled: 576,
            queue_pushes: 480,
            queue_pops: 480,
            retry_histogram: &[192],
        },
    ),
];

/// Golden fingerprints of [`hostile_config`], captured like
/// [`LOSSLESS_GOLDEN`] and reproduced by the same mode combinations.
const HOSTILE_GOLDEN: [(usize, Fingerprint<'static>); 2] = [
    (
        1,
        Fingerprint {
            root_digest: "d465c2bff8c36f20360b82bd2423818fbe401fc0e8be5f3e1a3879a54d13dccf",
            history_entries: 1110,
            verifications_total: 1161,
            collections_ingested: 387,
            hub_batches: 387,
            largest_batch: 1,
            events_scheduled: 1111,
            queue_pushes: 898,
            queue_pops: 898,
            retry_histogram: &[350, 20, 1, 0, 0, 0, 0],
        },
    ),
    (
        4,
        Fingerprint {
            root_digest: "d465c2bff8c36f20360b82bd2423818fbe401fc0e8be5f3e1a3879a54d13dccf",
            history_entries: 1110,
            verifications_total: 1161,
            collections_ingested: 387,
            hub_batches: 387,
            largest_batch: 1,
            events_scheduled: 1111,
            queue_pushes: 1045,
            queue_pops: 1045,
            retry_histogram: &[350, 20, 1, 0, 0, 0, 0],
        },
    ),
];

/// Asserts `report` (run at `threads`) reproduces its golden fingerprint.
fn assert_golden(
    golden: &[(usize, Fingerprint<'static>)],
    report: &FleetReport,
    threads: usize,
    label: &str,
) {
    let (_, expected) = golden
        .iter()
        .find(|(at, _)| *at == threads)
        .expect("a golden fingerprint for this thread count");
    assert_eq!(&Fingerprint::of(report), expected, "{label}");
}

#[test]
fn golden_fingerprints_survive_ring_eviction() {
    // The scheduler matrices below check the golden fingerprints at the
    // default ring capacity, which never evicts here. A ring small enough
    // to evict — but still covering each device's reordering window —
    // must reproduce them too, root digest included: eviction seals
    // entries into the chain without changing what the fleet attests to.
    for (name, config, capacity, golden) in [
        (
            "lossless",
            config(MacAlgorithm::HmacSha256),
            4,
            &LOSSLESS_GOLDEN,
        ),
        ("hostile", hostile_config(), 8, &HOSTILE_GOLDEN),
    ] {
        for threads in [1usize, 4] {
            let mut config = config.clone();
            config.ring_capacity = capacity;
            let report = fleet::run_threaded(&config, threads);
            let label = format!("{name} ring({capacity}) threads={threads}");
            assert_golden(golden, &report, threads, &label);
            assert!(report.history_evictions > 0, "{label}: nothing evicted");
            assert_eq!(report.history_stale_discards, 0, "{label}");
            assert_eq!(
                report.history_evictions + report.history_resident,
                report.history_entries,
                "{label}"
            );
            assert!(report.all_healthy, "{label}");
        }
    }
}

#[test]
fn threaded_and_single_threaded_runs_are_identical() {
    let config = config(MacAlgorithm::HmacSha256);
    let single = fleet::run_threaded(&config, 1);
    let threaded = fleet::run_threaded(&config, 4);

    assert_eq!(single.threads, 1);
    assert_eq!(threaded.threads, 4);
    assert_eq!(single.measurements_total, threaded.measurements_total);
    assert_eq!(single.verifications_total, threaded.verifications_total);
    assert_eq!(single.all_healthy, threaded.all_healthy);
    assert!(single.all_healthy);

    // The same invariants hold on the simulated-cost and history axes: the
    // partition must not change what any device did or what the verifier
    // side learned.
    assert_eq!(single.simulated_busy, threaded.simulated_busy);
    assert_eq!(single.devices_tracked, threaded.devices_tracked);
    assert_eq!(single.history_entries, threaded.history_entries);
    assert_eq!(single.collections_ingested, threaded.collections_ingested);

    assert_eq!(single.measurements_total, config.total_measurements());
    assert_eq!(threaded.shards.len(), 4);
    let shard_sum: u64 = threaded.shards.iter().map(|s| s.measurements).sum();
    assert_eq!(shard_sum, threaded.measurements_total);
}

#[test]
fn default_flags_reproduce_the_phase_loop_totals() {
    // The event-driven runtime must be observationally identical to the
    // original measure-then-collect phase loops when no scenario knob is
    // turned: exact totals, exact hub coverage, every report AllHealthy —
    // at 1 and 4 threads.
    let config = config(MacAlgorithm::HmacSha256);
    for threads in [1usize, 4] {
        let report = fleet::run_threaded(&config, threads);
        assert_eq!(
            report.measurements_total,
            config.total_measurements(),
            "threads={threads}"
        );
        assert_eq!(report.verifications_total, config.total_measurements());
        assert_eq!(
            report.collections_attempted,
            config.total_collection_attempts()
        );
        assert_eq!(report.collections_delivered, report.collections_attempted);
        assert_eq!(report.collections_dropped, 0);
        assert_eq!(report.collections_ingested, report.collections_delivered);
        assert_eq!(report.devices_tracked, config.provers);
        assert_eq!(report.history_entries, config.total_measurements());
        assert!(report.all_healthy, "threads={threads}");
        assert_eq!(report.devices_churned, 0);
        assert_eq!(report.on_demand_attempted, 0);
    }
}

#[test]
fn determinism_holds_for_every_algorithm() {
    for alg in MacAlgorithm::ALL {
        let config = config(alg);
        let single = fleet::run_threaded(&config, 1);
        let threaded = fleet::run_threaded(&config, 3);
        assert_eq!(
            single.measurements_total, threaded.measurements_total,
            "{alg}"
        );
        assert_eq!(
            single.verifications_total, threaded.verifications_total,
            "{alg}"
        );
        assert_eq!(single.all_healthy, threaded.all_healthy, "{alg}");
    }
}

#[test]
fn lossy_runs_are_deterministic_and_conserve_attempts() {
    let config = lossy_config();
    let first = fleet::run_threaded(&config, 1);
    let again = fleet::run_threaded(&config, 1);
    let threaded = fleet::run_threaded(&config, 4);

    // Same seed → same packet fates, run to run and thread count to thread
    // count.
    assert_eq!(first.collections_delivered, again.collections_delivered);
    assert_eq!(first.collections_dropped, again.collections_dropped);
    assert_eq!(first.collections_delivered, threaded.collections_delivered);
    assert_eq!(first.collections_dropped, threaded.collections_dropped);
    assert_eq!(first.verifications_total, threaded.verifications_total);
    assert_eq!(first.history_entries, threaded.history_entries);

    // Conservation: every scheduled attempt is either delivered or dropped,
    // and the hub ingested exactly the delivered ones.
    assert_eq!(
        first.collections_delivered + first.collections_dropped,
        first.collections_attempted
    );
    assert_eq!(
        first.collections_attempted,
        config.total_collection_attempts()
    );
    assert!(first.collections_dropped > 0, "5% loss dropped nothing");
    assert_eq!(first.collections_ingested, first.collections_delivered);

    // Devices measure regardless of collection fate; loss only removes
    // evidence from the verifier side, it does not fabricate compromise.
    assert_eq!(first.measurements_total, config.total_measurements());
    assert!(first.all_healthy);

    // A different seed draws different fates.
    let mut reseeded = config.clone();
    reseeded.seed = 1337;
    let other = fleet::run_threaded(&reseeded, 1);
    assert_eq!(
        other.collections_delivered + other.collections_dropped,
        other.collections_attempted
    );
    assert_ne!(other.collections_delivered, first.collections_delivered);
}

#[test]
fn churn_and_on_demand_stay_thread_invariant() {
    let mut config = config(MacAlgorithm::KeyedBlake2s);
    config.rounds = 3;
    config.churn = 0.25;
    config.on_demand = 24;
    config.network = NetworkConfig {
        base_latency: SimDuration::from_millis(10),
        jitter: SimDuration::from_millis(5),
        loss: 0.02,
        ..NetworkConfig::IDEAL
    };
    config.seed = 7;

    let single = fleet::run_threaded(&config, 1);
    let threaded = fleet::run_threaded(&config, 4);

    assert_eq!(single.measurements_total, threaded.measurements_total);
    assert_eq!(single.verifications_total, threaded.verifications_total);
    assert_eq!(single.collections_delivered, threaded.collections_delivered);
    assert_eq!(single.collections_dropped, threaded.collections_dropped);
    assert_eq!(single.devices_churned, threaded.devices_churned);
    assert_eq!(single.on_demand_attempted, threaded.on_demand_attempted);
    assert_eq!(single.on_demand_completed, threaded.on_demand_completed);
    assert_eq!(single.on_demand_p50, threaded.on_demand_p50);
    assert_eq!(single.on_demand_p99, threaded.on_demand_p99);
    assert_eq!(single.history_entries, threaded.history_entries);
    assert_eq!(single.simulated_busy, threaded.simulated_busy);

    assert!(single.devices_churned > 0, "25% churn drew no churners");
    assert_eq!(single.on_demand_attempted, 24);
    assert!(single.on_demand_completed > 0);
    assert!(single.on_demand_p50 <= single.on_demand_p99);
    assert_eq!(
        single.collections_delivered + single.collections_dropped,
        single.collections_attempted
    );
    // Churned devices skip part of their schedule.
    assert!(single.measurements_total < config.total_measurements() + 24);
    assert!(single.all_healthy, "gaps must not read as compromise");
}

#[test]
fn lane_batched_runs_reproduce_scalar_totals_bit_for_bit() {
    // The lane-interleaved measurement path must be a pure re-expression of
    // the scalar timeline: identical totals, health, simulated cost and hub
    // coverage for every algorithm, at 1 and 4 threads. The expected
    // values were captured from the scalar per-device path while it still
    // existed. At 1 thread each instant's cohort of 24 fills three 8-lane
    // jobs; at 4 threads each shard's cohort of 6 splits into one 4-lane
    // job and 2 scalar measurements.
    for (alg, simulated_busy_nanos) in [
        (MacAlgorithm::HmacSha1, 195_240_480_000),
        (MacAlgorithm::HmacSha256, 218_984_352_000),
        (MacAlgorithm::KeyedBlake2s, 146_988_960_000),
    ] {
        for (threads, lane_jobs, lane_remainder) in [(1usize, 72, 0), (4, 96, 192)] {
            let report = fleet::run_threaded(&config(alg), threads);
            let label = format!("{alg} threads={threads}");
            assert_eq!(report.measurements_total, 576, "{label}");
            assert_eq!(report.verifications_total, 576, "{label}");
            assert!(report.all_healthy, "{label}");
            assert_eq!(
                report.simulated_busy.as_nanos(),
                simulated_busy_nanos,
                "{label}"
            );
            assert_eq!(report.devices_tracked, 96, "{label}");
            assert_eq!(report.history_entries, 576, "{label}");
            assert_eq!(report.collections_ingested, 192, "{label}");
            assert_eq!(
                report.aggregation.root_digest, LOSSLESS_GOLDEN[0].1.root_digest,
                "{label}"
            );
            assert_eq!(
                (report.lane_jobs, report.lane_remainder),
                (lane_jobs, lane_remainder),
                "{label}"
            );
        }
    }
}

#[test]
fn lane_batched_scenario_runs_stay_thread_and_lane_invariant() {
    // Loss, churn and on-demand traffic on top of lane batching: no
    // simulated outcome may differ from the scalar path's (captured below
    // while it still existed), at any thread count.
    let mut config = config(MacAlgorithm::HmacSha256);
    config.rounds = 3;
    config.churn = 0.25;
    config.on_demand = 16;
    config.network = NetworkConfig {
        base_latency: SimDuration::from_millis(10),
        jitter: SimDuration::from_millis(5),
        loss: 0.05,
        ..NetworkConfig::IDEAL
    };
    config.seed = 9;

    let single = fleet::run_threaded(&config, 1);
    let threaded = fleet::run_threaded(&config, 4);
    for (report, label) in [(&single, "threads=1"), (&threaded, "threads=4")] {
        assert_eq!(report.measurements_total, 824, "{label}");
        assert_eq!(report.verifications_total, 835, "{label}");
        assert_eq!(report.collections_delivered, 264, "{label}");
        assert_eq!(report.collections_dropped, 24, "{label}");
        assert_eq!(report.devices_churned, 32, "{label}");
        assert_eq!(report.on_demand_completed, 15, "{label}");
        assert_eq!(report.on_demand_p50.as_nanos(), 24_866_567, "{label}");
        assert_eq!(report.on_demand_p99.as_nanos(), 26_822_761, "{label}");
        assert_eq!(report.history_entries, 776, "{label}");
        assert_eq!(report.simulated_busy.as_nanos(), 314_028_614_000, "{label}");
        assert_eq!(
            report.aggregation.root_digest,
            "4ab51bc8d106bad7741030f9b5d0dd1fa5e99b64dc067b9377878f6de578fe4f",
            "{label}"
        );
        assert!(report.all_healthy, "{label}");
    }
    assert_eq!((single.lane_jobs, single.lane_remainder), (102, 28));
    assert_eq!((threaded.lane_jobs, threaded.lane_remainder), (135, 268));
}

#[test]
fn wire_delivery_matches_struct_delivery_bit_for_bit() {
    // Routing every collection burst through the encoded frame path must
    // reproduce the totals the in-memory struct path produced (the golden
    // fingerprints, which struct delivery matched before it was deleted),
    // conserve the wire ledger, and stay thread-invariant — at 1 and 4
    // threads, on a lossless run.
    let config = config(MacAlgorithm::HmacSha256);
    let single = fleet::run_threaded(&config, 1);
    for threads in [1usize, 4] {
        let wire = fleet::run_threaded(&config, threads);
        let label = format!("threads={threads}");
        assert_golden(&LOSSLESS_GOLDEN, &wire, threads, &label);
        assert_same_outcome(&wire, &single, &label);
        assert!(wire.all_healthy, "{label}");

        // 100% of collection traffic travelled as encoded frames and
        // decoded losslessly.
        assert!(wire.wire_frames > 0, "{label}: no frame was encoded");
        assert!(wire.wire_bytes > 0, "{label}");
        assert_eq!(
            wire.wire_responses, wire.collections_delivered,
            "{label}: every delivered collection crossed the wire"
        );
        assert_eq!(
            wire.decoded_accepted, wire.collections_ingested,
            "{label}: every ingested report came off a decoded frame"
        );
        assert_eq!(wire.decode_rejects, 0, "{label}");
    }
}

#[test]
fn wire_delivery_stays_invariant_under_loss_churn_and_on_demand() {
    // Same laws on a hostile timeline: drops, churn and on-demand traffic
    // (whose reports are verified at receive time and fold into the hub
    // beside the frames) must conserve the wire ledger and leave no
    // daylight between thread counts.
    let mut config = config(MacAlgorithm::HmacSha256);
    config.rounds = 3;
    config.churn = 0.2;
    config.on_demand = 24;
    config.network = NetworkConfig {
        base_latency: SimDuration::from_millis(10),
        jitter: SimDuration::from_millis(5),
        loss: 0.05,
        ..NetworkConfig::IDEAL
    };
    config.seed = 11;

    let baseline = fleet::run_threaded(&config, 1);
    for threads in [1usize, 4] {
        let wire = fleet::run_threaded(&config, threads);
        let label = format!("threads={threads}");
        assert_same_outcome(&wire, &baseline, &label);

        // Conservation on the wire axis: collections ride frames, on-demand
        // reports fold in verified, nothing is double-counted.
        assert_eq!(wire.wire_responses, wire.collections_delivered, "{label}");
        assert_eq!(
            wire.decoded_accepted + wire.on_demand_completed,
            wire.collections_ingested,
            "{label}"
        );
        assert_eq!(wire.decode_rejects, 0, "{label}");
        assert!(
            wire.collections_dropped > 0,
            "{label}: loss dropped nothing"
        );
        assert!(wire.on_demand_completed > 0, "{label}");
        assert!(wire.devices_churned > 0, "{label}");
    }
}

#[test]
fn hub_tracks_every_device_exactly_once_at_fleet_scale() {
    let config = config(MacAlgorithm::KeyedBlake2s);
    let report = fleet::run_threaded(&config, 4);
    // Per-device isolation: 96 devices × 3 measurements × 2 rounds, no
    // entry leaked into a neighbour's history and none double-counted.
    assert_eq!(report.devices_tracked, config.provers);
    assert_eq!(report.history_entries, config.total_measurements());
    assert_eq!(
        report.collections_ingested,
        (config.provers * config.rounds) as u64
    );
}

#[test]
fn more_stagger_groups_than_provers_is_well_defined_at_scale() {
    let mut config = FleetConfig::new(5, 2, 2, 256, 64, MacAlgorithm::HmacSha256);
    config.seed = 3;
    let single = fleet::run_threaded(&config, 1);
    let threaded = fleet::run_threaded(&config, 4);
    assert_eq!(single.measurements_total, config.total_measurements());
    assert_eq!(single.measurements_total, threaded.measurements_total);
    assert_eq!(single.verifications_total, threaded.verifications_total);
    assert!(single.all_healthy && threaded.all_healthy);
}

#[test]
fn scaling_sweep_is_work_preserving() {
    let config = config(MacAlgorithm::HmacSha256);
    // sweep() itself asserts identical totals at every thread count.
    let points = scaling::sweep(&config, 4);
    assert_eq!(points.len(), 3); // 1, 2, 4
    assert!((points[0].speedup - 1.0).abs() < 1e-12);
    for point in &points {
        assert!(point.measurements_per_sec > 0.0, "rates must stay positive");
        assert!(point.verifications_per_sec > 0.0);
    }
}

#[test]
fn faulty_runs_recover_every_report_and_stay_thread_invariant() {
    // The reliability acceptance pin: with 5% loss, 2% duplication, 2%
    // reordering and 1% corruption all active, the ARQ budget recovers
    // every scheduled collection — the hub ends the run with exactly the
    // totals of the fault-free timeline, at any thread count.
    let faulty = faulty_config();
    let mut lossless = faulty.clone();
    lossless.network = NetworkConfig {
        base_latency: SimDuration::from_millis(10),
        jitter: SimDuration::from_millis(5),
        ..NetworkConfig::IDEAL
    };
    lossless.retries = 0;
    let clean = fleet::run_threaded(&lossless, 1);

    let single = fleet::run_threaded(&faulty, 1);
    let threaded = fleet::run_threaded(&faulty, 4);
    for (report, label) in [(&single, "threads=1"), (&threaded, "threads=4")] {
        // Recovery: every attempt was eventually delivered exactly once.
        assert_eq!(
            report.collections_delivered, report.collections_attempted,
            "{label}: ARQ failed to recover every report"
        );
        assert_eq!(report.collections_dropped, 0, "{label}");
        assert_eq!(report.exhausted_retries, 0, "{label}");
        assert!(
            report.collect_retransmits > 0,
            "{label}: faults retried nothing"
        );
        assert!(report.reorders > 0, "{label}: reorder faults never drew");

        // The retry histogram partitions the deliveries.
        assert_eq!(
            report.retry_histogram.iter().sum::<u64>(),
            report.collections_delivered,
            "{label}"
        );
        assert!(
            report.retry_histogram[0] < report.collections_delivered,
            "{label}: no delivery needed a retransmission"
        );

        // Exactly-once at the hub: every injected duplicate was dropped by
        // the dedup window, every corrupted copy was caught live.
        assert_eq!(report.hub_duplicates, report.frame_duplicates, "{label}");
        assert!(
            report.frame_duplicates > 0,
            "{label}: no duplicate injected"
        );
        assert!(
            report.corrupt_decode_drops + report.corrupt_tamper_drops > 0,
            "{label}: no corrupted copy exercised the reject paths"
        );
        assert_eq!(report.frames_exhausted, 0, "{label}");
        assert_eq!(report.frame_lost_responses, 0, "{label}");

        // Hub totals equal the lossless run's: the faults are invisible in
        // what the verifier side learned.
        assert_eq!(
            report.collections_ingested, clean.collections_ingested,
            "{label}"
        );
        assert_eq!(report.history_entries, clean.history_entries, "{label}");
        assert_eq!(report.devices_tracked, clean.devices_tracked, "{label}");
        assert_eq!(
            report.measurements_total, clean.measurements_total,
            "{label}"
        );
        assert_eq!(
            report.verifications_total, clean.verifications_total,
            "{label}"
        );
        assert!(
            report.all_healthy,
            "{label}: recovery must not read as compromise"
        );
    }

    // Thread invariance: collect-hop fates are drawn per (device, seq) and
    // never per shard, so those counters are identical at any thread
    // count. Frame-hop draws are keyed by the shard's frame flow — frame
    // composition is partition-dependent — so only the *recovered* totals
    // (asserted above) are invariant on that axis, not the fault counts.
    assert_eq!(single.collect_retransmits, threaded.collect_retransmits);
    assert_eq!(single.retry_histogram, threaded.retry_histogram);
    assert_eq!(single.reorders, threaded.reorders);
    assert_eq!(single.collections_ingested, threaded.collections_ingested);
    assert_eq!(single.history_entries, threaded.history_entries);
    assert_eq!(single.simulated_busy, threaded.simulated_busy);
}

#[test]
fn hub_crash_recovery_is_invisible_in_the_totals() {
    // Crash/snapshot/restore cycles mid-run must not change a single
    // observable total — the restored hub is bit-identical, so the run
    // proceeds as if the crash never happened.
    let mut crashing = faulty_config();
    crashing.hub_crashes = 2;
    let mut smooth = crashing.clone();
    smooth.hub_crashes = 0;

    for threads in [1usize, 4] {
        let crashed = fleet::run_threaded(&crashing, threads);
        let baseline = fleet::run_threaded(&smooth, threads);
        let label = format!("threads={threads}");

        // Crashes happened and produced snapshots (one cycle per shard).
        assert_eq!(
            crashed.hub_crashes,
            (threads * crashing.hub_crashes) as u64,
            "{label}"
        );
        assert!(crashed.snapshot_bytes > 0, "{label}");
        assert_eq!(baseline.hub_crashes, 0, "{label}");

        // Everything else is unchanged.
        assert_eq!(
            crashed.measurements_total, baseline.measurements_total,
            "{label}"
        );
        assert_eq!(
            crashed.verifications_total, baseline.verifications_total,
            "{label}"
        );
        assert_eq!(
            crashed.collections_delivered, baseline.collections_delivered,
            "{label}"
        );
        assert_eq!(
            crashed.collections_ingested, baseline.collections_ingested,
            "{label}"
        );
        assert_eq!(crashed.retry_histogram, baseline.retry_histogram, "{label}");
        assert_eq!(crashed.hub_duplicates, baseline.hub_duplicates, "{label}");
        assert_eq!(crashed.history_entries, baseline.history_entries, "{label}");
        assert_eq!(crashed.simulated_busy, baseline.simulated_busy, "{label}");
        assert_eq!(crashed.all_healthy, baseline.all_healthy, "{label}");
        assert!(crashed.all_healthy, "{label}");
    }
}

#[test]
fn churn_under_retransmission_never_replays_stale_evidence() {
    // A device that leaves mid-backoff must not have its pending
    // retransmissions delivered after the fact: the retry timer notices the
    // epoch changed and discards the stale copy, and the conservation
    // ledger accounts for every scheduled attempt exactly once.
    // Loss heavy enough for ARQ chains to survive into their late, long
    // backoff windows — the ones wide enough for a churn departure to land
    // inside — across enough devices that several timers go stale.
    let mut config = FleetConfig::new(128, 3, 3, 256, 4, MacAlgorithm::HmacSha256);
    config.network = NetworkConfig {
        base_latency: SimDuration::from_millis(10),
        jitter: SimDuration::from_millis(5),
        loss: 0.55,
        ..NetworkConfig::IDEAL
    };
    config.retries = 10;
    config.churn = 0.6;
    config.seed = 13;

    let single = fleet::run_threaded(&config, 1);
    let threaded = fleet::run_threaded(&config, 4);

    for (report, label) in [(&single, "threads=1"), (&threaded, "threads=4")] {
        assert!(
            report.devices_churned > 0,
            "{label}: churn drew no churners"
        );
        assert!(
            report.stale_retries > 0,
            "{label}: no retry timer ever outlived its device"
        );
        // Conservation: delivered exactly once, or lost for a named reason.
        assert_eq!(
            report.collections_delivered
                + report.exhausted_retries
                + report.churn_losses
                + report.stale_retries,
            report.collections_attempted,
            "{label}"
        );
        assert_eq!(
            report.collections_dropped,
            report.exhausted_retries + report.churn_losses + report.stale_retries,
            "{label}"
        );
        assert_eq!(
            report.retry_histogram.iter().sum::<u64>(),
            report.collections_delivered,
            "{label}"
        );
        assert!(
            report.all_healthy,
            "{label}: churn gaps must not read as compromise"
        );
    }

    assert_eq!(single.collections_delivered, threaded.collections_delivered);
    assert_eq!(single.stale_retries, threaded.stale_retries);
    assert_eq!(single.churn_losses, threaded.churn_losses);
    assert_eq!(single.exhausted_retries, threaded.exhausted_retries);
    assert_eq!(single.retry_histogram, threaded.retry_histogram);
    assert_eq!(single.history_entries, threaded.history_entries);
    assert_eq!(single.devices_churned, threaded.devices_churned);
}

/// Asserts every simulated-outcome field that no partition may move agrees
/// between two reports: what each device did and what the
/// verifier side learned, the collect-hop reliability ledger and the
/// measurement-event count.
fn assert_same_outcome(a: &FleetReport, b: &FleetReport, label: &str) {
    assert_eq!(a.measurements_total, b.measurements_total, "{label}");
    assert_eq!(a.verifications_total, b.verifications_total, "{label}");
    assert_eq!(a.simulated_busy, b.simulated_busy, "{label}");
    assert_eq!(a.all_healthy, b.all_healthy, "{label}");
    assert_eq!(a.devices_tracked, b.devices_tracked, "{label}");
    assert_eq!(a.history_entries, b.history_entries, "{label}");
    assert_eq!(
        a.aggregation.root_digest, b.aggregation.root_digest,
        "{label}"
    );
    assert_eq!(a.collections_ingested, b.collections_ingested, "{label}");
    assert_eq!(a.collections_attempted, b.collections_attempted, "{label}");
    assert_eq!(a.collections_delivered, b.collections_delivered, "{label}");
    assert_eq!(a.collections_dropped, b.collections_dropped, "{label}");
    assert_eq!(a.collect_retransmits, b.collect_retransmits, "{label}");
    assert_eq!(a.exhausted_retries, b.exhausted_retries, "{label}");
    assert_eq!(a.churn_losses, b.churn_losses, "{label}");
    assert_eq!(a.stale_retries, b.stale_retries, "{label}");
    assert_eq!(a.retry_histogram, b.retry_histogram, "{label}");
    assert_eq!(a.devices_churned, b.devices_churned, "{label}");
    assert_eq!(a.on_demand_attempted, b.on_demand_attempted, "{label}");
    assert_eq!(a.on_demand_completed, b.on_demand_completed, "{label}");
    assert_eq!(a.on_demand_p50, b.on_demand_p50, "{label}");
    assert_eq!(a.on_demand_p99, b.on_demand_p99, "{label}");
    assert_eq!(a.events_scheduled, b.events_scheduled, "{label}");
}

/// [`assert_same_outcome`] plus the shard-timeline ledgers — bursts, the
/// frame-hop and hub reliability counters, cohort coalescing, pool and
/// queue traffic — which depend on the partition but on nothing else, so
/// they must agree between runs at the same thread count.
fn assert_same_timeline(a: &FleetReport, b: &FleetReport, label: &str) {
    assert_same_outcome(a, b, label);
    assert_eq!(a.hub_batches, b.hub_batches, "{label}");
    assert_eq!(a.largest_batch, b.largest_batch, "{label}");
    assert_eq!(a.frame_retransmits, b.frame_retransmits, "{label}");
    assert_eq!(a.frame_duplicates, b.frame_duplicates, "{label}");
    assert_eq!(a.corrupt_decode_drops, b.corrupt_decode_drops, "{label}");
    assert_eq!(a.corrupt_tamper_drops, b.corrupt_tamper_drops, "{label}");
    assert_eq!(a.hub_duplicates, b.hub_duplicates, "{label}");
    assert_eq!(a.hub_crashes, b.hub_crashes, "{label}");
    assert_eq!(a.snapshot_bytes, b.snapshot_bytes, "{label}");
    assert_eq!(a.singleton_events, b.singleton_events, "{label}");
    assert_eq!(a.coalesced_events, b.coalesced_events, "{label}");
    assert_eq!(a.event_pool_high_water, b.event_pool_high_water, "{label}");
    assert_eq!(a.queue.pushes, b.queue.pushes, "{label}");
    assert_eq!(a.queue.pops, b.queue.pops, "{label}");
}

/// The scheduler acceptance matrix on one configuration: a rerun at each
/// thread count must reproduce the first run's timeline, every thread
/// count must reproduce the single-threaded outcome, and — at 1 and 4
/// threads — the golden fingerprint that the calendar queue and the
/// binary-heap oracle both produced when each could drive a fleet.
fn assert_scheduler_matrix(
    config: &FleetConfig,
    golden: &[(usize, Fingerprint<'static>)],
    name: &str,
) -> Vec<FleetReport> {
    let mut reports: Vec<FleetReport> = Vec::new();
    for threads in [1usize, 2, 4] {
        let report = fleet::run_threaded(config, threads);
        let label = format!("{name} threads={threads}");
        assert_same_timeline(&fleet::run_threaded(config, threads), &report, &label);
        if let Some(single) = reports.first() {
            assert_same_outcome(&report, single, &label);
        }
        if threads != 2 {
            assert_golden(golden, &report, threads, &label);
        }
        assert_eq!(report.queue.pushes, report.queue.pops, "{label}");
        assert_eq!(report.queue.buckets, 1024, "{label}");
        reports.push(report);
    }
    reports
}

/// The golden fingerprints were reproduced by both schedulers at every
/// lane width the fleet once offered; the runtime now has one of each.
#[test]
fn calendar_and_heap_schedulers_agree_across_threads_and_lanes() {
    let config = config(MacAlgorithm::HmacSha256);
    for report in assert_scheduler_matrix(&config, &LOSSLESS_GOLDEN, "lossless") {
        assert!(report.all_healthy);
    }
}

#[test]
fn calendar_and_heap_schedulers_agree_under_faults_and_churn() {
    // Loss + duplication + reorder + corruption + churn + on-demand + hub
    // crashes, with ARQ running hot: every event variant (retry timers,
    // stale epochs, crash snapshots) goes through the calendar queue.
    for report in assert_scheduler_matrix(&hostile_config(), &HOSTILE_GOLDEN, "hostile") {
        assert!(report.collect_retransmits > 0, "faults retried nothing");
        assert!(report.hub_crashes > 0);
    }
}

#[test]
fn event_pool_high_water_is_bounded_by_traffic_not_run_length() {
    // The leak guard: pooled slots are recycled on every delivery, stale
    // retry and exhausted budget, so the high-water mark tracks *in-flight*
    // responses — growing the run 3× must not grow the pool 3×.
    let mut short = FleetConfig::new(64, 2, 2, 256, 4, MacAlgorithm::HmacSha256);
    short.network = NetworkConfig {
        base_latency: SimDuration::from_millis(10),
        jitter: SimDuration::from_millis(5),
        loss: 0.3,
        ..NetworkConfig::IDEAL
    };
    short.retries = 6;
    short.churn = 0.5;
    short.seed = 13;
    let mut long = short.clone();
    long.rounds = 6;

    let short_report = fleet::run_threaded(&short, 2);
    let long_report = fleet::run_threaded(&long, 2);
    assert!(short_report.event_pool_high_water > 0);
    assert!(long_report.devices_churned > 0, "churn drew no churners");
    // 3× the rounds (and 3× the ARQ traffic) must not scale the pool: the
    // bound is per-instant concurrency, which the longer run repeats
    // rather than stacks. Allow slack for fate-draw variation between the
    // two timelines, but reject anything near linear growth.
    assert!(
        long_report.event_pool_high_water <= short_report.event_pool_high_water * 2,
        "pool grew with run length: short={} long={}",
        short_report.event_pool_high_water,
        long_report.event_pool_high_water
    );
}

#[test]
fn scaling_sweep_is_work_preserving_under_loss() {
    // The sweep's totals assertion must hold for lossy runs too: delivery
    // fates are drawn per (device, sequence), never per shard.
    let points = scaling::sweep(&lossy_config(), 4);
    assert_eq!(points.len(), 3);
    for point in &points {
        assert!(point.measurements_per_sec > 0.0);
        assert!(point.verifications_per_sec > 0.0);
    }
}
