//! Outside-in fleet attestation benchmark.
//!
//! Drives the ERASMUS libraries through their public functions only: keys
//! from `erasmus_hw`, provers and verifiers from `erasmus_core`, batch
//! frames through `erasmus_core::encoding`, ingestion through
//! `VerifierHub::ingest_sequenced_frame`, then `VerifierHub::merge`,
//! `erasmus_swarm::AggregationTree` and the per-device chain checks. Every
//! timer, counter and span lives in this package.
//!
//! ```text
//! attestbench --workload <fleet_collect|measure_heavy|hostile|all> --seed <n>
//!             --seconds <s> --trace <0|1>
//! ```
//!
//! A run provisions the fleet several times (the median is `setup_s`), then
//! runs collection rounds as a closed loop, each round starting when the
//! previous one has been verified, until `--seconds` have passed. The rates
//! are medians over the rounds. A
//! host-speed [`probe`] reading is reported next to the timings. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! The exit code is non-zero when any correctness gate fails.

mod fleet;
mod plan;
mod probe;
mod report;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use erasmus_core::VerifierHub;
use erasmus_swarm::AggregationTree;

use crate::fleet::{Counters, Shard};
use crate::plan::{Workload, AGGREGATION_FANOUT, SHARDS, WORKLOADS};
use crate::report::{Gates, Outcome, Round};
use crate::trace::{Layer, Tracer};

/// Times the fleet is provisioned per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const USAGE: &str = "usage: attestbench --workload <fleet_collect|measure_heavy|hostile|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = raw.next() {
        let value = raw
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed must be an unsigned integer, got {value:?}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|seconds: &f64| seconds.is_finite() && *seconds > 0.0)
                    .ok_or_else(|| format!("--seconds must be a positive number, got {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("attestbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return report::run_all(&args);
    }
    let Some(workload) = Workload::by_name(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|workload| workload.name).collect();
        eprintln!(
            "attestbench: unknown workload {:?} (expected one of {} or all)",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    match run(workload, &args) {
        Ok(outcome) => {
            if outcome.print(workload, &args) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("attestbench: {}: {err}", workload.name);
            ExitCode::FAILURE
        }
    }
}

/// Runs `body(i)` for `i in 0..n`, item 0 on the calling thread and each
/// other item on a thread of its own, and returns the results in order.
fn on_threads<R: Send>(n: usize, body: impl Fn(usize) -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let body = &body;
        let others: Vec<_> = (1..n).map(|i| scope.spawn(move || body(i))).collect();
        let mut results = vec![body(0)];
        results.extend(
            others
                .into_iter()
                .map(|handle| handle.join().expect("a shard thread panicked")),
        );
        results
    })
}

/// Runs the host-speed probe on every worker thread at once and appends
/// each thread's speed to `speeds`.
fn probe_host(speeds: &mut Vec<f64>) {
    speeds.extend(on_threads(SHARDS, |_| probe::blocks_per_sec()));
}

/// Measurements taken, measurements verified and history entries recorded
/// so far, over every shard.
fn progress(shards: &[Shard]) -> (u64, u64, u64) {
    shards
        .iter()
        .fold((0, 0, 0), |(taken, verified, entries), shard| {
            let c = &shard.counters;
            (
                taken + c.self_measurements,
                verified + c.measurements_verified + c.on_demand_measurements,
                entries + shard.hub.total_entries(),
            )
        })
}

/// Runs `body` on every shard at once, shard 0 on the calling thread.
fn each_shard(shards: &mut [Shard], body: impl Fn(&mut Shard) + Sync) {
    std::thread::scope(|scope| {
        let body = &body;
        let (first, rest) = shards.split_first_mut().expect("at least one shard");
        let others: Vec<_> = rest
            .iter_mut()
            .map(|shard| scope.spawn(move || body(shard)))
            .collect();
        body(first);
        for handle in others {
            handle.join().expect("a shard thread panicked");
        }
    });
}

fn run(workload: &Workload, args: &Args) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let seed = args.seed;
    let mut images = vec![0u8; workload.devices * workload.image_bytes];
    for (device, image) in images.chunks_mut(workload.image_bytes).enumerate() {
        plan::fill_image(seed, device, image);
    }

    let mut setup_walls = Vec::with_capacity(SETUP_REPS);
    let mut probes = Vec::new();
    let mut shards: Vec<Shard> = Vec::new();
    for rep in 0..SETUP_REPS {
        // Free the previous fleet first, so peak memory is one fleet.
        shards.clear();
        probe_host(&mut probes);
        let traced = args.trace && rep + 1 == SETUP_REPS;
        let started = Instant::now();
        let built = on_threads(SHARDS, |index| {
            Shard::provision(workload, seed, index, &images, Tracer::new(traced, epoch))
        });
        setup_walls.push(started.elapsed());
        shards = built.into_iter().collect::<Result<_, _>>()?;
    }
    drop(images);

    let device_link = plan::device_link(workload, seed);
    let frame_link = plan::frame_link(workload, seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut prove_wall = Duration::ZERO;
    let mut verify_wall = Duration::ZERO;
    let mut round_log = Vec::new();
    let mut rounds = 0u32;
    let mut probe_wall = Duration::ZERO;
    let started = Instant::now();
    while rounds < workload.min_rounds || started.elapsed() < budget {
        let round = rounds;
        let probe = Instant::now();
        probe_host(&mut probes);
        probe_wall += probe.elapsed();
        let before = progress(&shards);
        let phase = Instant::now();
        each_shard(&mut shards, |shard| {
            shard.prove(workload, seed, round, &device_link)
        });
        let prove = phase.elapsed();
        let phase = Instant::now();
        each_shard(&mut shards, |shard| {
            shard.verify(workload, round, &frame_link)
        });
        let verify = phase.elapsed();
        let after = progress(&shards);
        round_log.push(Round {
            prove,
            verify,
            measured: after.0 - before.0,
            verified: after.1 - before.1,
            entries: after.2 - before.2,
        });
        prove_wall += prove;
        verify_wall += verify;
        rounds += 1;
    }

    // Final phase on the calling thread: merge the shard hubs, aggregate the
    // fleet and re-check every device's hash chain.
    let final_started = Instant::now();
    let mut hubs: Vec<VerifierHub> = shards
        .iter_mut()
        .map(|shard| std::mem::take(&mut shard.hub))
        .collect();
    let tracer = &mut shards[0].tracer;
    tracer.set_group(rounds, false);
    tracer.begin(Layer::Final);
    let mut hub = hubs.remove(0);
    for other in hubs {
        tracer.span(Layer::HubMerge, || hub.merge(other));
    }
    let tree = tracer.span(Layer::SwarmAggregate, || {
        AggregationTree::from_hub(&hub, AGGREGATION_FANOUT)
    });
    let chains_verified = tracer.span(Layer::HubVerifyChains, || hub.verified_chains());
    tracer.end();
    let final_wall = final_started.elapsed();
    let run_wall = started.elapsed() - probe_wall;
    probes.sort_by(f64::total_cmp);
    let host = probes[probes.len() / 2];

    let mut counters = Counters::default();
    let mut all = Tracer::new(args.trace, epoch);
    let mut spans_per_thread = Vec::with_capacity(shards.len());
    for shard in &mut shards {
        counters.add(&shard.counters);
        let tracer = std::mem::replace(&mut shard.tracer, Tracer::new(false, epoch));
        spans_per_thread.push(tracer.span_count());
        all.absorb(tracer);
    }

    let mut gates = Gates::default();
    gates.check(
        "every device's hash chain verifies",
        chains_verified == workload.devices && hub.len() == workload.devices,
        format!("{chains_verified} of {} devices", workload.devices),
    );
    gates.check(
        "evictions + resident == entries",
        hub.total_evictions() + hub.total_resident() == hub.total_entries(),
        format!(
            "{} + {} vs {}",
            hub.total_evictions(),
            hub.total_resident(),
            hub.total_entries()
        ),
    );
    let root = tree.root().copied();
    gates.check(
        "aggregation root entries equal history entries",
        root.is_some_and(|root| {
            root.entries == hub.total_entries() && root.devices == workload.devices as u64
        }),
        format!(
            "root {:?} vs {} entries",
            root.map(|root| root.entries),
            hub.total_entries()
        ),
    );
    gates.check(
        "responses folded equal responses sent in frames",
        counters.responses_ingested == counters.responses_sent,
        format!(
            "{} vs {}",
            counters.responses_ingested, counters.responses_sent
        ),
    );
    gates.check(
        "measurements verified equal measurements sent in frames",
        counters.measurements_verified == counters.measurements_sent,
        format!(
            "{} vs {}",
            counters.measurements_verified, counters.measurements_sent
        ),
    );
    let detection = report::check_detection(
        workload,
        seed,
        rounds,
        &hub,
        &shards,
        &device_link,
        &mut gates,
    );
    if workload.hostile.is_some() {
        gates.check(
            "duplicates dropped equal duplicates injected",
            hub.duplicates() == counters.duplicates_injected,
            format!("{} vs {}", hub.duplicates(), counters.duplicates_injected),
        );
        gates.check(
            "every shard hub round-tripped through a snapshot",
            counters.snapshots == SHARDS as u64,
            format!("{} of {SHARDS}", counters.snapshots),
        );
    }
    gates.check(
        "no operation failed",
        counters.failures == 0,
        counters
            .first_failure
            .clone()
            .unwrap_or_else(|| "none".to_owned()),
    );

    let mut outcome = Outcome {
        setup_walls,
        host,
        rounds,
        round_log,
        run_wall,
        prove_wall,
        verify_wall,
        final_wall,
        hub,
        counters,
        detection,
        tracer: all,
        spans_per_thread,
        gates,
    };
    if args.trace {
        outcome.check_trace();
    }
    Ok(outcome)
}
