//! `perfbench` — fleet-scale throughput harness.
//!
//! Simulates N provers × scheduled self-measurements × periodic
//! collections for every MAC algorithm — partitioned over worker threads,
//! each driving an event-driven timeline with an optional lossy network,
//! device churn and on-demand traffic — prints a throughput summary, runs a
//! 1→N thread-scaling sweep and writes `BENCH_fleet.json` (schema
//! `erasmus-perfbench/v10`) at the repository root so successive runs have a
//! perf trajectory to compare against.
//!
//! Usage:
//!
//! ```text
//! perfbench                  # full run (4096 provers per algorithm)
//! perfbench --quick          # CI-sized run (1000 provers per algorithm)
//! perfbench --threads 4      # shard the fleet over 4 worker threads
//! perfbench --provers 20000  # override the fleet size
//! perfbench --seed 7         # reseed every deterministic draw
//! perfbench --loss 0.05      # drop 5% of collection/on-demand packets
//! perfbench --latency 20     # 20 ms base link latency (+50% jitter)
//! perfbench --churn 0.1      # 10% of devices leave and rejoin mid-run
//! perfbench --duplicate 0.02 # deliver 2% of batch frames twice
//! perfbench --reorder 0.02   # delay 2% of deliveries past successors
//! perfbench --corrupt 0.01   # flip a byte in 1% of transmissions
//! perfbench --retries 3      # ARQ: retransmit drops up to 3 times
//! perfbench --hub-crash 2    # crash/restore the verifier hub twice
//! perfbench --on-demand 64   # inject 64 authenticated on-demand requests
//! perfbench --ring-capacity 8   # retained entries per device (default 64)
//! perfbench --out path.json  # write the JSON somewhere else
//! ```
//!
//! With the default flags (no loss, no latency, no churn, no on-demand) the
//! event-driven runtime reproduces the lossless phase-loop totals
//! bit-for-bit; the determinism test suite pins this. Every collection
//! burst travels as encoded batch frames and is decoded + verified
//! zero-copy off the bytes. The fault and recovery flags (`--duplicate`,
//! `--reorder`, `--corrupt`, `--retries`, `--hub-crash`) exercise the frame
//! link's ARQ loop, the hub's dedup window and the snapshot-based crash
//! recovery. Each shard engine schedules on the O(1) calendar queue, and
//! same-instant measurements always hash in lane-interleaved groups (8,
//! then 4, then scalar for the last 0–3 devices of a cohort).
//!
//! Verifier history is a per-device ring: at most `--ring-capacity`
//! resident entries plus a rollup summary and a PCR-style hash chain over
//! evicted entries — O(capacity) state per device no matter how long the
//! run. Lifetime totals do not depend on the capacity as long as it covers
//! each device's in-flight reordering window.

use std::path::PathBuf;
use std::process::ExitCode;

use erasmus_bench::fleet::{self, scaling, FleetConfig};
use erasmus_crypto::MacAlgorithm;
use erasmus_sim::{NetworkConfig, SimDuration};

struct Options {
    quick: bool,
    threads: usize,
    provers: Option<usize>,
    rounds: Option<usize>,
    memory_bytes: Option<usize>,
    seed: u64,
    loss: f64,
    latency_ms: u64,
    churn: f64,
    duplicate: f64,
    reorder: f64,
    corrupt: f64,
    retries: u32,
    hub_crashes: usize,
    on_demand: usize,
    ring_capacity: Option<usize>,
    out: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: perfbench [--quick] [--threads N] [--provers N] [--rounds N] [--memory BYTES]\n\
     \x20                [--seed N] [--loss P] [--latency MS] [--churn P]\n\
     \x20                [--duplicate P] [--reorder P] [--corrupt P] [--retries N]\n\
     \x20                [--hub-crash N] [--on-demand N] [--ring-capacity N] [--out PATH]\n\
     \n\
     Drives N simulated provers through scheduled self-measurements and\n\
     periodic collections for each MAC algorithm, sharded over --threads\n\
     worker threads running event-driven timelines, then writes the\n\
     BENCH_fleet.json throughput trajectory (default: repository root)\n\
     including a 1..N thread-scaling sweep.\n\
     --threads, --provers and --rounds must be at least 1; --memory must\n\
     be at least 1 byte. Same-instant measurements hash in lane-interleaved\n\
     groups of 8, then 4, then scalar. Collection bursts reach the\n\
     verifier hub as encoded batch frames, verified zero-copy off the\n\
     bytes. --loss, --churn, --duplicate, --reorder and --corrupt are\n\
     probabilities in [0, 1]; --latency is the base link latency in\n\
     milliseconds (jitter is half the base); --seed makes faulty/churn runs\n\
     reproducible and is recorded in the JSON report. --retries bounds the\n\
     ARQ retransmission budget per collection (0 disables retransmission);\n\
     --hub-crash schedules N verifier-hub crash/snapshot-restore cycles\n\
     per shard. --ring-capacity keeps at most N history entries resident\n\
     per device (at least 1, default 64) and seals evicted entries into a\n\
     per-device hash chain."
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        quick: false,
        threads: 1,
        provers: None,
        rounds: None,
        memory_bytes: None,
        seed: fleet::DEFAULT_SEED,
        loss: 0.0,
        latency_ms: 0,
        churn: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        corrupt: 0.0,
        retries: 0,
        hub_crashes: 0,
        on_demand: 0,
        ring_capacity: None,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_for = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--threads" => options.threads = numeric(value_for("--threads")?, "--threads", 1)?,
            "--provers" => {
                options.provers = Some(numeric(value_for("--provers")?, "--provers", 1)?);
            }
            "--rounds" => options.rounds = Some(numeric(value_for("--rounds")?, "--rounds", 1)?),
            "--memory" => {
                options.memory_bytes = Some(numeric(value_for("--memory")?, "--memory", 1)?);
            }
            "--seed" => {
                options.seed = value_for("--seed")?
                    .parse::<u64>()
                    .map_err(|e| format!("invalid --seed value: {e}"))?;
            }
            "--loss" => options.loss = probability(value_for("--loss")?, "--loss")?,
            "--latency" => {
                options.latency_ms = value_for("--latency")?
                    .parse::<u64>()
                    .map_err(|e| format!("invalid --latency value: {e}"))?;
            }
            "--churn" => options.churn = probability(value_for("--churn")?, "--churn")?,
            "--duplicate" => {
                options.duplicate = probability(value_for("--duplicate")?, "--duplicate")?;
            }
            "--reorder" => options.reorder = probability(value_for("--reorder")?, "--reorder")?,
            "--corrupt" => options.corrupt = probability(value_for("--corrupt")?, "--corrupt")?,
            "--retries" => {
                options.retries = value_for("--retries")?
                    .parse::<u32>()
                    .map_err(|e| format!("invalid --retries value: {e}"))?;
            }
            "--hub-crash" => {
                options.hub_crashes = value_for("--hub-crash")?
                    .parse::<usize>()
                    .map_err(|e| format!("invalid --hub-crash value: {e}"))?;
            }
            "--on-demand" => {
                options.on_demand = value_for("--on-demand")?
                    .parse::<usize>()
                    .map_err(|e| format!("invalid --on-demand value: {e}"))?;
            }
            "--ring-capacity" => {
                options.ring_capacity = Some(numeric(
                    value_for("--ring-capacity")?,
                    "--ring-capacity",
                    1,
                )?);
            }
            "--out" => {
                options.out = Some(PathBuf::from(
                    args.next().ok_or_else(|| "--out needs a path".to_owned())?,
                ));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

fn numeric(raw: String, name: &str, min: usize) -> Result<usize, String> {
    let value = raw
        .parse::<usize>()
        .map_err(|e| format!("invalid {name} value: {e}"))?;
    if value < min {
        return Err(format!(
            "{name} must be at least {min}, got {value} — a zero-work run \
             would overwrite BENCH_fleet.json with a degenerate trajectory"
        ));
    }
    Ok(value)
}

fn probability(raw: String, name: &str) -> Result<f64, String> {
    let value = raw
        .parse::<f64>()
        .map_err(|e| format!("invalid {name} value: {e}"))?;
    if !(0.0..=1.0).contains(&value) {
        return Err(format!(
            "{name} must be a probability in [0, 1], got {value}"
        ));
    }
    Ok(value)
}

/// `BENCH_fleet.json` lives at the repository root regardless of the
/// invocation directory, so CI and local runs agree on its location.
fn default_output_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_fleet.json")
}

fn config_for(options: &Options, algorithm: MacAlgorithm) -> FleetConfig {
    let mut config = if options.quick {
        FleetConfig::quick(algorithm)
    } else {
        FleetConfig::full(algorithm)
    };
    if let Some(provers) = options.provers {
        config.provers = provers;
    }
    if let Some(rounds) = options.rounds {
        config.rounds = rounds;
    }
    if let Some(memory_bytes) = options.memory_bytes {
        config.memory_bytes = memory_bytes;
    }
    config.seed = options.seed;
    config.network = NetworkConfig {
        base_latency: SimDuration::from_millis(options.latency_ms),
        jitter: SimDuration::from_millis(options.latency_ms / 2),
        loss: options.loss,
        duplicate: options.duplicate,
        reorder: options.reorder,
        corrupt: options.corrupt,
    };
    config.churn = options.churn;
    config.retries = options.retries;
    config.hub_crashes = options.hub_crashes;
    config.on_demand = options.on_demand;
    if let Some(ring_capacity) = options.ring_capacity {
        config.ring_capacity = ring_capacity;
    }
    config
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("perfbench: {message}");
            }
            eprintln!("{}", usage());
            return if message.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };

    let mode = if options.quick { "quick" } else { "full" };
    let reports: Vec<_> = MacAlgorithm::ALL
        .iter()
        .map(|&algorithm| {
            let config = config_for(&options, algorithm);
            eprintln!(
                "perfbench: {algorithm}: {} provers x {} measurements x {} rounds on {} thread(s) \
                 ring({}) history (seed {}, loss {}, dup {}, \
                 reorder {}, corrupt {}, latency {} ms, churn {}, retries {}, hub-crashes {}, \
                 on-demand {}) ...",
                config.provers,
                config.measurements_per_round,
                config.rounds,
                options.threads,
                config.ring_capacity,
                config.seed,
                config.network.loss,
                config.network.duplicate,
                config.network.reorder,
                config.network.corrupt,
                options.latency_ms,
                config.churn,
                config.retries,
                config.hub_crashes,
                config.on_demand,
            );
            fleet::run_threaded(&config, options.threads)
        })
        .collect();

    for report in &reports {
        if report.wire_frames > 0 {
            eprintln!(
                "perfbench: {}: wire: {} frames, {} bytes, {} responses decoded+verified \
                 ({:.1} MiB/s frame ingest)",
                report.config.algorithm,
                report.wire_frames,
                report.wire_bytes,
                report.decoded_accepted,
                report.decode_mib_per_sec(),
            );
        }
        eprintln!(
            "perfbench: {}: history ring({}): {} entries ({} resident, {} evicted, {} stale), \
             {} chains verified, {} bytes resident state; aggregation: {} leaves, {} nodes, \
             depth {}",
            report.config.algorithm,
            report.config.ring_capacity,
            report.history_entries,
            report.history_resident,
            report.history_evictions,
            report.history_stale_discards,
            report.chains_verified,
            report.resident_state_bytes,
            report.aggregation.leaves,
            report.aggregation.nodes,
            report.aggregation.depth,
        );
    }

    print!("{}", fleet::render(&reports));

    // run_threaded clamps oversized requests to the fleet size; report the
    // effective count so the document agrees with its own results.
    let threads = reports.first().map_or(options.threads, |r| r.threads);

    // Thread-scaling sweep on the paper's default MAC: same fleet, 1..N
    // workers, identical totals — only the wall clock may move. The
    // N-thread endpoint reuses the main run above instead of re-timing it.
    eprintln!("perfbench: scaling sweep 1..{threads} threads (HMAC-SHA256) ...");
    let hmac_report = reports
        .iter()
        .find(|r| r.config.algorithm == MacAlgorithm::HmacSha256);
    let sweep = scaling::sweep_reusing(
        &config_for(&options, MacAlgorithm::HmacSha256),
        threads,
        hmac_report,
    );
    print!("{}", scaling::render(&sweep));

    let path = options.out.unwrap_or_else(default_output_path);
    let document = fleet::document_json(mode, threads, &reports, &sweep);
    if let Err(error) = std::fs::write(&path, &document) {
        eprintln!("perfbench: cannot write {}: {error}", path.display());
        return ExitCode::FAILURE;
    }
    let shown = path.canonicalize().unwrap_or(path);
    println!("wrote {}", shown.display());

    if reports.iter().all(|r| r.all_healthy) {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a collection round failed verification");
        ExitCode::FAILURE
    }
}
