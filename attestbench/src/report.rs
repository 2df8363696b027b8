//! Correctness gates, metrics and the output of a run.

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use erasmus_core::{MeasurementVerdict, VerifierHub};
use erasmus_sim::NetworkModel;

use crate::fleet::{Counters, Shard};
use crate::plan::{self, Workload, SHARDS, WORKLOADS};
use crate::trace::{Layer, Tracer};
use crate::Args;

/// Smallest share of the traced run's wall, counted once per thread, that
/// named layer calls must account for.
const MIN_LAYER_COVERAGE: f64 = 0.9;

/// Named correctness checks of one run.
#[derive(Debug, Default)]
pub struct Gates {
    results: Vec<(String, bool, String)>,
}

impl Gates {
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.results.push((name.to_owned(), passed, detail));
    }

    fn passed(&self) -> bool {
        self.results.iter().all(|(_, passed, _)| *passed)
    }
}

/// What the hostile workload's detection looked like.
#[derive(Debug, Default)]
pub struct Detection {
    /// Sim-time seconds from infection to the collection that flagged the
    /// device, one sample per flagged device.
    latencies: Vec<f64>,
    /// Infected devices whose residency covered a measurement instant.
    covered: u64,
    /// Those of them whose incriminating evidence reached the verifier.
    expected: u64,
    missed: u64,
    false_alarms: u64,
    wrong_time: u64,
    wrong_verdicts: u64,
    checked: u64,
}

impl Detection {
    fn failed(&self) -> u64 {
        self.missed + self.false_alarms + self.wrong_time + self.wrong_verdicts
    }

    fn quantile(&self, q: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

/// Compares every device's verifier-side verdict with the plan.
///
/// A device must be flagged exactly when the benchmark's own buffer model
/// ([`plan::expected_detection`]) says a measurement taken while its malware
/// was resident reached the verifier, and at exactly that collection. Every
/// resident entry of an infected device must be non-healthy exactly when
/// the malware was resident at its timestamp.
pub fn check_detection(
    workload: &Workload,
    seed: u64,
    rounds: u32,
    hub: &VerifierHub,
    shards: &[Shard],
    device_link: &NetworkModel,
    gates: &mut Gates,
) -> Detection {
    let mut detection = Detection::default();
    for history in hub.histories() {
        let device = history.device().value() as usize;
        let infection = shards.iter().find_map(|shard| shard.infection(device));
        let flagged = history.first_compromise_detected_at();
        let plan = infection.map(|infection| {
            plan::expected_detection(
                workload,
                seed,
                device,
                infection,
                rounds,
                |device, round| {
                    device_link
                        .sample(device as u64, u64::from(round))
                        .is_delivered()
                },
            )
        });
        let expected = plan.and_then(|plan| plan.detected_at);
        detection.checked += u64::from(infection.is_some());
        detection.covered += u64::from(plan.is_some_and(|plan| plan.covered));
        detection.expected += u64::from(expected.is_some());
        match (expected, flagged) {
            (Some(expected), Some(flagged)) if expected == flagged => {}
            (Some(_), Some(_)) => detection.wrong_time += 1,
            (Some(_), None) => detection.missed += 1,
            (None, Some(_)) => detection.false_alarms += 1,
            (None, None) => {}
        }
        if let (Some(infection), Some(flagged)) = (infection, flagged) {
            detection.latencies.push(
                flagged
                    .saturating_duration_since(infection.at)
                    .as_secs_f64(),
            );
        }
        if let Some(infection) = infection {
            let wrong = history
                .entries()
                .filter(|entry| {
                    (entry.verdict != MeasurementVerdict::Healthy)
                        != infection.resident(entry.timestamp)
                })
                .count();
            detection.wrong_verdicts += wrong as u64;
        }
    }
    if workload.hostile.is_some() {
        gates.check(
            "flagged devices equal the expected set, at the expected collection",
            detection.failed() == 0,
            format!(
                "{} infected, {} measured while resident, {} expected (evidence delivered), \
                 missed {}, false alarms {}, wrong collection {}, wrong entry verdicts {}",
                detection.checked,
                detection.covered,
                detection.expected,
                detection.missed,
                detection.false_alarms,
                detection.wrong_time,
                detection.wrong_verdicts
            ),
        );
    } else {
        gates.check(
            "no device flagged on a clean fleet",
            detection.false_alarms == 0 && hub.all_healthy(),
            format!("{} false alarms", detection.false_alarms),
        );
    }
    detection
}

/// What one collection round did and how long its phases took.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub prove: Duration,
    pub verify: Duration,
    /// Self-measurements taken (scheduled and on-demand).
    pub measured: u64,
    /// Measurements verified (frames and on-demand answers).
    pub verified: u64,
    /// History entries recorded.
    pub entries: u64,
}

/// Everything a finished run hands to the output.
pub struct Outcome {
    pub setup_walls: Vec<Duration>,
    /// Median host-speed probe reading of the run (every provisioning and
    /// round), reported next to the timings, never applied to them.
    pub host: f64,
    pub rounds: u32,
    pub round_log: Vec<Round>,
    pub run_wall: Duration,
    pub prove_wall: Duration,
    pub verify_wall: Duration,
    pub final_wall: Duration,
    pub hub: VerifierHub,
    pub counters: Counters,
    pub detection: Detection,
    pub tracer: Tracer,
    pub spans_per_thread: Vec<usize>,
    pub gates: Gates,
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident set size of this process, from `VmHWM`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.gates.passed() && self.failed() == 0
    }

    fn failed(&self) -> u64 {
        self.counters.failures + self.detection.failed()
    }

    /// Operations attempted: measurements, collections, on-demand requests
    /// and their replays, frame deliveries (pristine, damaged, duplicated),
    /// snapshot round trips and planned infections checked.
    fn attempted(&self) -> u64 {
        let c = &self.counters;
        c.self_measurements
            + c.collections
            + 2 * c.on_demand
            + c.frames
            + c.duplicates_injected
            + c.corrupt_structural
            + c.corrupt_payload
            + c.snapshots
            + self.detection.checked
    }

    fn measurements_verified(&self) -> u64 {
        self.counters.measurements_verified + self.counters.on_demand_measurements
    }

    /// Set-up wall (median of the provisionings) and the three rates, each
    /// the median over the rounds of one round's count over its wall. The
    /// final phase (merge, aggregation, chain checks) is spread evenly over
    /// the rounds' verifier side.
    fn timings(&self) -> [f64; 4] {
        let setup = median(self.setup_walls.iter().map(Duration::as_secs_f64).collect());
        let final_share = self.final_wall / self.rounds.max(1);
        let rate = |per_round: &dyn Fn(&Round) -> (u64, Duration)| {
            median(
                self.round_log
                    .iter()
                    .map(|round| {
                        let (count, wall) = per_round(round);
                        ratio(count as f64, wall.as_secs_f64())
                    })
                    .collect(),
            )
        };
        [
            setup,
            rate(&|round| (round.entries, round.prove + round.verify + final_share)),
            rate(&|round| (round.measured, round.prove)),
            rate(&|round| (round.verified, round.verify + final_share)),
        ]
    }

    /// The three rates over the whole run: totals over summed walls.
    fn whole_run_rates(&self) -> [f64; 3] {
        let rate = |count: u64, wall: Duration| ratio(count as f64, wall.as_secs_f64());
        [
            rate(self.hub.total_entries(), self.run_wall),
            rate(self.counters.self_measurements, self.prove_wall),
            rate(
                self.measurements_verified(),
                self.verify_wall + self.final_wall,
            ),
        ]
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let [setup, attest, prover, verifier] = self.timings();
        vec![
            metric("setup_s", setup, "s"),
            metric("attest_per_s", attest, "meas/s"),
            metric("prover_meas_per_s", prover, "meas/s"),
            metric("verifier_meas_per_s", verifier, "meas/s"),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        ]
    }

    /// Layer self time as a share of the run's wall counted once per
    /// thread (the round phases run on every shard thread, the final phase
    /// on one), and the share of that wall the threads spent inside phases
    /// rather than waiting for each other.
    fn layer_coverage(&self) -> (f64, f64) {
        let busy: u64 = [Layer::PhaseProve, Layer::PhaseVerify, Layer::Final]
            .iter()
            .map(|&layer| self.tracer.totals(layer).total_ns)
            .sum();
        let setup_layers = [
            Layer::HwKeyDerive,
            Layer::ProverNew,
            Layer::ProverLoadImage,
            Layer::VerifierNew,
            Layer::VerifierLearnReference,
        ];
        let layers: u64 = Layer::ALL
            .iter()
            .filter(|layer| !layer.is_container() && !setup_layers.contains(layer))
            .map(|&layer| self.tracer.totals(layer).self_ns)
            .sum();
        let thread_wall = SHARDS as f64 * (self.prove_wall + self.verify_wall).as_secs_f64()
            + self.final_wall.as_secs_f64();
        (
            ratio(layers as f64 / 1e9, thread_wall),
            ratio(busy as f64 / 1e9, thread_wall),
        )
    }

    fn per_layer(&self, workload: &Workload) -> Vec<Metric> {
        let t = |layer: Layer| self.tracer.totals(layer);
        let per_call = |layer: Layer| ratio(t(layer).total_ns as f64, t(layer).calls as f64);
        let c = &self.counters;
        let hub = &self.hub;
        let mib = (1u64 << 20) as f64;
        let measure = t(Layer::ProverSelfMeasure);
        let decode = t(Layer::HubDecode);
        let verify = t(Layer::VerifierVerifyFrame);
        let fold = t(Layer::HubFold);
        let encode = t(Layer::EncodingEncodeBatch);
        let devices = workload.devices as f64;
        let (coverage, busy_share) = self.layer_coverage();
        // Counts that grow with the number of rounds a run completes are
        // reported per round, so a faster library does not read as more
        // faults, detections or bytes.
        let per_round = |count: u64| ratio(count as f64, f64::from(self.rounds));
        let forged: usize = hub
            .histories()
            .map(|history| history.count(MeasurementVerdict::Forged))
            .sum();
        vec![
            metric(
                "hw.key_derive.ns_per_op",
                per_call(Layer::HwKeyDerive),
                "ns",
            ),
            metric("prover.new.ns_per_op", per_call(Layer::ProverNew), "ns"),
            metric(
                "verifier.learn_reference.ns_per_op",
                per_call(Layer::VerifierLearnReference),
                "ns",
            ),
            metric(
                "prover.self_measure.ops",
                per_round(measure.calls),
                "count/round",
            ),
            metric(
                "prover.self_measure.ns_per_op",
                per_call(Layer::ProverSelfMeasure),
                "ns",
            ),
            metric(
                "prover.self_measure.mib_per_s",
                ratio(
                    (measure.calls * workload.image_bytes as u64) as f64 / mib,
                    measure.self_ns as f64 / 1e9,
                ),
                "MiB/s",
            ),
            metric(
                "prover.handle_collection.ns_per_op",
                per_call(Layer::ProverHandleCollection),
                "ns",
            ),
            metric(
                "encoding.encode_batch.frames",
                per_round(encode.calls),
                "count/round",
            ),
            metric(
                "encoding.encode_batch.bytes",
                per_round(c.frame_bytes),
                "B/round",
            ),
            metric(
                "encoding.encode_batch.ns_per_frame",
                per_call(Layer::EncodingEncodeBatch),
                "ns",
            ),
            metric(
                "hub.decode.ns_per_frame",
                ratio(decode.total_ns as f64, decode.calls as f64),
                "ns",
            ),
            metric(
                "hub.decode.mib_per_s",
                ratio(c.decoded_bytes as f64 / mib, decode.total_ns as f64 / 1e9),
                "MiB/s",
            ),
            metric(
                "verifier.verify_frame.measurements",
                per_round(c.measurements_verified),
                "count/round",
            ),
            metric(
                "verifier.verify_frame.ns_per_measurement",
                ratio(verify.total_ns as f64, c.measurements_verified as f64),
                "ns",
            ),
            metric(
                "verifier.verify_frame.non_healthy",
                per_round(c.non_healthy),
                "count/round",
            ),
            metric(
                "hub.fold.responses",
                per_round(c.responses_ingested),
                "count/round",
            ),
            metric(
                "hub.fold.ns_per_response",
                ratio(fold.total_ns as f64, c.responses_ingested as f64),
                "ns",
            ),
            metric(
                "hub.fold.useful_ratio",
                ratio(
                    hub.total_entries() as f64,
                    self.measurements_verified() as f64,
                ),
                "ratio",
            ),
            metric(
                "history.entries",
                per_round(hub.total_entries()),
                "count/round",
            ),
            metric(
                "history.evictions",
                per_round(hub.total_evictions()),
                "count/round",
            ),
            metric(
                "history.stale_discards",
                per_round(hub.total_stale_discards()),
                "count/round",
            ),
            metric("hub.merge.ns", t(Layer::HubMerge).total_ns as f64, "ns"),
            metric(
                "swarm.aggregate.ns_per_device",
                ratio(t(Layer::SwarmAggregate).total_ns as f64, devices),
                "ns",
            ),
            metric(
                "hub.verify_chains.ns_per_device",
                ratio(t(Layer::HubVerifyChains).total_ns as f64, devices),
                "ns",
            ),
            metric(
                "hub.dedup.duplicates_dropped",
                per_round(hub.duplicates()),
                "count/round",
            ),
            metric(
                "hub.decode.rejects",
                per_round(c.decode_rejects),
                "count/round",
            ),
            metric(
                "verifier.reject_corrupt.flagged",
                per_round(c.tamper_rejects),
                "count/round",
            ),
            metric(
                "encoding.snapshot_encode.bytes",
                c.snapshot_bytes as f64,
                "B",
            ),
            metric(
                "encoding.snapshot_encode.ns",
                t(Layer::EncodingSnapshotEncode).total_ns as f64,
                "ns",
            ),
            metric(
                "encoding.snapshot_decode.bytes",
                c.snapshot_bytes as f64,
                "B",
            ),
            metric(
                "encoding.snapshot_decode.ns",
                t(Layer::EncodingSnapshotDecode).total_ns as f64,
                "ns",
            ),
            metric(
                "prover.handle_on_demand.ops",
                per_round(t(Layer::ProverHandleOnDemand).calls),
                "count/round",
            ),
            metric(
                "prover.handle_on_demand.ns_per_op",
                per_call(Layer::ProverHandleOnDemand),
                "ns",
            ),
            metric(
                "prover.handle_on_demand.rejected",
                per_round(c.replays_rejected),
                "count/round",
            ),
            metric(
                "verifier.verify_on_demand.ns_per_op",
                per_call(Layer::VerifierVerifyOnDemand),
                "ns",
            ),
            metric("sim.network.dropped", per_round(c.dropped), "count/round"),
            metric(
                "sim.network.duplicated",
                per_round(c.duplicates_injected),
                "count/round",
            ),
            metric(
                "sim.network.corrupted",
                per_round(c.corrupt_structural + c.corrupt_payload),
                "count/round",
            ),
            metric("malware.infected", c.infected as f64, "count"),
            metric("malware.mobile", c.departed as f64, "count"),
            metric("malware.forged", per_round(forged as u64), "count/round"),
            metric(
                "detect.samples",
                self.detection.latencies.len() as f64,
                "count",
            ),
            metric(
                "detect.latency_p50_s",
                self.detection.quantile(0.5),
                "sim_s",
            ),
            metric(
                "detect.latency_p99_s",
                self.detection.quantile(0.99),
                "sim_s",
            ),
            metric("trace.layer_coverage", coverage, "ratio"),
            metric("trace.busy_share", busy_share, "ratio"),
            metric("trace.attest_per_s", self.timings()[1], "meas/s"),
            metric("host.probe_blocks_per_s", self.host, "blocks/s"),
        ]
    }

    /// Adds the traced run's ledger gates: traced call counts tie to the
    /// run's own counters, and layer self times add up to the traced wall.
    pub fn check_trace(&mut self) {
        let (coverage, _) = self.layer_coverage();
        let verify = self.tracer.totals(Layer::VerifierVerifyFrame).calls;
        let fold = self.tracer.totals(Layer::HubFold).calls;
        self.gates.check(
            "traced verify calls equal responses folded",
            verify == self.counters.responses_ingested,
            format!("{verify} vs {}", self.counters.responses_ingested),
        );
        self.gates.check(
            "traced fold calls equal frames accepted",
            fold == self.counters.frames_accepted,
            format!("{fold} vs {}", self.counters.frames_accepted),
        );
        self.gates.check(
            "layer self times add up to the traced wall",
            coverage >= MIN_LAYER_COVERAGE,
            format!("{:.4} (minimum {MIN_LAYER_COVERAGE})", coverage),
        );
    }

    /// Prints the run: a header, the host block, every metric on its own
    /// line, the gates, and the result object as the last line. A traced
    /// run also writes its span records. Returns whether the run was
    /// correct.
    pub fn print(&self, workload: &Workload, args: &Args) -> bool {
        if args.trace {
            if let Err(err) = self.write_trace(workload) {
                eprintln!("attestbench: could not write the trace: {err}");
            }
        }
        println!(
            "attestbench workload={} seed={} trace={} devices={} image_bytes={} rounds={}",
            workload.name,
            args.seed,
            u8::from(args.trace),
            workload.devices,
            workload.image_bytes,
            self.rounds
        );
        println!("host {}", host_block());
        let metrics = if args.trace {
            self.per_layer(workload)
        } else {
            self.end_to_end()
        };
        for m in &metrics {
            println!("metric {} {} {}", m.name, m.value, m.unit);
        }
        let [attest, prover, verifier] = self.whole_run_rates();
        println!(
            "info host_probe_blocks_per_s={} spans={} whole_run_attest_per_s={attest} \
             whole_run_prover_meas_per_s={prover} whole_run_verifier_meas_per_s={verifier}",
            self.host,
            self.tracer.span_count()
        );
        println!(
            "info fail_frac={} detect_samples={} detect_latency_p50_s={} detect_latency_p99_s={} \
             run_wall_s={} prove_wall_s={} verify_wall_s={} final_wall_s={}",
            ratio(self.failed() as f64, self.attempted() as f64),
            self.detection.latencies.len(),
            self.detection.quantile(0.5),
            self.detection.quantile(0.99),
            self.run_wall.as_secs_f64(),
            self.prove_wall.as_secs_f64(),
            self.verify_wall.as_secs_f64(),
            self.final_wall.as_secs_f64()
        );
        for (name, passed, detail) in &self.gates.results {
            println!(
                "gate {} {name}: {detail}",
                if *passed { "ok" } else { "FAILED" }
            );
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted(),
            self.failed()
        );
        for (i, m) in metrics.iter().enumerate() {
            let _ = write!(
                json,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.value,
                m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
        self.correct()
    }

    /// Writes the span records next to the benchmark's sources.
    fn write_trace(&self, workload: &Workload) -> std::io::Result<()> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.jsonl", workload.name));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        self.tracer.write_spans(&mut out, &self.spans_per_thread)?;
        out.flush()?;
        eprintln!(
            "attestbench: wrote {} spans to {}",
            self.tracer.span_count(),
            path.display()
        );
        Ok(())
    }
}

/// The build and host facts a result depends on.
fn host_block() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = env!("ATTESTBENCH_RELEASE_PROFILE");
    let repository_profile = env!("ATTESTBENCH_REPOSITORY_RELEASE_PROFILE");
    if profile != repository_profile {
        eprintln!(
            "attestbench: warning: this package's [profile.release] ({profile}) differs from \
             the repository's ({repository_profile}); only this package's applies here"
        );
    }
    format!(
        "{{\"available_parallelism\": {parallelism}, \"threads_used\": {SHARDS}, \
         \"rustflags\": \"{}\", \"profile\": \"{}\", \"opt_level\": \"{}\", \"rustc\": \"{}\", \
         \"release_profile\": \"{profile}\", \"repository_release_profile\": \"{repository_profile}\", \
         \"release_profile_matches_repository\": {}}}",
        env!("ATTESTBENCH_RUSTFLAGS"),
        env!("ATTESTBENCH_PROFILE"),
        env!("ATTESTBENCH_OPT_LEVEL"),
        env!("ATTESTBENCH_RUSTC"),
        profile == repository_profile
    )
}

/// Reads the number after `"key": ` in a result line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Runs every workload, each in a child process of its own so that peak
/// memory is per workload, and combines their result lines.
pub fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("attestbench: cannot locate own executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) => output,
            Err(err) => {
                eprintln!("attestbench: cannot run {}: {err}", workload.name);
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout
            .lines()
            .last()
            .filter(|line| line.starts_with('{'))
            .unwrap_or("null")
            .to_owned();
        correct &= output.status.success() && last.starts_with("{\"correct\": true");
        attempted += json_u64(&last, "attempted").unwrap_or(0);
        failed += json_u64(&last, "failed").unwrap_or(0);
        results.push(format!("\"{}\": {}", workload.name, last));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {{{}}}}}",
        results.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
