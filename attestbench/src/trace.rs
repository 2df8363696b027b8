//! In-memory span tracer for the traced run.
//!
//! Every call the benchmark makes into a library layer is bracketed by
//! [`Tracer::begin`] / [`Tracer::end`]. Each thread owns one tracer, so
//! recording takes no lock. Per layer the tracer always accumulates calls,
//! total time and self time (duration minus the part its child spans cover).
//! Span records (name, start, end, parent, group) are kept for every
//! per-frame and per-phase call, and for per-device calls of one detailed
//! round only: a full record of every round would take hundreds of MiB on
//! the large fleet. The records are written out when the benchmark ends.
//!
//! With tracing off, `begin` and `end` return before reading the clock.

use std::io::Write;
use std::time::Instant;

macro_rules! layers {
    ($($variant:ident => $name:literal, $per_device:literal;)*) => {
        /// A layer call (or a container such as a round phase) the tracer
        /// can bracket.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Layer {
            $($variant,)*
        }

        impl Layer {
            /// Every layer, in declaration order.
            pub const ALL: &'static [Layer] = &[$(Layer::$variant,)*];

            /// The layer's name in metrics and trace records.
            pub fn name(self) -> &'static str {
                match self {
                    $(Layer::$variant => $name,)*
                }
            }

            /// Whether the layer is called once per device (recorded as a
            /// span only in the detailed round).
            fn per_device(self) -> bool {
                match self {
                    $(Layer::$variant => $per_device,)*
                }
            }
        }
    };
}

layers! {
    Setup => "setup", false;
    PhaseProve => "phase.prove", false;
    PhaseVerify => "phase.verify", false;
    Final => "final", false;
    HwKeyDerive => "hw.key_derive", true;
    ProverNew => "prover.new", true;
    ProverLoadImage => "prover.load_image", true;
    VerifierNew => "verifier.new", true;
    VerifierLearnReference => "verifier.learn_reference", true;
    MalwareEvent => "malware.event", true;
    ProverSelfMeasure => "prover.self_measure", true;
    ProverHandleCollection => "prover.handle_collection", true;
    SimNetwork => "sim.network", true;
    VerifierMakeOnDemand => "verifier.make_on_demand", true;
    ProverHandleOnDemand => "prover.handle_on_demand", true;
    EncodingEncodeBatch => "encoding.encode_batch", false;
    HubIngestFrame => "hub.ingest_frame", false;
    HubDecode => "hub.decode", true;
    VerifierVerifyFrame => "verifier.verify_frame", true;
    HubFold => "hub.fold", false;
    VerifierRejectCorrupt => "verifier.reject_corrupt", false;
    VerifierVerifyOnDemand => "verifier.verify_on_demand", true;
    HubIngestReport => "hub.ingest_report", true;
    EncodingSnapshotEncode => "encoding.snapshot_encode", false;
    EncodingSnapshotDecode => "encoding.snapshot_decode", false;
    HubMerge => "hub.merge", false;
    SwarmAggregate => "swarm.aggregate", false;
    HubVerifyChains => "hub.verify_chains", false;
}

impl Layer {
    /// Containers group layer calls; their self time is the benchmark's own
    /// glue between calls, not time spent in a layer.
    pub fn is_container(self) -> bool {
        matches!(
            self,
            Layer::Setup | Layer::PhaseProve | Layer::PhaseVerify | Layer::Final
        )
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Span group of the set-up spans; rounds use their index, the final phase
/// the round count.
pub const SETUP_GROUP: u32 = u32::MAX;
const NO_PARENT: u32 = u32::MAX;

/// Per-layer accumulators.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// One recorded span. `parent` indexes the same thread's span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub group: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

struct Open {
    start_ns: u64,
    child_ns: u64,
    layer: Layer,
    record: u32,
}

/// A single thread's tracer.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    group: u32,
    detail: bool,
    stack: Vec<Open>,
    totals: Vec<Totals>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`, shared by all threads.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            group: SETUP_GROUP,
            detail: false,
            stack: Vec::new(),
            totals: vec![Totals::default(); Layer::ALL.len()],
            spans: Vec::new(),
        }
    }

    /// Whether spans are being taken.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new span group; per-device spans are recorded only when
    /// `detail` is set.
    pub fn set_group(&mut self, group: u32, detail: bool) {
        self.group = group;
        self.detail = detail;
    }

    /// Nanoseconds since the shared epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` as a child of the innermost open span.
    #[inline]
    pub fn begin(&mut self, layer: Layer) {
        if self.on {
            self.begin_at(layer, self.now());
        }
    }

    /// Like [`Tracer::begin`], with a start time already read.
    pub fn begin_at(&mut self, layer: Layer, start_ns: u64) {
        if !self.on {
            return;
        }
        let record = self.push_record(layer, start_ns, 0);
        self.stack.push(Open {
            start_ns,
            child_ns: 0,
            layer,
            record,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if self.on {
            self.end_at(self.now());
        }
    }

    /// Like [`Tracer::end`], with an end time already read.
    pub fn end_at(&mut self, end_ns: u64) {
        if !self.on {
            return;
        }
        let open = self.stack.pop().expect("end() matches a begin()");
        if open.record != NO_PARENT {
            self.spans[open.record as usize].end_ns = end_ns;
        }
        self.close(open.layer, open.start_ns, end_ns, open.child_ns, true);
    }

    /// Runs `body` inside a span of `layer`.
    #[inline]
    pub fn span<R>(&mut self, layer: Layer, body: impl FnOnce() -> R) -> R {
        self.begin(layer);
        let result = body();
        self.end();
        result
    }

    /// Records an already-closed child span of the innermost open span,
    /// for time measured between callbacks rather than around a call.
    /// `call` says whether it counts as a call of `layer`.
    pub fn record(&mut self, layer: Layer, start_ns: u64, end_ns: u64, call: bool) {
        if !self.on {
            return;
        }
        self.push_record(layer, start_ns, end_ns);
        self.close(layer, start_ns, end_ns, 0, call);
    }

    fn push_record(&mut self, layer: Layer, start_ns: u64, end_ns: u64) -> u32 {
        if layer.per_device() && !self.detail {
            return NO_PARENT;
        }
        let parent = self.stack.last().map_or(NO_PARENT, |open| open.record);
        self.spans.push(Span {
            layer,
            group: self.group,
            start_ns,
            end_ns,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, layer: Layer, start_ns: u64, end_ns: u64, child_ns: u64, call: bool) {
        let duration = end_ns.saturating_sub(start_ns);
        let totals = &mut self.totals[layer.index()];
        totals.calls += u64::from(call);
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
    }

    /// Folds another thread's accumulators and spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        for (mine, theirs) in self.totals.iter_mut().zip(&other.totals) {
            mine.calls += theirs.calls;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
        }
        self.spans.extend(other.spans);
    }

    /// Accumulated totals of `layer`.
    pub fn totals(&self, layer: Layer) -> Totals {
        self.totals[layer.index()]
    }

    /// Number of span records kept.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span. `threads` lists, per thread, how
    /// many of the spans it recorded, in the order they were absorbed;
    /// parents are renumbered into the combined list.
    pub fn write_spans(&self, out: &mut impl Write, threads: &[usize]) -> std::io::Result<()> {
        let mut base = 0usize;
        for (thread, &count) in threads.iter().enumerate() {
            for (offset, span) in self.spans[base..base + count].iter().enumerate() {
                let parent = if span.parent == NO_PARENT {
                    -1
                } else {
                    (base + span.parent as usize) as i64
                };
                let group = if span.group == SETUP_GROUP {
                    "\"setup\"".to_owned()
                } else {
                    span.group.to_string()
                };
                writeln!(
                    out,
                    "{{\"id\":{},\"name\":\"{}\",\"thread\":{},\"group\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    base + offset,
                    span.layer.name(),
                    thread,
                    group,
                    span.start_ns,
                    span.end_ns,
                    parent
                )?;
            }
            base += count;
        }
        Ok(())
    }
}
