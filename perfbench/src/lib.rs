//! Two-clock benchmark of pmem-olap: the row engine (`ssb-flight`), the
//! serving layer (`serve-mix`) and the fleet (`fleet-chaos`).
//!
//! Every workload is a closed loop with one host client that issues ops
//! back to back. Host metrics are per-op medians and tails over many ops,
//! so a scheduler hiccup moves one sample, not the metric. Virtual-clock
//! metrics and per-layer counts are taken over a fixed prefix of ops and
//! repeat exactly for a seed. See `README.md` beside this crate.

pub mod fleet_chaos;
pub mod host;
pub mod serve_mix;
pub mod ssb_flight;
pub mod stats;
pub mod trace;

use std::time::{Duration, Instant};

use trace::{Phase, Tracer};

/// One named, unit-carrying number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The end-to-end metrics, in print order (`error_rate` travels as the
/// result line's `failed`/`attempted`, since it is 0 on a correct build).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mib", "MiB"),
    ("virt_goodput_gib_s", "GiB/s"),
    ("virt_tail_ms", "ms"),
];

/// Every per-layer metric with its unit. A traced run of any workload
/// prints all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("ssb.datagen_s", "s"),
    ("ssb.load_s", "s"),
    ("ssb.reference_ms", "ms"),
    ("ssb.exec_q1_ms", "ms"),
    ("ssb.exec_q2_ms", "ms"),
    ("ssb.exec_q3_ms", "ms"),
    ("ssb.exec_q4_ms", "ms"),
    ("ssb.exec_rows_per_s", "rows/s"),
    ("ssb.tuples_scanned", "count"),
    ("ssb.tuples_selected", "count"),
    ("ssb.probes", "count"),
    ("ssb.build_inserts", "count"),
    ("ssb.agg_updates", "count"),
    ("ssb.selectivity", "ratio"),
    ("ssb.timing_us", "us"),
    ("store.fact_read_bytes", "B"),
    ("store.build_bytes", "B"),
    ("store.probe_read_bytes", "B"),
    ("store.intermediate_bytes", "B"),
    ("dash.index_bytes", "B"),
    ("sim.virt_scan_s", "s"),
    ("sim.virt_probe_s", "s"),
    ("sim.virt_build_s", "s"),
    ("sim.virt_intermediate_s", "s"),
    ("sim.virt_cpu_s", "s"),
    ("serve.run_ms", "ms"),
    ("serve.pool_ms", "ms"),
    ("serve.loop_ms", "ms"),
    ("serve.jobs", "count"),
    ("serve.completed", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.retried", "count"),
    ("serve.queued", "count"),
    ("serve.batches", "count"),
    ("serve.scan_bytes_saved", "B"),
    ("serve.breaker_trips", "count"),
    ("serve.brownout_s", "s"),
    ("serve.hot_tier_hit_rate", "ratio"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.read_busy_s", "s"),
    ("serve.write_busy_s", "s"),
    ("cluster.build_s", "s"),
    ("cluster.healthy_ms", "ms"),
    ("cluster.chaos_ms", "ms"),
    ("cluster.gray_ms", "ms"),
    ("cluster.events", "count"),
    ("cluster.rejoin_arcs", "count"),
    ("cluster.jobs", "count"),
    ("cluster.completed", "count"),
    ("cluster.shed", "count"),
    ("cluster.hedges_fired", "count"),
    ("cluster.hedge_wins", "count"),
    ("cluster.rebalanced_jobs", "count"),
    ("cluster.queries_met_frac", "ratio"),
    ("cluster.violations", "count"),
    ("columnar.blocks_examined", "count"),
    ("columnar.hash_bytes", "B"),
    ("columnar.blocks_shipped", "count"),
    ("columnar.bytes_shipped", "B"),
    ("columnar.refetched_blocks", "count"),
    ("columnar.shipped_frac", "ratio"),
    ("trace.ops_per_s", "1/s"),
    ("trace.op_p50_ms", "ms"),
    ("trace.op_p90_ms", "ms"),
    ("trace.cpu_ms_per_op", "ms"),
    ("trace.overhead_p50_pct", "%"),
    ("trace.overhead_p90_pct", "%"),
    ("trace.overhead_cpu_pct", "%"),
];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 13-query SSB flight through the row engine.
    SsbFlight,
    /// Open-loop serving epochs through `QueryServer::run`.
    ServeMix,
    /// Chaos schedules and fail-slow windows over an 8-machine fleet.
    FleetChaos,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::SsbFlight,
        Workload::ServeMix,
        Workload::FleetChaos,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SsbFlight => "ssb-flight",
            Workload::ServeMix => "serve-mix",
            Workload::FleetChaos => "fleet-chaos",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How long and how a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Host seconds the op loop runs at least.
    pub seconds: f64,
    /// Ops the loop runs at least; virtual metrics and per-layer counts
    /// cover exactly these first ops, so they repeat for a seed whatever
    /// the host speed.
    pub ops: u64,
    /// Set-up repetitions at least; `setup_s` is their median.
    pub setup_reps: usize,
    /// Keep repeating set-up until this many seconds have gone into it,
    /// so a set-up of milliseconds still has a steady median.
    pub setup_seconds: f64,
    /// Record spans in every other block of ops.
    pub trace: bool,
}

impl Plan {
    /// The command-line plan. Every workload runs at least 100 ops, so p90
    /// has 10 samples beyond it; `serve-mix` records twice as many, so
    /// its virtual metrics average over more seeded epochs.
    pub fn standard(workload: Workload, seconds: f64, trace: bool) -> Self {
        Plan {
            seconds,
            ops: match workload {
                Workload::SsbFlight => 104, // 8 flights
                Workload::ServeMix => 208,
                Workload::FleetChaos => 104, // 416 scenarios
            },
            setup_reps: 5,
            setup_seconds: 6.0,
            trace,
        }
    }
}

/// A workload as the closed loop drives it.
pub(crate) trait Bench: Sized {
    /// Ops in one balanced block; the loop stops and switches tracing
    /// only at block boundaries.
    const BLOCK: u64;

    /// Generate inputs from `seed`, load them and compute reference
    /// answers.
    fn setup(seed: u64, t: &mut Tracer) -> Result<Self, String>;

    /// Run and check op `i`; `record` adds its virtual results and counts
    /// to the prefix tallies. An `Err` is a failed or wrong op.
    fn op(&mut self, i: u64, record: bool, t: &mut Tracer) -> Result<(), String>;

    /// Work timed beside a traced op, outside it.
    fn beside_op(&mut self, _i: u64, _t: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    /// `virt_goodput_gib_s` and `virt_tail_ms` over the prefix.
    fn virt(&self) -> [Metric; 2];

    /// Per-layer counts over the prefix.
    fn counts(&self) -> Vec<Metric>;

    /// Per-layer host times from the spans.
    fn layer_times(&self, t: &Tracer) -> Vec<Metric>;
}

/// Host metrics of one class of ops (traced or untraced).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostMetrics {
    /// Ops timed.
    pub ops: usize,
    /// Ops per second of op time.
    pub ops_per_s: f64,
    /// Median op latency.
    pub op_p50_ms: f64,
    /// 90th-percentile op latency.
    pub op_p90_ms: f64,
    /// Process CPU time per op.
    pub cpu_ms_per_op: f64,
}

#[derive(Default)]
struct Samples {
    wall_ms: Vec<f64>,
    cpu: Duration,
}

impl Samples {
    fn metrics(&self) -> HostMetrics {
        let ops = self.wall_ms.len();
        let total_ms: f64 = self.wall_ms.iter().sum();
        HostMetrics {
            ops,
            ops_per_s: if total_ms > 0.0 {
                ops as f64 / (total_ms / 1e3)
            } else {
                0.0
            },
            op_p50_ms: stats::median(&self.wall_ms),
            op_p90_ms: stats::percentile(&self.wall_ms, 0.9),
            cpu_ms_per_op: self.cpu.as_secs_f64() * 1e3 / ops.max(1) as f64,
        }
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The workload that ran.
    pub workload: Workload,
    /// Ops attempted, warm-up included.
    pub attempted: u64,
    /// One line per failed or wrong op.
    pub failures: Vec<String>,
    /// Median set-up time.
    pub setup_s: f64,
    /// Peak resident set of the process.
    pub peak_rss_mib: f64,
    /// Host metrics of the untraced ops.
    pub untraced: HostMetrics,
    /// Host metrics of the traced ops (traced runs only).
    pub traced: Option<HostMetrics>,
    /// Virtual-clock metrics over the prefix.
    pub virt: [Metric; 2],
    /// Per-layer counts over the prefix.
    pub counts: Vec<Metric>,
    /// Per-layer host times from the spans (traced runs only).
    pub layer_times: Vec<Metric>,
    /// The spans.
    pub tracer: Tracer,
}

impl Outcome {
    /// Failed or wrong ops over attempted ops.
    pub fn error_rate(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// The end-to-end metrics of [`END_TO_END`], from the untraced ops.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let h = self.untraced;
        let values = [
            self.setup_s,
            h.ops_per_s,
            h.op_p50_ms,
            h.op_p90_ms,
            h.cpu_ms_per_op,
            self.peak_rss_mib,
            self.virt[0].value,
            self.virt[1].value,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, value, unit))
            .collect()
    }

    /// The traced ops' own host metrics and how far they sit from the
    /// untraced ops', in percent.
    pub fn trace_metrics(&self) -> Vec<Metric> {
        let Some(t) = self.traced else {
            return Vec::new();
        };
        let u = self.untraced;
        let pct = |traced: f64, untraced: f64| {
            if untraced > 0.0 {
                (traced / untraced - 1.0) * 100.0
            } else {
                0.0
            }
        };
        vec![
            Metric::new("trace.ops_per_s", t.ops_per_s, "1/s"),
            Metric::new("trace.op_p50_ms", t.op_p50_ms, "ms"),
            Metric::new("trace.op_p90_ms", t.op_p90_ms, "ms"),
            Metric::new("trace.cpu_ms_per_op", t.cpu_ms_per_op, "ms"),
            Metric::new("trace.overhead_p50_pct", pct(t.op_p50_ms, u.op_p50_ms), "%"),
            Metric::new("trace.overhead_p90_pct", pct(t.op_p90_ms, u.op_p90_ms), "%"),
            Metric::new(
                "trace.overhead_cpu_pct",
                pct(t.cpu_ms_per_op, u.cpu_ms_per_op),
                "%",
            ),
        ]
    }

    /// Every metric of [`PER_LAYER`]; a layer this workload never calls
    /// reads 0.
    pub fn per_layer(&self) -> Vec<Metric> {
        let measured: Vec<Metric> = self
            .counts
            .iter()
            .chain(&self.layer_times)
            .copied()
            .chain(self.trace_metrics())
            .collect();
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = measured
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                Metric::new(name, value, unit)
            })
            .collect()
    }
}

/// Run `workload` from `seed` under `plan`.
pub fn run(workload: Workload, seed: u64, plan: Plan) -> Result<Outcome, String> {
    match workload {
        Workload::SsbFlight => drive::<ssb_flight::SsbFlight>(workload, seed, plan),
        Workload::ServeMix => drive::<serve_mix::ServeMix>(workload, seed, plan),
        Workload::FleetChaos => drive::<fleet_chaos::FleetChaos>(workload, seed, plan),
    }
}

/// Cap on set-up repetitions, whatever `Plan::setup_seconds` asks.
const MAX_SETUP_REPS: usize = 400;

fn drive<B: Bench>(workload: Workload, seed: u64, plan: Plan) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(plan.trace);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut bench = None;
    while setup_s.len() < plan.setup_reps.max(1)
        || (setup_s.iter().sum::<f64>() < plan.setup_seconds && setup_s.len() < MAX_SETUP_REPS)
    {
        drop(bench.take());
        tracer.begin(Phase::Setup, setup_s.len() as u64);
        let t0 = Instant::now();
        bench = Some(B::setup(seed, &mut tracer)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up ran");

    let mut attempted = 0;
    let mut failures = Vec::new();
    // Warm-up: one block, checked but neither timed nor recorded, so
    // caches fill and lazy set-up finishes before the clock starts.
    tracer.set_enabled(false);
    for i in 0..B::BLOCK {
        attempted += 1;
        if let Err(e) = bench.op(i, false, &mut tracer) {
            failures.push(format!("warm-up op {i}: {e}"));
        }
    }

    // Traced runs alternate untraced and traced blocks, so both halves
    // see the same host conditions and their difference is the tracing
    // overhead.
    let mut samples = [Samples::default(), Samples::default()];
    let start = Instant::now();
    let budget = Duration::from_secs_f64(plan.seconds.max(0.0));
    let mut i = 0u64;
    while i % B::BLOCK != 0 || i < plan.ops || start.elapsed() < budget {
        let traced = plan.trace && (i / B::BLOCK) % 2 == 1;
        tracer.set_enabled(traced);
        tracer.begin(Phase::Op, i);
        let cpu0 = host::cpu_time();
        let t0 = Instant::now();
        let result = bench.op(i, i < plan.ops, &mut tracer);
        let wall = t0.elapsed();
        let cpu = host::cpu_time().saturating_sub(cpu0);
        let class = &mut samples[usize::from(traced)];
        class.wall_ms.push(wall.as_secs_f64() * 1e3);
        class.cpu += cpu;
        attempted += 1;
        if let Err(e) = result {
            failures.push(format!("op {i}: {e}"));
        }
        if traced {
            tracer.begin(Phase::Replay, i);
            if let Err(e) = bench.beside_op(i, &mut tracer) {
                failures.push(format!("replay of op {i}: {e}"));
            }
        }
        i += 1;
    }
    tracer.set_enabled(plan.trace);

    Ok(Outcome {
        workload,
        attempted,
        failures,
        setup_s: stats::median(&setup_s),
        peak_rss_mib: host::peak_rss_mib(),
        untraced: samples[0].metrics(),
        traced: plan.trace.then(|| samples[1].metrics()),
        virt: bench.virt(),
        counts: bench.counts(),
        layer_times: if plan.trace {
            bench.layer_times(&tracer)
        } else {
            Vec::new()
        },
        tracer,
    })
}
