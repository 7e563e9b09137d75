//! `ssb-flight`: the 13 SSB queries back to back through the PMEM-aware
//! row engine, each priced at SF 100 as in Figure 14b.
//!
//! One op is one `run_query` call plus its pricing and answer check; 13
//! ops make a flight. The engine's join path (index build, Dash probes,
//! per-row decode, tracker atomics) does nearly all the host work; the
//! serve and cluster layers do none.

use pmem_sim::Simulation;
use pmem_ssb::datagen;
use pmem_ssb::reference::reference_query;
use pmem_ssb::timing::{estimate, TimingBreakdown, TimingConfig, TimingParams};
use pmem_ssb::{run_query, EngineMode, QueryId, QueryOutcome, SsbStore, StorageDevice};

use crate::trace::{Phase, Tracer};
use crate::{stats, Bench, Metric};

/// Scale factor the store is generated at (300 k fact rows, about
/// 37 MiB of fact against a 4 MiB L2).
pub const SF: f64 = 0.05;
/// Scale factor each query is priced at (Figure 14b).
pub const TARGET_SF: f64 = 100.0;
/// Engine threads per query, so a 2-core host runs no more threads than
/// it has cores.
pub const THREADS: u32 = 2;

/// What one query of the recorded flight produced.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Priced {
    counts: [u64; 5],
    fact_read: u64,
    build: u64,
    probe_read: u64,
    intermediate: u64,
    index: u64,
    /// Bytes priced at `TARGET_SF`, scaled as `estimate` scales them.
    scaled_bytes: f64,
    time: TimingBreakdown,
}

impl Priced {
    fn of(outcome: &QueryOutcome, cfg: &TimingConfig, time: TimingBreakdown) -> Self {
        let c = outcome.counters;
        let t = &outcome.traffic;
        let build = t.build.read_bytes() + t.build.write_bytes();
        let intermediate = t.intermediate.read_bytes() + t.intermediate.write_bytes();
        // Fact, probe and intermediate traffic grow with the fact table;
        // build traffic with the dimensions, weighted by index bytes.
        let dim_total: f64 = t.index_bytes_by_dim.iter().map(|&b| b as f64).sum();
        let build_scale = if dim_total > 0.0 {
            t.index_bytes_by_dim
                .iter()
                .zip(cfg.dim_scales())
                .map(|(&b, s)| b as f64 * s)
                .sum::<f64>()
                / dim_total
        } else {
            1.0
        };
        let fact_driven = t.fact_read_bytes() + t.probe.read_bytes() + intermediate;
        Priced {
            counts: [
                c.tuples_scanned,
                c.tuples_selected,
                c.probes,
                c.build_inserts,
                c.agg_updates,
            ],
            fact_read: t.fact_read_bytes(),
            build,
            probe_read: t.probe.read_bytes(),
            intermediate,
            index: t.index_bytes,
            scaled_bytes: fact_driven as f64 * cfg.fact_scale() + build as f64 * build_scale,
            time,
        }
    }
}

/// A query's sorted `(group key, aggregate)` rows.
pub(crate) type Rows = Vec<(u64, i64)>;

/// The loaded store, its reference answers and the recorded flight.
pub struct SsbFlight {
    store: SsbStore,
    reference: Vec<Rows>,
    timing: TimingConfig,
    sim: Simulation,
    params: TimingParams,
    flight: Vec<Option<Priced>>,
}

/// Generate SSB data, load it and compute the reference answers of all
/// 13 queries (in `QueryId::ALL` order), each step in its own span.
pub(crate) fn load_with_reference(
    sf: f64,
    seed: u64,
    t: &mut Tracer,
) -> Result<(SsbStore, Vec<Rows>), String> {
    let data = t.span("datagen::generate", |_| datagen::generate(sf, seed));
    let store = t
        .span("SsbStore::load", |_| {
            SsbStore::load(&data, sf, EngineMode::Aware, StorageDevice::PmemFsdax)
        })
        .map_err(|e| format!("load: {e}"))?;
    let reference = QueryId::ALL
        .iter()
        .map(|&q| {
            t.span_detail("reference_query", Some(q.name()), |_| {
                reference_query(&data, q)
            })
        })
        .collect();
    Ok((store, reference))
}

/// Index in `QueryId::ALL` of the query a span's detail names.
pub(crate) fn query_of(detail: Option<&str>) -> Option<usize> {
    QueryId::ALL.iter().position(|q| Some(q.name()) == detail)
}

/// Median over set-up repetitions of the time spent in `name`.
pub(crate) fn setup_median(t: &Tracer, name: &str) -> f64 {
    stats::median(&t.per_op_ms(Phase::Setup, name, |_| true))
}

impl Bench for SsbFlight {
    const BLOCK: u64 = QueryId::ALL.len() as u64;

    fn setup(seed: u64, t: &mut Tracer) -> Result<Self, String> {
        let (store, reference) = load_with_reference(SF, seed, t)?;
        Ok(SsbFlight {
            store,
            reference,
            timing: TimingConfig::paper_aware(StorageDevice::PmemFsdax).sf(SF, TARGET_SF),
            sim: Simulation::paper_default(),
            params: TimingParams::default(),
            flight: vec![None; QueryId::ALL.len()],
        })
    }

    fn op(&mut self, i: u64, record: bool, t: &mut Tracer) -> Result<(), String> {
        let k = (i % Self::BLOCK) as usize;
        let q = QueryId::ALL[k];
        self.store.reset_trackers();
        let outcome = t
            .span_detail("run_query", Some(q.name()), |_| {
                run_query(&self.store, q, THREADS)
            })
            .map_err(|e| format!("{}: {e}", q.name()))?;
        let time = t.span("timing::estimate", |_| {
            estimate(
                &outcome,
                EngineMode::Aware,
                &self.timing,
                &self.sim,
                &self.params,
            )
        });
        if outcome.rows != self.reference[k] {
            return Err(format!(
                "{}: {} rows differ from the reference's {}",
                q.name(),
                outcome.rows.len(),
                self.reference[k].len()
            ));
        }
        let priced = Priced::of(&outcome, &self.timing, time);
        match self.flight[k] {
            // Every flight runs the same queries on the same store, so
            // each must repeat the first flight's counts and prices.
            Some(first) if first != priced => Err(format!(
                "{}: counts or price differ from the first flight",
                q.name()
            )),
            None if record => {
                self.flight[k] = Some(priced);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn virt(&self) -> [Metric; 2] {
        let flight = self.flight.iter().flatten();
        let seconds: f64 = flight.clone().map(|p| p.time.total_seconds).sum();
        let bytes: f64 = flight.clone().map(|p| p.scaled_bytes).sum();
        let slowest = flight.map(|p| p.time.total_seconds).fold(0.0, f64::max);
        [
            Metric::new(
                "virt_goodput_gib_s",
                if seconds > 0.0 {
                    bytes / seconds / (1u64 << 30) as f64
                } else {
                    0.0
                },
                "GiB/s",
            ),
            Metric::new("virt_tail_ms", slowest * 1e3, "ms"),
        ]
    }

    fn counts(&self) -> Vec<Metric> {
        let flight: Vec<&Priced> = self.flight.iter().flatten().collect();
        let sum = |f: &dyn Fn(&Priced) -> f64| flight.iter().map(|p| f(p)).sum::<f64>();
        let scanned = sum(&|p| p.counts[0] as f64);
        let selected = sum(&|p| p.counts[1] as f64);
        vec![
            Metric::new("ssb.tuples_scanned", scanned, "count"),
            Metric::new("ssb.tuples_selected", selected, "count"),
            Metric::new("ssb.probes", sum(&|p| p.counts[2] as f64), "count"),
            Metric::new("ssb.build_inserts", sum(&|p| p.counts[3] as f64), "count"),
            Metric::new("ssb.agg_updates", sum(&|p| p.counts[4] as f64), "count"),
            Metric::new(
                "ssb.selectivity",
                if scanned > 0.0 {
                    selected / scanned
                } else {
                    0.0
                },
                "ratio",
            ),
            Metric::new("store.fact_read_bytes", sum(&|p| p.fact_read as f64), "B"),
            Metric::new("store.build_bytes", sum(&|p| p.build as f64), "B"),
            Metric::new("store.probe_read_bytes", sum(&|p| p.probe_read as f64), "B"),
            Metric::new(
                "store.intermediate_bytes",
                sum(&|p| p.intermediate as f64),
                "B",
            ),
            Metric::new("dash.index_bytes", sum(&|p| p.index as f64), "B"),
            Metric::new("sim.virt_scan_s", sum(&|p| p.time.scan_seconds), "s"),
            Metric::new("sim.virt_probe_s", sum(&|p| p.time.probe_seconds), "s"),
            Metric::new("sim.virt_build_s", sum(&|p| p.time.build_seconds), "s"),
            Metric::new(
                "sim.virt_intermediate_s",
                sum(&|p| p.time.intermediate_seconds),
                "s",
            ),
            Metric::new("sim.virt_cpu_s", sum(&|p| p.time.cpu_seconds), "s"),
        ]
    }

    fn layer_times(&self, t: &Tracer) -> Vec<Metric> {
        let exec = |flight: u8| {
            stats::median(&t.per_op_ms(Phase::Op, "run_query", |d| {
                query_of(d).is_some_and(|k| QueryId::ALL[k].flight() == flight)
            }))
        };
        // Rows the engine scanned per second of `run_query` time.
        let (mut rows, mut seconds) = (0.0, 0.0);
        for s in t
            .spans()
            .iter()
            .filter(|s| s.phase == Phase::Op && s.name == "run_query")
        {
            if let Some(p) = query_of(s.detail).and_then(|k| self.flight[k]) {
                rows += p.counts[0] as f64;
                seconds += s.ms() / 1e3;
            }
        }
        let timing_us = stats::median(&t.per_op_ms(Phase::Op, "timing::estimate", |_| true)) * 1e3;
        vec![
            Metric::new(
                "ssb.datagen_s",
                setup_median(t, "datagen::generate") / 1e3,
                "s",
            ),
            Metric::new("ssb.load_s", setup_median(t, "SsbStore::load") / 1e3, "s"),
            Metric::new("ssb.reference_ms", setup_median(t, "reference_query"), "ms"),
            Metric::new("ssb.exec_q1_ms", exec(1), "ms"),
            Metric::new("ssb.exec_q2_ms", exec(2), "ms"),
            Metric::new("ssb.exec_q3_ms", exec(3), "ms"),
            Metric::new("ssb.exec_q4_ms", exec(4), "ms"),
            Metric::new(
                "ssb.exec_rows_per_s",
                if seconds > 0.0 { rows / seconds } else { 0.0 },
                "rows/s",
            ),
            Metric::new("ssb.timing_us", timing_us, "us"),
        ]
    }
}
