//! `fleet-chaos`: an 8-machine fleet under seeded compositional chaos.
//!
//! The fleet is built once per set-up. One scenario draws one seeded
//! chaos schedule (up to 5 stacked faults: poison, power loss, fail-slow,
//! link jitter, blackout/rejoin with anti-entropy) and runs it with
//! verification on, then runs one seeded fail-slow window with the
//! accrual detector and hedging on. One op is four scenarios. The op
//! exercises the cluster, detector, anti-entropy and serve virtual loops
//! and never calls the row engine.

use pmem_cluster::{Cluster, ClusterConfig, DetectorConfig, GrayConfig};
use pmem_sim::chaos::{ChaosConfig, ChaosSchedule};
use pmem_sim::rng::{splitmix64, SplitMix64};
use pmem_ssb::datagen;
use pmem_ssb::reference::reference_query;
use pmem_ssb::QueryId;

use crate::ssb_flight::setup_median;
use crate::trace::{Phase, Tracer};
use crate::{stats, Bench, Metric};

/// Machines in the fleet.
pub const MACHINES: u32 = 8;
/// Scenarios per op. A scenario takes about 20 ms of host time, so a
/// stall of a few milliseconds (a descheduled vCPU) would be a large share
/// of it; four of them make an op long enough that such stalls move its
/// tail far less.
pub const SCENARIOS_PER_OP: u64 = 4;
/// Salt separating the chaos-schedule stream from the fail-slow stream.
const CHAOS_SALT: u64 = 0x0063_6861_6f73;
/// Salt of the fail-slow stream.
const GRAY_SALT: u64 = 0x6772_6179;

/// The chaos schedule of scenario `i` of a run seeded with `seed`.
pub fn chaos_schedule(seed: u64, i: u64, horizon: f64) -> ChaosSchedule {
    ChaosSchedule::generate(
        splitmix64(seed ^ CHAOS_SALT ^ splitmix64(i)),
        &ChaosConfig::demo(MACHINES as usize, horizon),
    )
}

/// The fail-slow experiment of scenario `i`: a victim, a window inside the
/// first 80% of the horizon, and a remaining service fraction.
pub fn gray_config(seed: u64, i: u64, horizon: f64) -> GrayConfig {
    let mut rng = SplitMix64::new(splitmix64(seed ^ GRAY_SALT ^ splitmix64(i)));
    let victim = (rng.next_u64() % u64::from(MACHINES)) as u32;
    let at = horizon * (0.1 + 0.3 * rng.next_f64());
    let until = at + horizon * (0.2 + 0.2 * rng.next_f64());
    let factor = 0.05 + 0.45 * rng.next_f64();
    GrayConfig::demo().with_fail_slow(victim, at, until, factor)
}

/// Sums over the recorded scenarios.
#[derive(Debug, Default, Clone, PartialEq)]
struct Tally {
    events: u64,
    rejoin_arcs: u64,
    jobs: u64,
    completed: u64,
    shed: u64,
    violations: u64,
    hedges_fired: u64,
    hedge_wins: u64,
    rebalanced_jobs: u64,
    queries: u64,
    queries_met: u64,
    blocks_examined: u64,
    hash_bytes: u64,
    blocks_shipped: u64,
    bytes_shipped: u64,
    refetched_blocks: u64,
    completed_bytes: f64,
    virtual_s: f64,
    chaos_p99_s: Vec<f64>,
}

/// The fleet, its healthy baseline and the recorded scenarios.
pub struct FleetChaos {
    seed: u64,
    cluster: Cluster,
    healthy_p99: f64,
    tally: Tally,
}

impl FleetChaos {
    /// Run and check scenario `i`.
    fn scenario(&mut self, i: u64, record: bool, t: &mut Tracer) -> Result<(), String> {
        let cfg = self.cluster.config();
        let schedule = chaos_schedule(self.seed, i, cfg.horizon);
        let chaos = t
            .span("run_chaos", |_| self.cluster.run_chaos(&schedule, true))
            .map_err(|e| format!("chaos run: {e}"))?;
        let violations = chaos.violations(self.healthy_p99);
        let gray = t
            .span("run_gray", |_| {
                self.cluster
                    .run_gray(&gray_config(self.seed, i, cfg.horizon))
            })
            .map_err(|e| format!("gray run: {e}"))?;

        if record {
            let s = &mut self.tally;
            s.events += schedule.len() as u64;
            s.rejoin_arcs += u64::from(chaos.blackout.is_some());
            s.jobs += chaos.jobs;
            s.completed += chaos.completed;
            s.shed += chaos.shed;
            s.violations += violations.len() as u64;
            s.hedges_fired += gray.hedges_fired;
            s.hedge_wins += gray.hedge_wins;
            s.rebalanced_jobs += gray.rebalanced_jobs;
            s.queries += gray.queries;
            s.queries_met += gray.queries_met;
            if let Some(c) = &chaos.catch_up {
                s.blocks_examined += c.blocks_examined;
                s.hash_bytes += c.hash_bytes_exchanged;
                s.blocks_shipped += c.blocks_shipped;
                s.bytes_shipped += c.bytes_shipped;
                s.refetched_blocks += c.refetched_blocks;
            }
            s.completed_bytes += (chaos.completed * cfg.unit_bytes) as f64
                + (gray.ingest_goodput_bytes_per_sec + gray.query_goodput_bytes_per_sec)
                    * gray.horizon;
            s.virtual_s += cfg.horizon + gray.horizon;
            s.chaos_p99_s.push(chaos.e2e.p99);
        }

        if !violations.is_empty() {
            return Err(format!("chaos invariants: {}", violations.join("; ")));
        }
        if !gray.data_intact() {
            return Err(format!(
                "fail-slow run: {} mismatched, {} double-counted queries",
                gray.mismatched_queries, gray.double_counted
            ));
        }
        Ok(())
    }
}

impl Bench for FleetChaos {
    const BLOCK: u64 = 1;

    fn setup(seed: u64, t: &mut Tracer) -> Result<Self, String> {
        let cfg = ClusterConfig::demo(MACHINES, seed).with_detector(DetectorConfig::accrual());
        // The whole fleet's data set and its Q1.1 answer, against which
        // the machines' committed ground truth is checked.
        let data = t.span("datagen::generate", |_| datagen::generate(cfg.sf, seed));
        let reference: i64 = t
            .span_detail("reference_query", Some(QueryId::Q1_1.name()), |_| {
                reference_query(&data, QueryId::Q1_1)
            })
            .iter()
            .map(|&(_, v)| v)
            .sum();
        drop(data);
        let mut cluster = t
            .span("Cluster::build", |_| Cluster::build(cfg))
            .map_err(|e| format!("cluster build: {e}"))?;
        if cluster.reference() != reference {
            return Err(format!(
                "fleet ground truth {} != reference Q1.1 {reference}",
                cluster.reference()
            ));
        }
        let healthy = t
            .span("run_healthy", |_| cluster.run_healthy())
            .map_err(|e| format!("healthy run: {e}"))?;
        if !healthy.data_intact() {
            return Err("healthy fleet lost data".to_string());
        }
        Ok(FleetChaos {
            seed,
            cluster,
            healthy_p99: healthy.e2e.p99,
            tally: Tally::default(),
        })
    }

    fn op(&mut self, i: u64, record: bool, t: &mut Tracer) -> Result<(), String> {
        (i * SCENARIOS_PER_OP..(i + 1) * SCENARIOS_PER_OP)
            .try_for_each(|j| self.scenario(j, record, t))
    }

    fn virt(&self) -> [Metric; 2] {
        let s = &self.tally;
        [
            Metric::new(
                "virt_goodput_gib_s",
                if s.virtual_s > 0.0 {
                    s.completed_bytes / s.virtual_s / (1u64 << 30) as f64
                } else {
                    0.0
                },
                "GiB/s",
            ),
            Metric::new("virt_tail_ms", stats::median(&s.chaos_p99_s) * 1e3, "ms"),
        ]
    }

    fn counts(&self) -> Vec<Metric> {
        let s = &self.tally;
        let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
        vec![
            Metric::new("cluster.events", s.events as f64, "count"),
            Metric::new("cluster.rejoin_arcs", s.rejoin_arcs as f64, "count"),
            Metric::new("cluster.jobs", s.jobs as f64, "count"),
            Metric::new("cluster.completed", s.completed as f64, "count"),
            Metric::new("cluster.shed", s.shed as f64, "count"),
            Metric::new("cluster.hedges_fired", s.hedges_fired as f64, "count"),
            Metric::new("cluster.hedge_wins", s.hedge_wins as f64, "count"),
            Metric::new("cluster.rebalanced_jobs", s.rebalanced_jobs as f64, "count"),
            Metric::new(
                "cluster.queries_met_frac",
                ratio(s.queries_met, s.queries),
                "ratio",
            ),
            Metric::new("cluster.violations", s.violations as f64, "count"),
            Metric::new(
                "columnar.blocks_examined",
                s.blocks_examined as f64,
                "count",
            ),
            Metric::new("columnar.hash_bytes", s.hash_bytes as f64, "B"),
            Metric::new("columnar.blocks_shipped", s.blocks_shipped as f64, "count"),
            Metric::new("columnar.bytes_shipped", s.bytes_shipped as f64, "B"),
            Metric::new(
                "columnar.refetched_blocks",
                s.refetched_blocks as f64,
                "count",
            ),
            Metric::new(
                "columnar.shipped_frac",
                ratio(s.blocks_shipped, s.blocks_examined),
                "ratio",
            ),
        ]
    }

    fn layer_times(&self, t: &Tracer) -> Vec<Metric> {
        // Median over ops of the mean time per call within the op.
        let per_call =
            |name| stats::median(&t.per_op_ms(Phase::Op, name, |_| true)) / SCENARIOS_PER_OP as f64;
        vec![
            Metric::new(
                "ssb.datagen_s",
                setup_median(t, "datagen::generate") / 1e3,
                "s",
            ),
            Metric::new("ssb.reference_ms", setup_median(t, "reference_query"), "ms"),
            Metric::new(
                "cluster.build_s",
                setup_median(t, "Cluster::build") / 1e3,
                "s",
            ),
            Metric::new("cluster.healthy_ms", setup_median(t, "run_healthy"), "ms"),
            Metric::new("cluster.chaos_ms", per_call("run_chaos"), "ms"),
            Metric::new("cluster.gray_ms", per_call("run_gray"), "ms"),
        ]
    }
}
