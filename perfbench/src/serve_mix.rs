//! `serve-mix`: one op is one `QueryServer::run` over a fresh seeded
//! open-loop epoch.
//!
//! The server runs the full surge stack with a DRAM hot tier of half the
//! fact footprint, so the working set exceeds the program's own cache.
//! Three query tenants send skewed rates of scan-only Q1.x and
//! join-bearing Q2-Q4 queries; two ingest tenants offer writes at twice
//! the machine's write capacity, so writes run beside reads. This is the
//! only workload that drives the real-plane worker pool, admission,
//! overload control, fairness, shared-scan batching and tier pricing.

use pmem_olap::planner::AccessPlanner;
use pmem_serve::{
    HotTierPolicy, JobId, JobKind, JobSpec, OpenLoopPlan, PoolSet, QueryServer, ServeConfig,
    ServeReport, TenantLoad, WorkItem,
};
use pmem_sim::des::arrivals::ArrivalProcess;
use pmem_sim::rng::splitmix64;
use pmem_sim::sched::Pinning;
use pmem_sim::topology::{Machine, SocketId};
use pmem_ssb::{QueryId, SsbStore};

use crate::ssb_flight::{load_with_reference, query_of, setup_median};
use crate::trace::{Phase, Tracer};
use crate::{stats, Bench, Metric};

/// Scale factor of the served store (60 k fact rows).
pub const SF: f64 = 0.01;
/// Virtual seconds of arrivals in one epoch.
pub const HORIZON: f64 = 0.05;
/// Bytes per ingest unit.
const UNIT_BYTES: u64 = 64 << 20;
/// Offered ingest load as a multiple of the machine's write capacity.
const INGEST_OVERLOAD: f64 = 2.0;
/// Query tenants: the queries each may draw per epoch, its Poisson rate
/// in arrivals per virtual second, and its fair-share weight.
const QUERY_TENANTS: [(&[QueryId], f64, f64); 3] = [
    (&[QueryId::Q1_1, QueryId::Q1_2, QueryId::Q1_3], 160.0, 2.0),
    (
        &[
            QueryId::Q2_1,
            QueryId::Q2_2,
            QueryId::Q2_3,
            QueryId::Q3_1,
            QueryId::Q3_2,
            QueryId::Q3_3,
            QueryId::Q3_4,
        ],
        60.0,
        1.0,
    ),
    (&[QueryId::Q4_1, QueryId::Q4_2, QueryId::Q4_3], 20.0, 1.0),
];

/// Sums over the recorded epochs.
#[derive(Debug, Default, Clone, PartialEq)]
struct Tally {
    jobs: u64,
    completed: u64,
    shed: u64,
    failed: u64,
    retried: u64,
    queued: u64,
    batches: u64,
    scan_bytes_saved: u64,
    breaker_trips: u64,
    brownout_s: f64,
    hit_rate_sum: f64,
    read_busy_s: f64,
    write_busy_s: f64,
    completed_bytes: u64,
    makespan_s: f64,
    e2e_s: Vec<f64>,
    wait_s: Vec<f64>,
    epochs: u64,
}

impl Tally {
    fn add(&mut self, r: &ServeReport) {
        self.jobs += r.jobs.len() as u64;
        self.completed += r.jobs.iter().filter(|j| j.outcome.is_completed()).count() as u64;
        self.shed += r.shed_jobs() as u64;
        self.failed += r.failed_jobs() as u64;
        self.retried += r.retried_jobs() as u64;
        self.queued += r.queued_jobs() as u64;
        self.batches += r.batches as u64;
        self.scan_bytes_saved += r.shared_scan_bytes_saved;
        self.breaker_trips += u64::from(r.breaker_trips);
        self.brownout_s += r.brownout_seconds;
        self.hit_rate_sum += r.hot_tier.as_ref().map_or(0.0, |h| h.hit_rate);
        self.read_busy_s += r.read_busy_seconds;
        self.write_busy_s += r.write_busy_seconds;
        self.makespan_s += r.makespan;
        for j in r.jobs.iter().filter(|j| j.outcome.is_completed()) {
            self.completed_bytes += j.bytes;
            self.e2e_s.push(j.finished_at - j.arrival);
            self.wait_s.push(j.queue_wait_seconds);
        }
        self.epochs += 1;
    }
}

/// The served store, its reference row counts and the recorded epochs.
pub struct ServeMix {
    seed: u64,
    store: SsbStore,
    reference_rows: Vec<usize>,
    planner: AccessPlanner,
    ingest_hz: f64,
    last_jobs: Vec<JobSpec>,
    tally: Tally,
}

/// The open-loop plan of epoch `i` of a run seeded with `seed`: the seed
/// picks every arrival instant and where each query tenant starts in its
/// list of queries. Tenants then take their queries in turn, one per
/// epoch, so every run sends the same mix of query costs.
pub fn epoch_plan(seed: u64, i: u64, ingest_hz: f64) -> OpenLoopPlan {
    let mut plan = OpenLoopPlan::new(splitmix64(seed ^ splitmix64(i)), HORIZON);
    for (tenant, &(queries, rate_hz, weight)) in (1..).zip(QUERY_TENANTS.iter()) {
        let n = queries.len() as u64;
        let query = queries[((splitmix64(seed ^ u64::from(tenant)) % n + i) % n) as usize];
        plan = plan.tenant(
            TenantLoad::new(
                tenant,
                ArrivalProcess::poisson(rate_hz),
                JobSpec::query(query).threads(1),
            )
            .weight(weight),
        );
    }
    let ingest = JobSpec::ingest(UNIT_BYTES).threads(2);
    plan.tenant(TenantLoad::new(
        4,
        ArrivalProcess::poisson(ingest_hz / 2.0),
        ingest,
    ))
    .tenant(TenantLoad::new(
        5,
        ArrivalProcess::bursty(ingest_hz, 0.01, 0.01),
        ingest,
    ))
}

/// Ingest arrivals per virtual second that offer `INGEST_OVERLOAD` times
/// the machine's write capacity at the writer admission cap.
pub fn ingest_hz(planner: &AccessPlanner) -> f64 {
    let budget = planner.concurrency_budget();
    let (_, write) = planner.expected_mixed(0, budget.writer_threads);
    let capacity = write.bytes_per_sec() * f64::from(planner.sockets().max(1));
    INGEST_OVERLOAD * capacity / UNIT_BYTES as f64
}

impl ServeMix {
    fn check_rows(&self, query: QueryId, rows: usize) -> Result<(), String> {
        let k = query_of(Some(query.name())).expect("QueryId::ALL holds every query");
        if rows == self.reference_rows[k] {
            Ok(())
        } else {
            Err(format!(
                "{}: {rows} rows, reference has {}",
                query.name(),
                self.reference_rows[k]
            ))
        }
    }
}

impl Bench for ServeMix {
    const BLOCK: u64 = 1;

    fn setup(seed: u64, t: &mut Tracer) -> Result<Self, String> {
        let (store, reference) = load_with_reference(SF, seed, t)?;
        let planner = AccessPlanner::paper_default();
        Ok(ServeMix {
            seed,
            store,
            reference_rows: reference.iter().map(Vec::len).collect(),
            ingest_hz: ingest_hz(&planner),
            planner,
            last_jobs: Vec::new(),
            tally: Tally::default(),
        })
    }

    fn op(&mut self, i: u64, record: bool, t: &mut Tracer) -> Result<(), String> {
        let plan = epoch_plan(self.seed, i, self.ingest_hz);
        let jobs = plan.jobs();
        let mut config = ServeConfig::surge(&self.planner)
            .with_hot_tier(HotTierPolicy::with_budget(self.store.fact_bytes() / 2))
            .with_open_loop(plan);
        config.pool_workers = 1;
        let mut server = QueryServer::new(&self.store, config);
        let report = t
            .span("QueryServer::run", |_| server.run())
            .map_err(|e| format!("serve run: {e}"))?;
        // Exactly one terminal record per submitted job: the record ids
        // are 0..jobs.len(), each once.
        let mut seen = vec![false; jobs.len()];
        for j in &report.jobs {
            match seen.get_mut(j.id.0 as usize) {
                Some(s) if !*s => *s = true,
                Some(_) => return Err(format!("job {} has two terminal records", j.id.0)),
                None => return Err(format!("record for unknown job {}", j.id.0)),
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("job {missing} has no terminal record"));
        }
        if report.failed_jobs() > 0 {
            return Err(format!("{} jobs failed", report.failed_jobs()));
        }
        for j in report.jobs.iter().filter(|j| j.outcome.is_completed()) {
            if let JobKind::Query { query, .. } = jobs[j.id.0 as usize].kind {
                self.check_rows(query, j.rows as usize)?;
            }
        }
        if record {
            self.tally.add(&report);
        }
        self.last_jobs = jobs;
        Ok(())
    }

    /// Replay the epoch's query items through the worker pool on their
    /// own, to split pool time from the serve loop's time.
    fn beside_op(&mut self, _i: u64, t: &mut Tracer) -> Result<(), String> {
        let work: Vec<(SocketId, WorkItem)> = self
            .last_jobs
            .iter()
            .enumerate()
            .filter_map(|(k, spec)| match spec.kind {
                JobKind::Query { query, threads } => Some((
                    SocketId((k % 2) as u8),
                    WorkItem {
                        id: JobId(k as u64),
                        query,
                        threads,
                    },
                )),
                JobKind::Ingest { .. } => None,
            })
            .collect();
        let pool = PoolSet::new(Machine::paper_default(), Pinning::Cores, 1);
        let outcomes = t
            .span("PoolSet::execute", |_| pool.execute(&self.store, &work))
            .map_err(|e| format!("pool replay: {e}"))?;
        for (_, item) in &work {
            let outcome = outcomes
                .get(&item.id)
                .ok_or_else(|| format!("pool replay lost job {}", item.id.0))?;
            self.check_rows(item.query, outcome.rows.len())?;
        }
        Ok(())
    }

    fn virt(&self) -> [Metric; 2] {
        let t = &self.tally;
        [
            Metric::new(
                "virt_goodput_gib_s",
                if t.makespan_s > 0.0 {
                    t.completed_bytes as f64 / t.makespan_s / (1u64 << 30) as f64
                } else {
                    0.0
                },
                "GiB/s",
            ),
            Metric::new(
                "virt_tail_ms",
                stats::percentile(&t.e2e_s, 0.99) * 1e3,
                "ms",
            ),
        ]
    }

    fn counts(&self) -> Vec<Metric> {
        let t = &self.tally;
        vec![
            Metric::new("serve.jobs", t.jobs as f64, "count"),
            Metric::new("serve.completed", t.completed as f64, "count"),
            Metric::new("serve.shed", t.shed as f64, "count"),
            Metric::new("serve.failed", t.failed as f64, "count"),
            Metric::new("serve.retried", t.retried as f64, "count"),
            Metric::new("serve.queued", t.queued as f64, "count"),
            Metric::new("serve.batches", t.batches as f64, "count"),
            Metric::new("serve.scan_bytes_saved", t.scan_bytes_saved as f64, "B"),
            Metric::new("serve.breaker_trips", t.breaker_trips as f64, "count"),
            Metric::new("serve.brownout_s", t.brownout_s, "s"),
            Metric::new(
                "serve.hot_tier_hit_rate",
                t.hit_rate_sum / t.epochs.max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "serve.queue_wait_p99_ms",
                stats::percentile(&t.wait_s, 0.99) * 1e3,
                "ms",
            ),
            Metric::new("serve.read_busy_s", t.read_busy_s, "s"),
            Metric::new("serve.write_busy_s", t.write_busy_s, "s"),
        ]
    }

    fn layer_times(&self, t: &Tracer) -> Vec<Metric> {
        let run = t.per_op_ms(Phase::Op, "QueryServer::run", |_| true);
        let pool = t.per_op_ms(Phase::Replay, "PoolSet::execute", |_| true);
        let serve_loop: Vec<f64> = run.iter().zip(&pool).map(|(r, p)| r - p).collect();
        vec![
            Metric::new(
                "ssb.datagen_s",
                setup_median(t, "datagen::generate") / 1e3,
                "s",
            ),
            Metric::new("ssb.load_s", setup_median(t, "SsbStore::load") / 1e3, "s"),
            Metric::new("ssb.reference_ms", setup_median(t, "reference_query"), "ms"),
            Metric::new("serve.run_ms", stats::median(&run), "ms"),
            Metric::new("serve.pool_ms", stats::median(&pool), "ms"),
            Metric::new("serve.loop_ms", stats::median(&serve_loop), "ms"),
        ]
    }
}
