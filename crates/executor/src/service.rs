//! The multi-tenant executor: bounded per-tenant queues in front of one
//! dispatcher thread that multiplexes tenants onto the shared virtual
//! platform.
//!
//! # Threading model
//!
//! Client threads call [`Executor::submit`] concurrently; submission only
//! takes the scheduler lock, stamps the job with the current virtual time
//! and clock epoch, and enqueues it — no device commands are issued on
//! client threads. A single dispatcher thread pops batches and runs them
//! through the two phases of [`crate::job::run_batch`], so every device
//! command is issued from one thread in a deterministic order per schedule,
//! while the *modeled* timeline still overlaps across tenants because each
//! tenant owns its own in-order streams (`Context::fork_streams`) and
//! results are materialized with `read_back_after` (the host clock is never
//! synced to device completion).
//!
//! # Scheduling
//!
//! [`SchedulingMode::WeightedRoundRobin`] visits backlogged tenants in a
//! cycle; each visit grants the tenant `weight` launches before the cursor
//! moves on, and each launch may coalesce up to `max_batch` consecutive
//! same-key jobs from that tenant's queue into one fused call. A tenant
//! that floods its queue therefore only lengthens *its own* backlog — other
//! tenants still get their launches every cycle. [`SchedulingMode::Fifo`]
//! dispatches in global arrival order instead and exists as the fairness
//! baseline: under it, one flooding tenant head-of-line-blocks everyone.
//!
//! # Placement
//!
//! [`Executor::add_tenant`] deals tenants round-robin over the devices,
//! and each tenant's home device runs every batch it submits:
//! [`crate::job::run_batch`] puts the inputs of every job kind on
//! `MatrixDistribution::Single(home)`. A Jacobi job is then one launch per
//! round with no halo exchange, and tenants with different homes run side
//! by side instead of taking turns on every device. The cost falls on a
//! large job alone on an idle executor, which no longer uses the other
//! devices. A 10-iteration Jacobi job alone on 2 devices takes, homed vs
//! spread over both: 532 vs 738 µs at 256², 819 vs 825 µs at 384², 1220 vs
//! 1026 µs at 512² and 3972 vs 2403 µs at 1024² (modeled service time). So
//! above about 400² a lone plate gives up multi-device speed. The service
//! is built for many clients with streams of small jobs, and under such a
//! backlog every device has its own tenants' work.
//!
//! # Pipelining
//!
//! A batch runs in two phases: the launch (an upload on the tenant's copy
//! stream ordered by events only, the kernel, and a fence marker), then the
//! read-back, which waits on that fence. While another job homed on the
//! same device is queued, the dispatcher holds a launched coalesced batch
//! open and reads it back right after the next batch on that device has
//! launched. Batch k+1's upload then runs under batch k's kernel, and batch
//! k's read-back under batch k+1's kernel. An open batch keeps only its
//! output on the device. It is read back at once, without waiting for a
//! next batch, when:
//!
//! * no job homed on its device is queued, so no next batch is coming and
//!   another device's backlog never delays it;
//! * the next launch builds a program: a build moves the host clock, and a
//!   read enqueued after it could start no earlier;
//! * its device runs a `Jacobi` or `MatMul` batch. Those run closed (read
//!   back right after their launch), so a plate-sized output is never held
//!   while another device runs its own large job;
//! * the dispatcher pauses or runs out of work.
//!
//! So a job's slot fills no later than the launch of the next batch on its
//! home device, and `drain` waits for open batches like any in-flight job.
//!
//! # Backpressure
//!
//! Each tenant's queue is bounded at `queue_depth`; `submit` against a full
//! queue returns [`SubmitError::QueueFull`] immediately (shed, not
//! blocked) and bumps the tenant's `rejected` counter.
//!
//! # A dying dispatcher
//!
//! If the dispatcher thread panics, every job it holds or still has queued
//! completes with [`JobError::Cancelled`], `drain` returns, and later
//! submissions are refused with [`SubmitError::ShuttingDown`].

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use skelcl::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use skelcl::{Context, ContextConfig, ProgramRegistry, SloSummary};
use vgpu::Platform;

use crate::handle::{JobError, JobHandle, JobReport, Promise, SubmitError};
use crate::job::{self, Job, Launched};

/// Scheduler policy for draining tenant queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingMode {
    /// Fair: cycle over backlogged tenants, `weight` launches per visit.
    WeightedRoundRobin,
    /// Baseline: strict global arrival order (no fairness isolation).
    Fifo,
}

/// Configuration for [`Executor::new`].
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Number of virtual devices.
    pub devices: usize,
    /// Device model for every device.
    pub spec: vgpu::DeviceSpec,
    /// Work-group size handed to skeleton launches.
    pub work_group: usize,
    /// Optional on-disk kernel-cache tag (shared across tenants).
    pub cache_tag: Option<String>,
    /// Per-tenant queue bound; `submit` sheds beyond this depth.
    pub queue_depth: usize,
    /// Max jobs fused into one launch; `1` disables coalescing.
    pub max_batch: usize,
    /// Queue-drain policy.
    pub scheduling: SchedulingMode,
    /// Program-registry global capacity (`0` = unbounded).
    pub program_capacity: usize,
    /// Program-registry per-tenant quota (`0` = unbounded).
    pub program_quota: usize,
    /// Start with the dispatcher paused (tests/benches pre-load queues,
    /// then `resume` for a deterministic dispatch schedule).
    pub paused: bool,
    /// Optional per-job latency target (virtual seconds). When set, each
    /// completed job whose submit→ready latency exceeds the target bumps
    /// its tenant's `executor.tenant.<name>.slo_miss` counter and the
    /// service-wide `executor.slo_misses`; [`Executor::slo_summary`]
    /// aggregates the verdict for [`skelcl::RunReport::with_slo`].
    pub latency_slo_s: Option<f64>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            devices: 2,
            spec: vgpu::DeviceSpec::default(),
            work_group: skelcl::DEFAULT_WORK_GROUP,
            cache_tag: None,
            queue_depth: 64,
            max_batch: 16,
            scheduling: SchedulingMode::WeightedRoundRobin,
            program_capacity: 0,
            program_quota: 0,
            paused: false,
            latency_slo_s: None,
        }
    }
}

impl ExecutorConfig {
    pub fn devices(mut self, n: usize) -> Self {
        self.devices = n;
        self
    }

    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n.max(1);
        self
    }

    pub fn scheduling(mut self, mode: SchedulingMode) -> Self {
        self.scheduling = mode;
        self
    }

    pub fn paused(mut self) -> Self {
        self.paused = true;
        self
    }

    /// Set the per-job latency SLO target (virtual seconds).
    pub fn latency_slo(mut self, target_s: f64) -> Self {
        self.latency_slo_s = Some(target_s);
        self
    }
}

/// Opaque tenant identifier returned by [`Executor::add_tenant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub(crate) usize);

struct Queued {
    job: Job,
    ticket: Ticket,
}

/// What completing a job needs once its input has been launched.
struct Ticket {
    promise: Promise,
    submit_s: f64,
    epoch: u64,
    /// Span id allocated at submit when span collection is on — the job's
    /// trace identity, so its queue-wait and service intervals land in the
    /// Chrome trace as children of one per-job span.
    span: Option<u64>,
}

struct Tenant {
    name: String,
    weight: usize,
    home: usize,
    ctx: Context,
    queue: VecDeque<Queued>,
    submitted: Counter,
    completed: Counter,
    rejected: Counter,
    depth: Gauge,
    latency: Histogram,
    slo_miss: Counter,
    shed_rate: Gauge,
}

struct SchedState {
    tenants: Vec<Tenant>,
    /// Global arrival order (tenant index per queued job) — Fifo mode only.
    fifo: VecDeque<usize>,
    /// WRR cursor: current tenant index and launches left in its quantum.
    rr_cursor: usize,
    rr_turns_left: usize,
    pending: usize,
    in_flight: usize,
    paused: bool,
    shutdown: bool,
}

struct ServiceMetrics {
    submitted: Counter,
    completed: Counter,
    rejected: Counter,
    batches: Counter,
    coalesced_jobs: Counter,
    stale_epoch_jobs: Counter,
    latency: Histogram,
    slo_miss: Counter,
    shed_rate: Gauge,
}

impl ServiceMetrics {
    fn new(reg: &MetricsRegistry) -> ServiceMetrics {
        ServiceMetrics {
            submitted: reg.counter("executor.jobs.submitted"),
            completed: reg.counter("executor.jobs.completed"),
            rejected: reg.counter("executor.jobs.rejected"),
            batches: reg.counter("executor.batches"),
            coalesced_jobs: reg.counter("executor.coalesced_jobs"),
            stale_epoch_jobs: reg.counter("executor.stale_epoch_jobs"),
            latency: reg.histogram("executor.latency_s"),
            slo_miss: reg.counter("executor.slo_misses"),
            shed_rate: reg.gauge("executor.shed_rate"),
        }
    }

    /// Recompute the service-wide shed-rate gauge (shed / arrivals).
    fn update_shed_rate(&self) {
        let accepted = self.submitted.get();
        let shed = self.rejected.get();
        let total = accepted + shed;
        if total > 0 {
            self.shed_rate.set(shed as f64 / total as f64);
        }
    }
}

struct Shared {
    root: Context,
    cfg: ExecutorConfig,
    state: Mutex<SchedState>,
    /// Signalled on submit / resume / shutdown — wakes the dispatcher.
    work: Condvar,
    /// Signalled when the service goes idle — wakes `drain`.
    idle: Condvar,
    metrics: ServiceMetrics,
}

/// Recompute a tenant's shed-rate gauge (shed / arrivals).
fn update_tenant_shed_rate(t: &Tenant) {
    let accepted = t.submitted.get();
    let shed = t.rejected.get();
    let total = accepted + shed;
    if total > 0 {
        t.shed_rate.set(shed as f64 / total as f64);
    }
}

/// One batch popped from the scheduler, with everything `launch` needs so
/// the lock is not held across device work.
struct BatchPlan {
    jobs: Vec<Queued>,
    ctx: Context,
    home: usize,
    meters: TenantMeters,
}

/// The tenant's name and the meters each of its completed jobs bumps.
struct TenantMeters {
    name: String,
    completed: Counter,
    latency: Histogram,
    slo_miss: Counter,
}

/// A batch past its launch phase: its jobs wait for the read-back.
struct Batch {
    tickets: Vec<Ticket>,
    launched: skelcl::Result<Launched>,
    kind: &'static str,
    start_s: f64,
    epoch: u64,
    meters: TenantMeters,
}

/// The multi-tenant executor service. See the module docs for the model.
pub struct Executor {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Executor {
    /// Build a fresh virtual platform per `cfg` and start the dispatcher.
    pub fn new(cfg: ExecutorConfig) -> Executor {
        let mut cc = ContextConfig::default()
            .devices(cfg.devices)
            .spec(cfg.spec)
            .work_group(cfg.work_group);
        if let Some(tag) = &cfg.cache_tag {
            cc = cc.cache_tag(tag.clone());
        }
        // Round-trip through a plain Context to reuse its platform wiring,
        // then rebuild with the admission-controlled registry.
        let platform = Context::new(cc).platform().clone();
        Executor::from_platform(platform, cfg)
    }

    /// Wrap an existing platform (benches share one platform between the
    /// executor and hand-rolled baselines).
    pub fn from_platform(platform: Platform, cfg: ExecutorConfig) -> Executor {
        let programs = if cfg.program_capacity > 0 || cfg.program_quota > 0 {
            let cap = if cfg.program_capacity == 0 {
                usize::MAX
            } else {
                cfg.program_capacity
            };
            let quota = if cfg.program_quota == 0 {
                usize::MAX
            } else {
                cfg.program_quota
            };
            ProgramRegistry::with_limits(cap, quota)
        } else {
            ProgramRegistry::unbounded()
        };
        let root = Context::from_platform_shared(platform, cfg.work_group, Arc::new(programs));
        let metrics = ServiceMetrics::new(root.metrics());
        let shared = Arc::new(Shared {
            root,
            state: Mutex::new(SchedState {
                tenants: Vec::new(),
                fifo: VecDeque::new(),
                rr_cursor: 0,
                rr_turns_left: 0,
                pending: 0,
                in_flight: 0,
                paused: cfg.paused,
                shutdown: false,
            }),
            cfg,
            work: Condvar::new(),
            idle: Condvar::new(),
            metrics,
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("skelcl-executor".into())
                .spawn(move || dispatch_loop(&shared))
                .expect("spawn dispatcher thread")
        };
        Executor {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// Register a tenant: forks per-tenant in-order streams off the root
    /// context and pins a home device (round-robin over devices) that runs
    /// every one of the tenant's jobs. `weight` is the tenant's launches
    /// per round-robin visit (min 1).
    pub fn add_tenant(&self, name: impl Into<String>, weight: usize) -> TenantId {
        let name = name.into();
        let ctx = self.shared.root.fork_streams(name.clone());
        let reg = self.shared.root.metrics();
        let mut st = self.shared.state.lock().unwrap();
        let id = st.tenants.len();
        st.tenants.push(Tenant {
            home: id % self.shared.root.n_devices(),
            ctx,
            weight: weight.max(1),
            queue: VecDeque::new(),
            submitted: reg.counter(&format!("executor.tenant.{name}.submitted")),
            completed: reg.counter(&format!("executor.tenant.{name}.completed")),
            rejected: reg.counter(&format!("executor.tenant.{name}.rejected")),
            depth: reg.gauge(&format!("executor.tenant.{name}.queue_depth")),
            latency: reg.histogram(&format!("executor.tenant.{name}.latency_s")),
            slo_miss: reg.counter(&format!("executor.tenant.{name}.slo_miss")),
            shed_rate: reg.gauge(&format!("executor.tenant.{name}.shed_rate")),
            name,
        });
        TenantId(id)
    }

    /// Submit a job for `tenant`. Returns a [`JobHandle`] future, or sheds
    /// with [`SubmitError::QueueFull`] when the tenant's queue is at depth.
    /// A job whose data does not match its shape is refused with
    /// [`SubmitError::Malformed`]. Thread-safe; never blocks on device work.
    pub fn submit(&self, tenant: TenantId, job: Job) -> Result<JobHandle, SubmitError> {
        job.check_shape()?;
        let submit_s = self.shared.root.host_now_s();
        let epoch = self.shared.root.platform().clock_epoch();
        let mut st = self.shared.state.lock().unwrap();
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let depth_limit = self.shared.cfg.queue_depth;
        let fifo_mode = self.shared.cfg.scheduling == SchedulingMode::Fifo;
        let t = st
            .tenants
            .get_mut(tenant.0)
            .ok_or(SubmitError::UnknownTenant)?;
        if t.queue.len() >= depth_limit {
            t.rejected.inc();
            update_tenant_shed_rate(t);
            self.shared.metrics.rejected.inc();
            self.shared.metrics.update_shed_rate();
            return Err(SubmitError::QueueFull {
                tenant: t.name.clone(),
                depth: depth_limit,
            });
        }
        let (promise, handle) = Promise::pair();
        t.queue.push_back(Queued {
            job,
            ticket: Ticket {
                promise,
                submit_s,
                epoch,
                span: self.shared.root.alloc_span_id(),
            },
        });
        t.submitted.inc();
        t.depth.set(t.queue.len() as f64);
        update_tenant_shed_rate(t);
        self.shared.metrics.submitted.inc();
        self.shared.metrics.update_shed_rate();
        st.pending += 1;
        if fifo_mode {
            st.fifo.push_back(tenant.0);
        }
        drop(st);
        self.shared.work.notify_one();
        Ok(handle)
    }

    /// Halt dispatch (queued jobs stay queued; submissions still accepted).
    pub fn pause(&self) {
        self.shared.state.lock().unwrap().paused = true;
    }

    /// Resume dispatch after [`Executor::pause`].
    pub fn resume(&self) {
        self.shared.state.lock().unwrap().paused = false;
        self.shared.work.notify_all();
    }

    /// Block until every queued and in-flight job has completed. Resumes a
    /// paused dispatcher (draining while paused would never finish).
    pub fn drain(&self) {
        let mut st = self.shared.state.lock().unwrap();
        if st.paused {
            st.paused = false;
            self.shared.work.notify_all();
        }
        while st.pending > 0 || st.in_flight > 0 {
            st = self.shared.idle.wait(st).unwrap();
        }
    }

    /// The shared root context (platform, metrics registry, span collector).
    pub fn context(&self) -> &Context {
        &self.shared.root
    }

    /// The shared metrics registry (per-tenant `executor.tenant.*` series,
    /// service-wide `executor.*` counters and the latency histogram).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.shared.root.metrics()
    }

    /// Current queue depth for a tenant (0 for unknown ids).
    pub fn queue_depth(&self, tenant: TenantId) -> usize {
        let st = self.shared.state.lock().unwrap();
        st.tenants.get(tenant.0).map_or(0, |t| t.queue.len())
    }

    /// Service-wide SLO verdict so far: deadline misses against the
    /// configured [`ExecutorConfig::latency_slo`] target, completed jobs,
    /// and shed submissions. `None` when no target was configured. Attach
    /// to a [`skelcl::RunReport`] via `with_slo` so serving figures (and
    /// the telemetry JSON export) carry it.
    pub fn slo_summary(&self) -> Option<SloSummary> {
        let target_s = self.shared.cfg.latency_slo_s?;
        Some(SloSummary {
            target_s,
            deadline_misses: self.shared.metrics.slo_miss.get(),
            jobs: self.shared.metrics.completed.get(),
            shed: self.shared.metrics.rejected.get(),
        })
    }
}

impl Drop for Executor {
    /// Graceful shutdown: mark, wake, and join — the dispatcher drains
    /// every already-queued job before exiting, so no accepted job is
    /// left pending.
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

fn dispatch_loop(shared: &Shared) {
    let _unwind = CancelOnUnwind(shared);
    // At most one launched coalesced batch per device, held open while a
    // job homed there is queued (see "Pipelining" in the module doc).
    let mut open: Vec<Option<Batch>> = (0..shared.root.n_devices()).map(|_| None).collect();
    loop {
        let next = {
            let mut st = shared.state.lock().unwrap();
            loop {
                // Shutdown overrides pause: queued jobs must drain.
                if st.pending > 0 && (!st.paused || st.shutdown) {
                    let plan = take_batch(shared, &mut st);
                    st.pending -= plan.jobs.len();
                    st.in_flight += plan.jobs.len();
                    let mut queued = vec![false; open.len()];
                    for t in st.tenants.iter().filter(|t| !t.queue.is_empty()) {
                        queued[t.home] = true;
                    }
                    break Some((plan, queued));
                }
                // Nothing to launch: read back the open batches before
                // waiting or exiting.
                if open.iter().any(Option::is_some) {
                    break None;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        let Some((plan, queued)) = next else {
            for batch in open.iter_mut().filter_map(Option::take) {
                complete(shared, batch);
            }
            continue;
        };
        let home = plan.home;
        let pipelined = plan.jobs[0].job.coalesce_key().is_some();
        let builds = job::builds(&plan.ctx, &plan.jobs[0].job);
        // Read back first every open batch that would otherwise wait: for a
        // build (it moves the host clock, and a read enqueued after it starts
        // no earlier), for a device with no queued job (no next batch is
        // coming), and for this device when this batch runs closed.
        for (d, slot) in open.iter_mut().enumerate() {
            let close = builds || if d == home { !pipelined } else { !queued[d] };
            if let Some(batch) = slot.take_if(|_| close) {
                complete(shared, batch);
            }
        }
        let batch = launch(shared, plan);
        if let Some(prev) = open[home].take() {
            complete(shared, prev);
        }
        if pipelined && queued[home] {
            open[home] = Some(batch);
        } else {
            complete(shared, batch);
        }
    }
}

/// Armed for the dispatcher's whole life. When the dispatcher unwinds from
/// a panic, the jobs it holds (the batch it was running and every open
/// batch) are dropped on the way out, and their promises complete them as
/// [`JobError::Cancelled`]. This guard, dropped last, cancels every job
/// still queued the same way, refuses later submissions, and wakes `drain`.
struct CancelOnUnwind<'a>(&'a Shared);

impl Drop for CancelOnUnwind<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let shared = self.0;
        let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.shutdown = true;
        for t in &mut st.tenants {
            t.queue.clear();
            t.depth.set(0.0);
        }
        st.fifo.clear();
        st.pending = 0;
        st.in_flight = 0;
        drop(st);
        // The state is consistent again, so clients may keep locking it.
        shared.state.clear_poison();
        shared.idle.notify_all();
    }
}

/// Pop the next launch batch under the scheduler lock. Both modes pop at
/// least one job, then extend with *consecutive* same-key jobs from the
/// same tenant (up to `max_batch`) so per-tenant FIFO order is preserved.
fn take_batch(shared: &Shared, st: &mut SchedState) -> BatchPlan {
    let max_batch = shared.cfg.max_batch.max(1);
    let ti = match shared.cfg.scheduling {
        SchedulingMode::Fifo => st.fifo.pop_front().expect("pending > 0 implies fifo entry"),
        SchedulingMode::WeightedRoundRobin => {
            let n = st.tenants.len();
            let start = st.rr_cursor.min(n.saturating_sub(1));
            let ti = (0..n)
                .map(|off| (start + off) % n)
                .find(|&t| !st.tenants[t].queue.is_empty())
                .expect("pending > 0 implies a backlogged tenant");
            if ti != st.rr_cursor || st.rr_turns_left == 0 {
                st.rr_cursor = ti;
                st.rr_turns_left = st.tenants[ti].weight;
            }
            ti
        }
    };
    let key = st.tenants[ti]
        .queue
        .front()
        .expect("tenant selected with work")
        .job
        .coalesce_key();
    let mut jobs = vec![st.tenants[ti].queue.pop_front().expect("checked above")];
    while jobs.len() < max_batch {
        let next_matches = key.is_some()
            && st.tenants[ti]
                .queue
                .front()
                .is_some_and(|q| q.job.coalesce_key() == key);
        if !next_matches {
            break;
        }
        jobs.push(st.tenants[ti].queue.pop_front().expect("front checked"));
        if shared.cfg.scheduling == SchedulingMode::Fifo {
            // Every queued job has one fifo entry; the coalesced followers'
            // entries are this tenant's oldest remaining ones.
            let pos = st
                .fifo
                .iter()
                .position(|&t| t == ti)
                .expect("fifo entry per queued job");
            st.fifo.remove(pos);
        }
    }
    if shared.cfg.scheduling == SchedulingMode::WeightedRoundRobin {
        st.rr_turns_left = st.rr_turns_left.saturating_sub(1);
        if st.tenants[ti].queue.is_empty() {
            // The tenant drained mid-quantum. Forfeit the leftover turns:
            // the cursor parks here while the service idles, and without
            // this the stale `rr_turns_left` would shortchange the
            // tenant's *next* visit (it resumed the old quantum instead of
            // starting a fresh `weight`-sized one).
            st.rr_turns_left = 0;
        }
        if st.rr_turns_left == 0 {
            st.rr_cursor = (ti + 1) % st.tenants.len().max(1);
        }
    }
    let t = &st.tenants[ti];
    t.depth.set(t.queue.len() as f64);
    BatchPlan {
        jobs,
        ctx: t.ctx.clone(),
        home: t.home,
        meters: TenantMeters {
            name: t.name.clone(),
            completed: t.completed.clone(),
            latency: t.latency.clone(),
            slo_miss: t.slo_miss.clone(),
        },
    }
}

/// The launch phase of one batch, outside the scheduler lock. The jobs'
/// inputs are dropped here, once the kernel is enqueued.
fn launch(shared: &Shared, plan: BatchPlan) -> Batch {
    let BatchPlan {
        jobs,
        ctx,
        home,
        meters,
    } = plan;
    let kind = jobs[0].job.kind();
    let (jobs, tickets): (Vec<Job>, Vec<Ticket>) =
        jobs.into_iter().map(|q| (q.job, q.ticket)).unzip();
    let start_s = ctx.host_now_s();
    let epoch = ctx.platform().clock_epoch();
    let mut span = shared.root.span("executor.batch");
    span.attr("tenant", meters.name.clone());
    span.attr("kind", kind);
    span.attr("jobs", jobs.len().to_string());
    let launched = job::launch(&ctx, home, &jobs);
    drop(span);
    shared.metrics.batches.inc();
    if jobs.len() > 1 {
        shared.metrics.coalesced_jobs.add(jobs.len() as u64 - 1);
    }
    Batch {
        tickets,
        launched,
        kind,
        start_s,
        epoch,
        meters,
    }
}

/// The read-back phase of one batch: fill its jobs' slots and retire them.
fn complete(shared: &Shared, batch: Batch) {
    let Batch {
        tickets,
        launched,
        kind,
        start_s,
        epoch,
        meters,
    } = batch;
    let batched = tickets.len();
    match launched.and_then(Launched::read_back) {
        Ok(outputs) => {
            for (t, (out, ready_s)) in tickets.into_iter().zip(outputs) {
                let stale_epoch = t.epoch != epoch;
                if stale_epoch {
                    shared.metrics.stale_epoch_jobs.inc();
                }
                let report = JobReport {
                    tenant: meters.name.clone(),
                    kind,
                    submit_s: t.submit_s,
                    start_s,
                    ready_s,
                    batched,
                    stale_epoch,
                };
                meters.latency.observe(report.latency_s());
                shared.metrics.latency.observe(report.latency_s());
                if let Some(target) = shared.cfg.latency_slo_s {
                    if report.latency_s() > target {
                        meters.slo_miss.inc();
                        shared.metrics.slo_miss.inc();
                    }
                }
                record_job_spans(shared, &t, &report);
                meters.completed.inc();
                shared.metrics.completed.inc();
                t.promise.fulfil(Ok((out, report)));
            }
        }
        Err(e) => {
            let msg = e.to_string();
            for t in tickets {
                t.promise.fulfil(Err(JobError::Failed(msg.clone())));
            }
        }
    }
    let mut st = shared.state.lock().unwrap();
    st.in_flight -= batched;
    if st.pending == 0 && st.in_flight == 0 {
        shared.idle.notify_all();
    }
}

/// Emit the job's trace spans: a whole-job `executor.job` span over
/// `[submit, ready]` with `executor.job.queue_wait` and
/// `executor.job.service` children, all tagged with the tenant so the
/// Chrome exporter routes them to the tenant's lane. The job span is a
/// *root* span — its interval starts at submit time, before the dispatch
/// batch opened, so parenting it under `executor.batch` would violate the
/// nesting invariant. Stale-epoch jobs are skipped (their submit timestamp
/// belongs to a dead clock).
fn record_job_spans(shared: &Shared, t: &Ticket, report: &JobReport) {
    let Some(span_id) = t.span else { return };
    if report.stale_epoch {
        return;
    }
    let tag = |extra: bool| {
        let mut attrs = vec![
            ("tenant", report.tenant.clone()),
            ("kind", report.kind.to_string()),
        ];
        if extra {
            attrs.push(("batched", report.batched.to_string()));
        }
        attrs
    };
    let ctx = &shared.root;
    let id = ctx.record_interval_span(
        Some(span_id),
        "executor.job",
        None,
        report.submit_s,
        report.ready_s,
        tag(true),
    );
    ctx.record_interval_span(
        None,
        "executor.job.queue_wait",
        id,
        report.submit_s,
        report.start_s,
        tag(false),
    );
    ctx.record_interval_span(
        None,
        "executor.job.service",
        id,
        report.start_s,
        report.ready_s,
        tag(false),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{run_job, JobOutput};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;
    use vgpu::{CmdKind, CommandRecord, EngineKind};

    fn ramp(n: usize, salt: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32).mul_add(0.5, salt)).collect()
    }

    fn bits(out: &JobOutput) -> Vec<u32> {
        match out {
            JobOutput::Scalar(s) => vec![s.to_bits()],
            JobOutput::Vector(v) | JobOutput::Matrix { data: v, .. } => {
                v.iter().map(|x| x.to_bits()).collect()
            }
        }
    }

    /// Run `f` on a thread of its own and return its result. A client the
    /// executor strands then fails the test after 30 s instead of hanging
    /// the suite; the stranded thread is left behind.
    fn within_30s<R: Send + 'static>(what: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(r) => {
                worker
                    .join()
                    .expect("the worker sent its result and returned");
                r
            }
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("the worker panicked"))
            }
            Err(RecvTimeoutError::Timeout) => panic!("{what} hung"),
        }
    }

    #[test]
    fn submit_wait_roundtrip_matches_direct_run() {
        let exec = Executor::new(ExecutorConfig::default());
        let t = exec.add_tenant("alice", 1);
        let h = exec
            .submit(
                t,
                Job::Axpb {
                    a: 3.0,
                    b: 1.0,
                    data: ramp(32, 0.0),
                },
            )
            .unwrap();
        let (out, report) = h.wait().unwrap();
        let expect: Vec<f32> = ramp(32, 0.0).iter().map(|x| 3.0 * x + 1.0).collect();
        assert_eq!(out, JobOutput::Vector(expect));
        assert_eq!(report.tenant, "alice");
        assert_eq!(report.kind, "axpb");
        assert!(report.ready_s >= report.submit_s);
        assert_eq!(
            exec.metrics().counter_value("executor.jobs.completed"),
            Some(1)
        );
    }

    #[test]
    fn backpressure_sheds_beyond_queue_depth() {
        let exec = Executor::new(ExecutorConfig::default().queue_depth(4).paused());
        let t = exec.add_tenant("bursty", 1);
        let mut handles = Vec::new();
        for i in 0..4 {
            handles.push(
                exec.submit(
                    t,
                    Job::RowSum {
                        data: ramp(16, i as f32),
                    },
                )
                .unwrap(),
            );
        }
        let err = exec
            .submit(
                t,
                Job::RowSum {
                    data: ramp(16, 9.0),
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            SubmitError::QueueFull {
                tenant: "bursty".into(),
                depth: 4
            }
        );
        assert_eq!(
            exec.metrics()
                .counter_value("executor.tenant.bursty.rejected"),
            Some(1)
        );
        assert_eq!(exec.queue_depth(t), 4);
        exec.drain();
        // Draining frees the queue: the shed job can now be resubmitted.
        for h in handles {
            h.wait().unwrap();
        }
        exec.submit(
            t,
            Job::RowSum {
                data: ramp(16, 9.0),
            },
        )
        .unwrap();
        exec.drain();
        assert_eq!(
            exec.metrics().counter_value("executor.jobs.completed"),
            Some(5)
        );
    }

    #[test]
    fn paused_executor_coalesces_same_key_jobs() {
        let exec = Executor::new(ExecutorConfig::default().max_batch(8).paused());
        let t = exec.add_tenant("batcher", 1);
        let handles: Vec<_> = (0..6)
            .map(|i| {
                exec.submit(
                    t,
                    Job::Axpb {
                        a: 2.0,
                        b: 0.5,
                        data: ramp(16, i as f32),
                    },
                )
                .unwrap()
            })
            .collect();
        exec.drain();
        for (i, h) in handles.into_iter().enumerate() {
            let (out, report) = h.wait().unwrap();
            assert_eq!(report.batched, 6, "all six jobs fused into one launch");
            let expect: Vec<f32> = ramp(16, i as f32).iter().map(|x| 2.0 * x + 0.5).collect();
            assert_eq!(out, JobOutput::Vector(expect));
        }
        assert_eq!(exec.metrics().counter_value("executor.batches"), Some(1));
        assert_eq!(
            exec.metrics().counter_value("executor.coalesced_jobs"),
            Some(5)
        );
    }

    #[test]
    fn coalescing_stops_at_key_boundaries_preserving_fifo() {
        let exec = Executor::new(ExecutorConfig::default().max_batch(8).paused());
        let t = exec.add_tenant("mixed", 1);
        let a1 = exec
            .submit(
                t,
                Job::Axpb {
                    a: 1.0,
                    b: 0.0,
                    data: ramp(8, 0.0),
                },
            )
            .unwrap();
        let s1 = exec.submit(t, Job::RowSum { data: ramp(8, 1.0) }).unwrap();
        let a2 = exec
            .submit(
                t,
                Job::Axpb {
                    a: 1.0,
                    b: 0.0,
                    data: ramp(8, 2.0),
                },
            )
            .unwrap();
        exec.drain();
        // Three distinct launches: the RowSum between the Axpbs splits them.
        assert_eq!(exec.metrics().counter_value("executor.batches"), Some(3));
        for h in [a1, a2] {
            assert_eq!(h.wait().unwrap().1.batched, 1);
        }
        assert_eq!(s1.wait().unwrap().1.batched, 1);
    }

    #[test]
    fn wrr_interleaves_tenants_fifo_serves_arrival_order() {
        // One device and no coalescing: every job is its own launch, and
        // the shared compute engine serializes launches in dispatch order,
        // so `ready_s` ordering *is* the schedule. Arrival order is
        // a₁ a₂ b₁ b₂; WRR must interleave (a₁ b₁ a₂ b₂), FIFO must not.
        for mode in [SchedulingMode::WeightedRoundRobin, SchedulingMode::Fifo] {
            let exec = Executor::new(
                ExecutorConfig::default()
                    .devices(1)
                    .scheduling(mode)
                    .max_batch(1)
                    .paused(),
            );
            let a = exec.add_tenant("a", 1);
            let b = exec.add_tenant("b", 1);
            let a_handles: Vec<_> = (0..2)
                .map(|i| {
                    exec.submit(
                        a,
                        Job::RowSum {
                            data: ramp(64, i as f32),
                        },
                    )
                    .unwrap()
                })
                .collect();
            let b_handles: Vec<_> = (0..2)
                .map(|i| {
                    exec.submit(
                        b,
                        Job::RowSum {
                            data: ramp(64, 9.0 + i as f32),
                        },
                    )
                    .unwrap()
                })
                .collect();
            exec.drain();
            let ready: Vec<f64> = a_handles
                .into_iter()
                .chain(b_handles)
                .map(|h| h.wait().unwrap().1.ready_s)
                .collect();
            let (a2, b1) = (ready[1], ready[2]);
            match mode {
                SchedulingMode::WeightedRoundRobin => assert!(
                    b1 < a2,
                    "round-robin serves b's first job before a's second (b1 {b1}, a2 {a2})"
                ),
                SchedulingMode::Fifo => assert!(
                    a2 < b1,
                    "fifo drains a's backlog before touching b (a2 {a2}, b1 {b1})"
                ),
            }
            assert_eq!(exec.metrics().counter_value("executor.batches"), Some(4));
            assert_eq!(
                exec.metrics().counter_value("executor.jobs.completed"),
                Some(4)
            );
        }
    }

    #[test]
    fn wrr_quantum_does_not_go_stale_across_idle_periods() {
        // Regression test: a tenant that drained its queue *mid-quantum*
        // used to keep the leftover `rr_turns_left`, so its next burst —
        // possibly much later — resumed the old, partially-spent quantum
        // instead of a fresh `weight`-sized one, and a light tenant's job
        // split the heavy tenant's burst in half. With the fix, draining
        // mid-quantum forfeits the remainder and advances the cursor, so
        // the heavy tenant's next visit is one uninterrupted weight-4 run.
        let exec = Executor::new(ExecutorConfig::default().devices(1).max_batch(1).paused());
        let heavy = exec.add_tenant("heavy", 4);
        let light = exec.add_tenant("light", 1);

        // Round 1: the heavy tenant drains after 2 of its 4 turns.
        let warmup: Vec<_> = (0..2)
            .map(|i| {
                exec.submit(
                    heavy,
                    Job::RowSum {
                        data: ramp(64, i as f32),
                    },
                )
                .unwrap()
            })
            .collect();
        exec.drain();
        for h in warmup {
            h.wait().unwrap();
        }

        // Round 2: heavy floods 4 jobs, light submits 1. As in
        // `wrr_interleaves_tenants_fifo_serves_arrival_order`, one device
        // plus no coalescing means `ready_s` ordering is the schedule.
        exec.pause();
        let heavy_handles: Vec<_> = (0..4)
            .map(|i| {
                exec.submit(
                    heavy,
                    Job::RowSum {
                        data: ramp(64, 10.0 + i as f32),
                    },
                )
                .unwrap()
            })
            .collect();
        let light_handle = exec
            .submit(
                light,
                Job::RowSum {
                    data: ramp(64, 99.0),
                },
            )
            .unwrap();
        exec.drain();

        let heavy_ready: Vec<f64> = heavy_handles
            .into_iter()
            .map(|h| h.wait().unwrap().1.ready_s)
            .collect();
        let light_ready = light_handle.wait().unwrap().1.ready_s;
        let split = heavy_ready.iter().filter(|&&r| r < light_ready).count();
        assert!(
            split == 0 || split == heavy_ready.len(),
            "the light job must not split the heavy tenant's quantum: \
             {split} of {} heavy jobs ran before it (stale rr_turns_left)",
            heavy_ready.len()
        );
    }

    #[test]
    fn slo_misses_and_shed_rate_are_tracked() {
        // An impossible 0-second target: every completed job misses it.
        let exec = Executor::new(
            ExecutorConfig::default()
                .queue_depth(2)
                .latency_slo(0.0)
                .paused(),
        );
        let t = exec.add_tenant("slo", 1);
        let mut handles = Vec::new();
        for i in 0..2 {
            handles.push(
                exec.submit(
                    t,
                    Job::RowSum {
                        data: ramp(16, i as f32),
                    },
                )
                .unwrap(),
            );
        }
        // Two shed submissions against two accepted: shed rate 0.5.
        for _ in 0..2 {
            exec.submit(
                t,
                Job::RowSum {
                    data: ramp(16, 9.0),
                },
            )
            .unwrap_err();
        }
        exec.drain();
        for h in handles {
            h.wait().unwrap();
        }
        assert_eq!(
            exec.metrics().counter_value("executor.tenant.slo.slo_miss"),
            Some(2),
            "every job misses a 0-second target"
        );
        assert_eq!(exec.metrics().counter_value("executor.slo_misses"), Some(2));
        let shed = exec.metrics().snapshot()["executor.tenant.slo.shed_rate"]
            .as_gauge()
            .unwrap();
        assert!((shed - 0.5).abs() < 1e-12, "shed_rate={shed}");

        let slo = exec.slo_summary().expect("target configured");
        assert_eq!(slo.deadline_misses, 2);
        assert_eq!(slo.jobs, 2);
        assert_eq!(slo.shed, 2);
        assert!((slo.miss_rate() - 1.0).abs() < 1e-12);
        assert!((slo.shed_rate() - 0.5).abs() < 1e-12);

        // No target configured → no summary, no misses counted.
        let plain = Executor::new(ExecutorConfig::default());
        let t = plain.add_tenant("p", 1);
        plain
            .submit(
                t,
                Job::RowSum {
                    data: ramp(16, 0.0),
                },
            )
            .unwrap()
            .wait()
            .unwrap();
        assert!(plain.slo_summary().is_none());
        assert_eq!(
            plain.metrics().counter_value("executor.slo_misses"),
            Some(0)
        );
    }

    #[test]
    fn unknown_tenant_and_shutdown_are_rejected() {
        let exec = Executor::new(ExecutorConfig::default());
        let err = exec
            .submit(TenantId(7), Job::RowSum { data: ramp(4, 0.0) })
            .unwrap_err();
        assert_eq!(err, SubmitError::UnknownTenant);
    }

    #[test]
    fn malformed_job_is_refused_and_the_next_job_completes() {
        let exec = Executor::new(ExecutorConfig::default());
        let t = exec.add_tenant("careless", 1);
        let err = exec
            .submit(
                t,
                Job::Jacobi {
                    rows: 4,
                    cols: 4,
                    iters: 1,
                    data: ramp(15, 0.0),
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, SubmitError::Malformed { kind: "jacobi", .. }),
            "{err}"
        );
        let err = exec
            .submit(
                t,
                Job::MatMul {
                    m: 2,
                    k: 3,
                    n: 4,
                    a: ramp(6, 0.0),
                    b: ramp(11, 0.0),
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, SubmitError::Malformed { kind: "matmul", .. }),
            "{err}"
        );
        assert_eq!(exec.queue_depth(t), 0, "a refused job is not queued");

        let h = exec
            .submit(
                t,
                Job::RowSum {
                    data: ramp(16, 1.0),
                },
            )
            .unwrap();
        let (out, _) = within_30s("a valid job after a malformed one", move || h.wait()).unwrap();
        assert_eq!(out, JobOutput::Scalar(ramp(16, 1.0).iter().sum()));
    }

    #[test]
    fn a_dying_dispatcher_cancels_every_job_and_wakes_drain() {
        let exec = Arc::new(Executor::new(
            ExecutorConfig::default().devices(2).max_batch(2).paused(),
        ));
        let tenants = [exec.add_tenant("a", 1), exec.add_tenant("b", 1)];
        let handles: Vec<JobHandle> = (0..4)
            .flat_map(|i| {
                tenants.map(|t| {
                    let data = ramp(16, i as f32);
                    exec.submit(t, Job::RowSum { data }).unwrap()
                })
            })
            .collect();
        // Dispatch runs a1 (device 0), b1 (device 1), a2 (device 0), then
        // reads a1 back. The panic hits that read: a1 is being read back,
        // b1 and a2 are open, and b2 is still queued.
        exec.context()
            .platform()
            .set_command_observer(Some(Arc::new(|group: &[CommandRecord]| {
                if group.iter().any(|r| r.kind == CmdKind::D2H) {
                    panic!("injected dispatcher panic");
                }
            })));
        let e = Arc::clone(&exec);
        let results = within_30s("drain after a dispatcher panic", move || {
            e.drain();
            handles.into_iter().map(JobHandle::wait).collect::<Vec<_>>()
        });
        assert_eq!(results.len(), 8);
        for r in results {
            assert_eq!(r.unwrap_err(), JobError::Cancelled);
        }
        let late = exec.submit(tenants[0], Job::RowSum { data: ramp(4, 0.0) });
        assert_eq!(late.unwrap_err(), SubmitError::ShuttingDown);
    }

    #[test]
    fn the_next_batch_uploads_before_the_previous_one_reads_back() {
        // Two tenants on one device, each with two coalesced batches:
        // round-robin dispatches a1 b1 a2 b2.
        let exec = Executor::new(ExecutorConfig::default().devices(1).max_batch(4).paused());
        let tenants = [exec.add_tenant("a", 1), exec.add_tenant("b", 1)];
        let job = |t: usize, j: usize| Job::Axpb {
            a: 1.5 + t as f32,
            b: -0.25,
            data: ramp(64, (8 * t + j) as f32),
        };
        // Build both programs first, so the traced window holds no builds.
        for (t, &id) in tenants.iter().enumerate() {
            exec.submit(id, job(t, 99)).unwrap();
        }
        exec.drain();
        exec.pause();
        exec.context().platform().enable_timeline_trace();
        let mut submitted = Vec::new();
        for (t, &id) in tenants.iter().enumerate() {
            for j in 0..8 {
                submitted.push((job(t, j), exec.submit(id, job(t, j)).unwrap()));
            }
        }
        exec.drain();
        let trace = exec.context().platform().take_timeline_trace();

        // The trace is in enqueue order, and each batch has one upload, one
        // kernel and one read-back, so the k-th of each is batch k's.
        let of = |kind| trace.iter().filter(|r| r.kind == kind).collect::<Vec<_>>();
        let (uploads, kernels, reads) = (of(CmdKind::H2D), of(CmdKind::Kernel), of(CmdKind::D2H));
        assert_eq!([uploads.len(), kernels.len(), reads.len()], [4, 4, 4]);
        for k in 0..4 {
            assert!(
                reads[k].start_s >= kernels[k].end_s,
                "batch {k} reads back before its kernel ends"
            );
            if k + 1 < 4 {
                assert!(
                    uploads[k + 1].start_s < reads[k].start_s,
                    "batch {} uploads after batch {k} reads back",
                    k + 1
                );
            }
        }
        let overlap: f64 = kernels
            .iter()
            .flat_map(|kr| {
                trace
                    .iter()
                    .filter(|r| r.engine == EngineKind::Copy)
                    .map(|c| (kr.end_s.min(c.end_s) - kr.start_s.max(c.start_s)).max(0.0))
            })
            .sum();
        assert!(overlap > 0.0, "no transfer runs under a kernel");

        let ctx = Context::init(1);
        for (job, h) in submitted {
            let (out, _) = h.wait().unwrap();
            let (solo, _) = run_job(&ctx, 0, &job).unwrap();
            assert_eq!(bits(&out), bits(&solo));
        }
    }

    #[test]
    fn a_lone_batch_completes_when_drain_returns() {
        let exec = Arc::new(Executor::new(ExecutorConfig::default()));
        let t = exec.add_tenant("lone", 1);
        let h = exec
            .submit(
                t,
                Job::Axpb {
                    a: 2.0,
                    b: 1.0,
                    data: ramp(32, 0.0),
                },
            )
            .unwrap();
        let e = Arc::clone(&exec);
        let h = within_30s("drain with one batch", move || {
            e.drain();
            h
        });
        assert!(h.is_done(), "drain returned before the batch read back");
        let expect: Vec<f32> = ramp(32, 0.0).iter().map(|x| 2.0 * x + 1.0).collect();
        assert_eq!(h.wait().unwrap().0, JobOutput::Vector(expect));
    }

    #[test]
    fn pausing_reads_the_open_batch_back() {
        // Two batches queued for device 0. The first is held open for the
        // second, and a pause lands during its launch: the dispatcher must
        // read it back before it waits, not leave its client waiting for a
        // resume.
        let exec = Executor::new(ExecutorConfig::default().devices(1).max_batch(1).paused());
        let t = exec.add_tenant("a", 1);
        let job = |i: usize| Job::RowSum {
            data: ramp(16, i as f32),
        };
        // Build the program first: a build reads every open batch back.
        exec.submit(t, job(99)).unwrap();
        exec.drain();
        exec.pause();
        let (first, second) = (
            exec.submit(t, job(0)).unwrap(),
            exec.submit(t, job(1)).unwrap(),
        );
        let shared = Arc::downgrade(&exec.shared);
        exec.context()
            .platform()
            .set_command_observer(Some(Arc::new(move |group: &[CommandRecord]| {
                if group.iter().any(|r| r.kind == CmdKind::Kernel) {
                    if let Some(shared) = shared.upgrade() {
                        shared.state.lock().unwrap().paused = true;
                    }
                }
            })));
        exec.resume();
        let (out, _) = within_30s("the open batch after a pause", move || first.wait()).unwrap();
        assert_eq!(out, JobOutput::Scalar(ramp(16, 0.0).iter().sum()));
        assert!(!second.is_done(), "the second batch waits for the resume");
        exec.context().platform().set_command_observer(None);
        exec.drain();
        let (out, _) = second.wait().unwrap();
        assert_eq!(out, JobOutput::Scalar(ramp(16, 1.0).iter().sum()));
    }

    #[test]
    fn a_batch_never_waits_for_another_devices_backlog() {
        // One job homed on device 0, a backlog homed on device 1, and no
        // coalescing. Round-robin launches the lone job first, then the
        // backlog one batch at a time. Nothing else is queued for device 0,
        // so the lone job must be read back before the backlog's kernels.
        let exec = Executor::new(ExecutorConfig::default().devices(2).max_batch(1).paused());
        let lone = exec.add_tenant("lone", 1);
        let busy = exec.add_tenant("busy", 1);
        let axpb = || Job::Axpb {
            a: 2.0,
            b: 1.0,
            data: ramp(32, 0.0),
        };
        let row_sum = |i: usize| Job::RowSum {
            data: ramp(64, i as f32),
        };
        // Build both programs first: a build reads every open batch back.
        exec.submit(lone, axpb()).unwrap();
        exec.submit(busy, row_sum(99)).unwrap();
        exec.drain();
        exec.pause();
        let h = Arc::new(exec.submit(lone, axpb()).unwrap());
        let backlog: Vec<JobHandle> = (0..6)
            .map(|i| exec.submit(busy, row_sum(i)).unwrap())
            .collect();
        // Whether the lone job is done, at each kernel on device 1.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (probe, log) = (Arc::clone(&h), Arc::clone(&seen));
        exec.context()
            .platform()
            .set_command_observer(Some(Arc::new(move |group: &[CommandRecord]| {
                if group
                    .iter()
                    .any(|r| r.kind == CmdKind::Kernel && r.device.0 == 1)
                {
                    log.lock().unwrap().push(probe.is_done());
                }
            })));
        exec.drain();
        exec.context().platform().set_command_observer(None);
        let seen = seen.lock().unwrap().clone();
        assert!(seen.len() >= backlog.len(), "one kernel per backlog job");
        assert!(
            seen.iter().all(|&done| done),
            "the device-0 job waited for device 1's backlog: done at each \
             device-1 kernel {seen:?}"
        );
        let h = Arc::try_unwrap(h).expect("the observer is gone");
        let expect: Vec<f32> = ramp(32, 0.0).iter().map(|x| 2.0 * x + 1.0).collect();
        assert_eq!(h.wait().unwrap().0, JobOutput::Vector(expect));
        for (i, h) in backlog.into_iter().enumerate() {
            let expect: f32 = ramp(64, i as f32).iter().sum();
            assert_eq!(h.wait().unwrap().0, JobOutput::Scalar(expect));
        }
    }

    #[test]
    fn a_build_never_delays_an_open_batchs_read_back() {
        // Tenant a (device 0) runs two batches with different scalars, so
        // the second one needs a program of its own; tenant b (device 1)
        // runs two batches of one program. Round-robin launches a1 and b1,
        // holds both open, then launches a2, whose program is not built
        // yet. a1 and b1 must be ready exactly when they are as the only
        // jobs, read back right after their kernels: a2's build must not
        // show in their ready times.
        let ready = |both: bool| -> Vec<f64> {
            let exec = Executor::new(ExecutorConfig::default().devices(2).max_batch(1).paused());
            let tenants = [exec.add_tenant("a", 1), exec.add_tenant("b", 1)];
            let job = |t: usize, j: usize| Job::Axpb {
                a: if t == 0 { 1.0 + j as f32 } else { 5.0 },
                b: 0.5,
                data: ramp(64, (8 * t + j) as f32),
            };
            // Build the programs of a1 and b1, then start a fresh epoch.
            for (t, &id) in tenants.iter().enumerate() {
                exec.submit(id, job(t, 0)).unwrap();
            }
            exec.drain();
            exec.pause();
            exec.context().platform().reset_clocks();
            let rounds = if both { 2 } else { 1 };
            let handles: Vec<JobHandle> = (0..rounds)
                .flat_map(|j| (0..2).map(move |t| (t, j)))
                .map(|(t, j)| exec.submit(tenants[t], job(t, j)).unwrap())
                .collect();
            exec.drain();
            let ready: Vec<f64> = handles
                .into_iter()
                .map(|h| h.wait().unwrap().1.ready_s)
                .collect();
            let built = exec.context().program_registry().len();
            assert_eq!(built, if both { 3 } else { 2 }, "a2 builds its program");
            ready
        };
        let (alone, held) = (ready(false), ready(true));
        assert_eq!(
            held[..2],
            alone[..],
            "a1 and b1 must not wait for a2's build"
        );
    }

    #[test]
    fn a_jacobi_job_never_runs_beside_its_devices_open_batch() {
        // Homes are dealt 0 1 0 1: a Jacobi and a coalesced tenant per
        // device. Round-robin runs both Jacobi jobs, both small batches
        // (held open), then the second Jacobi jobs, each after its own
        // device's open batch has been read back.
        let (side, len, max_batch) = (64, 32, 4);
        let exec = Executor::new(
            ExecutorConfig::default()
                .devices(2)
                .max_batch(max_batch)
                .paused(),
        );
        let names = ["jacobi0", "jacobi1", "small0", "small1"];
        let tenants = names.map(|n| exec.add_tenant(n, 1));
        let job = |i: usize, j: usize| {
            let salt = (i * 16 + j) as f32;
            if i < 2 {
                Job::Jacobi {
                    rows: side,
                    cols: side,
                    iters: 3,
                    data: ramp(side * side, salt),
                }
            } else {
                Job::Axpb {
                    a: i as f32,
                    b: 0.5,
                    data: ramp(len, salt),
                }
            }
        };
        // Build every program first: a build reads every open batch back.
        for (i, &t) in tenants.iter().enumerate() {
            exec.submit(t, job(i, 99)).unwrap();
        }
        exec.drain();
        exec.pause();
        let platform = exec.context().platform().clone();
        let devices = platform.devices().to_vec();
        let peak = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&peak);
        platform.set_command_observer(Some(Arc::new(move |_: &[CommandRecord]| {
            let used = devices.iter().map(|d| d.used_bytes()).sum();
            seen.fetch_max(used, Ordering::Relaxed);
        })));
        let mut handles = Vec::new();
        for (i, &t) in tenants.iter().enumerate() {
            let n = if i < 2 { 2 } else { 2 * max_batch };
            handles.extend((0..n).map(|j| exec.submit(t, job(i, j)).unwrap()));
        }
        exec.drain();
        platform.set_command_observer(None);
        for h in handles {
            h.wait().unwrap();
        }
        let plate = side * side * std::mem::size_of::<f32>();
        let batch_out = max_batch * len * std::mem::size_of::<f32>();
        let peak = peak.load(Ordering::Relaxed);
        assert!(
            peak >= 3 * plate,
            "a Jacobi job holds three plates: {peak} B"
        );
        assert!(
            peak <= 3 * plate + batch_out,
            "peak {peak} B exceeds one Jacobi job ({} B) plus one open batch on the \
             other device ({batch_out} B)",
            3 * plate
        );
    }

    #[test]
    fn every_job_runs_on_its_tenants_home_device() {
        let exec = Executor::new(ExecutorConfig::default().devices(2).paused());
        let tenants = [exec.add_tenant("home0", 1), exec.add_tenant("home1", 1)];
        exec.context().platform().enable_timeline_trace();
        let handles: Vec<JobHandle> = tenants
            .iter()
            .enumerate()
            .flat_map(|(i, &t)| {
                let salt = i as f32;
                let jacobi = Job::Jacobi {
                    rows: 65,
                    cols: 64,
                    iters: 5,
                    data: ramp(65 * 64, salt),
                };
                let matmul = Job::MatMul {
                    m: 24,
                    k: 16,
                    n: 20,
                    a: ramp(24 * 16, salt),
                    b: ramp(16 * 20, salt + 0.25),
                };
                [jacobi, matmul].map(|job| exec.submit(t, job).unwrap())
            })
            .collect();
        exec.drain();
        for h in handles {
            h.wait().unwrap();
        }
        let trace = exec.context().platform().take_timeline_trace();

        assert!(
            trace.iter().all(|r| r.kind != vgpu::CmdKind::D2D),
            "homed jobs need no device-to-device copies"
        );
        // Read under the lock, assert after it: a failed assertion must not
        // poison the state the executor's `Drop` locks.
        let homes: Vec<(String, usize, Vec<u64>)> = exec
            .shared
            .state
            .lock()
            .unwrap()
            .tenants
            .iter()
            .map(|t| {
                let streams = (0..2).map(|d| t.ctx.queue(d).stream_id()).collect();
                (t.name.clone(), t.home, streams)
            })
            .collect();
        let mut jacobi_spans = Vec::new();
        for (name, home_device, streams) in &homes {
            let (home, away): (Vec<_>, Vec<_>) = trace
                .iter()
                .filter(|r| r.kind == vgpu::CmdKind::Kernel)
                .filter(|r| r.stream.is_some_and(|s| streams.contains(&s)))
                .partition(|r| r.device.0 == *home_device);
            assert!(
                away.is_empty(),
                "{name} launched {} kernels off its home device {home_device}",
                away.len(),
            );
            let stencil = || home.iter().filter(|r| r.label.contains("stencil2d"));
            assert!(stencil().count() > 0, "{name} ran no Jacobi launch");
            jacobi_spans.push((
                stencil().map(|r| r.start_s).fold(f64::INFINITY, f64::min),
                stencil().map(|r| r.end_s).fold(0.0, f64::max),
            ));
        }
        let [(s0, e0), (s1, e1)] = jacobi_spans[..] else {
            panic!("two tenants")
        };
        assert!(
            s0 < e1 && s1 < e0,
            "the two homes run their Jacobi launches side by side: \
             [{s0}, {e0}] and [{s1}, {e1}]"
        );
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let exec = Executor::new(ExecutorConfig::default().paused());
        let t = exec.add_tenant("tail", 1);
        let h = exec
            .submit(
                t,
                Job::RowSum {
                    data: ramp(32, 0.0),
                },
            )
            .unwrap();
        drop(exec);
        // Shutdown overrides pause and drains before join: the handle
        // resolves rather than dangling.
        let (out, _) = h.wait().unwrap();
        let expect: f32 = ramp(32, 0.0).iter().sum();
        assert_eq!(out, JobOutput::Scalar(expect));
    }

    #[test]
    fn stale_epoch_jobs_fall_back_to_service_time() {
        let exec = Executor::new(ExecutorConfig::default().paused());
        let t = exec.add_tenant("longlived", 1);
        // Warm the program so post-reset latency is pure service time.
        let warm = exec
            .submit(
                t,
                Job::RowSum {
                    data: ramp(16, 0.0),
                },
            )
            .unwrap();
        exec.drain();
        warm.wait().unwrap();
        exec.pause();
        let h = exec
            .submit(
                t,
                Job::RowSum {
                    data: ramp(16, 1.0),
                },
            )
            .unwrap();
        // A maintenance epoch reset lands between submit and dispatch.
        exec.context().platform().reset_clocks();
        exec.drain();
        let (_, report) = h.wait().unwrap();
        assert!(
            report.stale_epoch,
            "epoch changed between submit and dispatch"
        );
        // Latency must not mix clocks from different epochs: it is the
        // service interval, not (new-epoch ready − old-epoch submit).
        assert!((report.latency_s() - (report.ready_s - report.start_s)).abs() < 1e-12);
        assert!(report.latency_s() >= 0.0);
        assert_eq!(
            exec.metrics().counter_value("executor.stale_epoch_jobs"),
            Some(1)
        );
        // Counters survive the epoch reset (completed counts both jobs).
        assert_eq!(
            exec.metrics().counter_value("executor.jobs.completed"),
            Some(2)
        );
    }
}
