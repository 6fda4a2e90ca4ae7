//! The SkelCL context: the paper's `SkelCL::init()`.
//!
//! A [`Context`] owns **two** command queues per device — the main queue
//! carrying kernels and device-ordered transfers, and a dedicated *copy
//! stream* ([`Context::copy_queue`]) the overlapped paths issue
//! event-ordered transfers on, so halo exchanges and chunked uploads run
//! on the device's copy engine underneath kernels on the compute engine —
//! plus an in-memory registry of already-built skeleton programs (the
//! first layer of the paper's kernel cache; the second, on-disk layer lives
//! in [`vgpu::compiler`]) and the configuration shared by every vector and
//! skeleton created from it.
//!
//! For multi-tenant serving (see the `skelcl-executor` crate) a context can
//! be **forked**: [`Context::fork_streams`] creates a sibling context with
//! its own per-device main+copy stream pair while sharing the platform, the
//! [`ProgramRegistry`], the metrics registry, and the span collector — one
//! stream pair per tenant, device engines shared. The shared program
//! registry optionally enforces **admission control** (a global capacity and
//! a per-owner quota with LRU eviction), so one tenant flooding the cache
//! with throwaway kernels evicts its *own* entries first instead of
//! thrashing everyone else's.

use crate::error::{Error, Result};
use crate::metrics::{Counter, MetricValue, MetricsRegistry};
use crate::trace::{SpanCollector, SpanGuard, SpanRecord};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use vgpu::{
    CommandQueue, CompiledKernel, Device, DriverProfile, KernelBody, Platform, PlatformConfig,
    Program, WorkGroup,
};

/// One-time host-side cost of generating a skeleton program's source
/// (string templating + user-function merging).
const CODEGEN_COST_S: f64 = 0.4e-3;

/// SkelCL's default work-group size — the paper: "SkelCL uses its default
/// work-group size of 256" (Section IV-A).
pub const DEFAULT_WORK_GROUP: usize = 256;

/// Configuration for [`Context::new`].
#[derive(Debug, Clone)]
pub struct ContextConfig {
    /// Number of devices to attach (the paper's system has up to 4).
    pub n_devices: usize,
    /// Virtual device model.
    pub spec: vgpu::DeviceSpec,
    /// Default 1-D work-group size for skeleton launches.
    pub work_group: usize,
    /// Kernel binary cache directory tag (isolates test binaries).
    pub cache_tag: Option<String>,
}

impl Default for ContextConfig {
    fn default() -> Self {
        ContextConfig {
            n_devices: 1,
            spec: vgpu::DeviceSpec::default(),
            work_group: DEFAULT_WORK_GROUP,
            cache_tag: None,
        }
    }
}

impl ContextConfig {
    pub fn devices(mut self, n: usize) -> Self {
        self.n_devices = n;
        self
    }

    pub fn spec(mut self, spec: vgpu::DeviceSpec) -> Self {
        self.spec = spec;
        self
    }

    pub fn work_group(mut self, wg: usize) -> Self {
        self.work_group = wg;
        self
    }

    pub fn cache_tag(mut self, tag: impl Into<String>) -> Self {
        self.cache_tag = Some(tag.into());
        self
    }
}

/// One resident entry in the [`ProgramRegistry`].
struct RegistryEntry {
    kernel: CompiledKernel,
    /// The program the kernel was built from — kept so checkers (the
    /// `skelcheck` lint pass) can iterate every source this process built.
    program: Program,
    /// Owner tag of the context that built this entry (tenant name; `""`
    /// for un-forked contexts).
    owner: String,
    /// LRU clock value of the most recent hit or insert.
    last_use: u64,
}

#[derive(Default)]
struct RegistryState {
    entries: HashMap<u64, RegistryEntry>,
    /// Monotonic LRU clock, bumped on every lookup/insert.
    tick: u64,
}

/// The in-memory compiled-program cache, shareable between contexts (every
/// [`Context::fork_streams`] sibling holds the same `Arc<ProgramRegistry>`).
///
/// By default the registry is unbounded — matching SkelCL, which keeps
/// built kernels alive per process. [`ProgramRegistry::with_limits`] turns
/// on **admission control** for multi-tenant serving:
///
/// - `owner_quota` caps how many resident entries a single owner tag may
///   hold; an owner at quota evicts its *own* least-recently-used entry, so
///   a kernel-flooding tenant only thrashes itself.
/// - `capacity` caps the total resident entries; beyond it the globally
///   least-recently-used entry is evicted.
///
/// Evicted programs are not lost — the on-disk compiler cache still holds
/// the binary — but the next use pays code generation plus the (cheap)
/// disk-cache load again.
#[derive(Default)]
pub struct ProgramRegistry {
    /// Total resident-entry cap (`0` = unbounded).
    capacity: usize,
    /// Per-owner resident-entry cap (`0` = unbounded).
    owner_quota: usize,
    state: Mutex<RegistryState>,
}

impl ProgramRegistry {
    /// An unbounded registry (the default for standalone contexts).
    pub fn unbounded() -> ProgramRegistry {
        ProgramRegistry::default()
    }

    /// A registry with admission control: at most `capacity` resident
    /// programs in total and at most `owner_quota` per owner tag (`0`
    /// disables the respective limit).
    pub fn with_limits(capacity: usize, owner_quota: usize) -> ProgramRegistry {
        ProgramRegistry {
            capacity,
            owner_quota,
            state: Mutex::new(RegistryState::default()),
        }
    }

    /// Number of resident compiled programs.
    pub fn len(&self) -> usize {
        self.state.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of resident programs built by `owner`.
    pub fn resident_for(&self, owner: &str) -> usize {
        self.state
            .lock()
            .entries
            .values()
            .filter(|e| e.owner == owner)
            .count()
    }

    /// Whether `program` is resident, so its next use builds nothing. Not a
    /// lookup: neither the LRU clock nor the hit and miss counters move.
    pub fn contains(&self, program: &Program) -> bool {
        self.state.lock().entries.contains_key(&program.hash())
    }

    /// Look up a built kernel, bumping its LRU clock on hit.
    fn lookup(&self, hash: u64) -> Option<CompiledKernel> {
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        st.entries.get_mut(&hash).map(|e| {
            e.last_use = tick;
            e.kernel.clone()
        })
    }

    /// Every resident program's source, for registry-wide analysis
    /// ([`crate::Context::lint_registry`]).
    pub fn programs(&self) -> Vec<Program> {
        self.state
            .lock()
            .entries
            .values()
            .map(|e| e.program.clone())
            .collect()
    }

    /// Insert a freshly built kernel under `owner`, evicting per the
    /// admission-control policy. Returns how many entries were evicted.
    fn insert(&self, owner: &str, hash: u64, program: &Program, kernel: CompiledKernel) -> usize {
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        let mut evicted = 0;
        if self.owner_quota > 0 {
            while st.entries.values().filter(|e| e.owner == owner).count() >= self.owner_quota {
                let victim = Self::lru_key(&st, Some(owner));
                match victim {
                    Some(k) => {
                        st.entries.remove(&k);
                        evicted += 1;
                    }
                    None => break,
                }
            }
        }
        if self.capacity > 0 {
            while st.entries.len() >= self.capacity {
                let victim = Self::lru_key(&st, None);
                match victim {
                    Some(k) => {
                        st.entries.remove(&k);
                        evicted += 1;
                    }
                    None => break,
                }
            }
        }
        st.entries.insert(
            hash,
            RegistryEntry {
                kernel,
                program: program.clone(),
                owner: owner.to_string(),
                last_use: tick,
            },
        );
        evicted
    }

    /// Key of the least-recently-used entry, optionally restricted to one
    /// owner tag.
    fn lru_key(st: &RegistryState, owner: Option<&str>) -> Option<u64> {
        st.entries
            .iter()
            .filter(|(_, e)| owner.is_none_or(|o| e.owner == o))
            .min_by_key(|(_, e)| e.last_use)
            .map(|(k, _)| *k)
    }
}

impl std::fmt::Debug for ProgramRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramRegistry")
            .field("resident", &self.len())
            .field("capacity", &self.capacity)
            .field("owner_quota", &self.owner_quota)
            .finish()
    }
}

struct ContextInner {
    platform: Platform,
    queues: Vec<CommandQueue>,
    /// One dedicated copy stream per device: asynchronous transfers issued
    /// here overlap kernels on the main queue when their events allow.
    copy_queues: Vec<CommandQueue>,
    profile: DriverProfile,
    work_group: usize,
    /// Owner tag stamped on program-registry entries built through this
    /// context (`""` for un-forked contexts, the tenant name for forks).
    owner: String,
    /// Compiled-program registry (body is a placeholder; launches rebind).
    /// Shared between [`Context::fork_streams`] siblings.
    programs: Arc<ProgramRegistry>,
    /// Typed counter/gauge/histogram registry (see [`crate::metrics`]).
    /// Shared between forked siblings.
    metrics: Arc<MetricsRegistry>,
    /// Halo-exchange events performed under this context (see
    /// [`Context::halo_exchange_count`]); lives in the metrics registry as
    /// `skelcl.halo_exchanges`.
    halo_exchanges: Counter,
    /// In-memory program-registry hits/misses (`skelcl.program_cache.hits`
    /// / `.misses`) — the first cache layer; the disk layer's hits show up
    /// as `cache_loads` in the platform stats.
    program_cache_hits: Counter,
    program_cache_misses: Counter,
    /// Admission-control evictions (`skelcl.program_cache.evictions`).
    program_cache_evictions: Counter,
    /// Skeleton-level span collector (see [`crate::trace`]). Shared between
    /// forked siblings so tenant skeleton spans land in one stream.
    spans: Arc<SpanCollector>,
}

/// A SkelCL session: devices + queues + program registry.
///
/// Cheap to clone; clones share all state (vectors hold one).
#[derive(Clone)]
pub struct Context {
    inner: Arc<ContextInner>,
}

impl Context {
    /// `SkelCL::init()` — create a context on `n_devices` default devices.
    pub fn init(n_devices: usize) -> Context {
        Context::new(ContextConfig::default().devices(n_devices))
    }

    /// Create a context with explicit configuration.
    pub fn new(config: ContextConfig) -> Context {
        let mut pc = PlatformConfig::default()
            .devices(config.n_devices)
            .spec(config.spec);
        if let Some(tag) = &config.cache_tag {
            pc = pc.cache_tag(tag);
        }
        let platform = Platform::new(pc);
        Context::from_platform(platform, config.work_group)
    }

    /// Wrap an existing platform (so benchmarks can run SkelCL and the
    /// low-level baselines against the *same* virtual hardware).
    pub fn from_platform(platform: Platform, work_group: usize) -> Context {
        Context::from_platform_shared(platform, work_group, Arc::new(ProgramRegistry::unbounded()))
    }

    /// Wrap an existing platform with an explicit (possibly shared,
    /// possibly admission-controlled) program registry. The executor service
    /// uses this to bound the compiled-kernel cache across tenants.
    pub fn from_platform_shared(
        platform: Platform,
        work_group: usize,
        programs: Arc<ProgramRegistry>,
    ) -> Context {
        let profile = DriverProfile::skelcl();
        let queues = (0..platform.n_devices())
            .map(|i| platform.queue(i, profile))
            .collect();
        let copy_queues = (0..platform.n_devices())
            .map(|i| platform.queue(i, profile))
            .collect();
        let metrics = Arc::new(MetricsRegistry::default());
        let halo_exchanges = metrics.counter("skelcl.halo_exchanges");
        let program_cache_hits = metrics.counter("skelcl.program_cache.hits");
        let program_cache_misses = metrics.counter("skelcl.program_cache.misses");
        let program_cache_evictions = metrics.counter("skelcl.program_cache.evictions");
        let ctx = Context {
            inner: Arc::new(ContextInner {
                platform,
                queues,
                copy_queues,
                profile,
                work_group,
                owner: String::new(),
                programs,
                metrics,
                halo_exchanges,
                program_cache_hits,
                program_cache_misses,
                program_cache_evictions,
                spans: Arc::new(SpanCollector::default()),
            }),
        };
        // Opt-in dynamic checking for debug/CI runs: SKELCL_CHECK=1 (or
        // "on") arms the online buffer-hazard checker for the whole session.
        if matches!(std::env::var("SKELCL_CHECK").as_deref(), Ok("1") | Ok("on")) {
            ctx.enable_online_hazard_check();
        }
        ctx
    }

    /// Fork a **sibling context for a tenant**: fresh in-order main+copy
    /// streams per device (so this tenant's commands are ordered only among
    /// themselves — the device *engines* stay shared and arbitrate between
    /// tenants), while the platform, the compiled-program registry, the
    /// metrics registry, the span collector, and all `skelcl.*` counters
    /// are shared with `self`. Programs built through the fork are stamped
    /// with `owner` for the registry's admission control.
    ///
    /// Containers and skeletons created from the fork use its streams
    /// automatically; nothing else changes.
    pub fn fork_streams(&self, owner: impl Into<String>) -> Context {
        let platform = self.inner.platform.clone();
        let queues = (0..platform.n_devices())
            .map(|i| platform.queue(i, self.inner.profile))
            .collect();
        let copy_queues = (0..platform.n_devices())
            .map(|i| platform.queue(i, self.inner.profile))
            .collect();
        Context {
            inner: Arc::new(ContextInner {
                platform,
                queues,
                copy_queues,
                profile: self.inner.profile,
                work_group: self.inner.work_group,
                owner: owner.into(),
                programs: self.inner.programs.clone(),
                metrics: self.inner.metrics.clone(),
                halo_exchanges: self.inner.halo_exchanges.clone(),
                program_cache_hits: self.inner.program_cache_hits.clone(),
                program_cache_misses: self.inner.program_cache_misses.clone(),
                program_cache_evictions: self.inner.program_cache_evictions.clone(),
                spans: self.inner.spans.clone(),
            }),
        }
    }

    /// The owner tag stamped on programs built through this context (`""`
    /// unless this context was created by [`Context::fork_streams`]).
    pub fn owner(&self) -> &str {
        &self.inner.owner
    }

    /// The (possibly shared) compiled-program registry.
    pub fn program_registry(&self) -> &Arc<ProgramRegistry> {
        &self.inner.programs
    }

    pub fn n_devices(&self) -> usize {
        self.inner.queues.len()
    }

    pub fn platform(&self) -> &Platform {
        &self.inner.platform
    }

    pub fn device(&self, i: usize) -> Arc<Device> {
        self.inner.platform.device(i)
    }

    /// The queue driving device `i`.
    pub fn queue(&self, i: usize) -> &CommandQueue {
        &self.inner.queues[i]
    }

    pub fn queues(&self) -> &[CommandQueue] {
        &self.inner.queues
    }

    /// The dedicated copy stream of device `i` — the queue the overlapped
    /// halo exchange and the streamed uploads issue event-ordered transfers
    /// on. Separate from [`Context::queue`], so a transfer here is not
    /// ordered behind kernels already enqueued on the main queue (only its
    /// wait list orders it).
    pub fn copy_queue(&self, i: usize) -> &CommandQueue {
        &self.inner.copy_queues[i]
    }

    pub fn profile(&self) -> &DriverProfile {
        &self.inner.profile
    }

    /// Default 1-D work-group size for skeleton launches.
    pub fn work_group(&self) -> usize {
        self.inner.work_group
    }

    /// Current virtual host time (seconds since context epoch).
    pub fn host_now_s(&self) -> f64 {
        self.inner.platform.host_now_s()
    }

    /// Host waits for all devices.
    pub fn sync(&self) {
        self.inner.platform.sync_all();
    }

    /// Arm skelcheck's **online buffer-hazard checker**: every subsequently
    /// enqueued command feeds an incremental happens-before analysis, and
    /// the first RAW/WAR/WAW pair on overlapping bytes of one buffer with
    /// no ordering edge panics at that exact enqueue — turning a latent
    /// scheduling race into an immediate test failure. Each checked command
    /// bumps the `skelcheck.hazards_checked` counter, so run reports show
    /// the checker was live.
    ///
    /// Enabled automatically at context creation when the `SKELCL_CHECK`
    /// environment variable is `1` or `on`.
    pub fn enable_online_hazard_check(&self) {
        let checker = skelcheck::OnlineHazardChecker::new();
        let counter = self.inner.metrics.counter("skelcheck.hazards_checked");
        let observe = checker.observer();
        self.inner.platform.set_command_observer(Some(Arc::new(
            move |recs: &[vgpu::CommandRecord]| {
                counter.inc();
                observe(recs);
            },
        )));
    }

    /// Commands vetted by the online hazard checker so far (0 when the
    /// checker was never armed).
    pub fn hazards_checked(&self) -> u64 {
        self.inner
            .metrics
            .counter("skelcheck.hazards_checked")
            .get()
    }

    /// Run skelcheck's **kernel lint pass** over every program resident in
    /// the shared registry, against this context's device local-memory
    /// budget: divergent barriers, oversized `__local` declarations,
    /// host/kernel arity mismatches, unguarded thread-indexed global
    /// accesses and undeclared subscript identifiers. The finding count is
    /// added to the `skelcheck.lint_findings` counter; a healthy codegen
    /// layer yields an empty vector.
    pub fn lint_registry(&self) -> Vec<skelcheck::LintFinding> {
        let budget = self.device(0).spec().local_mem_bytes as u64;
        let mut findings = Vec::new();
        for p in self.inner.programs.programs() {
            findings.extend(skelcheck::lint_program(
                &p.name, &p.source, p.n_args, budget,
            ));
        }
        self.inner
            .metrics
            .counter("skelcheck.lint_findings")
            .add(findings.len() as u64);
        findings
    }

    /// Build (or fetch from the two-level cache) the kernel for `program`.
    ///
    /// First call per context: pays code generation + source build (or disk
    /// cache load) on the virtual host clock. Subsequent calls are free —
    /// matching SkelCL, which keeps built kernels alive per process.
    pub fn get_or_build(&self, program: &Program) -> Result<CompiledKernel> {
        let hash = program.hash();
        if let Some(k) = self.inner.programs.lookup(hash) {
            self.inner.program_cache_hits.inc();
            return Ok(k);
        }
        self.inner.program_cache_misses.inc();
        // One-time code generation cost (string templating) on the host.
        self.inner.platform.charge_host(CODEGEN_COST_S);
        let placeholder: KernelBody = Arc::new(|_wg: &WorkGroup| {
            unreachable!("placeholder kernel body must be rebound before launch")
        });
        let kernel = self.inner.queues[0]
            .build_kernel(program, placeholder)
            .map_err(Error::Platform)?;
        let evicted = self
            .inner
            .programs
            .insert(&self.inner.owner, hash, program, kernel.clone());
        self.inner.program_cache_evictions.add(evicted as u64);
        Ok(kernel)
    }

    /// Number of programs currently resident in the registry (equals the
    /// number built so far when the registry is unbounded).
    pub fn programs_built(&self) -> usize {
        self.inner.programs.len()
    }

    /// Number of halo-exchange events performed so far by matrices and
    /// skeletons of this context. One event covers the whole refresh of
    /// every part's halo rows (however many transfers that takes); no-op
    /// calls on already-coherent halos are not counted. This is the
    /// counting hook behind the `Stencil2D::iterate` exchange-regression
    /// tests.
    pub fn halo_exchange_count(&self) -> u64 {
        self.inner.halo_exchanges.get()
    }

    /// Record one halo-exchange event (called by the shared part-halo
    /// exchange behind matrices, `Stencil2D` and pipeline stencil groups).
    pub(crate) fn note_halo_exchange(&self) {
        self.inner.halo_exchanges.inc();
    }

    /// In-memory program-registry hits so far (kernel reused without
    /// rebuilding). Cheap wrapper over the `skelcl.program_cache.hits`
    /// counter in [`Context::metrics`].
    pub fn program_cache_hits(&self) -> u64 {
        self.inner.program_cache_hits.get()
    }

    /// In-memory program-registry misses so far (codegen plus source build
    /// or disk-cache load was paid).
    pub fn program_cache_misses(&self) -> u64 {
        self.inner.program_cache_misses.get()
    }

    /// Programs evicted from the in-memory registry by admission control
    /// (always 0 for unbounded registries).
    pub fn program_cache_evictions(&self) -> u64 {
        self.inner.program_cache_evictions.get()
    }

    /// The context's typed metrics registry. SkelCL's own counters live
    /// under `skelcl.*`; anything may register additional metrics.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// One unified view of every metric: the registry's `skelcl.*` entries
    /// merged with the platform's transfer/kernel/build counters under
    /// `vgpu.*` names (e.g. `vgpu.h2d_bytes`, `vgpu.kernel_launches`).
    pub fn metrics_snapshot(&self) -> BTreeMap<String, MetricValue> {
        let mut snap = self.inner.metrics.snapshot();
        let s = self.inner.platform.stats_snapshot();
        for (name, v) in [
            ("vgpu.h2d_transfers", s.h2d_transfers),
            ("vgpu.h2d_bytes", s.h2d_bytes),
            ("vgpu.d2h_transfers", s.d2h_transfers),
            ("vgpu.d2h_bytes", s.d2h_bytes),
            ("vgpu.d2d_transfers", s.d2d_transfers),
            ("vgpu.d2d_bytes", s.d2d_bytes),
            ("vgpu.kernel_launches", s.kernel_launches),
            ("vgpu.kernel_cu_cycles", s.kernel_cu_cycles),
            ("vgpu.kernel_global_bytes", s.kernel_global_bytes),
            ("vgpu.kernel_busy_ns", s.kernel_busy_ns),
            ("vgpu.source_builds", s.source_builds),
            ("vgpu.cache_loads", s.cache_loads),
            ("vgpu.build_virtual_ns", s.build_virtual_ns),
        ] {
            snap.insert(name.to_string(), MetricValue::Counter(v));
        }
        snap
    }

    /// Start collecting skeleton-level spans (see [`crate::trace`]).
    pub fn enable_spans(&self) {
        self.inner.spans.enable();
    }

    /// Whether span collection is on.
    pub fn spans_enabled(&self) -> bool {
        self.inner.spans.enabled()
    }

    /// Take the completed spans recorded so far. Spans from clock epochs
    /// older than the current one (i.e. opened before the last
    /// [`vgpu::Platform::reset_clocks`]) are dropped — their timestamps
    /// refer to a rewound clock.
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        self.inner.spans.take(self.inner.platform.clock_epoch())
    }

    /// Drop all completed spans but keep collection enabled.
    pub fn clear_spans(&self) {
        self.inner.spans.clear();
    }

    /// Open a named span; it closes (and records itself) when the returned
    /// guard drops. The skeleton implementations call this around every
    /// execution; user code may add its own spans the same way.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard::open(self, name)
    }

    /// Allocate a span id for a later [`Context::record_interval_span`]
    /// call, or `None` when span collection is off. The executor uses this
    /// to stamp a job at submit time so its queue-wait and service
    /// intervals can be recorded when the job completes.
    pub fn alloc_span_id(&self) -> Option<u64> {
        self.inner
            .spans
            .enabled()
            .then(|| self.inner.spans.alloc_id())
    }

    /// Record a span whose interval `[start_s, end_s]` was measured
    /// externally (both on the current clock epoch's virtual clock),
    /// without going through a [`SpanGuard`]. `id` is a previously
    /// allocated [`Context::alloc_span_id`] value or `None` to allocate one
    /// now; the recorded id is returned. A no-op returning `None` when span
    /// collection is off. Interval spans carry zero counter deltas — they
    /// describe scheduling (queue wait, service time), not platform work.
    pub fn record_interval_span(
        &self,
        id: Option<u64>,
        name: &'static str,
        parent: Option<u64>,
        start_s: f64,
        end_s: f64,
        attrs: Vec<(&'static str, String)>,
    ) -> Option<u64> {
        if !self.inner.spans.enabled() {
            return None;
        }
        let id = id.unwrap_or_else(|| self.inner.spans.alloc_id());
        let epoch = self.inner.platform.clock_epoch();
        self.inner.spans.record(
            SpanRecord {
                id,
                parent,
                name,
                attrs,
                start_s,
                end_s: end_s.max(start_s),
                epoch,
                stats: vgpu::StatsSnapshot::default(),
                halo_exchanges: 0,
                program_cache_hits: 0,
                program_cache_misses: 0,
                trace_first: 0,
                trace_len: 0,
            },
            epoch,
        );
        Some(id)
    }

    pub(crate) fn span_collector(&self) -> &SpanCollector {
        &self.inner.spans
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("devices", &self.n_devices())
            .field("work_group", &self.work_group())
            .field("programs_built", &self.programs_built())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(n: usize) -> Context {
        Context::new(
            ContextConfig::default()
                .devices(n)
                .spec(vgpu::DeviceSpec::tiny())
                .cache_tag("skelcl-context-tests"),
        )
    }

    #[test]
    fn init_creates_queues_per_device() {
        let c = ctx(3);
        assert_eq!(c.n_devices(), 3);
        assert_eq!(c.queue(2).device().id().0, 2);
        assert_eq!(c.profile().name, "SkelCL");
    }

    #[test]
    fn get_or_build_charges_only_once() {
        let c = ctx(1);
        c.platform().compiler().clear_cache().unwrap();
        let p = Program::from_source("k", "__kernel void k() { /* ctx test */ }");
        let t0 = c.host_now_s();
        c.get_or_build(&p).unwrap();
        let t1 = c.host_now_s();
        assert!(t1 > t0, "first build must cost host time");
        c.get_or_build(&p).unwrap();
        assert_eq!(c.host_now_s(), t1, "second build must be free");
        assert_eq!(c.programs_built(), 1);
        c.platform().compiler().clear_cache().unwrap();
    }

    #[test]
    fn second_context_hits_the_disk_cache() {
        let cfg = ContextConfig::default()
            .spec(vgpu::DeviceSpec::tiny())
            .cache_tag("skelcl-context-disk");
        let p = Program::from_source("k", "__kernel void k() { /* disk cache */ }");

        let c1 = Context::new(cfg.clone());
        c1.platform().compiler().clear_cache().unwrap();
        c1.get_or_build(&p).unwrap();
        let cold = c1.host_now_s();

        let c2 = Context::new(cfg);
        c2.get_or_build(&p).unwrap();
        let warm = c2.host_now_s();
        assert!(
            cold / warm >= 4.0,
            "disk-cached build should be much cheaper: cold={cold} warm={warm}"
        );
        c2.platform().compiler().clear_cache().unwrap();
    }

    #[test]
    fn default_work_group_matches_paper() {
        let c = Context::init(1);
        assert_eq!(c.work_group(), 256);
    }

    fn prog(name: &str) -> Program {
        Program::from_source(name, format!("__kernel void {name}() {{ /* reg */ }}"))
    }

    #[test]
    fn fork_shares_programs_metrics_and_platform() {
        let c = ctx(2);
        c.platform().compiler().clear_cache().unwrap();
        let t = c.fork_streams("tenant-a");
        assert_eq!(t.owner(), "tenant-a");
        assert_eq!(t.n_devices(), 2);
        // Fresh streams: the fork's queues are distinct objects...
        assert!(!std::ptr::eq(c.queue(0), t.queue(0)));
        // ...but the program registry is shared: a build through the fork is
        // a hit through the root.
        let p = prog("fork_shared");
        t.get_or_build(&p).unwrap();
        let misses = c.program_cache_misses();
        c.get_or_build(&p).unwrap();
        assert_eq!(
            c.program_cache_misses(),
            misses,
            "root must hit fork's build"
        );
        assert_eq!(c.programs_built(), t.programs_built());
        // Shared metrics registry: counters registered through either side
        // are visible from both.
        t.metrics().counter("tenant.test").add(7);
        assert_eq!(c.metrics().counter_value("tenant.test"), Some(7));
        c.platform().compiler().clear_cache().unwrap();
    }

    #[test]
    fn owner_quota_evicts_own_lru_entry_first() {
        let reg = ProgramRegistry::with_limits(0, 2);
        let cfg = ContextConfig::default()
            .spec(vgpu::DeviceSpec::tiny())
            .cache_tag("skelcl-context-quota");
        let pc = PlatformConfig::default()
            .devices(1)
            .spec(vgpu::DeviceSpec::tiny());
        let root = Context::from_platform_shared(
            Platform::new(pc.cache_tag("skelcl-context-quota")),
            cfg.work_group,
            Arc::new(reg),
        );
        root.platform().compiler().clear_cache().unwrap();
        let a = root.fork_streams("a");
        let b = root.fork_streams("b");
        a.get_or_build(&prog("qa_one")).unwrap();
        a.get_or_build(&prog("qa_two")).unwrap();
        b.get_or_build(&prog("qb_one")).unwrap();
        assert_eq!(root.program_cache_evictions(), 0);
        // Third program for owner "a" evicts a's LRU entry, not b's.
        a.get_or_build(&prog("qa_three")).unwrap();
        assert_eq!(root.program_cache_evictions(), 1);
        assert_eq!(root.program_registry().resident_for("a"), 2);
        assert_eq!(root.program_registry().resident_for("b"), 1);
        // The evicted program rebuilds (a registry miss), evicting again.
        let misses = root.program_cache_misses();
        a.get_or_build(&prog("qa_one")).unwrap();
        assert_eq!(root.program_cache_misses(), misses + 1);
        assert_eq!(root.program_cache_evictions(), 2);
        root.platform().compiler().clear_cache().unwrap();
    }

    #[test]
    fn capacity_evicts_global_lru() {
        let root = Context::from_platform_shared(
            Platform::new(
                PlatformConfig::default()
                    .devices(1)
                    .spec(vgpu::DeviceSpec::tiny())
                    .cache_tag("skelcl-context-cap"),
            ),
            DEFAULT_WORK_GROUP,
            Arc::new(ProgramRegistry::with_limits(2, 0)),
        );
        root.platform().compiler().clear_cache().unwrap();
        let p1 = prog("cap_one");
        let p2 = prog("cap_two");
        root.get_or_build(&p1).unwrap();
        root.get_or_build(&p2).unwrap();
        // Touch p1 so p2 becomes the LRU victim.
        root.get_or_build(&p1).unwrap();
        root.get_or_build(&prog("cap_three")).unwrap();
        assert_eq!(root.program_cache_evictions(), 1);
        assert_eq!(root.programs_built(), 2);
        // p1 survived; p2 was evicted.
        let hits = root.program_cache_hits();
        root.get_or_build(&p1).unwrap();
        assert_eq!(root.program_cache_hits(), hits + 1);
        let misses = root.program_cache_misses();
        root.get_or_build(&p2).unwrap();
        assert_eq!(root.program_cache_misses(), misses + 1);
        root.platform().compiler().clear_cache().unwrap();
    }
}
