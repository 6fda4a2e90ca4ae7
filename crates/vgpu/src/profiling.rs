//! Platform-wide profiling counters and the opt-in timeline trace.
//!
//! The lazy-copying experiment (E8) and the documentation claims of the
//! paper ("before every data transfer, the vector implementation checks
//! whether the data transfer is necessary; only then the data is actually
//! transferred") are verified against these counters: tests assert on the
//! *number and volume* of transfers, not just on results.
//!
//! The [`CommandRecord`] trace serves the async-overlap subsystem the same
//! way: with tracing enabled, every scheduled command logs which engine of
//! which device it occupied for which virtual interval, so tests and the
//! `fig_iterate` bench can assert that two commands never overlap on the
//! same engine of one device — and that overlapped schedules really do run
//! copies under kernels.
//!
//! On top of the raw trace this module provides the analysis primitives the
//! observability layer is built from: per-engine busy time and utilization
//! ([`engine_usage`]), compute/copy overlap per device
//! ([`compute_copy_overlap_s`]), and the invariant checkers
//! ([`verify_engine_exclusive`], [`verify_engine_utilization`]).
//!
//! # Clock-epoch semantics
//!
//! [`crate::Platform::reset_clocks`] starts a new *clock epoch*: all virtual
//! clocks rewind to zero and the timeline trace is cleared, so the trace
//! only ever contains records of the current epoch. The monotonic counters
//! in [`Stats`] deliberately survive a reset — they are lifetime totals, and
//! harnesses isolate a region by subtracting [`StatsSnapshot`]s instead.

use crate::queue::EventKind;
use crate::timing::EngineKind;
use crate::types::{BufferId, DeviceId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What kind of command a [`CommandRecord`] describes — the trace-level
/// classification the hazard detector keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdKind {
    /// Host-to-device transfer (`clEnqueueWriteBuffer`).
    H2D,
    /// Device-to-host transfer (`clEnqueueReadBuffer`).
    D2H,
    /// Device-side fill (`clEnqueueFillBuffer`).
    Fill,
    /// Kernel launch.
    Kernel,
    /// Device-to-device copy (one record per device it occupies).
    D2D,
    /// Zero-duration device-wide join point (`clEnqueueMarker`).
    Marker,
}

impl CmdKind {
    /// The trace classification of a scheduled event. `Build` events never
    /// reach the scheduler (compilation is host-side), so they fold into
    /// `Marker` rather than forcing callers to handle an impossible case.
    pub fn from_event(kind: EventKind) -> CmdKind {
        match kind {
            EventKind::WriteBuffer => CmdKind::H2D,
            EventKind::ReadBuffer => CmdKind::D2H,
            EventKind::FillBuffer => CmdKind::Fill,
            EventKind::Kernel => CmdKind::Kernel,
            EventKind::CopyD2D => CmdKind::D2D,
            EventKind::Build { .. } | EventKind::Marker => CmdKind::Marker,
        }
    }
}

/// A byte range `[lo, hi)` of one device allocation that a command reads or
/// writes. Transfers record their exact range; kernels record the min/max
/// envelope of addresses each launch actually touched, so disjoint-range
/// accesses to one buffer (e.g. halo rows vs. owned rows) do not conflict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessRange {
    pub buffer: BufferId,
    pub lo: u64,
    pub hi: u64,
}

impl AccessRange {
    pub fn new(buffer: BufferId, lo: u64, hi: u64) -> Self {
        AccessRange { buffer, lo, hi }
    }

    /// The whole allocation of `bytes` bytes.
    pub fn whole(buffer: BufferId, bytes: usize) -> Self {
        AccessRange {
            buffer,
            lo: 0,
            hi: bytes as u64,
        }
    }

    /// Do two ranges touch overlapping bytes of the same allocation?
    pub fn overlaps(&self, other: &AccessRange) -> bool {
        self.buffer == other.buffer && self.lo < other.hi && other.lo < self.hi
    }
}

/// One scheduled command in the timeline trace: the virtual interval it
/// occupied on one engine of one device, plus everything a checker needs to
/// reconstruct the happens-before order — stream identity, explicit event
/// dependencies (by `seq`), and the byte ranges of device memory the command
/// read and wrote. Every scheduled command logs one record under its own
/// `seq`.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandRecord {
    pub device: DeviceId,
    pub engine: EngineKind,
    pub start_s: f64,
    pub end_s: f64,
    /// Process-wide command sequence number (1-based); `0` marks a record
    /// built outside the scheduler (tests, synthetic traces).
    pub seq: u64,
    /// The in-order stream this command was enqueued on, if any (platform
    /// copies are streamless).
    pub stream: Option<u64>,
    pub kind: CmdKind,
    /// Device-serializing ([`Order::Device`](crate::Order::Device)): ordered
    /// after *everything* previously scheduled on its device.
    /// Event-ordered commands are ordered only by stream and explicit deps.
    pub serializing: bool,
    /// Host-clock time at enqueue.
    pub enqueue_host_s: f64,
    /// The host-synchronisation watermark at enqueue: every command that
    /// *ended* at or before this virtual time is happens-before this one,
    /// because the host observably waited for it (blocking read, `finish`,
    /// `sync_all`) before issuing this command.
    pub host_sync_s: f64,
    /// `seq`s of the events this command explicitly waited on.
    pub deps: Vec<u64>,
    pub reads: Vec<AccessRange>,
    pub writes: Vec<AccessRange>,
    /// Human-readable tag (kernel name, "h2d", …) for diagnostics.
    pub label: String,
}

impl CommandRecord {
    /// A record with only the occupancy interval filled in — the pre-PR-9
    /// schema. Checker-facing fields get neutral defaults: `seq` 0 (outside
    /// the scheduler), no stream, `serializing` true, empty access sets,
    /// kind inferred from the engine.
    pub fn interval(device: DeviceId, engine: EngineKind, start_s: f64, end_s: f64) -> Self {
        CommandRecord {
            device,
            engine,
            start_s,
            end_s,
            seq: 0,
            stream: None,
            kind: match engine {
                EngineKind::Compute => CmdKind::Kernel,
                EngineKind::Copy => CmdKind::H2D,
            },
            serializing: true,
            enqueue_host_s: 0.0,
            host_sync_s: 0.0,
            deps: Vec::new(),
            reads: Vec::new(),
            writes: Vec::new(),
            label: String::new(),
        }
    }

    pub fn with_seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    pub fn on_stream(mut self, stream: u64) -> Self {
        self.stream = Some(stream);
        self
    }

    pub fn with_kind(mut self, kind: CmdKind) -> Self {
        self.kind = kind;
        self
    }

    /// Mark the command event-ordered (not device-serializing).
    pub fn asynchronous(mut self) -> Self {
        self.serializing = false;
        self
    }

    pub fn at_enqueue(mut self, host_s: f64) -> Self {
        self.enqueue_host_s = host_s;
        self
    }

    pub fn with_host_sync(mut self, host_sync_s: f64) -> Self {
        self.host_sync_s = host_sync_s;
        self
    }

    pub fn with_deps(mut self, deps: Vec<u64>) -> Self {
        self.deps = deps;
        self
    }

    pub fn with_reads(mut self, reads: Vec<AccessRange>) -> Self {
        self.reads = reads;
        self
    }

    pub fn with_writes(mut self, writes: Vec<AccessRange>) -> Self {
        self.writes = writes;
        self
    }

    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// A callback invoked under the trace lock with each group of records as it
/// is scheduled, one slice per command. Groups are delivered in a valid
/// linearization of the enqueue order, which is what the online hazard
/// checker needs.
pub type CommandObserver = Arc<dyn Fn(&[CommandRecord]) + Send + Sync>;

/// `Option<CommandObserver>` with `Debug`/`Default` so [`Stats`] can keep
/// deriving both.
#[derive(Default)]
struct ObserverSlot(Option<CommandObserver>);

impl std::fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "CommandObserver(set)"
        } else {
            "CommandObserver(unset)"
        })
    }
}

fn engine_rank(e: EngineKind) -> u8 {
    match e {
        EngineKind::Compute => 0,
        EngineKind::Copy => 1,
    }
}

/// Check engine exclusivity over a recorded trace: no two commands may
/// overlap on the same engine of one device, and every interval must be
/// well-formed. Returns a description of **every** violation (one per line),
/// or `None` when the trace is physical — test suites assert
/// `verify_engine_exclusive(&trace).is_none()`.
pub fn verify_engine_exclusive(trace: &[CommandRecord]) -> Option<String> {
    let mut violations = Vec::new();
    let mut lanes: std::collections::HashMap<(DeviceId, EngineKind), Vec<(f64, f64)>> =
        std::collections::HashMap::new();
    for r in trace {
        if r.kind == CmdKind::Marker {
            // Markers are synchronization points, not engine work: they
            // occupy no engine and may sit inside another command's span.
            continue;
        }
        if !(r.start_s >= 0.0 && r.end_s >= r.start_s) {
            violations.push(format!(
                "malformed interval [{}, {}] on device {:?} {:?}",
                r.start_s, r.end_s, r.device, r.engine
            ));
            continue;
        }
        lanes
            .entry((r.device, r.engine))
            .or_default()
            .push((r.start_s, r.end_s));
    }
    let mut keys: Vec<_> = lanes.keys().copied().collect();
    keys.sort_by_key(|(d, e)| (*d, engine_rank(*e)));
    for key in keys {
        let (device, engine) = key;
        let spans = lanes.get_mut(&key).unwrap();
        spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in spans.windows(2) {
            if w[0].1 > w[1].0 + 1e-12 {
                violations.push(format!(
                    "device {device:?} {engine:?} engine runs two commands at once: \
                     [{}, {}] overlaps [{}, {}]",
                    w[0].0, w[0].1, w[1].0, w[1].1
                ));
            }
        }
    }
    if violations.is_empty() {
        None
    } else {
        Some(violations.join("\n"))
    }
}

/// Trace-derived occupancy of one engine of one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineUsage {
    pub device: DeviceId,
    pub engine: EngineKind,
    /// Number of commands recorded on this lane.
    pub commands: usize,
    /// Total busy seconds (plain sum of interval lengths; equals the union
    /// length when the trace is engine-exclusive).
    pub busy_s: f64,
}

impl EngineUsage {
    /// Fraction of `window_s` this engine was busy. On an engine-exclusive
    /// trace whose records fall inside the window this is in `[0, 1]`.
    pub fn utilization(&self, window_s: f64) -> f64 {
        if window_s <= 0.0 {
            if self.busy_s > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.busy_s / window_s
        }
    }
}

/// Summarise a trace into per-(device, engine) busy time, sorted by device
/// then engine (compute before copy). Lanes with no commands are absent.
pub fn engine_usage(trace: &[CommandRecord]) -> Vec<EngineUsage> {
    let mut lanes: std::collections::HashMap<(DeviceId, EngineKind), (usize, f64)> =
        std::collections::HashMap::new();
    for r in trace {
        if r.kind == CmdKind::Marker {
            continue; // markers occupy no engine
        }
        let e = lanes.entry((r.device, r.engine)).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += (r.end_s - r.start_s).max(0.0);
    }
    let mut out: Vec<EngineUsage> = lanes
        .into_iter()
        .map(|((device, engine), (commands, busy_s))| EngineUsage {
            device,
            engine,
            commands,
            busy_s,
        })
        .collect();
    out.sort_by_key(|u| (u.device, engine_rank(u.engine)));
    out
}

/// The `[min start, max end]` window covered by a trace, or `None` for an
/// empty trace.
pub fn trace_window(trace: &[CommandRecord]) -> Option<(f64, f64)> {
    let mut it = trace.iter();
    let first = it.next()?;
    let mut lo = first.start_s;
    let mut hi = first.end_s;
    for r in it {
        lo = lo.min(r.start_s);
        hi = hi.max(r.end_s);
    }
    Some((lo, hi))
}

/// Merge possibly-overlapping intervals into a disjoint, sorted union.
fn merge_intervals(mut spans: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(spans.len());
    for (s, e) in spans {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of the intersection of two disjoint sorted interval sets.
fn intersection_len(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j, mut total) = (0, 0, 0.0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Seconds during which *both* engines of a device were busy at once —
/// the copies-under-kernels overlap the async subsystem exists to create.
/// Returns one `(device, overlap seconds)` entry per device present in the
/// trace, sorted by device.
pub fn compute_copy_overlap_s(trace: &[CommandRecord]) -> Vec<(DeviceId, f64)> {
    type Lanes = (Vec<(f64, f64)>, Vec<(f64, f64)>);
    let mut per_dev: std::collections::HashMap<DeviceId, Lanes> = std::collections::HashMap::new();
    for r in trace {
        let e = per_dev.entry(r.device).or_default();
        let lane = match r.engine {
            EngineKind::Compute => &mut e.0,
            EngineKind::Copy => &mut e.1,
        };
        lane.push((r.start_s, r.end_s));
    }
    let mut out: Vec<(DeviceId, f64)> = per_dev
        .into_iter()
        .map(|(dev, (compute, copy))| {
            let c = merge_intervals(compute);
            let k = merge_intervals(copy);
            (dev, intersection_len(&c, &k))
        })
        .collect();
    out.sort_by_key(|(d, _)| *d);
    out
}

/// Engine-utilization invariant: over a window of `window_s` seconds every
/// engine's busy time must be a fraction in `[0, 1]` — more than 100 %
/// means two commands shared one engine (a scheduling bug), and a negative
/// value means a malformed interval. Returns all violations (one per line)
/// or `None`. The window must be positive and cover the trace.
pub fn verify_engine_utilization(trace: &[CommandRecord], window_s: f64) -> Option<String> {
    let mut violations = Vec::new();
    if window_s <= 0.0 && !trace.is_empty() {
        violations.push(format!("non-positive utilization window {window_s}"));
    }
    if let Some((lo, hi)) = trace_window(trace) {
        if lo < -1e-12 || hi > window_s + 1e-9 {
            violations.push(format!(
                "trace window [{lo}, {hi}] escapes the measurement window [0, {window_s}]"
            ));
        }
    }
    for u in engine_usage(trace) {
        let util = u.utilization(window_s);
        if !(0.0..=1.0 + 1e-9).contains(&util) {
            violations.push(format!(
                "device {:?} {:?} engine utilization {util:.4} outside [0, 1] \
                 (busy {:.6e} s over {window_s:.6e} s)",
                u.device, u.engine, u.busy_s
            ));
        }
    }
    if violations.is_empty() {
        None
    } else {
        Some(violations.join("\n"))
    }
}

/// Monotonic counters; cheap to bump from any thread.
#[derive(Debug, Default)]
pub struct Stats {
    pub h2d_transfers: AtomicU64,
    pub h2d_bytes: AtomicU64,
    pub d2h_transfers: AtomicU64,
    pub d2h_bytes: AtomicU64,
    pub d2d_transfers: AtomicU64,
    pub d2d_bytes: AtomicU64,
    pub kernel_launches: AtomicU64,
    /// Modeled compute-unit cycles consumed by kernels (sum of each
    /// launch's critical-path `max_cu_cycles`, rounded); the numerator of
    /// the roofline compute-intensity report.
    pub kernel_cu_cycles: AtomicU64,
    /// Global-memory traffic generated by kernels in bytes — the roofline
    /// bandwidth numerator (distinct from PCIe transfer bytes above).
    pub kernel_global_bytes: AtomicU64,
    /// Virtual nanoseconds of compute-engine occupancy by kernels
    /// (duration including launch overhead); busy time for queue-wait
    /// vs. busy accounting when the timeline trace is disabled.
    pub kernel_busy_ns: AtomicU64,
    pub source_builds: AtomicU64,
    pub cache_loads: AtomicU64,
    /// Virtual nanoseconds spent building programs (compiles + cache
    /// loads); lets harnesses separate one-time build cost from steady-state
    /// compute when runs are too short to amortise it.
    pub build_virtual_ns: AtomicU64,
    /// Timeline trace: `None` until enabled (tracing costs memory, so
    /// figures and tests opt in per platform).
    trace: Mutex<Option<Vec<CommandRecord>>>,
    /// Process-wide command sequence counter (see [`CommandRecord::seq`]).
    next_seq: AtomicU64,
    /// High-water mark of virtual times the host has *observably waited
    /// for*: bumped by blocking reads, `finish`, and `sync_all` — never by
    /// mere host-clock drift. The happens-before model's host-order edge.
    host_sync_s: Mutex<f64>,
    observer: Mutex<ObserverSlot>,
    /// Fast path: lets `record_group` skip the observer lock entirely when
    /// no observer is installed.
    observer_active: AtomicBool,
}

impl Stats {
    /// Allocate the next command sequence number (1-based). Every scheduled
    /// command consumes one, whether or not anything records it, so seq
    /// values stay comparable across trace enable/disable boundaries.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Record that the host has synchronised with the virtual timeline up
    /// to `t` (blocking read, `finish`, `sync_all`).
    pub fn note_host_sync(&self, t: f64) {
        let mut w = self.host_sync_s.lock();
        if t > *w {
            *w = t;
        }
    }

    /// Current host-synchronisation watermark.
    pub fn host_synced_s(&self) -> f64 {
        *self.host_sync_s.lock()
    }

    /// Rewind the host-sync watermark (a new clock epoch — see
    /// [`crate::Platform::reset_clocks`]).
    pub fn reset_host_sync(&self) {
        *self.host_sync_s.lock() = 0.0;
    }

    /// Install (or, with `None`, remove) the command observer. The observer
    /// runs under the trace lock on the enqueuing thread — keep it cheap and
    /// never call back into trace accessors from inside it.
    pub fn set_observer(&self, obs: Option<CommandObserver>) {
        self.observer_active.store(obs.is_some(), Ordering::Relaxed);
        self.observer.lock().0 = obs;
    }

    /// Is any record sink live — the trace, an observer, or both? The queue
    /// layer only builds full records when this is true.
    pub fn sink_active(&self) -> bool {
        self.observer_active.load(Ordering::Relaxed) || self.trace.lock().is_some()
    }
    /// Start recording per-engine command intervals (clears any prior
    /// trace).
    pub fn enable_trace(&self) {
        *self.trace.lock() = Some(Vec::new());
    }

    /// Take the recorded trace, leaving tracing enabled with an empty log.
    /// Returns an empty vec when tracing was never enabled.
    pub fn take_trace(&self) -> Vec<CommandRecord> {
        match self.trace.lock().as_mut() {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }

    /// Number of commands recorded so far (0 when tracing is disabled).
    /// Spans remember this watermark on open so they can later slice their
    /// child commands out of the trace.
    pub fn trace_len(&self) -> usize {
        self.trace.lock().as_ref().map_or(0, |t| t.len())
    }

    /// Drop any recorded commands but keep tracing enabled (called between
    /// bench repetitions alongside the clock reset).
    pub fn clear_trace(&self) {
        if let Some(t) = self.trace.lock().as_mut() {
            t.clear();
        }
    }

    /// Log a group of records that together describe one command (the
    /// scheduler logs one per command). The trace lock is held across both
    /// the trace append and the observer call, so observers see complete
    /// groups in a valid linearization of the enqueue order.
    pub fn record_group(&self, recs: &[CommandRecord]) {
        if recs.is_empty() {
            return;
        }
        let mut guard = self.trace.lock();
        if let Some(t) = guard.as_mut() {
            t.extend_from_slice(recs);
        }
        if self.observer_active.load(Ordering::Relaxed) {
            let obs = self.observer.lock().0.clone();
            if let Some(obs) = obs {
                obs(recs);
            }
        }
        drop(guard);
    }
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            h2d_transfers: self.h2d_transfers.load(Ordering::Relaxed),
            h2d_bytes: self.h2d_bytes.load(Ordering::Relaxed),
            d2h_transfers: self.d2h_transfers.load(Ordering::Relaxed),
            d2h_bytes: self.d2h_bytes.load(Ordering::Relaxed),
            d2d_transfers: self.d2d_transfers.load(Ordering::Relaxed),
            d2d_bytes: self.d2d_bytes.load(Ordering::Relaxed),
            kernel_launches: self.kernel_launches.load(Ordering::Relaxed),
            kernel_cu_cycles: self.kernel_cu_cycles.load(Ordering::Relaxed),
            kernel_global_bytes: self.kernel_global_bytes.load(Ordering::Relaxed),
            kernel_busy_ns: self.kernel_busy_ns.load(Ordering::Relaxed),
            source_builds: self.source_builds.load(Ordering::Relaxed),
            cache_loads: self.cache_loads.load(Ordering::Relaxed),
            build_virtual_ns: self.build_virtual_ns.load(Ordering::Relaxed),
        }
    }

    pub fn add_h2d(&self, bytes: usize) {
        self.h2d_transfers.fetch_add(1, Ordering::Relaxed);
        self.h2d_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub fn add_d2h(&self, bytes: usize) {
        self.d2h_transfers.fetch_add(1, Ordering::Relaxed);
        self.d2h_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub fn add_d2d(&self, bytes: usize) {
        self.d2d_transfers.fetch_add(1, Ordering::Relaxed);
        self.d2d_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Account one kernel launch for the roofline counters: `cu_cycles` of
    /// modeled compute, `global_bytes` of device-memory traffic, and
    /// `busy_s` of compute-engine occupancy (kernel + launch overhead).
    pub fn add_kernel(&self, cu_cycles: f64, global_bytes: u64, busy_s: f64) {
        self.kernel_launches.fetch_add(1, Ordering::Relaxed);
        self.kernel_cu_cycles
            .fetch_add(cu_cycles.round() as u64, Ordering::Relaxed);
        self.kernel_global_bytes
            .fetch_add(global_bytes, Ordering::Relaxed);
        self.kernel_busy_ns
            .fetch_add((busy_s * 1e9).round() as u64, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the counters; subtract two snapshots to measure
/// a region of interest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub h2d_transfers: u64,
    pub h2d_bytes: u64,
    pub d2h_transfers: u64,
    pub d2h_bytes: u64,
    pub d2d_transfers: u64,
    pub d2d_bytes: u64,
    pub kernel_launches: u64,
    pub kernel_cu_cycles: u64,
    pub kernel_global_bytes: u64,
    pub kernel_busy_ns: u64,
    pub source_builds: u64,
    pub cache_loads: u64,
    pub build_virtual_ns: u64,
}

impl std::ops::Sub for StatsSnapshot {
    type Output = StatsSnapshot;
    fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            h2d_transfers: self.h2d_transfers - rhs.h2d_transfers,
            h2d_bytes: self.h2d_bytes - rhs.h2d_bytes,
            d2h_transfers: self.d2h_transfers - rhs.d2h_transfers,
            d2h_bytes: self.d2h_bytes - rhs.d2h_bytes,
            d2d_transfers: self.d2d_transfers - rhs.d2d_transfers,
            d2d_bytes: self.d2d_bytes - rhs.d2d_bytes,
            kernel_launches: self.kernel_launches - rhs.kernel_launches,
            kernel_cu_cycles: self.kernel_cu_cycles - rhs.kernel_cu_cycles,
            kernel_global_bytes: self.kernel_global_bytes - rhs.kernel_global_bytes,
            kernel_busy_ns: self.kernel_busy_ns - rhs.kernel_busy_ns,
            source_builds: self.source_builds - rhs.source_builds,
            cache_loads: self.cache_loads - rhs.cache_loads,
            build_virtual_ns: self.build_virtual_ns - rhs.build_virtual_ns,
        }
    }
}

impl StatsSnapshot {
    /// Total bytes moved across any link.
    pub fn total_transfer_bytes(&self) -> u64 {
        self.h2d_bytes + self.d2h_bytes + self.d2d_bytes
    }

    /// Total number of transfers of any kind.
    pub fn total_transfers(&self) -> u64 {
        self.h2d_transfers + self.d2h_transfers + self.d2d_transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = Stats::default();
        s.add_h2d(100);
        s.add_h2d(50);
        s.add_d2h(10);
        s.add_d2d(7);
        let snap = s.snapshot();
        assert_eq!(snap.h2d_transfers, 2);
        assert_eq!(snap.h2d_bytes, 150);
        assert_eq!(snap.d2h_transfers, 1);
        assert_eq!(snap.d2d_bytes, 7);
        assert_eq!(snap.total_transfer_bytes(), 167);
        assert_eq!(snap.total_transfers(), 4);
    }

    #[test]
    fn snapshot_subtraction_isolates_a_region() {
        let s = Stats::default();
        s.add_h2d(100);
        let before = s.snapshot();
        s.add_h2d(1);
        s.add_d2h(2);
        let delta = s.snapshot() - before;
        assert_eq!(delta.h2d_transfers, 1);
        assert_eq!(delta.h2d_bytes, 1);
        assert_eq!(delta.d2h_bytes, 2);
    }

    #[test]
    fn kernel_counters_accumulate_roofline_inputs() {
        let s = Stats::default();
        s.add_kernel(1000.0, 4096, 1e-3);
        s.add_kernel(500.4, 1024, 2e-3);
        let snap = s.snapshot();
        assert_eq!(snap.kernel_launches, 2);
        assert_eq!(snap.kernel_cu_cycles, 1500);
        assert_eq!(snap.kernel_global_bytes, 5120);
        assert_eq!(snap.kernel_busy_ns, 3_000_000);
    }

    fn rec(dev: usize, engine: EngineKind, start: f64, end: f64) -> CommandRecord {
        CommandRecord::interval(DeviceId(dev), engine, start, end)
    }

    #[test]
    fn verify_reports_every_violating_pair() {
        let trace = vec![
            rec(0, EngineKind::Compute, 0.0, 2.0),
            rec(0, EngineKind::Compute, 1.0, 3.0),
            rec(1, EngineKind::Copy, 0.0, 1.0),
            rec(1, EngineKind::Copy, 0.5, 2.0),
            rec(2, EngineKind::Compute, 5.0, 4.0), // malformed
        ];
        let msg = verify_engine_exclusive(&trace).expect("violations expected");
        assert_eq!(
            msg.lines().count(),
            3,
            "all three violations reported:\n{msg}"
        );
        assert!(msg.contains("gpu0") || msg.contains("DeviceId(0)"), "{msg}");
        assert!(msg.contains("malformed"), "{msg}");
    }

    #[test]
    fn exclusive_trace_passes_both_invariants() {
        let trace = vec![
            rec(0, EngineKind::Compute, 0.0, 1.0),
            rec(0, EngineKind::Compute, 1.0, 2.0),
            rec(0, EngineKind::Copy, 0.5, 1.5),
        ];
        assert!(verify_engine_exclusive(&trace).is_none());
        assert!(verify_engine_utilization(&trace, 2.0).is_none());
    }

    #[test]
    fn engine_usage_sums_busy_time_per_lane() {
        let trace = vec![
            rec(0, EngineKind::Compute, 0.0, 1.0),
            rec(0, EngineKind::Compute, 2.0, 3.0),
            rec(0, EngineKind::Copy, 0.0, 0.5),
            rec(1, EngineKind::Compute, 0.0, 4.0),
        ];
        let usage = engine_usage(&trace);
        assert_eq!(usage.len(), 3);
        assert_eq!(usage[0].device, DeviceId(0));
        assert_eq!(usage[0].engine, EngineKind::Compute);
        assert!((usage[0].busy_s - 2.0).abs() < 1e-12);
        assert_eq!(usage[0].commands, 2);
        assert!((usage[1].busy_s - 0.5).abs() < 1e-12);
        assert!((usage[2].busy_s - 4.0).abs() < 1e-12);
        assert!((usage[0].utilization(4.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_over_one_is_a_violation() {
        // Two overlapping commands pack 4 busy seconds into a 3 s window.
        let trace = vec![
            rec(0, EngineKind::Compute, 0.0, 2.0),
            rec(0, EngineKind::Compute, 1.0, 3.0),
        ];
        let msg = verify_engine_utilization(&trace, 3.0).expect("violation expected");
        assert!(msg.contains("outside [0, 1]"), "{msg}");
    }

    #[test]
    fn trace_escaping_the_window_is_a_violation() {
        let trace = vec![rec(0, EngineKind::Compute, 0.0, 5.0)];
        let msg = verify_engine_utilization(&trace, 2.0).expect("violation expected");
        assert!(msg.contains("escapes"), "{msg}");
    }

    #[test]
    fn overlap_measures_concurrent_engine_time() {
        let trace = vec![
            rec(0, EngineKind::Compute, 0.0, 2.0),
            rec(0, EngineKind::Copy, 1.0, 3.0),
            rec(0, EngineKind::Copy, 5.0, 6.0),
            rec(1, EngineKind::Compute, 0.0, 1.0),
        ];
        let overlap = compute_copy_overlap_s(&trace);
        assert_eq!(overlap.len(), 2);
        assert_eq!(overlap[0].0, DeviceId(0));
        assert!((overlap[0].1 - 1.0).abs() < 1e-12);
        assert_eq!(overlap[1].1, 0.0);
    }

    #[test]
    fn record_group_feeds_observer_and_trace_atomically() {
        let s = Stats::default();
        assert!(!s.sink_active());
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let seen = Arc::clone(&seen);
            s.set_observer(Some(Arc::new(move |g: &[CommandRecord]| {
                seen.lock().push(g.len());
            })));
        }
        assert!(s.sink_active(), "observer alone activates the sink");
        s.enable_trace();
        let a = rec(0, EngineKind::Copy, 0.0, 1.0).with_seq(s.next_seq());
        let b = rec(1, EngineKind::Copy, 0.0, 1.0).with_seq(a.seq);
        s.record_group(&[a, b]);
        s.record_group(&[rec(0, EngineKind::Compute, 1.0, 2.0)]);
        assert_eq!(*seen.lock(), vec![2, 1]);
        assert_eq!(s.trace_len(), 3);
        s.set_observer(None);
        s.record_group(&[rec(0, EngineKind::Compute, 2.0, 3.0)]);
        assert_eq!(*seen.lock(), vec![2, 1], "removed observer sees nothing");
    }

    #[test]
    fn host_sync_watermark_only_moves_forward_until_reset() {
        let s = Stats::default();
        assert_eq!(s.host_synced_s(), 0.0);
        s.note_host_sync(2.5);
        s.note_host_sync(1.0);
        assert_eq!(s.host_synced_s(), 2.5);
        s.reset_host_sync();
        assert_eq!(s.host_synced_s(), 0.0);
    }

    #[test]
    fn access_range_overlap_requires_same_buffer_and_bytes() {
        let a = AccessRange::new(crate::BufferId(1), 0, 8);
        assert!(a.overlaps(&AccessRange::new(crate::BufferId(1), 4, 12)));
        assert!(!a.overlaps(&AccessRange::new(crate::BufferId(1), 8, 12)));
        assert!(!a.overlaps(&AccessRange::new(crate::BufferId(2), 0, 8)));
        assert!(
            AccessRange::whole(crate::BufferId(3), 16).overlaps(&AccessRange::new(
                crate::BufferId(3),
                15,
                16
            ))
        );
    }
}
