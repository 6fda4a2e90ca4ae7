//! The measurement loop shared by every workload: untraced units for the
//! requested seconds with set-ups spread through them, then one unit that
//! samples device memory and (with `--trace 1`) one traced unit. Per-layer
//! numbers are counter deltas taken around the benchmark's own calls, plus
//! the traced unit read through `RunReport::collect` and the recorded
//! skeleton spans.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use skelcl::{Context, Histogram, RunReport, SpanRecord};
use vgpu::{CommandRecord, DriverProfile, Platform, PlatformConfig, StatsSnapshot};

use crate::account::Tally;
use crate::workloads::{JobTiming, Probes, Workload};

/// A run is cut into this many slices, each starting with a fresh set-up;
/// `setup_s` is the fastest of those set-ups.
const SETUP_SLOTS: usize = 20;
/// Set-ups and units measured at least, however long they take.
const MIN_SETUPS: usize = 3;
const MIN_UNITS: usize = 3;

/// Skeleton span kinds reported as `span.<kind>.modeled_s`; any other kind
/// is summed into `span.other.modeled_s`.
pub const SPAN_KINDS: &[&str] = &[
    "stencil2d.iterate",
    "halo.exchange",
    "pipeline.run",
    "pipeline.group",
    "map_void.apply",
    "zip.apply",
    "vector.upload",
    "map.apply_matrix",
    "reduce_rows.apply",
    "allpairs.apply",
    "executor.batch",
    "executor.job",
    "executor.job.queue_wait",
    "executor.job.service",
    "other",
];

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("modeled_s", "s"),
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p99_s", "s"),
    ("device_mem_bytes", "bytes"),
    ("rss_peak_bytes", "bytes"),
];

/// Per-layer metrics other than the span kinds: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("error_rate", "ratio"),
    ("wall_s", "s"),
    ("wall.p50_s", "s"),
    ("latency.samples", "count"),
    ("exec.launches", "count"),
    ("exec.busy_s", "s"),
    ("exec.cu_cycles", "count"),
    ("exec.global_bytes", "bytes"),
    ("exec.pct_of_peak", "%"),
    ("skeleton.wall_s", "s"),
    ("queue.compute_util_min", "ratio"),
    ("queue.compute_util_max", "ratio"),
    ("queue.idle_s", "s"),
    ("queue.copy_busy_s", "s"),
    ("queue.overlap_s", "s"),
    ("xfer.h2d_bytes", "bytes"),
    ("xfer.h2d_count", "count"),
    ("xfer.d2h_bytes", "bytes"),
    ("xfer.d2h_count", "count"),
    ("xfer.d2d_bytes", "bytes"),
    ("xfer.d2d_count", "count"),
    ("build.source_builds", "count"),
    ("build.cache_loads", "count"),
    ("build.modeled_s", "s"),
    ("build.wall_s", "s"),
    ("registry.hits", "count"),
    ("registry.misses", "count"),
    ("registry.evictions", "count"),
    ("container.upload_wall_s", "s"),
    ("container.download_wall_s", "s"),
    ("container.halo_exchanges", "count"),
    ("pipeline.groups", "count"),
    ("pipeline.stages_fused", "count"),
    ("executor.batches", "count"),
    ("executor.jobs_per_batch", "count"),
    ("executor.queue_wait_p50_s", "s"),
    ("executor.queue_wait_p99_s", "s"),
    ("executor.service_p50_s", "s"),
    ("executor.service_p99_s", "s"),
    ("executor.shed", "count"),
    ("executor.submit_wall_s", "s"),
    ("executor.drain_wall_s", "s"),
    ("trace.overhead_wall_s", "s"),
    ("trace.modeled_delta_s", "s"),
];

/// Every per-layer metric name with its unit, span kinds included.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(
            SPAN_KINDS
                .iter()
                .map(|k| (format!("span.{k}.modeled_s"), "s")),
        )
        .collect()
}

/// The counters read around each call: the platform's stats and every
/// counter of `Context::metrics_snapshot`, by name.
#[derive(Debug, Clone, Default)]
struct Counters {
    stats: StatsSnapshot,
    registry: BTreeMap<String, u64>,
}

impl Counters {
    fn read(ctx: &Context) -> Counters {
        let registry = ctx
            .metrics_snapshot()
            .into_iter()
            .filter_map(|(name, v)| Some((name, v.as_counter()?)))
            .collect();
        Counters {
            stats: ctx.platform().stats_snapshot(),
            registry,
        }
    }

    fn since(&self, before: &Counters) -> Counters {
        let registry = self
            .registry
            .iter()
            .map(|(name, &v)| (name.clone(), v - before.get(name)))
            .collect();
        Counters {
            stats: self.stats - before.stats,
            registry,
        }
    }

    /// A registry counter, 0 when this context never registered it.
    fn get(&self, name: &str) -> u64 {
        self.registry.get(name).copied().unwrap_or(0)
    }
}

/// One measured unit.
struct Unit {
    wall_s: f64,
    modeled_s: f64,
    /// Peak device memory in use during the unit (`Pass::Memory` only).
    device_mem_bytes: f64,
    delta: Counters,
    jobs: Vec<JobTiming>,
    probes: Probes,
    /// Timeline trace and spans of the window (traced unit only).
    traced: Option<(Vec<CommandRecord>, Vec<SpanRecord>)>,
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Everything a run measured, in the declared order.
pub struct Measured {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// Nearest-rank p50 and p99 (0 when empty), through the library's own
/// histogram.
fn p50_p99(samples: impl IntoIterator<Item = f64>) -> (f64, f64) {
    let h = Histogram::default();
    for s in samples {
        h.observe(s);
    }
    (h.quantile(0.5), h.quantile(0.99))
}

pub fn median(values: &[f64]) -> f64 {
    p50_p99(values.iter().copied()).0
}

/// The estimator for host time per unit and per set-up: the fastest one.
/// Every unit (every set-up) does the same work, and other work on a shared
/// machine only ever slows it down, in phases that can last tens of seconds.
/// The fastest tracks the uncontended cost as long as one of them ran
/// uncontended; the median needs half of them to.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The fastest sample of each probe over the samples that recorded it.
fn fastest_probes<'a>(
    samples: impl IntoIterator<Item = &'a Probes>,
) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for p in samples {
        for (&k, &v) in p {
            by_name.entry(k).or_default().push(v);
        }
    }
    by_name.into_iter().map(|(k, v)| (k, fastest(&v))).collect()
}

/// Peak resident set of this process in bytes (`VmHWM`), 0 if unknown.
pub fn rss_peak_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

/// How a unit is observed. Only `Timed` units feed the timings and counts;
/// the other passes add an observer and must leave `modeled_s` unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Timed,
    /// Samples device memory in use at every enqueued command.
    Memory,
    /// Records the timeline trace and the skeleton spans.
    Traced,
}

/// One unit: counters before, `reset_clocks`, the timed call, `sync_all`,
/// counters after; the output check runs after the window closes.
fn run_unit<W: Workload>(
    w: &mut W,
    inputs: &W::Inputs,
    tally: &mut Tally,
    pass: Pass,
) -> Option<Unit> {
    tally.guarded(W::NAME, |tally| {
        let platform = w.ctx().platform().clone();
        let peak_mem = Arc::new(AtomicUsize::new(0));
        match pass {
            Pass::Timed => {}
            Pass::Memory => {
                let (devices, peak) = (platform.devices().to_vec(), Arc::clone(&peak_mem));
                platform.set_command_observer(Some(Arc::new(move |_: &[CommandRecord]| {
                    let used = devices.iter().map(|d| d.used_bytes()).sum();
                    peak.fetch_max(used, Ordering::Relaxed);
                })));
            }
            Pass::Traced => {
                platform.enable_timeline_trace();
                w.ctx().enable_spans();
            }
        }
        let mut probes = Probes::new();
        let before = Counters::read(w.ctx());
        platform.reset_clocks();
        let t = Instant::now();
        let out = w.call(inputs, tally, &mut probes)?;
        platform.sync_all();
        let wall_s = t.elapsed().as_secs_f64();
        let delta = Counters::read(w.ctx()).since(&before);
        let modeled_s = platform.host_now_s() - delta.stats.build_virtual_ns as f64 * 1e-9;
        platform.set_command_observer(None);
        let traced =
            (pass == Pass::Traced).then(|| (platform.take_timeline_trace(), w.ctx().take_spans()));
        let jobs = w.check(inputs, out, tally, &mut probes);
        Ok(Unit {
            wall_s,
            modeled_s,
            device_mem_bytes: peak_mem.load(Ordering::Relaxed) as f64,
            delta,
            jobs,
            probes,
            traced,
        })
    })
}

/// Count a non-timed pass whose modeled time moved as a failure: observing
/// the run must not change the model.
fn expect_same_model(tally: &mut Tally, what: &str, unit: &Option<Unit>, modeled_s: f64) {
    if let Some(u) = unit {
        if u.modeled_s.to_bits() != modeled_s.to_bits() {
            tally.fail(format!(
                "{what}: modeled_s {} differs from untraced {modeled_s}",
                u.modeled_s
            ));
        }
    }
}

/// Self time per span kind: each span's duration minus the part of its
/// interval its child spans cover.
fn span_self_times(spans: &[SpanRecord]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_s, s.end_s));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cursor = s.start_s;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_s));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let kind = if SPAN_KINDS.contains(&s.name) {
            s.name
        } else {
            "other"
        };
        *out.entry(format!("span.{kind}.modeled_s")).or_insert(0.0) +=
            (s.duration_s() - covered).max(0.0);
    }
    out
}

/// Set up `W` on a fresh platform whose kernel cache is `cache_dir`:
/// returns the state, its host wall seconds, its probes, and the counters
/// it left (the platform starts at zero, so they are one set-up's).
fn setup<W: Workload>(
    inputs: &W::Inputs,
    cache_dir: PathBuf,
) -> Result<(W, f64, Probes, Counters), String> {
    let mut probes = Probes::new();
    let t = Instant::now();
    let platform = Platform::new(
        PlatformConfig::default()
            .devices(W::DEVICES)
            .cache_dir(cache_dir),
    );
    let w = W::setup(inputs, platform, &mut probes).map_err(|e| format!("setup: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    let counters = Counters::read(w.ctx());
    Ok((w, wall_s, probes, counters))
}

/// Measure workload `W` for `seconds`: untraced units, with a fresh set-up
/// at the start of each of `SETUP_SLOTS` equal slices of the run (so
/// set-ups and units see the same machine conditions), then the memory
/// pass and, when `trace` is set, the traced pass. Kernel caches live under
/// `cache_root`.
pub fn measure<W: Workload>(
    seed: u64,
    seconds: f64,
    trace: bool,
    cache_root: &Path,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let inputs = W::inputs(seed);

    let mut setup_walls = Vec::new();
    let mut setup_probes = Vec::new();
    let mut setup_counters = Counters::default();
    let mut state: Option<W> = None;
    // Every unit does the same work: counts, jobs and the trace are kept from
    // the first unit only, so memory use does not grow with the run.
    let mut first: Option<Unit> = None;
    let (mut walls, mut modeled, mut unit_probes) = (Vec::new(), Vec::new(), Vec::new());
    let mut runs = 0usize;
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let setups = setup_walls.len();
        if elapsed >= seconds && runs >= MIN_UNITS && setups >= MIN_SETUPS {
            break;
        }
        let slot_due =
            setups < SETUP_SLOTS && elapsed >= seconds * setups as f64 / SETUP_SLOTS as f64;
        if state.is_none() || slot_due || (elapsed >= seconds && setups < MIN_SETUPS) {
            // Free the previous platform before building the next one.
            drop(state.take());
            let (w, wall_s, probes, counters) =
                setup::<W>(&inputs, cache_root.join(format!("setup{setups}")))?;
            setup_walls.push(wall_s);
            setup_probes.push(probes);
            setup_counters = counters;
            state = Some(w);
            continue;
        }
        let w = state.as_mut().expect("set up above");
        runs += 1;
        if let Some(mut u) = run_unit(w, &inputs, tally, Pass::Timed) {
            walls.push(u.wall_s);
            modeled.push(u.modeled_s);
            unit_probes.push(std::mem::take(&mut u.probes));
            first.get_or_insert(u);
        } else if first.is_none() && runs >= MIN_UNITS {
            return Err("no unit completed".into());
        }
    }
    let mut w = state.expect("at least one set-up");
    let memory = run_unit(&mut w, &inputs, tally, Pass::Memory);
    let traced = if trace {
        run_unit(&mut w, &inputs, tally, Pass::Traced)
    } else {
        None
    };

    let first = first.expect("the loop ends with at least one unit");
    let modeled_s = median(&modeled);
    let wall_s = fastest(&walls);
    let jobs = &first.jobs;
    // A served job is a request; elsewhere the unit is the only request.
    let (lat_p50, lat_p99, latency_samples) = if jobs.is_empty() {
        (modeled_s, modeled_s, 1)
    } else {
        let (p50, p99) = p50_p99(jobs.iter().map(|j| j.latency_s));
        (p50, p99, jobs.len())
    };

    let mut e2e = BTreeMap::new();
    e2e.insert("modeled_s".to_string(), modeled_s);
    e2e.insert("setup_s".to_string(), fastest(&setup_walls));
    e2e.insert("latency_p50_s".to_string(), lat_p50);
    e2e.insert("latency_p99_s".to_string(), lat_p99);
    expect_same_model(tally, "memory pass", &memory, modeled_s);
    e2e.insert(
        "device_mem_bytes".to_string(),
        memory.as_ref().map_or(0.0, |u| u.device_mem_bytes),
    );
    e2e.insert("rss_peak_bytes".to_string(), rss_peak_bytes());

    let mut layer: BTreeMap<String, f64> = per_layer_names()
        .into_iter()
        .map(|(n, _)| (n, 0.0))
        .collect();
    let mut set = |name: &str, v: f64| {
        let slot = layer
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared"));
        *slot = v;
    };
    set("wall_s", wall_s);
    set("wall.p50_s", median(&walls));
    set("latency.samples", latency_samples as f64);

    // Counter deltas of one unit.
    let per_unit = |f: &dyn Fn(&Counters) -> u64| f(&first.delta) as f64;
    let registry = |name: &'static str| per_unit(&move |c| c.get(name));
    set("exec.launches", per_unit(&|c| c.stats.kernel_launches));
    set("exec.busy_s", per_unit(&|c| c.stats.kernel_busy_ns) * 1e-9);
    set("exec.cu_cycles", per_unit(&|c| c.stats.kernel_cu_cycles));
    set(
        "exec.global_bytes",
        per_unit(&|c| c.stats.kernel_global_bytes),
    );
    set("xfer.h2d_bytes", per_unit(&|c| c.stats.h2d_bytes));
    set("xfer.h2d_count", per_unit(&|c| c.stats.h2d_transfers));
    set("xfer.d2h_bytes", per_unit(&|c| c.stats.d2h_bytes));
    set("xfer.d2h_count", per_unit(&|c| c.stats.d2h_transfers));
    set("xfer.d2d_bytes", per_unit(&|c| c.stats.d2d_bytes));
    set("xfer.d2d_count", per_unit(&|c| c.stats.d2d_transfers));
    set("registry.hits", registry("skelcl.program_cache.hits"));
    set("registry.misses", registry("skelcl.program_cache.misses"));
    set(
        "registry.evictions",
        registry("skelcl.program_cache.evictions"),
    );
    set(
        "container.halo_exchanges",
        registry("skelcl.halo_exchanges"),
    );
    set("pipeline.groups", registry("skelcl.pipeline.groups"));
    set(
        "pipeline.stages_fused",
        registry("skelcl.pipeline.stages_fused"),
    );
    let batches = registry("executor.batches");
    set("executor.batches", batches);
    set("executor.shed", registry("executor.jobs.rejected"));
    if batches > 0.0 {
        set("executor.jobs_per_batch", jobs.len() as f64 / batches);
    }
    if !jobs.is_empty() {
        let (p50, p99) = p50_p99(jobs.iter().map(|j| j.queue_wait_s));
        set("executor.queue_wait_p50_s", p50);
        set("executor.queue_wait_p99_s", p99);
        let (p50, p99) = p50_p99(jobs.iter().map(|j| j.service_s));
        set("executor.service_p50_s", p50);
        set("executor.service_p99_s", p99);
    }

    let platform = w.ctx().platform().clone();
    let efficiency = DriverProfile::skelcl().compute_efficiency;
    let report = RunReport::collect(
        W::NAME,
        &platform,
        efficiency,
        first.delta.stats,
        &[],
        first.modeled_s,
    );
    set("exec.pct_of_peak", report.roofline.pct_of_modeled_peak());

    set(
        "build.source_builds",
        setup_counters.stats.source_builds as f64,
    );
    set("build.cache_loads", setup_counters.stats.cache_loads as f64);
    set(
        "build.modeled_s",
        setup_counters.stats.build_virtual_ns as f64 * 1e-9,
    );
    // Set-ups and units record different probes.
    for (name, v) in fastest_probes(setup_probes.iter().chain(&unit_probes)) {
        set(name, v);
    }

    if let Some(t) = &traced {
        let (trace, spans) = t.traced.as_ref().expect("traced unit keeps its trace");
        let window = t.modeled_s;
        let report =
            RunReport::collect(W::NAME, &platform, efficiency, t.delta.stats, trace, window);
        let utils: Vec<f64> = report
            .devices
            .iter()
            .map(|d| d.compute_util(window))
            .collect();
        set(
            "queue.compute_util_min",
            utils.iter().copied().reduce(f64::min).unwrap_or(0.0),
        );
        set(
            "queue.compute_util_max",
            utils.iter().copied().reduce(f64::max).unwrap_or(0.0),
        );
        set(
            "queue.idle_s",
            report
                .devices
                .iter()
                .map(|d| (window - d.compute_busy_s).max(0.0))
                .sum(),
        );
        set(
            "queue.copy_busy_s",
            report.devices.iter().map(|d| d.copy_busy_s).sum(),
        );
        set("queue.overlap_s", report.total_overlap_s());
        for (name, v) in span_self_times(spans) {
            set(&name, v);
        }
        set("trace.overhead_wall_s", t.wall_s - wall_s);
        set("trace.modeled_delta_s", t.modeled_s - modeled_s);
    }
    expect_same_model(tally, "traced pass", &traced, modeled_s);
    set("error_rate", tally.error_rate());

    let ordered = |names: Vec<(String, &'static str)>, values: &BTreeMap<String, f64>| {
        names
            .into_iter()
            .map(|(n, u)| {
                let v = values[&n];
                (n, v, u)
            })
            .collect()
    };
    let e2e_names = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    Ok(Measured {
        end_to_end: ordered(e2e_names, &e2e),
        per_layer: ordered(per_layer_names(), &layer),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skelcl::report::json::{parse, Json};

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.into()))
            .collect();
        assert_eq!(names(&doc, "per_layer"), layer);
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let span = |id, parent, name, start_s, end_s| SpanRecord {
            id,
            parent,
            name,
            attrs: Vec::new(),
            start_s,
            end_s,
            epoch: 0,
            stats: StatsSnapshot::default(),
            halo_exchanges: 0,
            program_cache_hits: 0,
            program_cache_misses: 0,
            trace_first: 0,
            trace_len: 0,
        };
        let spans = [
            span(1, None, "stencil2d.iterate", 0.0, 10.0),
            span(2, Some(1), "halo.exchange", 1.0, 4.0),
            span(3, Some(1), "halo.exchange", 3.0, 5.0),
            span(4, None, "made.up", 0.0, 2.0),
        ];
        let t = span_self_times(&spans);
        assert_eq!(t["span.stencil2d.iterate.modeled_s"], 6.0);
        assert_eq!(t["span.halo.exchange.modeled_s"], 5.0);
        assert_eq!(t["span.other.modeled_s"], 2.0);
    }

    #[test]
    fn median_and_fastest() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), 0.0);
    }
}
