//! The launch executor: runs every work-group of an ND-range and folds the
//! per-group costs into a device-level roofline duration.
//!
//! GPUs dispatch work-groups to compute units *dynamically* (a CU takes the
//! next group when it finishes one), so the compute time of a launch is the
//! makespan of that greedy schedule. We model it with its tight lower
//! bound, `max(total_cycles / n_cus, max_single_group_cycles)` — which
//! greedy scheduling approaches whenever groups ≫ CUs — keeping durations
//! bit-reproducible regardless of host thread count.

use crate::device::Device;
use crate::error::{Error, Result};
use crate::kernel::{AccessEnvelope, KernelBody, NDRange, WorkGroup};
use crate::pool;
use crate::profiling::AccessRange;
use crate::timing::{kernel_duration_s, KernelCost};

/// Everything a launch produced besides its side effects: the modeled
/// duration and the counters behind it (useful for tests and ablations).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaunchStats {
    /// Modeled kernel duration (roofline, without launch overhead — the
    /// queue adds the driver's fixed cost).
    pub duration_s: f64,
    /// Busiest compute unit's cycle count.
    pub max_cu_cycles: f64,
    /// Total global-memory traffic in bytes.
    pub global_bytes: u64,
    /// Work-groups executed.
    pub n_groups: usize,
    /// Work-items that declared work.
    pub n_active_items: usize,
    /// Local-memory bank-conflict passes across all groups.
    pub bank_conflicts: u64,
    /// Barriers executed across all groups.
    pub barriers: u64,
    /// Global atomics across all groups.
    pub atomics: u64,
    /// Real host time spent simulating (not part of the model).
    pub wall_s: f64,
}

/// Per-thread accumulator merged after the parallel sweep.
struct ChunkAccum {
    total_cycles: f64,
    max_group_cycles: f64,
    bytes: u64,
    conflicts: u64,
    barriers: u64,
    atomics: u64,
    items: usize,
    accesses: Vec<AccessEnvelope>,
}

/// Per-buffer byte ranges one launch read and wrote (envelopes over every
/// work-group) — the read/write sets the timeline trace attributes to the
/// kernel's [`crate::CommandRecord`]. Empty unless tracking was requested.
#[derive(Debug, Clone, Default)]
pub struct AccessSummary {
    pub reads: Vec<AccessRange>,
    pub writes: Vec<AccessRange>,
}

/// Human-readable message of a kernel panic payload.
fn panic_msg(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "kernel body panicked".to_string()
    }
}

/// Execute `body` over `nd` on `device`, with the runtime achieving
/// `compute_efficiency` of peak issue rate.
pub fn execute(
    device: &Device,
    body: &KernelBody,
    nd: NDRange,
    compute_efficiency: f64,
) -> Result<LaunchStats> {
    execute_traced(device, body, nd, compute_efficiency, false).map(|(stats, _)| stats)
}

/// Like [`execute`], but optionally tracking which byte ranges of which
/// buffers the kernel touched (`track`), and converting kernel-body panics
/// (bad argument requests, out-of-bounds accesses) into
/// [`Error::KernelPanic`] instead of tearing down the caller. A buffer
/// access from a kernel running on another device than the buffer's stops
/// the launch with [`Error::WrongDevice`].
pub fn execute_traced(
    device: &Device,
    body: &KernelBody,
    nd: NDRange,
    compute_efficiency: f64,
    track: bool,
) -> Result<(LaunchStats, AccessSummary)> {
    let spec = device.spec();
    nd.validate(spec.max_work_group)?;
    let wall_start = std::time::Instant::now();

    let groups = nd.groups();
    let n_groups = nd.n_groups();
    let gx_n = groups[0];
    let n_cus = spec.compute_units;
    let threads = pool::recommended_threads().min(n_groups);

    // Panics are caught *inside* the worker closure: the pool's join would
    // otherwise replace the kernel's message with its own.
    let partials = pool::parallel_chunks(n_groups, threads, |range| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut acc = ChunkAccum {
                total_cycles: 0.0,
                max_group_cycles: 0.0,
                bytes: 0,
                conflicts: 0,
                barriers: 0,
                atomics: 0,
                items: 0,
                accesses: Vec::new(),
            };
            let mut wg = WorkGroup::new(
                nd,
                device.id(),
                spec.pes_per_cu,
                spec.local_mem_bytes,
                spec.local_mem_banks,
                track,
            );
            for g in range {
                let gx = g % gx_n;
                let gy = g / gx_n;
                wg.reset_for_group(gx, gy);
                body(&wg);
                let cost = wg.cost();
                acc.total_cycles += cost.cycles;
                acc.max_group_cycles = acc.max_group_cycles.max(cost.cycles);
                acc.bytes += cost.bytes;
                acc.conflicts += cost.bank_conflicts;
                acc.barriers += cost.barriers;
                acc.atomics += cost.atomics;
                acc.items += cost.items;
            }
            acc.accesses = wg.take_accesses();
            acc
        }))
    });

    let mut total_cycles = 0.0f64;
    let mut max_group_cycles = 0.0f64;
    let mut bytes = 0u64;
    let mut conflicts = 0u64;
    let mut barriers = 0u64;
    let mut atomics = 0u64;
    let mut items = 0usize;
    let mut envelopes: Vec<AccessEnvelope> = Vec::new();
    for p in partials {
        let p = match p {
            Ok(p) => p,
            // A typed payload is a fault the accessors raised themselves.
            Err(payload) => {
                return Err(match payload.downcast::<Error>() {
                    Ok(e) => *e,
                    Err(payload) => Error::KernelPanic(panic_msg(payload)),
                })
            }
        };
        total_cycles += p.total_cycles;
        max_group_cycles = max_group_cycles.max(p.max_group_cycles);
        bytes += p.bytes;
        conflicts += p.conflicts;
        barriers += p.barriers;
        atomics += p.atomics;
        items += p.items;
        for e in p.accesses {
            match envelopes.iter_mut().find(|m| m.buffer == e.buffer) {
                Some(m) => {
                    m.read = join_env(m.read, e.read);
                    m.write = join_env(m.write, e.write);
                }
                None => envelopes.push(e),
            }
        }
    }
    // Dynamic-dispatch makespan: perfectly balanced unless a single group
    // dominates (then that group is the critical path).
    let max_cu_cycles = (total_cycles / n_cus as f64).max(max_group_cycles);

    let duration_s = kernel_duration_s(
        KernelCost {
            max_cu_cycles,
            global_bytes: bytes as f64,
        },
        spec.clock_hz,
        compute_efficiency,
        spec.mem_bandwidth_bytes_s,
    );

    let mut access = AccessSummary::default();
    for e in envelopes {
        if let Some((lo, hi)) = e.read {
            access.reads.push(AccessRange::new(e.buffer, lo, hi));
        }
        if let Some((lo, hi)) = e.write {
            access.writes.push(AccessRange::new(e.buffer, lo, hi));
        }
    }

    Ok((
        LaunchStats {
            duration_s,
            max_cu_cycles,
            global_bytes: bytes,
            n_groups,
            n_active_items: items,
            bank_conflicts: conflicts,
            barriers,
            atomics,
            wall_s: wall_start.elapsed().as_secs_f64(),
        },
        access,
    ))
}

fn join_env(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> Option<(u64, u64)> {
    match (a, b) {
        (Some((al, ah)), Some((bl, bh))) => Some((al.min(bl), ah.max(bh))),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceSpec};
    use crate::types::DeviceId;
    use std::sync::Arc;

    fn device() -> Device {
        Device::new(DeviceId(0), DeviceSpec::tiny())
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let dev = device();
        let n = 10_000usize;
        let buf = dev.alloc::<u32>(n).unwrap();
        let body: KernelBody = {
            let buf = buf.clone();
            Arc::new(move |wg: &WorkGroup| {
                wg.for_each_item(|it| {
                    if !it.in_bounds() {
                        return;
                    }
                    it.atomic_add_u32(&buf, it.global_id(0), 1);
                    it.work(1);
                });
            })
        };
        let stats = execute(&dev, &body, NDRange::linear(n, 64), 1.0).unwrap();
        assert!(buf.to_vec().iter().all(|&v| v == 1));
        assert_eq!(stats.n_groups, n.div_ceil(64));
        assert_eq!(stats.n_active_items, n);
    }

    #[test]
    fn duration_is_deterministic_across_thread_counts() {
        let dev = device();
        let n = 4096usize;
        let buf = dev.alloc::<f32>(n).unwrap();
        let body: KernelBody = {
            let buf = buf.clone();
            Arc::new(move |wg: &WorkGroup| {
                wg.for_each_item(|it| {
                    let i = it.global_id(0);
                    it.write(&buf, i, i as f32);
                    it.work((i % 37 + 1) as u64);
                });
            })
        };
        // Same launch under different host thread counts must give the same
        // virtual duration (group->CU mapping is fixed).
        std::env::set_var("VGPU_THREADS", "1");
        let a = execute(&dev, &body, NDRange::linear(n, 32), 1.0).unwrap();
        std::env::set_var("VGPU_THREADS", "7");
        let b = execute(&dev, &body, NDRange::linear(n, 32), 1.0).unwrap();
        std::env::remove_var("VGPU_THREADS");
        assert_eq!(a.duration_s, b.duration_s);
        assert_eq!(a.max_cu_cycles, b.max_cu_cycles);
        assert_eq!(a.global_bytes, b.global_bytes);
    }

    #[test]
    fn lower_efficiency_means_longer_compute_bound_kernels() {
        let dev = device();
        let body: KernelBody = Arc::new(|wg: &WorkGroup| {
            wg.for_each_item(|it| it.work(1000));
        });
        let nd = NDRange::linear(1024, 64);
        let fast = execute(&dev, &body, nd, 1.0).unwrap();
        let slow = execute(&dev, &body, nd, 0.5).unwrap();
        assert!((slow.duration_s / fast.duration_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_kernels_ignore_efficiency() {
        let dev = device();
        let n = 1 << 16;
        let buf = dev.alloc::<f32>(n).unwrap();
        let body: KernelBody = {
            let buf = buf.clone();
            Arc::new(move |wg: &WorkGroup| {
                wg.for_each_item(|it| {
                    let i = it.global_id(0);
                    let v = it.read(&buf, i);
                    it.write(&buf, i, v + 1.0);
                    // no declared compute work: purely memory bound
                });
            })
        };
        let nd = NDRange::linear(n, 256);
        let a = execute(&dev, &body, nd, 1.0).unwrap();
        let b = execute(&dev, &body, nd, 0.5).unwrap();
        assert_eq!(a.duration_s, b.duration_s);
        let expected = (n * 8) as f64 / dev.spec().mem_bandwidth_bytes_s;
        assert!((a.duration_s - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn invalid_launch_is_rejected() {
        let dev = device();
        let body: KernelBody = Arc::new(|_wg: &WorkGroup| {});
        assert!(execute(&dev, &body, NDRange::linear(0, 64), 1.0).is_err());
        assert!(execute(&dev, &body, NDRange::linear(64, 0), 1.0).is_err());
        let too_big = NDRange::linear(1024, dev.spec().max_work_group + 1);
        assert!(execute(&dev, &body, too_big, 1.0).is_err());
    }

    #[test]
    fn traced_execution_reports_launch_wide_access_envelopes() {
        let dev = device();
        let n = 1024usize;
        let src = dev.alloc::<f32>(n).unwrap();
        let dst = dev.alloc::<f32>(n).unwrap();
        let body: KernelBody = {
            let (src, dst) = (src.clone(), dst.clone());
            Arc::new(move |wg: &WorkGroup| {
                wg.for_each_item(|it| {
                    if !it.in_bounds() {
                        return;
                    }
                    let i = it.global_id(0);
                    let v = it.read(&src, i);
                    it.write(&dst, i, v + 1.0);
                });
            })
        };
        let (_, access) = execute_traced(&dev, &body, NDRange::linear(n, 64), 1.0, true).unwrap();
        assert_eq!(access.reads, vec![AccessRange::whole(src.id(), n * 4)]);
        assert_eq!(access.writes, vec![AccessRange::whole(dst.id(), n * 4)]);
        // Untracked runs stay free of attribution work.
        let (_, access) = execute_traced(&dev, &body, NDRange::linear(n, 64), 1.0, false).unwrap();
        assert!(access.reads.is_empty() && access.writes.is_empty());
    }

    #[test]
    fn kernel_panics_become_typed_errors_with_the_original_message() {
        let dev = device();
        let body: KernelBody = Arc::new(|wg: &WorkGroup| {
            wg.for_each_item(|_| panic!("argument 3 is a float scalar, requested uint"));
        });
        let err = execute(&dev, &body, NDRange::linear(8, 8), 1.0).unwrap_err();
        match err {
            Error::KernelPanic(msg) => assert!(msg.contains("argument 3"), "{msg}"),
            other => panic!("expected KernelPanic, got {other:?}"),
        }
    }

    #[test]
    fn two_d_launch_covers_the_grid() {
        let dev = device();
        let (w, h) = (33usize, 17usize);
        let buf = dev.alloc::<u32>(w * h).unwrap();
        let body: KernelBody = {
            let buf = buf.clone();
            Arc::new(move |wg: &WorkGroup| {
                wg.for_each_item(|it| {
                    if !it.in_bounds() {
                        return;
                    }
                    let idx = it.global_id(1) * w + it.global_id(0);
                    it.atomic_add_u32(&buf, idx, 1);
                    it.work(1);
                });
            })
        };
        execute(&dev, &body, NDRange::two_d((w, h), (16, 16)), 1.0).unwrap();
        assert!(buf.to_vec().iter().all(|&v| v == 1));
    }
}
