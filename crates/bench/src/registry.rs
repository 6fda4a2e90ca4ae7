//! The figure registry: one row per gated figure.
//!
//! Each [`Figure`] measures its legs through the runners in the crate root
//! and asserts the figure's acceptance relations as it goes, printing a
//! `check:` line with the measured ratios. `figures ledger` runs the rows
//! and writes each one's `BENCH_<name>.json`; a row's committed seed at the
//! repo root is what CI gates that ledger against.

use crate::*;
use skelcl::{AllPairsStrategy, Matrix, MatrixDistribution};
use skelcl_executor::run_job;

/// One gated figure.
pub struct Figure {
    /// The ledger's file stem: `run` records legs labelled `<name> …`,
    /// and the ledger is written as `BENCH_<name>.json`.
    pub name: &'static str,
    /// Measures every leg of the figure; panics when a relation fails.
    pub run: fn(),
}

/// Every gated figure, in ledger order.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig1",
        run: fig1,
    },
    Figure {
        name: "fig2",
        run: fig2,
    },
    Figure {
        name: "fig_stencil",
        run: fig_stencil,
    },
    Figure {
        name: "fig_iterate",
        run: fig_iterate,
    },
    Figure {
        name: "fig_fusion",
        run: fig_fusion,
    },
    Figure {
        name: "fig_executor",
        run: fig_executor,
    },
    Figure {
        name: "fig_allpairs",
        run: fig_allpairs,
    },
    Figure {
        name: "fig_reduce2d",
        run: fig_reduce2d,
    },
    Figure {
        name: "fig_skeletons",
        run: fig_skeletons,
    },
];

/// Figure 1's runtime comparison (`run_fig1`) at a reduced scale that keeps
/// the ledger run short; `figures fig1` prints the default-scale table.
fn fig1() {
    run_fig1(&MandelParams {
        width: 256,
        height: 192,
        max_iter: 1024,
        ..MandelParams::default()
    });
}

/// Figure 2's runtime comparison (`run_fig2`) on 1, 2 and 4 devices at
/// [`osem_bench_params`].
fn fig2() {
    run_fig2(&osem_bench_params(), &[1, 2, 4]);
}

/// Multi-GPU scaling of the Gaussian → Sobel Stencil2D pipeline over a
/// row-block matrix with halo exchange, 1 → 4 devices. The 4-device leg is
/// no slower than the 3-device one: the exchange between the two stencils
/// stages its halo rows through the host, each transfer on its own
/// device's copy engine, so a fourth device adds no serialised copy.
fn fig_stencil() {
    let legs: Vec<f64> = [1usize, 2, 3, 4]
        .into_iter()
        .map(|devices| stencil_scaling_virtual_s(1024, 1024, devices))
        .collect();
    let (x3, x4) = (legs[2], legs[3]);
    assert!(
        x4 <= x3,
        "blur_sobel on 4 devices ({x4}s) must be no slower than on 3 ({x3}s)"
    );
    println!(
        "fig_stencil check: 1024x1024 blur_sobel x3 {x3:.6}s, x4 {x4:.6}s ({:.3}x)",
        x3 / x4
    );
}

/// `Stencil2D::iterate(n)` (one halo exchange per block of rounds, its
/// block count priced from the platform's costs, on the copy stream under
/// the interior tiles, and one local-memory launch per block) vs `n`
/// chained `apply` calls, heat relaxation at 1024², n ∈ {1, 10, 100} ×
/// 1–4 devices. The batched schedule never loses, and wherever exchanges
/// happen (2+ devices) at n ≥ 10 it strictly wins. At n=100 × 4 it wins
/// ≥ 2× and keeps the copy engines busy under kernels.
///
/// Batched results are first re-verified bit-identical to the chain (on
/// top of `prop_stencil_iterate`), so the figure compares timelines, not
/// computations. Last, the online hazard checker's wall-clock cost on the
/// n=100 × 4 batched leg must stay within 2×.
fn fig_iterate() {
    assert_batched_bit_identity();
    let (rows, cols) = (1024usize, 1024usize);
    for n in [1usize, 10, 100] {
        for devices in [1usize, 2, 3, 4] {
            let chained = stencil_iterate_leg(rows, cols, devices, n, false, false).window_s;
            let report = stencil_iterate_leg(rows, cols, devices, n, true, false);
            let batched = report.window_s;
            assert!(
                batched <= chained,
                "batched iterate ({batched}s) must never lose to chained applies \
                 ({chained}s) at n={n} x{devices} device(s)"
            );
            if devices >= 2 && n >= 10 {
                assert!(
                    batched < chained,
                    "batched iterate ({batched}s) must strictly beat chained applies \
                     ({chained}s) at n={n} x{devices} device(s)"
                );
            }
            println!(
                "fig_iterate check: n={n} x{devices} device(s): chained {chained:.6}s, \
                 batched {batched:.6}s ({:.3}x)",
                chained / batched
            );
            if (n, devices) == (100, 4) {
                assert!(
                    chained / batched >= 2.0,
                    "batched win {:.3}x below the 2x bar at n=100 x4 devices",
                    chained / batched
                );
                // Copy-engine busy time concurrent with the same device's
                // compute engine must be strictly positive.
                let copy_under_kernels = report.total_overlap_s();
                assert!(
                    copy_under_kernels > 0.0,
                    "batched iterate shows no copy-engine busy time under kernels"
                );
                println!(
                    "fig_iterate check: copy-engine busy under kernels at n=100 x4 \
                     device(s): {copy_under_kernels:.6}s"
                );
            }
        }
    }

    // The checker's hard budget is 2× wall clock: the assert guards against
    // algorithmic blowups in the incremental happens-before graph, while
    // percent-level drift on a shared runner is noise. (That checking never
    // perturbs *modeled* time is pinned exactly by tests/checked_legs.rs.)
    let wall = |checked: bool| {
        let t0 = std::time::Instant::now();
        stencil_iterate_leg(rows, cols, 4, 100, true, checked);
        t0.elapsed().as_secs_f64()
    };
    // Interleave the repetitions so ambient machine load drifts both
    // minima equally instead of biasing whichever side ran last.
    let mut unchecked_s = f64::INFINITY;
    let mut checked_s = f64::INFINITY;
    for _ in 0..3 {
        unchecked_s = unchecked_s.min(wall(false));
        checked_s = checked_s.min(wall(true));
    }
    println!(
        "fig_iterate check: online hazard checker overhead at n=100 x4 device(s): \
         {:+.1}% wall-clock (unchecked {unchecked_s:.3}s, checked {checked_s:.3}s)",
        100.0 * (checked_s / unchecked_s - 1.0)
    );
    assert!(
        checked_s <= unchecked_s * 2.0,
        "online checker overhead {:.1}% exceeds the 2x wall-clock budget \
         (algorithmic regression in the checker?)",
        100.0 * (checked_s / unchecked_s - 1.0)
    );
}

fn to_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Batched results equal 10 chained applies bit for bit on 1, 2 and 4
/// devices.
fn assert_batched_bit_identity() {
    for devices in [1usize, 2, 4] {
        let ctx = skelcl::Context::new(
            skelcl::ContextConfig::default()
                .devices(devices)
                .cache_tag("fig-iterate-identity"),
        );
        let (rows, cols) = (96usize, 64usize);
        let data = skelcl_iterative::heat_plate(rows, cols);
        let st = skelcl_iterative::skelcl_impl::heat_skeleton();
        let mk = || {
            let m = Matrix::from_vec(&ctx, rows, cols, data.clone());
            m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
                .unwrap();
            m
        };
        let mut chained = mk();
        for _ in 0..10 {
            chained = st.apply(&chained).unwrap();
        }
        let batched = st.iterate(&mk(), 10).unwrap().to_vec().unwrap();
        assert_eq!(
            to_bits(&batched),
            to_bits(&chained.to_vec().unwrap()),
            "batched iterate diverged from chained applies on {devices} device(s)"
        );
    }
}

/// The lazy-`Pipeline` canny label chain, fused into one launch per part
/// that steps its three stencils through local-memory windows over one
/// 3-row halo, with zero intermediate matrices and no halo exchange, vs
/// the unfused six-skeleton chain with five materialised intermediates, a
/// launch and a window per stencil. Fused wins by ≥ 1.3× at every size and
/// device count, and its 4-device leg is no slower than its 1-device leg.
/// The unfused 4-device leg is no slower than its 2-device leg: its halo
/// exchanges stage their rows through the host, each transfer on its own
/// device's copy engine.
/// Read back to the host at 512², `canny_labels` (banded, each band's read
/// under the later bands' kernels) is no slower than `run` then `to_vec`
/// on every device count.
fn fig_fusion() {
    for size in [256usize, 384, 512] {
        let (mut fused_x1, mut unfused_x2) = (f64::NAN, f64::NAN);
        for devices in [1usize, 2, 4] {
            let unfused = canny_virtual_s(size, size, devices, CannyLeg::Unfused);
            let fused = canny_virtual_s(size, size, devices, CannyLeg::Fused);
            let speedup = unfused / fused;
            assert!(
                speedup >= 1.3,
                "fused canny ({fused}s) must beat the unfused chain ({unfused}s) \
                 by >= 1.3x at {size}x{size} on {devices} device(s), got {speedup:.3}x"
            );
            println!(
                "fig_fusion check: {size}x{size} x{devices} device(s): unfused {unfused:.6}s, \
                 fused {fused:.6}s ({speedup:.3}x)"
            );
            match devices {
                1 => fused_x1 = fused,
                2 => unfused_x2 = unfused,
                _ => {
                    assert!(
                        fused <= fused_x1,
                        "fused canny on 4 devices ({fused}s) must be no slower than on 1 \
                         ({fused_x1}s) at {size}x{size}"
                    );
                    assert!(
                        unfused <= unfused_x2,
                        "unfused canny on 4 devices ({unfused}s) must be no slower than on 2 \
                         ({unfused_x2}s) at {size}x{size}"
                    );
                }
            }
        }
    }
    for devices in [1usize, 2, 4] {
        let run_then_read = canny_virtual_s(512, 512, devices, CannyLeg::RunToVec);
        let to_host = canny_virtual_s(512, 512, devices, CannyLeg::ToHost);
        assert!(
            to_host <= run_then_read,
            "canny_labels ({to_host}s) must be no slower than run + to_vec \
             ({run_then_read}s) at 512x512 on {devices} device(s)"
        );
        println!(
            "fig_fusion check: 512x512 x{devices} device(s) to the host: run + to_vec \
             {run_then_read:.6}s, canny_labels {to_host:.6}s ({:.3}x)",
            run_then_read / to_host
        );
    }
}

fn job_bits(out: &JobOutput) -> Vec<u32> {
    match out {
        JobOutput::Scalar(s) => vec![s.to_bits()],
        JobOutput::Vector(v) => to_bits(v),
        JobOutput::Matrix { data, .. } => to_bits(data),
    }
}

/// The multi-tenant executor with 10³ synthetic clients:
///
/// * **Throughput** — 16 tenants × 64 small `a·x + b` jobs on 4 devices,
///   coalesced (`max_batch` 16) vs uncoalesced (`max_batch` 1). Coalescing
///   raises jobs/s in fewer launches, and both outputs are bit-identical to
///   each other and to serial single-job execution.
/// * **Fairness** — on one device a hog pre-loads 256 large jobs ahead of
///   three polite tenants' 16 small jobs each. Weighted round-robin keeps
///   the polite p99 under half of FIFO's, and the hog still finishes.
fn fig_executor() {
    let (devices, tenants, jobs_per_tenant) = (4usize, 16usize, 64usize);
    let n_jobs = tenants * jobs_per_tenant;
    let [unc, coa] = [false, true]
        .map(|coalesced| run_executor_throughput_leg(devices, tenants, jobs_per_tenant, coalesced));
    let [fifo, wrr] =
        [SchedulingMode::Fifo, SchedulingMode::WeightedRoundRobin].map(run_executor_fairness_leg);

    assert!(
        coa.jobs_per_s > unc.jobs_per_s,
        "coalescing must raise throughput: {:.1} vs {:.1} jobs/s",
        coa.jobs_per_s,
        unc.jobs_per_s
    );
    assert!(
        coa.batches < unc.batches,
        "coalescing must reduce launches: {} vs {} batches for {n_jobs} jobs",
        coa.batches,
        unc.batches
    );
    assert_eq!(
        unc.batches as usize, n_jobs,
        "max_batch=1 launches every job alone"
    );
    println!(
        "fig_executor check: {n_jobs} jobs x{devices} device(s): uncoalesced \
         {:.1} jobs/s (p99 {:.3e} s), coalesced {:.1} jobs/s (p99 {:.3e} s), {:.2}x \
         throughput in {} launches",
        unc.jobs_per_s,
        unc.latency.p99.unwrap_or(0.0),
        coa.jobs_per_s,
        coa.latency.p99.unwrap_or(0.0),
        coa.jobs_per_s / unc.jobs_per_s,
        coa.batches,
    );

    assert_eq!(coa.outputs.len(), n_jobs);
    assert_eq!(unc.outputs.len(), n_jobs);
    for (i, (a, b)) in coa.outputs.iter().zip(&unc.outputs).enumerate() {
        assert_eq!(
            job_bits(a),
            job_bits(b),
            "coalesced and uncoalesced outputs diverged at job {i}"
        );
    }
    // Every job re-run alone on a private context matches the served output.
    let ctx = skelcl::Context::new(
        skelcl::ContextConfig::default()
            .devices(devices)
            .cache_tag("fig-executor-serial"),
    );
    for j in 0..jobs_per_tenant {
        for t in 0..tenants {
            let job = executor_client_job(t, j, 512);
            let (expect, _) = run_job(&ctx, t % devices, &job).unwrap();
            assert_eq!(
                job_bits(&coa.outputs[j * tenants + t]),
                job_bits(&expect),
                "served output for client {t} job {j} diverged from serial execution"
            );
        }
    }
    println!(
        "fig_executor check: all {n_jobs} outputs bit-identical across coalesced, \
         uncoalesced and serial execution"
    );

    assert_eq!(wrr.polite_done, fifo.polite_done);
    assert_eq!(
        wrr.hog_done, 256,
        "the hog itself must not be starved either"
    );
    assert!(
        wrr.polite_p99_s < fifo.polite_p99_s / 2.0,
        "round-robin must bound polite-tenant p99 under a flood: wrr {:.3e} s vs fifo {:.3e} s",
        wrr.polite_p99_s,
        fifo.polite_p99_s
    );
    println!(
        "fig_executor check: polite p99 under 256-job flood: fifo {:.3e} s, wrr {:.3e} s \
         ({:.1}x isolation); hog p99 fifo {:.3e} s, wrr {:.3e} s",
        fifo.polite_p99_s,
        wrr.polite_p99_s,
        fifo.polite_p99_s / wrr.polite_p99_s,
        fifo.hog_p99_s,
        wrr.hog_p99_s,
    );
}

/// AllPairs matrix multiplication, naive vs local-memory tiled, over
/// 256² → 1024² × 1/2/4 devices. Tiled wins at 1024² on every device count.
fn fig_allpairs() {
    for size in [256usize, 512, 1024] {
        for devices in [1usize, 2, 4] {
            let naive = allpairs_virtual_s(size, devices, AllPairsStrategy::Naive);
            let tiled = allpairs_virtual_s(size, devices, AllPairsStrategy::Tiled { tile: 16 });
            if size == 1024 {
                assert!(
                    tiled < naive,
                    "tiled ({tiled}s) must beat naive ({naive}s) at 1024^2 on {devices} \
                     device(s)"
                );
                println!(
                    "fig_allpairs check: 1024^2 x{devices} devices: naive {naive:.4}s, \
                     tiled {tiled:.4}s ({:.1}x)",
                    naive / tiled
                );
            }
        }
    }
}

/// The device-resident 1-NN pipeline (distance matrix + `ReduceRowsArg`
/// argmin, two length-`q` downloads) vs downloading the whole `q×p`
/// distance matrix for a host argmin, over 512² → 1024² × 1 → 4 devices.
/// The device side wins everywhere.
fn fig_reduce2d() {
    for size in [512usize, 768, 1024] {
        for devices in [1usize, 2, 3, 4] {
            let host = nn_virtual_s(size, size, 16, devices, false);
            let device = nn_virtual_s(size, size, 16, devices, true);
            assert!(
                device < host,
                "device-side 1-NN ({device}s) must beat download-and-host-argmin \
                 ({host}s) at {size}x{size} on {devices} device(s)"
            );
            println!(
                "fig_reduce2d check: {size}x{size} x{devices} device(s): host {host:.6}s, \
                 device {device:.6}s ({:.3}x)",
                host / device
            );
        }
    }
}

/// The library-level skeleton figure, one device unless noted:
///
/// * the four basic skeletons over device-resident vectors of 2¹⁶ and 2²⁰
///   floats;
/// * **E9** — the local-memory tree Reduce and bank-conflict-free Scan
///   beat their naive counterparts;
/// * **E8** — the chained dot product with its intermediate kept on the
///   device (lazy copying) beats an eager host round trip;
/// * **E10** — a compute-heavy block-distributed `Map` on 4 devices beats
///   1.
fn fig_skeletons() {
    for n in [1usize << 16, 1 << 20] {
        elementwise_virtual_s(n, false);
        elementwise_virtual_s(n, true);
        reduce_virtual_s(n, ReduceStrategy::default());
        scan_virtual_s(n, ScanStrategy::default());
    }

    for n in [1usize << 18, 1 << 21] {
        let tree = reduce_virtual_s(n, ReduceStrategy::LocalTree);
        let naive = reduce_virtual_s(n, ReduceStrategy::GlobalNaive);
        let bank_aware = scan_virtual_s(n, ScanStrategy::BankAware);
        let conflicting = scan_virtual_s(n, ScanStrategy::Conflicting);
        assert!(
            naive > tree,
            "local-memory tree reduce ({tree}s) must beat the naive one ({naive}s) at n={n}"
        );
        assert!(
            conflicting > bank_aware,
            "bank-aware scan ({bank_aware}s) must beat the conflicting one ({conflicting}s) \
             at n={n}"
        );
        println!(
            "fig_skeletons check: n={n}: reduce local tree {tree:.6e}s vs naive {naive:.6e}s \
             ({:.2}x); scan bank-aware {bank_aware:.6e}s vs conflicting {conflicting:.6e}s \
             ({:.2}x)",
            naive / tree,
            conflicting / bank_aware
        );
    }

    for n in [1usize << 16, 1 << 20] {
        let lazy = dot_chain_virtual_s(n, false);
        let eager = dot_chain_virtual_s(n, true);
        assert!(
            lazy < eager,
            "the lazy chain ({lazy}s) must beat the eager round trip ({eager}s) at n={n}"
        );
        println!(
            "fig_skeletons check: dot n={n}: lazy {lazy:.6e}s, eager {eager:.6e}s ({:.2}x)",
            eager / lazy
        );
    }

    let heavy_n = 1usize << 22;
    let [one, _, four] = [1usize, 2, 4].map(|devices| map_scaling_virtual_s(heavy_n, devices));
    assert!(
        four < one,
        "block map on 4 devices ({four}s) must beat 1 device ({one}s)"
    );
    println!(
        "fig_skeletons check: heavy block map n={heavy_n}: x1 {one:.6e}s, x4 {four:.6e}s \
         ({:.2}x)",
        one / four
    );
}
