//! The async-overlap figure: what the multi-queue subsystem buys on the
//! two rebuilt hot paths.
//!
//! * **Iterate leg** — `Stencil2D::iterate` (interior/boundary split, halo
//!   exchange on the copy stream under the interior kernels) vs the serial
//!   schedule (`iterate_serial`), heat relaxation at 1024², n ∈ {10, 100}
//!   × 1/2/4 devices. The overlapped schedule must never lose, and at
//!   n=100 × 4 devices it must win ≥ 1.2× (the acceptance bar).
//! * **Upload leg** — `Stencil2D::apply_streamed` (row-chunked upload on
//!   the copy stream, banded kernels overlapping it) vs the blocking
//!   upload + single kernel, 5×5 box stencil at 1024² × 1/2/4 devices.
//!   Streamed must beat blocking at every device count.
//!
//! Both legs are bit-identical to their serial twins — re-verified below
//! across 1/2/4 devices on top of the `prop_overlap` suite — so the figure
//! isolates the modeled-timeline difference. Reports virtual seconds.

use criterion::{criterion_group, criterion_main, Criterion};
use skelcl::{Matrix, MatrixDistribution};
use skelcl_bench::{
    ledger, overlap_iterate_checked_virtual_s, overlap_iterate_report, overlap_iterate_virtual_s,
    overlap_upload_virtual_s, upload_stencil, VirtualSweep,
};
use std::cell::Cell;

/// Overlapped results must equal serial results bit for bit on every
/// device count — the figure compares schedules, not computations.
fn assert_bit_identity() {
    for devices in [1usize, 2, 4] {
        let ctx = skelcl::Context::new(
            skelcl::ContextConfig::default()
                .devices(devices)
                .cache_tag("fig-overlap-identity"),
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
        let serial = st.iterate_serial(&mk(), 10).unwrap().to_vec().unwrap();
        let overlapped = st.iterate(&mk(), 10).unwrap().to_vec().unwrap();
        assert_eq!(
            overlapped.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "overlapped iterate diverged on {devices} device(s)"
        );

        let box5 = upload_stencil();
        let blocking = box5.apply(&mk()).unwrap().to_vec().unwrap();
        let streamed = box5.apply_streamed(&mk(), 16).unwrap().to_vec().unwrap();
        assert_eq!(
            streamed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            blocking.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "streamed upload diverged on {devices} device(s)"
        );
    }
}

fn bench_overlap(c: &mut Criterion) {
    assert_bit_identity();

    let sweep = VirtualSweep::new();
    let mut group = VirtualSweep::group(c, "fig_overlap_virtual");
    let (rows, cols) = (1024usize, 1024usize);
    let chunk_rows = 64usize;
    // Copy-engine busy time under kernels, read from the measured
    // n=100 x4 overlapped leg's report.
    let copy_under_kernels = Cell::new(0.0);

    for n in [10usize, 100] {
        for devices in [1usize, 2, 4] {
            for (name, overlapped) in [("serial_iterate", false), ("overlapped_iterate", true)] {
                sweep.bench(
                    &mut group,
                    format!("heat_{name}_n{n}"),
                    devices,
                    (n, devices, name),
                    || {
                        let report = overlap_iterate_report(rows, cols, devices, n, overlapped);
                        if (n, devices, overlapped) == (100, 4, true) {
                            copy_under_kernels.set(report.total_overlap_s());
                        }
                        report.window_s
                    },
                );
            }
        }
    }
    for devices in [1usize, 2, 4] {
        for (name, streamed) in [("blocking_upload", false), ("streamed_upload", true)] {
            sweep.bench(
                &mut group,
                format!("box5_{name}_{rows}"),
                devices,
                (rows, devices, name),
                || overlap_upload_virtual_s(rows, cols, devices, chunk_rows, streamed),
            );
        }
    }
    group.finish();

    // The acceptance relations the figure exists to show.
    for n in [10usize, 100] {
        for devices in [1usize, 2, 4] {
            let serial = sweep.get((n, devices, "serial_iterate"));
            let overlapped = sweep.get((n, devices, "overlapped_iterate"));
            assert!(
                overlapped <= serial + 1e-12,
                "overlapped iterate ({overlapped}s) must never lose to serial \
                 ({serial}s) at n={n} x{devices} device(s)"
            );
            if n == 100 && devices == 4 {
                assert!(
                    serial / overlapped >= 1.2,
                    "overlap win {:.3}x below the 1.2x bar at n=100 x4 devices",
                    serial / overlapped
                );
            }
            println!(
                "fig_overlap check: iterate n={n} x{devices} device(s): serial {serial:.6}s, \
                 overlapped {overlapped:.6}s ({:.3}x)",
                serial / overlapped
            );
        }
    }
    // The copies-under-kernels claim, from engine-utilization metrics:
    // during the overlapped schedule the copy engines must be busy while
    // the same device's compute engine is — strictly positive overlap.
    let copy_under_kernels = copy_under_kernels.get();
    assert!(
        copy_under_kernels > 0.0,
        "overlapped iterate shows no copy-engine busy time under kernels"
    );
    println!(
        "fig_overlap check: copy-engine busy under kernels at n=100 x4 device(s): \
         {copy_under_kernels:.6}s"
    );

    for devices in [1usize, 2, 4] {
        let blocking = sweep.get((rows, devices, "blocking_upload"));
        let streamed = sweep.get((rows, devices, "streamed_upload"));
        assert!(
            streamed < blocking,
            "streamed upload ({streamed}s) must beat blocking ({blocking}s) \
             at {rows}x{cols} on {devices} device(s)"
        );
        println!(
            "fig_overlap check: upload {rows}x{cols} x{devices} device(s): blocking \
             {blocking:.6}s, streamed {streamed:.6}s ({:.3}x)",
            blocking / streamed
        );
    }

    // The online hazard checker prices every enqueue through the
    // incremental happens-before graph; measure its wall-clock cost on
    // the heaviest leg (n=100 × 4 devices). The hard budget is 2× — the
    // assert guards against algorithmic blowups in the checker, while
    // percent-level drift on a shared runner is noise (the deterministic
    // guarantee that checking never perturbs *modeled* time lives in
    // tests/checked_legs.rs, which asserts exact equality). The checked
    // leg arms the checker through the public per-context API
    // (`overlap_iterate_checked_virtual_s`) rather than mutating the
    // process environment under a possibly-threaded harness.
    let wall = |checked: bool| {
        let t0 = std::time::Instant::now();
        if checked {
            overlap_iterate_checked_virtual_s(rows, cols, 4, 100, true);
        } else {
            overlap_iterate_virtual_s(rows, cols, 4, 100, true);
        }
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
        "fig_overlap check: online hazard checker overhead at n=100 x4 device(s): \
         {:+.1}% wall-clock (unchecked {unchecked_s:.3}s, checked {checked_s:.3}s)",
        100.0 * (checked_s / unchecked_s - 1.0)
    );
    assert!(
        checked_s <= unchecked_s * 2.0,
        "online checker overhead {:.1}% exceeds the 2x wall-clock budget \
         (algorithmic regression in the checker?)",
        100.0 * (checked_s / unchecked_s - 1.0)
    );

    // Perf ledger: when SKELCL_LEDGER_DIR is set, persist every measured
    // leg of this figure as BENCH_fig_overlap.json for the CI gate.
    ledger::write_fig("fig_overlap");
}

criterion_group! {
    name = benches;
    // Virtual-time samples have zero variance, which breaks the plotting
    // backend; plots add nothing here anyway.
    config = Criterion::default().without_plots();
    targets = bench_overlap
}
criterion_main!(benches);
