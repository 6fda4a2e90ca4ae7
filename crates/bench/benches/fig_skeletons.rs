//! The library-level skeleton figure, one device unless noted:
//!
//! * the four basic skeletons (`Map`, `Zip`, `Reduce`, `Scan`) over
//!   device-resident vectors of 2¹⁶ and 2²⁰ floats;
//! * **E9** — the paper's local-memory tree Reduce and bank-conflict-free
//!   Scan against their naive counterparts, which must lose;
//! * **E8** — the chained dot product `sum(mult(A, B))` with the
//!   intermediate kept on the device (lazy copying) against an eager host
//!   round trip, which must lose;
//! * **E10** — a compute-heavy `Map` over a block-distributed vector on
//!   1, 2 and 4 devices; 4 devices must beat 1.
//!
//! Reports virtual (modeled) seconds; every leg records one ledger leg
//! (`fig_skeletons <op> [strategy] n=<N> x<D>`).

use criterion::{criterion_group, criterion_main, Criterion};
use skelcl::{ReduceStrategy, ScanStrategy};
use skelcl_bench::{
    dot_chain_virtual_s, elementwise_virtual_s, map_scaling_virtual_s, reduce_virtual_s,
    scan_virtual_s, VirtualSweep,
};

fn bench_skeletons(c: &mut Criterion) {
    let sweep = VirtualSweep::new();
    let mut group = VirtualSweep::group(c, "fig_skeletons_virtual");

    for n in [1usize << 16, 1 << 20] {
        for (name, zip) in [("map", false), ("zip", true)] {
            sweep.bench(&mut group, name.to_string(), n, (n, 1, name), move || {
                elementwise_virtual_s(n, zip)
            });
        }
        sweep.bench(
            &mut group,
            "reduce".to_string(),
            n,
            (n, 1, "reduce"),
            move || reduce_virtual_s(n, ReduceStrategy::default()),
        );
        sweep.bench(
            &mut group,
            "scan".to_string(),
            n,
            (n, 1, "scan"),
            move || scan_virtual_s(n, ScanStrategy::default()),
        );
    }

    for n in [1usize << 18, 1 << 21] {
        for (name, strategy) in [
            ("reduce_local_tree", ReduceStrategy::LocalTree),
            ("reduce_global_naive", ReduceStrategy::GlobalNaive),
        ] {
            sweep.bench(&mut group, name.to_string(), n, (n, 1, name), move || {
                reduce_virtual_s(n, strategy)
            });
        }
        for (name, strategy) in [
            ("scan_bank_aware", ScanStrategy::BankAware),
            ("scan_conflicting", ScanStrategy::Conflicting),
        ] {
            sweep.bench(&mut group, name.to_string(), n, (n, 1, name), move || {
                scan_virtual_s(n, strategy)
            });
        }
    }

    for n in [1usize << 16, 1 << 20] {
        for (name, eager) in [("lazy_chain", false), ("eager_roundtrip", true)] {
            sweep.bench(
                &mut group,
                format!("dot_{name}"),
                n,
                (n, 1, name),
                move || dot_chain_virtual_s(n, eager),
            );
        }
    }

    let heavy_n = 1usize << 22;
    for devices in [1usize, 2, 4] {
        sweep.bench(
            &mut group,
            "heavy_map_block".to_string(),
            devices,
            (heavy_n, devices, "heavy_map"),
            move || map_scaling_virtual_s(heavy_n, devices),
        );
    }
    group.finish();

    // The acceptance relations the figure exists to show.
    for n in [1usize << 18, 1 << 21] {
        let tree = sweep.get((n, 1, "reduce_local_tree"));
        let naive = sweep.get((n, 1, "reduce_global_naive"));
        assert!(
            naive > tree,
            "local-memory tree reduce ({tree}s) must beat the naive one ({naive}s) at n={n}"
        );
        let bank_aware = sweep.get((n, 1, "scan_bank_aware"));
        let conflicting = sweep.get((n, 1, "scan_conflicting"));
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
        let lazy = sweep.get((n, 1, "lazy_chain"));
        let eager = sweep.get((n, 1, "eager_roundtrip"));
        assert!(
            lazy < eager,
            "the lazy chain ({lazy}s) must beat the eager round trip ({eager}s) at n={n}"
        );
        println!(
            "fig_skeletons check: dot n={n}: lazy {lazy:.6e}s, eager {eager:.6e}s ({:.2}x)",
            eager / lazy
        );
    }
    let one = sweep.get((heavy_n, 1, "heavy_map"));
    let four = sweep.get((heavy_n, 4, "heavy_map"));
    assert!(
        four < one,
        "block map on 4 devices ({four}s) must beat 1 device ({one}s)"
    );
    println!(
        "fig_skeletons check: heavy block map n={heavy_n}: x1 {one:.6e}s, x4 {four:.6e}s \
         ({:.2}x)",
        one / four
    );

    // Perf ledger: persist this figure's measured legs when
    // SKELCL_LEDGER_DIR is set (see skelcl_bench::ledger).
    skelcl_bench::ledger::write_fig("fig_skeletons");
}

criterion_group! {
    name = benches;
    // Virtual-time samples have zero variance, which breaks the plotting
    // backend; plots add nothing here anyway.
    config = Criterion::default().without_plots();
    targets = bench_skeletons
}
criterion_main!(benches);
