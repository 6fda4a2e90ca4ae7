//! Property-based tests of the Matrix / Stencil2D subsystem: stencils agree
//! with a sequential reference for arbitrary shapes, radii, boundary modes,
//! device counts and halo widths, and row-block distribution round trips
//! (scatter → halo exchange → gather) are the identity.

mod common;

use common::host_stencil;
use proptest::prelude::*;
use skelcl::{
    Boundary2D, Context, ContextConfig, Matrix, MatrixDistribution, Stencil2D, Stencil2DView,
    UserFn,
};
use vgpu::DeviceSpec;

fn ctx(n_devices: usize) -> Context {
    Context::new(
        ContextConfig::default()
            .devices(n_devices)
            .spec(DeviceSpec::tiny())
            .work_group(64)
            .cache_tag("prop-matrix"),
    )
}

fn boundary_strategy() -> impl Strategy<Value = Boundary2D> {
    prop_oneof![
        Just(Boundary2D::Neumann),
        Just(Boundary2D::Wrap),
        Just(Boundary2D::Zero),
    ]
}

fn dist_strategy() -> impl Strategy<Value = MatrixDistribution> {
    prop_oneof![
        Just(MatrixDistribution::Single(0)),
        Just(MatrixDistribution::Copy),
        (0usize..4).prop_map(|halo| MatrixDistribution::RowBlock { halo }),
    ]
}

fn dist_strategy_with_col_block() -> impl Strategy<Value = MatrixDistribution> {
    prop_oneof![
        Just(MatrixDistribution::Single(0)),
        Just(MatrixDistribution::Copy),
        Just(MatrixDistribution::ColBlock),
        (0usize..4).prop_map(|halo| MatrixDistribution::RowBlock { halo }),
    ]
}

/// The radius-1 cross's per-cell math over a tap `at(dr, dc)`.
fn cross_at(at: impl Fn(isize, isize) -> f32) -> f32 {
    at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1) + 2.0 * at(0, 0)
}

fn cross_stencil(
    boundary: Boundary2D,
) -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    let user = UserFn::new(
        "pcross",
        "float pcross(__global float* in, int r, int c, uint nr, uint nc) { /* cross */ }",
        |v: &Stencil2DView<'_, f32>| cross_at(|dr, dc| v.get(dr, dc)),
    );
    Stencil2D::new(user, 1, boundary)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Stencil2D == sequential reference, for every shape / boundary /
    // device count / starting distribution.
    #[test]
    fn stencil2d_matches_sequential_reference(
        rows in 1usize..24,
        cols in 1usize..16,
        devices in 1usize..4,
        boundary in boundary_strategy(),
        dist in dist_strategy(),
        seed in 0u32..1000,
    ) {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 2000) as f32)
                - 1000.0)
            .collect();
        let c = ctx(devices);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(dist).unwrap();
        let got = cross_stencil(boundary).apply(&m).unwrap().to_vec().unwrap();
        let want = host_stencil(&data, (rows, cols), boundary, |at| cross_at(at));
        prop_assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    // Scatter → halo exchange → gather is the identity, whatever the halo.
    #[test]
    fn row_block_round_trip_is_identity(
        rows in 1usize..40,
        cols in 1usize..12,
        devices in 1usize..=4,
        halo in 0usize..5,
    ) {
        let data: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
        let c = ctx(devices);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(MatrixDistribution::RowBlock { halo }).unwrap();
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified(); // device copies become the truth
        m.halo_exchange().unwrap();
        prop_assert_eq!(m.to_vec().unwrap(), data);
    }

    // RowBlock ↔ ColBlock ↔ Single: every device-side redistribution path
    // through row- and column-based layouts is the identity on the data,
    // over random shapes, device counts and halo widths.
    #[test]
    fn row_col_single_redistribution_round_trip_is_identity(
        rows in 1usize..28,
        cols in 1usize..14,
        devices in 1usize..=4,
        halo in 0usize..4,
        path in prop::collection::vec(dist_strategy_with_col_block(), 1..6),
    ) {
        let data: Vec<f32> = (0..rows * cols).map(|i| (i * 13 % 89) as f32).collect();
        let c = ctx(devices);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(MatrixDistribution::RowBlock { halo }).unwrap();
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified(); // device copies become the truth
        let before = c.platform().stats_snapshot();
        for d in path {
            m.set_distribution(d).unwrap();
        }
        // Explicit round trip through the column layout and back.
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        m.set_distribution(MatrixDistribution::Single(0)).unwrap();
        m.set_distribution(MatrixDistribution::RowBlock { halo }).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        prop_assert_eq!(delta.h2d_transfers, 0, "redistribution must stay device-side");
        prop_assert_eq!(m.to_vec().unwrap(), data);
    }

    // Arbitrary redistribution paths never lose data.
    #[test]
    fn redistribution_paths_preserve_data(
        rows in 1usize..30,
        cols in 1usize..10,
        devices in 1usize..=4,
        path in prop::collection::vec(dist_strategy(), 1..5),
    ) {
        let data: Vec<f32> = (0..rows * cols).map(|i| (i * 7 % 97) as f32).collect();
        let c = ctx(devices);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        for d in path {
            m.set_distribution(d).unwrap();
        }
        prop_assert_eq!(m.to_vec().unwrap(), data);
    }

    // After an exchange, every part's full span (halos included) agrees
    // with the owners — the coherence invariant behind Stencil2D.
    #[test]
    fn halo_rows_agree_with_owners_after_exchange(
        rows in 2usize..24,
        cols in 1usize..8,
        devices in 2usize..4,
        halo in 1usize..4,
    ) {
        // Stamp global row r with the value r, upload under RowBlock, then
        // pretend a kernel rewrote the owned rows so the halos are stale.
        let c = ctx(devices);
        let m = Matrix::from_fn(&c, rows, cols, |r, _| r as f32);
        m.set_distribution(MatrixDistribution::RowBlock { halo }).unwrap();
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        m.halo_exchange().unwrap();
        // A stencil that reads one row above and below must see exactly the
        // owner rows' values, under Wrap so edges read wrapped rows.
        let user = UserFn::new(
            "probe",
            "float probe(__global float* in, int r, int c, uint nr, uint nc) { /* sum +-halo */ }",
            move |v: &Stencil2DView<'_, f32>| v.get(-1, 0) + v.get(1, 0),
        );
        let st = Stencil2D::new(user, 1, Boundary2D::Wrap);
        let got = st.apply(&m).unwrap().to_vec().unwrap();
        for r in 0..rows {
            let up = ((r + rows - 1) % rows) as f32;
            let down = ((r + 1) % rows) as f32;
            for col in 0..cols {
                prop_assert_eq!(got[r * cols + col], up + down);
            }
        }
    }
}
