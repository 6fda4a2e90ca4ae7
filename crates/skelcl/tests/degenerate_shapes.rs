//! Degenerate-shape regression suite: matrices and vectors whose extents
//! are smaller than the device count (empty parts), 1×N / N×1 shapes, and
//! stencil radii that meet or exceed a part's height (clamped halos).
//!
//! These shapes exercise every zero-sized-part guard in the stack — empty
//! uploads/downloads, skipped launches, halo exchange over empty parts,
//! redistribution with empty parts on either side — and pin down that the
//! `halo.min(rows)` clamp in the RowBlock layout is *lossless*: a halo of
//! the full matrix height already holds every row within reach of any
//! wrapped or clamped neighbour access, so results stay bit-identical to
//! the sequential reference even when the radius exceeds the matrix.

mod common;

use common::host_stencil;
use skelcl::*;

fn ctx(n: usize) -> Context {
    Context::new(
        ContextConfig::default()
            .devices(n)
            .spec(vgpu::DeviceSpec::tiny())
            .work_group(64)
            .cache_tag("degenerate-shapes"),
    )
}

/// The 4-point radius-`r` cross's per-cell math over a tap `at(dr, dc)`.
fn far_at(r: isize, at: impl Fn(isize, isize) -> f32) -> f32 {
    at(-r, 0) + at(r, 0) + at(0, -r) + at(0, r)
}

fn far_stencil(
    radius: usize,
    boundary: Boundary2D,
) -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    let r = radius as isize;
    let user = UserFn::new(
        "far",
        "float far(__global float* in, int r, int c, uint nr, uint nc) { /* 4-point radius-r cross */ }",
        move |v: &Stencil2DView<'_, f32>| far_at(r, |dr, dc| v.get(dr, dc)),
    );
    Stencil2D::new(user, radius, boundary)
}

fn image(rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| ((i * 37) % 101) as f32 - 50.0)
        .collect()
}

// The halo clamp regression: radii up to several times the matrix height,
// on matrices down to one row/column, across 1–4 devices and every
// boundary mode, must match the sequential reference exactly. (The
// RowBlock layout clamps the stencil-requested halo to the matrix height;
// this pins down that the clamp never changes an answer.)
#[test]
fn radius_at_or_beyond_part_height_matches_reference() {
    // The N×1 shapes are 1-D stencils (SkelCL's MapOverlap): `(2, 1)` leaves
    // empty parts on 4 devices, and `(101, 1)` has parts taller than every
    // radius, so only its halo rows cross devices.
    for (rows, cols) in [
        (1usize, 5usize),
        (5, 1),
        (2, 1),
        (101, 1),
        (2, 3),
        (3, 4),
        (4, 4),
    ] {
        for radius in [1usize, 2, 3, 5, 7] {
            for devices in [1usize, 2, 3, 4] {
                for boundary in [Boundary2D::Neumann, Boundary2D::Wrap, Boundary2D::Zero] {
                    let data = image(rows, cols);
                    let c = ctx(devices);
                    let m = Matrix::from_vec(&c, rows, cols, data.clone());
                    m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
                        .unwrap();
                    let got = far_stencil(radius, boundary)
                        .apply(&m)
                        .unwrap()
                        .to_vec()
                        .unwrap();
                    let r = radius as isize;
                    let want = host_stencil(&data, (rows, cols), boundary, |at| far_at(r, at));
                    assert_eq!(
                        got, want,
                        "{rows}x{cols} radius {radius} on {devices} device(s), {boundary:?}"
                    );
                }
            }
        }
    }
}

// The iterate path drives its own per-round batched exchange on the
// clamped-halo part sets; it and chained applies must stay bit-identical
// to three host passes.
#[test]
fn wide_radius_iterate_matches_chained_applies() {
    for (rows, cols) in [(2usize, 3usize), (3, 4), (1, 4)] {
        for radius in [2usize, 4] {
            for devices in [1usize, 2, 4] {
                for boundary in [Boundary2D::Neumann, Boundary2D::Wrap, Boundary2D::Zero] {
                    let data = image(rows, cols);
                    let c = ctx(devices);
                    let st = far_stencil(radius, boundary);
                    let m = Matrix::from_vec(&c, rows, cols, data.clone());
                    let got = st.iterate(&m, 3).unwrap().to_vec().unwrap();
                    let m2 = Matrix::from_vec(&c, rows, cols, data.clone());
                    let mut cur = st.apply(&m2).unwrap();
                    for _ in 1..3 {
                        cur = st.apply(&cur).unwrap();
                    }
                    let chained = cur.to_vec().unwrap();
                    let r = radius as isize;
                    let host = (0..3).fold(data, |cur, _| {
                        host_stencil(&cur, (rows, cols), boundary, |at| far_at(r, at))
                    });
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let at = format!(
                        "{rows}x{cols} radius {radius} on {devices} device(s), {boundary:?}"
                    );
                    assert_eq!(bits(&chained), bits(&host), "chained applies, {at}");
                    assert_eq!(bits(&got), bits(&chained), "iterate, {at}");
                }
            }
        }
    }
}

// Vectors shorter than the device count leave empty Block parts; every 1D
// skeleton must skip them without phantom launches or wrong answers.
#[test]
fn tiny_vectors_on_many_devices() {
    for len in [1usize, 2, 3] {
        for devices in [2usize, 4] {
            let c = ctx(devices);
            let v = Vector::from_vec(&c, (0..len).map(|i| i as f32 + 1.0).collect());
            v.set_distribution(Distribution::Block).unwrap();
            let s = Reduce::new(
                skel_fn!(
                    fn sum(x: f32, y: f32) -> f32 {
                        x + y
                    }
                ),
                0.0,
            )
            .apply(&v)
            .unwrap();
            assert_eq!(
                s.get_value(),
                (1..=len).sum::<usize>() as f32,
                "reduce len={len} d={devices}"
            );
            let sc = Scan::new(
                skel_fn!(
                    fn sum2(x: f32, y: f32) -> f32 {
                        x + y
                    }
                ),
                0.0,
            )
            .apply(&v)
            .unwrap();
            let want: Vec<f32> = (0..len)
                .map(|i| (0..i).map(|j| j as f32 + 1.0).sum())
                .collect();
            assert_eq!(sc.to_vec().unwrap(), want, "scan len={len} d={devices}");
        }
    }
}

// Redistribution chains over 1×N, N×1 and smaller-than-device-count
// matrices must be the identity, with empty parts on either side of every
// hop.
#[test]
fn tiny_matrix_redistribution_chains_are_the_identity() {
    for (rows, cols) in [(1usize, 5usize), (5, 1), (2, 3), (3, 2), (1, 1)] {
        for devices in [2usize, 4] {
            let data: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
            let c = ctx(devices);
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
                .unwrap();
            m.ensure_on_devices().unwrap();
            m.mark_devices_modified();
            for d in [
                MatrixDistribution::ColBlock,
                MatrixDistribution::Single(devices - 1),
                MatrixDistribution::RowBlock { halo: 2 },
                MatrixDistribution::Copy,
                MatrixDistribution::ColBlock,
                MatrixDistribution::RowBlock { halo: 0 },
            ] {
                m.set_distribution(d).unwrap();
            }
            assert_eq!(m.to_vec().unwrap(), data, "{rows}x{cols} d={devices}");
        }
    }
}

// Element-wise matrix skeletons over column-split degenerate shapes.
#[test]
fn zip_matrix_tiny_shapes() {
    for (rows, cols) in [(1usize, 4usize), (4, 1), (2, 3)] {
        for devices in [2usize, 4] {
            let c = ctx(devices);
            let a = Matrix::from_fn(&c, rows, cols, |r, cc| (r * cols + cc) as f32);
            let b = Matrix::from_fn(&c, rows, cols, |_, _| 2.0f32);
            a.set_distribution(MatrixDistribution::ColBlock).unwrap();
            b.set_distribution(MatrixDistribution::ColBlock).unwrap();
            let z = Zip::new(skel_fn!(
                fn mul(x: f32, y: f32) -> f32 {
                    x * y
                }
            ));
            let out = z.apply_matrix(&a, &b).unwrap().to_vec().unwrap();
            let want: Vec<f32> = (0..rows * cols).map(|i| i as f32 * 2.0).collect();
            assert_eq!(out, want, "{rows}x{cols} d={devices}");
        }
    }
}

// rows < devices: the two empty parts must neither launch nor fabricate
// halo-exchange events — iterate(n) on stale Wrap input counts exactly n.
#[test]
fn exchange_events_on_tiny_matrices_count_exactly() {
    let c = ctx(4);
    let m = Matrix::from_vec(&c, 2, 3, (0..6).map(|i| i as f32).collect());
    m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .unwrap();
    m.ensure_on_devices().unwrap();
    m.mark_devices_modified();
    let st = Stencil2D::new(
        UserFn::new(
            "idp",
            "float idp(__global float* in, int r, int c, uint nr, uint nc) { /* +-1 rows */ }",
            |v: &Stencil2DView<'_, f32>| v.get(-1, 0) + v.get(1, 0),
        ),
        1,
        Boundary2D::Wrap,
    );
    let base = c.halo_exchange_count();
    st.iterate(&m, 5).unwrap();
    assert_eq!(
        c.halo_exchange_count() - base,
        5,
        "one-row parts block one round at a time: one exchange event per \
         iteration, empty parts contribute none"
    );
}

// 2D reductions over empty-part layouts (the tentpole's own degenerate
// edge): rows/cols below the device count, every distribution.
#[test]
fn reduce2d_with_empty_parts_matches_host_folds() {
    for (rows, cols) in [(1usize, 6usize), (6, 1), (2, 2)] {
        let data = image(rows, cols);
        let want_rows: Vec<f32> = (0..rows)
            .map(|r| {
                data[r * cols..(r + 1) * cols]
                    .iter()
                    .fold(0.0, |a, &x| a + x)
            })
            .collect();
        let want_cols: Vec<f32> = (0..cols)
            .map(|c| (0..rows).fold(0.0, |a, r| a + data[r * cols + c]))
            .collect();
        for devices in [2usize, 4] {
            for dist in [
                MatrixDistribution::RowBlock { halo: 1 },
                MatrixDistribution::ColBlock,
                MatrixDistribution::Copy,
            ] {
                let c = ctx(devices);
                let m = Matrix::from_vec(&c, rows, cols, data.clone());
                m.set_distribution(dist).unwrap();
                let rr = ReduceRows::new(
                    skel_fn!(
                        fn s1(x: f32, y: f32) -> f32 {
                            x + y
                        }
                    ),
                    0.0,
                )
                .apply(&m)
                .unwrap();
                let rc = ReduceCols::new(
                    skel_fn!(
                        fn s2(x: f32, y: f32) -> f32 {
                            x + y
                        }
                    ),
                    0.0,
                )
                .apply(&m)
                .unwrap();
                assert_eq!(
                    rr.to_vec().unwrap(),
                    want_rows,
                    "{rows}x{cols} {devices} {dist:?}"
                );
                assert_eq!(
                    rc.to_vec().unwrap(),
                    want_cols,
                    "{rows}x{cols} {devices} {dist:?}"
                );
            }
        }
    }
}

// A pipeline's row fold over a matrix with nothing to fold returns the
// identity per row, and one with no rows the empty vector — stage-free and
// after a map, on every distribution. A product from 1 tells the identity
// from a zero-filled buffer.
#[test]
fn zero_extent_pipeline_folds_return_the_identity() {
    let mul = || {
        skel_fn!(
            fn pmul(x: f32, y: f32) -> f32 {
                x * y
            }
        )
    };
    let twice = || {
        skel_fn!(
            fn twice(x: f32) -> f32 {
                x * 2.0
            }
        )
    };
    for (rows, cols) in [(4usize, 0usize), (0, 5)] {
        for devices in [1usize, 2] {
            for dist in [
                MatrixDistribution::Single(0),
                MatrixDistribution::Copy,
                MatrixDistribution::RowBlock { halo: 0 },
                MatrixDistribution::RowBlock { halo: 2 },
                MatrixDistribution::ColBlock,
            ] {
                let c = ctx(devices);
                let m = Matrix::from_vec(&c, rows, cols, Vec::<f32>::new());
                m.set_distribution(dist).unwrap();
                let stage_free = Pipeline::start::<f32>()
                    .reduce_rows(&m, mul(), 1.0)
                    .unwrap();
                let mapped = Pipeline::start::<f32>()
                    .map(twice())
                    .reduce_rows(&m, mul(), 1.0)
                    .unwrap();
                let want = vec![1.0f32; rows];
                let at = format!("{rows}x{cols} {devices} {dist:?}");
                assert_eq!(stage_free.to_vec().unwrap(), want, "{at}");
                assert_eq!(mapped.to_vec().unwrap(), want, "{at}");
            }
        }
    }
}
