//! Property-based tests of the Matrix / Stencil2D subsystem: stencils agree
//! with a sequential reference for arbitrary shapes, radii, boundary modes,
//! device counts and halo widths, row-block distribution round trips
//! (scatter → halo exchange → gather) are the identity, and redistribution
//! moves each cell another device owns through the host exactly once.

mod common;

use common::host_stencil;
use proptest::prelude::*;
use skelcl::{
    skel_fn, Boundary2D, Context, ContextConfig, Map, Matrix, MatrixDistribution, Stencil2D,
    Stencil2DView, UserFn,
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

fn twice() -> Map<f32, f32, impl Fn(f32) -> f32 + Clone> {
    Map::new(skel_fn!(
        fn twice(x: f32) -> f32 {
            2.0 * x
        }
    ))
}

/// One part of a layout: its device, owned rows and columns as
/// `(offset, len)`, and halo rows above and below.
struct Part {
    device: usize,
    rows: (usize, usize),
    cols: (usize, usize),
    halo: usize,
}

/// Near-equal blocks of `len` over `n` devices, the first `len % n` one
/// longer.
fn blocks(len: usize, n: usize) -> Vec<(usize, usize)> {
    let (base, extra) = (len / n, len % n);
    let mut off = 0;
    (0..n)
        .map(|d| {
            let l = base + usize::from(d < extra);
            off += l;
            (off - l, l)
        })
        .collect()
}

/// The parts of `dist` for a `rows × cols` matrix on `n` devices.
fn layout(dist: MatrixDistribution, (rows, cols): (usize, usize), n: usize) -> Vec<Part> {
    let whole = |device| Part {
        device,
        rows: (0, rows),
        cols: (0, cols),
        halo: 0,
    };
    match dist {
        MatrixDistribution::Single(d) => vec![whole(d)],
        MatrixDistribution::Copy => (0..n).map(whole).collect(),
        MatrixDistribution::RowBlock { halo } => blocks(rows, n)
            .into_iter()
            .enumerate()
            .map(|(device, r)| Part {
                device,
                rows: r,
                cols: (0, cols),
                halo: if r.1 == 0 { 0 } else { halo.min(rows) },
            })
            .collect(),
        MatrixDistribution::ColBlock => blocks(cols, n)
            .into_iter()
            .enumerate()
            .map(|(device, c)| Part {
                device,
                rows: (0, if c.1 == 0 { 0 } else { rows }),
                cols: c,
                halo: 0,
            })
            .collect(),
    }
}

/// The bytes moving a device-fresh `f32` matrix from `from` to `to` must
/// download and upload: every distinct cell a new part stores (halo rows
/// included) that no part on its device owns, once, and such cells once
/// per part storing them.
fn crossing_bytes(
    from: MatrixDistribution,
    to: MatrixDistribution,
    (rows, cols): (usize, usize),
    n: usize,
) -> (u64, u64) {
    let old = layout(from, (rows, cols), n);
    let mut fetched = std::collections::BTreeSet::new();
    let mut received = 0;
    for np in layout(to, (rows, cols), n) {
        if np.rows.1 == 0 || np.cols.1 == 0 {
            continue;
        }
        for s in 0..np.rows.1 + 2 * np.halo {
            let g = (np.rows.0 + rows + s - np.halo) % rows;
            for c in np.cols.0..np.cols.0 + np.cols.1 {
                let local = old.iter().any(|p| {
                    p.device == np.device
                        && (p.rows.0..p.rows.0 + p.rows.1).contains(&g)
                        && (p.cols.0..p.cols.0 + p.cols.1).contains(&c)
                });
                if !local {
                    fetched.insert((g, c));
                    received += 1;
                }
            }
        }
    }
    (4 * fetched.len() as u64, 4 * received)
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

    // RowBlock ↔ ColBlock ↔ Single: every redistribution path through row-
    // and column-based layouts is the identity on the data, over random
    // shapes, device counts and halo widths. Each step moves only what
    // another device owns, through the host: it downloads each such cell
    // a new part stores exactly once (none once a step has left the host
    // copy current: every cell crossed) and uploads it to every part
    // storing it, copies nothing device to device, and never uploads the
    // stale host copy (a `Map` output's, zeroed), which a read through
    // the devices would show.
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
        let input = Matrix::from_vec(&c, rows, cols, data.clone());
        input.set_distribution(MatrixDistribution::RowBlock { halo }).unwrap();
        let m = twice().apply_matrix(&input).unwrap();
        let want: Vec<f32> = data.iter().map(|x| 2.0 * x).collect();
        // Explicit round trip through the column layout and back.
        let round_trip = [
            MatrixDistribution::ColBlock,
            MatrixDistribution::Single(0),
            MatrixDistribution::RowBlock { halo },
        ];
        for d in path.into_iter().chain(round_trip) {
            let (from, current) = (m.distribution(), m.host_fresh());
            let before = c.platform().stats_snapshot();
            m.set_distribution(d).unwrap();
            let delta = c.platform().stats_snapshot() - before;
            let (down, up) = if from == d {
                (0, 0)
            } else {
                crossing_bytes(from, d, (rows, cols), devices)
            };
            let down = if current { 0 } else { down };
            prop_assert_eq!(delta.d2d_transfers, 0, "{:?} -> {:?}", from, d);
            prop_assert_eq!(delta.d2h_bytes, down, "{:?} -> {:?}", from, d);
            prop_assert_eq!(delta.h2d_bytes, up, "{:?} -> {:?}", from, d);
        }
        prop_assert_eq!(twice().apply_matrix(&m).unwrap().to_vec().unwrap(),
            want.iter().map(|x| 2.0 * x).collect::<Vec<_>>());
        prop_assert_eq!(m.to_vec().unwrap(), want);
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
