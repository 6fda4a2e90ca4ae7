//! Property-based tests of the lazy [`Pipeline`] fusion subsystem: fused
//! execution is **bit-identical** to a sequential host evaluation of the
//! same user functions (every group with a stencil) or to the unfused
//! skeleton chain (element-wise groups and row folds) for every shape
//! (including 1×N and N×1 degenerates), boundary mode, device count,
//! starting distribution and stage composition — while launching one kernel
//! per fused group instead of one per stage.

mod common;

use common::host_stencil;
use proptest::prelude::*;
use skelcl::{
    Boundary2D, Context, ContextConfig, Map, Matrix, MatrixDistribution, Pipeline, PipelineExpr,
    ReduceRows, Stencil2DView, UserFn, Zip,
};
use vgpu::DeviceSpec;

fn ctx(n_devices: usize) -> Context {
    Context::new(
        ContextConfig::default()
            .devices(n_devices)
            .spec(DeviceSpec::tiny())
            .work_group(64)
            .cache_tag("prop-fusion"),
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
        (0usize..3).prop_map(|halo| MatrixDistribution::RowBlock { halo }),
        Just(MatrixDistribution::ColBlock),
    ]
}

/// Degenerate-friendly shapes: plain rectangles plus forced 1×N and N×1.
fn shape_strategy() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        ((1usize..18), (1usize..12)),
        (Just(1usize), (1usize..24)),
        ((1usize..24), Just(1usize)),
    ]
}

/// Shapes of up to three 16-column tiles, degenerates included: a staged
/// group's work-groups then load windows that cross tile boundaries.
fn wide_shape_strategy() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        ((1usize..20), (1usize..40)),
        (Just(1usize), (1usize..40)),
        ((1usize..24), Just(1usize)),
    ]
}

fn test_data(rows: usize, cols: usize, seed: u32) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| {
            ((((i as u32).wrapping_mul(2654435761).wrapping_add(seed)) % 2000) as f32) / 8.0 - 125.0
        })
        .collect()
}

fn scale_fn() -> UserFn<fn(f32) -> f32> {
    skelcl::skel_fn!(
        fn pscale(x: f32) -> f32 {
            x * 0.5 + 1.0
        }
    )
}

fn square_fn() -> UserFn<fn(f32) -> f32> {
    skelcl::skel_fn!(
        fn psquare(x: f32) -> f32 {
            x * x * 0.01
        }
    )
}

fn add_fn() -> UserFn<fn(f32, f32) -> f32> {
    skelcl::skel_fn!(
        fn padd(x: f32, y: f32) -> f32 {
            x + y
        }
    )
}

const CROSS_SRC: &str =
    "float pcross(__global float* in, int r, int c, uint nr, uint nc) { /* damped cross */ }";

/// A damped cross reaching exactly `r` rows and columns out (only the
/// centre at radius 0), over a tap `at(dr, dc)`.
fn cross_at(r: isize, at: impl Fn(isize, isize) -> f32) -> f32 {
    0.2 * (at(-r, 0) + at(r, 0) + at(0, -r) + at(0, r)) + 0.1 * at(0, 0)
}

fn cross_user(radius: usize) -> UserFn<impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    let r = radius as isize;
    UserFn::new("pcross", CROSS_SRC, move |v: &Stencil2DView<'_, f32>| {
        cross_at(r, |dr, dc| v.get(dr, dc))
    })
}

const DIAG_SRC: &str =
    "float pdiag(__global float* in, int r, int c, uint nr, uint nc) { /* corner taps */ }";

/// The four corners `r` rows and columns out, and the centre.
fn diag_at(r: isize, at: impl Fn(isize, isize) -> f32) -> f32 {
    0.3 * (at(-r, -r) + at(r, r)) - 0.2 * (at(-r, r) + at(r, -r)) + at(0, 0)
}

fn diag_user(radius: usize) -> UserFn<impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    let r = radius as isize;
    UserFn::new("pdiag", DIAG_SRC, move |v: &Stencil2DView<'_, f32>| {
        diag_at(r, |dr, dc| v.get(dr, dc))
    })
}

const NARROW_SRC: &str =
    "float pnarrow(__global double* in, int r, int c, uint nr, uint nc) { /* anti-diagonal */ }";

/// An `f64` stencil with an `f32` result: the anti-diagonal corners `r`
/// out, and the centre.
fn narrow_at(r: isize, at: impl Fn(isize, isize) -> f64) -> f32 {
    (0.25 * (at(-r, r) + at(r, -r)) + at(0, 0)) as f32
}

fn narrow_user(radius: usize) -> UserFn<impl Fn(&Stencil2DView<'_, f64>) -> f32 + Clone> {
    let r = radius as isize;
    UserFn::new("pnarrow", NARROW_SRC, move |v: &Stencil2DView<'_, f64>| {
        narrow_at(r, |dr, dc| v.get(dr, dc))
    })
}

/// One host pass of the damped cross `radius` out.
fn host_cross(data: &[f32], dims: (usize, usize), radius: usize, boundary: Boundary2D) -> Vec<f32> {
    let r = radius as isize;
    host_stencil(data, dims, boundary, |at| cross_at(r, at))
}

/// `f(x)` of every element: a `map` stage on the host.
fn host_map(data: &[f32], f: &UserFn<fn(f32) -> f32>) -> Vec<f32> {
    data.iter().map(|&x| (f.func())(x)).collect()
}

/// `f(x, y)` of every element pair: a `zip_with` stage on the host.
fn host_zip<V>(a: &[f32], b: &[f32], f: &UserFn<fn(f32, f32) -> V>) -> Vec<V> {
    a.iter().zip(b).map(|(&x, &y)| (f.func())(x, y)).collect()
}

fn host_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn widen_fn() -> UserFn<fn(f32, f32) -> f64> {
    skelcl::skel_fn!(
        fn pwiden(x: f32, y: f32) -> f64 {
            x as f64 * 0.5 + y as f64
        }
    )
}

/// A context whose devices hold every window of a three-stencil chain at
/// radius 2 (the tiny device's 4 KiB would split some of them).
fn roomy_ctx(n_devices: usize) -> Context {
    Context::new(
        ContextConfig::default()
            .devices(n_devices)
            .spec(DeviceSpec {
                local_mem_bytes: 16 << 10,
                ..DeviceSpec::tiny()
            })
            .work_group(64)
            .cache_tag("prop-fusion-roomy"),
    )
}

/// Per-stage boundaries of a three-stencil chain: one mode throughout, or
/// `Neumann` then `Zero`.
fn chain_boundaries_strategy() -> impl Strategy<Value = [Boundary2D; 3]> {
    use Boundary2D::{Neumann, Wrap, Zero};
    prop_oneof![
        Just([Neumann; 3]),
        Just([Zero; 3]),
        Just([Wrap; 3]),
        Just([Neumann, Zero, Zero]),
    ]
}

/// Kernel launches of a one-group chain over an input laid out as `dist`:
/// one per part with rows.
fn launches_per_chain(dist: MatrixDistribution, rows: usize, devices: usize) -> u64 {
    match dist {
        MatrixDistribution::Single(_) => 1,
        MatrixDistribution::Copy => devices as u64,
        _ => rows.min(devices) as u64,
    }
}

fn bits(m: &Matrix<f32>) -> Vec<u32> {
    m.to_vec().unwrap().iter().map(|v| v.to_bits()).collect()
}

/// A `run_to_host` result, which must arrive fresh on the host and on the
/// devices.
fn fresh<T: vgpu::Scalar>(m: Matrix<T>) -> Matrix<T> {
    assert!(m.host_fresh() && m.device_fresh(), "fresh on both sides");
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // An empty pipeline is the identity — same bits, zero launches — and
    // the host terminal reads those bits back.
    #[test]
    fn empty_pipeline_is_identity(
        (rows, cols) in shape_strategy(),
        devices in 1usize..5,
        dist in dist_strategy(),
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let m = Matrix::from_vec(&c, rows, cols, test_data(rows, cols, seed));
        m.set_distribution(dist).unwrap();
        let before = c.metrics().counter_value("skelcl.pipeline.groups").unwrap_or(0);
        let out = Pipeline::start::<f32>().run(&m).unwrap();
        let after = c.metrics().counter_value("skelcl.pipeline.groups").unwrap_or(0);
        prop_assert_eq!(bits(&out), bits(&m));
        prop_assert_eq!(before, after, "empty pipeline must launch nothing");
        prop_assert_eq!(bits(&fresh(Pipeline::start::<f32>().run_to_host(&m).unwrap())), bits(&m));
    }

    // A single map stage equals the unfused Map skeleton, bit for bit, and
    // the host terminal reads the fused bits back.
    #[test]
    fn single_map_matches_unfused(
        (rows, cols) in shape_strategy(),
        devices in 1usize..5,
        dist in dist_strategy(),
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let data = test_data(rows, cols, seed);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(dist).unwrap();
        let expr = Pipeline::start::<f32>().map(scale_fn());
        let fused = expr.run(&m).unwrap();
        let m2 = Matrix::from_vec(&c, rows, cols, data);
        m2.set_distribution(dist).unwrap();
        let unfused = Map::new(scale_fn()).apply_matrix(&m2).unwrap();
        prop_assert_eq!(bits(&fused), bits(&unfused));
        prop_assert_eq!(bits(&fresh(expr.run_to_host(&m).unwrap())), bits(&fused));
    }

    // A single stencil stage equals one host pass of its user function for
    // all three boundary modes and radii 0 to 2.
    #[test]
    fn single_stencil_matches_unfused(
        (rows, cols) in shape_strategy(),
        devices in 1usize..4,
        boundary in boundary_strategy(),
        dist in dist_strategy(),
        radius in 0usize..3,
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let data = test_data(rows, cols, seed);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(dist).unwrap();
        let fused = Pipeline::start::<f32>()
            .stencil(cross_user(radius), radius, boundary)
            .run(&m)
            .unwrap();
        let host = host_cross(&data, (rows, cols), radius, boundary);
        prop_assert_eq!(bits(&fused), host_bits(&host));
    }

    // The canonical fused group — an element-wise chain on both sides of a
    // stencil anchor — equals the three stages on the host and launches
    // once.
    #[test]
    fn map_stencil_map_matches_unfused_chain(
        (rows, cols) in shape_strategy(),
        devices in 1usize..4,
        boundary in boundary_strategy(),
        dist in dist_strategy(),
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let data = test_data(rows, cols, seed);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(dist).unwrap();
        let before = c.metrics().counter_value("skelcl.pipeline.groups").unwrap_or(0);
        let fused = Pipeline::start::<f32>()
            .map(scale_fn())
            .stencil(cross_user(1), 1, boundary)
            .map(square_fn())
            .run(&m)
            .unwrap();
        let after = c.metrics().counter_value("skelcl.pipeline.groups").unwrap_or(0);
        prop_assert_eq!(after - before, 1, "the whole chain is one launch group");

        let scaled = host_map(&data, &scale_fn());
        let host = host_map(&host_cross(&scaled, (rows, cols), 1, boundary), &square_fn());
        prop_assert_eq!(bits(&fused), host_bits(&host));
    }

    // A zip stage equals the unfused Zip skeleton.
    #[test]
    fn zip_matches_unfused(
        (rows, cols) in shape_strategy(),
        devices in 1usize..4,
        dist in dist_strategy(),
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let da = test_data(rows, cols, seed);
        let db = test_data(rows, cols, seed.wrapping_add(7));
        let m = Matrix::from_vec(&c, rows, cols, da.clone());
        m.set_distribution(dist).unwrap();
        let other = Matrix::from_vec(&c, rows, cols, db.clone());
        let fused = Pipeline::start::<f32>()
            .map(scale_fn())
            .zip_with(&other, add_fn())
            .run(&m)
            .unwrap();
        let m2 = Matrix::from_vec(&c, rows, cols, da);
        m2.set_distribution(dist).unwrap();
        let other2 = Matrix::from_vec(&c, rows, cols, db);
        let mapped = Map::new(scale_fn()).apply_matrix(&m2).unwrap();
        let unfused = Zip::new(add_fn()).apply_matrix(&mapped, &other2).unwrap();
        prop_assert_eq!(bits(&fused), bits(&unfused));
    }

    // A fused map → reduce_rows equals Map then ReduceRows.
    #[test]
    fn fused_reduce_rows_matches_unfused(
        (rows, cols) in shape_strategy(),
        devices in 1usize..4,
        dist in dist_strategy(),
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let data = test_data(rows, cols, seed);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(dist).unwrap();
        let fused = Pipeline::start::<f32>()
            .map(square_fn())
            .reduce_rows(&m, add_fn(), 0.0)
            .unwrap();
        let m2 = Matrix::from_vec(&c, rows, cols, data);
        m2.set_distribution(dist).unwrap();
        let mapped = Map::new(square_fn()).apply_matrix(&m2).unwrap();
        let unfused = ReduceRows::new(add_fn(), 0.0).apply(&mapped).unwrap();
        prop_assert_eq!(
            fused.to_vec().unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            unfused.to_vec().unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    // A row fold after a staged group: the zip after the stencil fuses
    // into the group's writes and the fold runs stage-free; a zip straight
    // before the fold is read at each folded element's index. The first
    // equals the stencil, zip and ascending row fold on the host, the
    // second the unfused Zip → ReduceRows chain, bit for bit.
    #[test]
    fn stencil_zip_fold_matches_unfused(
        (rows, cols) in wide_shape_strategy(),
        devices in 1usize..4,
        boundary in boundary_strategy(),
        dist in dist_strategy(),
        radius in 0usize..3,
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let data = [0u32, 11].map(|k| test_data(rows, cols, seed.wrapping_add(k)));
        let matrices = || {
            data.clone().map(|d| {
                let m = Matrix::from_vec(&c, rows, cols, d);
                m.set_distribution(dist).unwrap();
                m
            })
        };
        let fold_bits = |v: skelcl::Vector<f32>| {
            v.to_vec().unwrap().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let [m, op] = matrices();
        let fused = Pipeline::start::<f32>()
            .stencil(cross_user(radius), radius, boundary)
            .zip_with(&op, add_fn())
            .reduce_rows(&m, add_fn(), 0.0)
            .unwrap();
        let [m2, op2] = matrices();
        let zip_fold = Pipeline::start::<f32>()
            .zip_with(&op2, add_fn())
            .reduce_rows(&m2, add_fn(), 0.0)
            .unwrap();

        let stenciled = host_cross(&data[0], (rows, cols), radius, boundary);
        let summed = host_zip(&stenciled, &data[1], &add_fn());
        let add = add_fn();
        let host: Vec<f32> = summed
            .chunks(cols)
            .map(|row| row.iter().fold(0.0, |acc, &x| (add.func())(acc, x)))
            .collect();
        prop_assert_eq!(fold_bits(fused), host_bits(&host));
        let [m, op] = matrices();
        let summed = Zip::new(add_fn()).apply_matrix(&m, &op).unwrap();
        let unfused = ReduceRows::new(add_fn(), 0.0).apply(&summed).unwrap();
        prop_assert_eq!(fold_bits(zip_fold), fold_bits(unfused));
    }

    // Zip operands on both sides of a stencil: the one before it is read
    // as each window cell loads, the one after it at each write. The
    // fused group equals the zip, stencil and zip on the host.
    #[test]
    fn zip_stencil_zip_matches_unfused_chain(
        (rows, cols) in wide_shape_strategy(),
        devices in 1usize..4,
        boundary in boundary_strategy(),
        dist in dist_strategy(),
        radius in 0usize..3,
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let data = [0u32, 11, 23].map(|k| test_data(rows, cols, seed.wrapping_add(k)));
        let matrices = || {
            data.clone().map(|d| {
                let m = Matrix::from_vec(&c, rows, cols, d);
                m.set_distribution(dist).unwrap();
                m
            })
        };
        let [m, before_op, after_op] = matrices();
        let fused = Pipeline::start::<f32>()
            .zip_with(&before_op, add_fn())
            .stencil(cross_user(radius), radius, boundary)
            .zip_with(&after_op, add_fn())
            .run(&m)
            .unwrap();

        let summed = host_zip(&data[0], &data[1], &add_fn());
        let stenciled = host_cross(&summed, (rows, cols), radius, boundary);
        let host = host_zip(&stenciled, &data[2], &add_fn());
        prop_assert_eq!(bits(&fused), host_bits(&host));
    }

    // A stencil pair reads one staged window for both stencils; it equals
    // both stencils and their combination on the host.
    #[test]
    fn stencil_pair_matches_unfused(
        (rows, cols) in wide_shape_strategy(),
        devices in 1usize..4,
        boundary in boundary_strategy(),
        dist in dist_strategy(),
        radius in 0usize..3,
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let data = test_data(rows, cols, seed);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(dist).unwrap();
        let fused = Pipeline::start::<f32>()
            .stencil_pair(cross_user(radius), diag_user(radius), add_fn(), radius, boundary)
            .run(&m)
            .unwrap();

        let (r, add) = (radius as isize, add_fn());
        let host = host_stencil(&data, (rows, cols), boundary, |at| {
            (add.func())(cross_at(r, at), diag_at(r, at))
        });
        prop_assert_eq!(bits(&fused), host_bits(&host));
    }

    // Two stencil anchors back to back: the elementwise stage between them
    // fuses into the store to the second stencil's window; results match
    // the three stages on the host and the whole chain is one group.
    #[test]
    fn stencil_map_stencil_matches_unfused_chain(
        rows in 1usize..14,
        cols in 1usize..10,
        devices in 1usize..4,
        boundary in boundary_strategy(),
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let data = test_data(rows, cols, seed);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        c.platform().enable_timeline_trace();
        let before = c.metrics().counter_value("skelcl.pipeline.groups").unwrap_or(0);
        let fused = Pipeline::start::<f32>()
            .stencil(cross_user(1), 1, boundary)
            .map(scale_fn())
            .stencil(cross_user(1), 1, boundary)
            .run(&m)
            .unwrap();
        let after = c.metrics().counter_value("skelcl.pipeline.groups").unwrap_or(0);
        prop_assert_eq!(after - before, 1, "two stencil anchors, one chain");

        // The chain's launch must be ordered after the input's upload.
        c.sync();
        let trace = c.platform().take_timeline_trace();
        if let Some(hazard) = skelcl::check::verify_no_buffer_hazards(&trace) {
            panic!("{hazard}");
        }

        let step1 = host_cross(&data, (rows, cols), 1, boundary);
        let step2 = host_map(&step1, &scale_fn());
        let host = host_cross(&step2, (rows, cols), 1, boundary);
        prop_assert_eq!(bits(&fused), host_bits(&host));
    }

    // Two element-wise stages between two stencils of radii 1 to 5:
    // `stencil → map → zip_with → stencil → map`. Where both windows fit
    // the tiny devices' 4 KiB together (16×4 lanes: radii 4 then 4 take
    // 3,712 B) the two stages store into the second stencil's window and
    // the pipeline is one group; where they do not (5 then 4: 4,144 B) the
    // run splits after the first stencil and the two stages end its piece.
    // Half the cases draw radii 4 and 5, where most pairs split. Either way
    // the result is the five stages on the host, bit for bit, and the host
    // terminal reads the same bits back.
    #[test]
    fn stencil_map_zip_stencil_map_matches_unfused_chain(
        rows in 4usize..24,
        cols in 16usize..40,
        devices in 1usize..5,
        boundary in boundary_strategy(),
        dist in dist_strategy(),
        radii in prop_oneof![(1usize..=5, 1usize..=5), (4usize..=5, 4usize..=5)],
        seed in 0u32..1000,
    ) {
        let (r0, r1) = radii;
        let c = ctx(devices);
        let data = [0u32, 11].map(|k| test_data(rows, cols, seed.wrapping_add(k)));
        let [m, op] = data.clone().map(|d| {
            let m = Matrix::from_vec(&c, rows, cols, d);
            m.set_distribution(dist).unwrap();
            m
        });
        let expr = Pipeline::start::<f32>()
            .stencil(cross_user(r0), r0, boundary)
            .map(scale_fn())
            .zip_with(&op, add_fn())
            .stencil(diag_user(r1), r1, boundary)
            .map(square_fn());
        let groups = || c.metrics().counter_value("skelcl.pipeline.groups").unwrap_or(0);
        let g = groups();
        let fused = bits(&expr.run(&m).unwrap());
        // At 16 or more columns and 4 or more rows every launch runs 16×4
        // lanes; the chain's two f32 windows are `r0 + r1` and `r1` deep.
        let window = |depth: usize| (16 + 2 * depth) * (4 + 2 * depth) * 4;
        let one_chain = window(r0 + r1) + window(r1) <= 4 << 10;
        prop_assert_eq!(groups() - g, if one_chain { 1 } else { 2 });
        prop_assert_eq!(&bits(&fresh(expr.run_to_host(&m).unwrap())), &fused);

        let dims = (rows, cols);
        let first = host_map(&host_cross(&data[0], dims, r0, boundary), &scale_fn());
        let summed = host_zip(&first, &data[1], &add_fn());
        let r1 = r1 as isize;
        let second = host_stencil(&summed, dims, boundary, |at| diag_at(r1, at));
        prop_assert_eq!(fused, host_bits(&host_map(&second, &square_fn())));
    }

    // A chain of two or three stencils with radii 0 to 2 whose element
    // type changes inside it (f32 → f64 through a stencil pair, then back
    // through an f64 stencil), with a zip between the first two stencils
    // whose operand is read at the ring cells of the second window. Every
    // boundary, the mixed Neumann → Zero chain, every distribution, 1 to 4
    // devices: one group, one launch per part, and the bits of the stages
    // evaluated one after another on the host.
    #[test]
    fn stencil_chain_matches_unfused_chain(
        (rows, cols) in wide_shape_strategy(),
        devices in 1usize..5,
        bs in chain_boundaries_strategy(),
        dist in dist_strategy(),
        radii in (0usize..3, 0usize..3, 0usize..3),
        three in any::<bool>(),
        seed in 0u32..1000,
    ) {
        let (r0, r1, r2) = radii;
        let c = roomy_ctx(devices);
        let data = [0u32, 11].map(|k| test_data(rows, cols, seed.wrapping_add(k)));
        let matrices = || {
            data.clone().map(|d| {
                let m = Matrix::from_vec(&c, rows, cols, d);
                m.set_distribution(dist).unwrap();
                m
            })
        };
        let groups = || c.metrics().counter_value("skelcl.pipeline.groups").unwrap_or(0);
        let bits64 = |m: &Matrix<f64>| {
            m.to_vec().unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };

        let [m, op] = matrices();
        let head = Pipeline::start::<f32>()
            .stencil(cross_user(r0), r0, bs[0])
            .zip_with(&op, add_fn())
            .stencil_pair(cross_user(r1), diag_user(r1), widen_fn(), r1, bs[1]);
        let tail = head.clone().stencil(narrow_user(r2), r2, bs[2]);
        let (g, stats) = (groups(), c.platform().stats_snapshot());
        let fused = if three {
            Err(bits(&tail.run(&m).unwrap()))
        } else {
            Ok(bits64(&head.run(&m).unwrap()))
        };
        let launches = (c.platform().stats_snapshot() - stats).kernel_launches;
        prop_assert_eq!(groups() - g, 1, "the chain is one group");
        prop_assert_eq!(launches, launches_per_chain(dist, rows, devices));
        // The host terminal reads `run`'s bits back.
        let to_host = if three {
            Err(bits(&fresh(tail.run_to_host(&m).unwrap())))
        } else {
            Ok(bits64(&fresh(head.run_to_host(&m).unwrap())))
        };
        prop_assert_eq!(&to_host, &fused);

        let dims = (rows, cols);
        let first = host_cross(&data[0], dims, r0, bs[0]);
        let summed = host_zip(&first, &data[1], &add_fn());
        let (r1, r2, widen) = (r1 as isize, r2 as isize, widen_fn());
        let wide = host_stencil(&summed, dims, bs[1], |at| {
            (widen.func())(cross_at(r1, at), diag_at(r1, at))
        });
        let host = if three {
            Err(host_bits(&host_stencil(&wide, dims, bs[2], |at| narrow_at(r2, at))))
        } else {
            Ok(wide.iter().map(|v| v.to_bits()).collect())
        };
        prop_assert_eq!(fused, host);
    }
}
