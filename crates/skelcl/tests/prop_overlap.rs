//! Property suite of the async overlap subsystem: for all boundaries,
//! distributions, device counts and chunk sizes,
//!
//! * the overlapped `Stencil2D::iterate` is **bit-identical** to a
//!   sequential host evaluation of the same stencil,
//! * a streamed upload (`Matrix::ensure_on_devices_streamed`) round-trips
//!   its data unchanged,
//! * and the simulated timeline never lets two commands overlap on the
//!   same engine of one device, while the overlapped iterate really does
//!   run halo copies *under* interior kernels.
//!
//! Runs under the pinned-seed CI job (`PROPTEST_SEED`).

mod common;

use common::host_stencil;
use proptest::prelude::*;
use skelcl::{
    Boundary2D, Context, ContextConfig, Map, Matrix, MatrixDistribution, Stencil2D, Stencil2DView,
    UserFn,
};
use vgpu::{verify_engine_exclusive, CommandRecord, DeviceSpec};

fn ctx(n_devices: usize) -> Context {
    Context::new(
        ContextConfig::default()
            .devices(n_devices)
            .spec(DeviceSpec::tiny())
            .work_group(64)
            .cache_tag("prop-overlap"),
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
    ]
}

/// The damped cross's per-cell math over a tap `at(dr, dc)`: sums that
/// are order- and position-sensitive.
fn cross_at(at: impl Fn(isize, isize) -> f32) -> f32 {
    0.2 * (at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1)) + 0.1 * at(0, 0)
}

fn cross_stencil(
    boundary: Boundary2D,
) -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    let user = UserFn::new(
        "ocross",
        "float ocross(__global float* in, int r, int c, uint nr, uint nc) { /* damped cross */ }",
        |v: &Stencil2DView<'_, f32>| cross_at(|dr, dc| v.get(dr, dc)),
    );
    Stencil2D::new(user, 1, boundary)
}

/// `n` sequential host passes of the damped cross.
fn host_cross(data: &[f32], dims: (usize, usize), boundary: Boundary2D, n: usize) -> Vec<f32> {
    (0..n).fold(data.to_vec(), |cur, _| {
        host_stencil(&cur, dims, boundary, |at| cross_at(at))
    })
}

fn scale_map() -> Map<f32, f32, fn(f32) -> f32> {
    Map::new(skelcl::skel_fn!(
        fn scale(x: f32) -> f32 {
            x * 1.5 + 0.25
        }
    ))
}

fn test_data(rows: usize, cols: usize, seed: u32) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| {
            ((((i as u32).wrapping_mul(2654435761).wrapping_add(seed)) % 2000) as f32) / 8.0 - 125.0
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// No two commands on the same engine of one device may overlap in time
/// (the shared [`verify_engine_exclusive`] checker, asserted), and no two
/// unordered commands may touch the same buffer bytes conflictingly (the
/// `skelcheck` happens-before race detector, asserted).
fn assert_schedule_sound(trace: &[CommandRecord]) {
    if let Some(violation) = verify_engine_exclusive(trace) {
        panic!("{violation}");
    }
    if let Some(hazard) = skelcl::check::verify_no_buffer_hazards(trace) {
        panic!("{hazard}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The overlapped iterate == n host passes, bit for bit, for every
    // shape / boundary / device count / starting distribution / n.
    #[test]
    fn overlapped_iterate_is_bit_identical_to_the_host(
        rows in 1usize..20,
        cols in 1usize..12,
        devices in 1usize..5,
        n in 0usize..6,
        boundary in boundary_strategy(),
        dist in dist_strategy(),
        seed in 0u32..1000,
    ) {
        let data = test_data(rows, cols, seed);
        let st = cross_stencil(boundary);
        let c = ctx(devices);

        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(dist).unwrap();
        let overlapped = st.iterate(&m, n).unwrap().to_vec().unwrap();
        let host = host_cross(&data, (rows, cols), boundary, n);
        prop_assert_eq!(bits(&overlapped), bits(&host));
    }

    // A streamed matrix upload round-trips unchanged.
    #[test]
    fn streamed_uploads_are_bit_identical(
        rows in 1usize..16,
        cols in 1usize..10,
        devices in 1usize..5,
        chunk in 1usize..33,
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let data = test_data(rows, cols, seed);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 }).unwrap();
        m.ensure_on_devices_streamed(chunk).unwrap();
        prop_assert_eq!(bits(&m.to_vec().unwrap()), bits(&data));
    }

    // Whatever the overlapped paths schedule, no engine of any device ever
    // runs two commands at once.
    #[test]
    fn overlapped_schedules_never_double_book_an_engine(
        rows in 4usize..24,
        cols in 1usize..10,
        devices in 1usize..5,
        n in 1usize..5,
        chunk in 1usize..33,
        boundary in boundary_strategy(),
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        c.platform().enable_timeline_trace();
        let st = cross_stencil(boundary);
        let m = Matrix::from_vec(&c, rows, cols, test_data(rows, cols, seed));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 }).unwrap();
        st.iterate(&m, n).unwrap();
        let streamed = Matrix::from_vec(&c, rows, cols, test_data(rows, cols, seed + 1));
        streamed.set_distribution(MatrixDistribution::RowBlock { halo: 1 }).unwrap();
        streamed.ensure_on_devices_streamed(chunk).unwrap();
        scale_map().apply_matrix(&streamed).unwrap();
        c.sync();
        assert_schedule_sound(&c.platform().take_timeline_trace());
    }
}

/// The overlap is real, not just permitted: on multiple devices the
/// overlapped iterate runs at least one halo copy *while* a kernel runs on
/// the same device's compute engine.
#[test]
fn overlapped_iterate_runs_copies_under_kernels() {
    let c = ctx(4);
    let st = cross_stencil(Boundary2D::Neumann);
    let m = Matrix::from_vec(&c, 64, 32, test_data(64, 32, 11));
    m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .unwrap();
    m.ensure_on_devices().unwrap();
    c.platform().enable_timeline_trace();
    st.iterate(&m, 8).unwrap();
    c.sync();
    let trace = c.platform().take_timeline_trace();
    // The overlap must also be *safe*: every copy-under-kernel pair is
    // ordered against its data dependencies.
    assert_schedule_sound(&trace);
    let overlap_s: f64 = vgpu::compute_copy_overlap_s(&trace)
        .iter()
        .map(|(_, s)| s)
        .sum();
    assert!(
        overlap_s > 0.0,
        "no halo copy overlapped a kernel on any device's timeline"
    );
}
