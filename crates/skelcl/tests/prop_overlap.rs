//! Property suite of the async overlap subsystem: for all boundaries,
//! distributions, device counts and chunk sizes,
//!
//! * the overlapped `Stencil2D::iterate` is **bit-identical** to the
//!   serial schedule (`iterate_serial`),
//! * streamed uploads (`Stencil2D::apply_streamed`, `Map::apply_streamed`,
//!   `Matrix::ensure_on_devices_streamed`) are bit-identical to their
//!   blocking twins, and so is a streamed pass over a device-filled
//!   constant matrix,
//! * and the simulated timeline never lets two commands overlap on the
//!   same engine of one device, while the overlapped iterate really does
//!   run halo copies *under* interior kernels.
//!
//! Runs under the pinned-seed CI job (`PROPTEST_SEED`).

use proptest::prelude::*;
use skelcl::{
    Boundary2D, Context, ContextConfig, Map, Matrix, MatrixDistribution, Stencil2D, Stencil2DView,
    UserFn, Vector,
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

/// A damped cross stencil whose sums are order- and position-sensitive.
fn cross_stencil(
    boundary: Boundary2D,
) -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    let user = UserFn::new(
        "ocross",
        "float ocross(__global float* in, int r, int c, uint nr, uint nc) { /* damped cross */ }",
        |v: &Stencil2DView<'_, f32>| {
            0.2 * (v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1)) + 0.1 * v.get(0, 0)
        },
    );
    Stencil2D::new(user, 1, boundary)
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

    // The overlapped iterate == the serial iterate, bit for bit, for every
    // shape / boundary / device count / starting distribution / n.
    #[test]
    fn overlapped_iterate_is_bit_identical_to_serial(
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

        let serial = {
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            m.set_distribution(dist).unwrap();
            st.iterate_serial(&m, n).unwrap().to_vec().unwrap()
        };
        let overlapped = {
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            m.set_distribution(dist).unwrap();
            st.iterate(&m, n).unwrap().to_vec().unwrap()
        };
        prop_assert_eq!(bits(&overlapped), bits(&serial));
    }

    // A streamed stencil pass (chunked upload on the copy stream, banded
    // kernels) == the blocking pass, bit for bit.
    #[test]
    fn streamed_stencil_apply_is_bit_identical(
        rows in 1usize..24,
        cols in 1usize..12,
        devices in 1usize..5,
        chunk_rows in 1usize..9,
        boundary in boundary_strategy(),
        dist in dist_strategy(),
        seed in 0u32..1000,
    ) {
        let data = test_data(rows, cols, seed);
        let st = cross_stencil(boundary);
        let c = ctx(devices);

        let blocking = {
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            m.set_distribution(dist).unwrap();
            st.apply(&m).unwrap().to_vec().unwrap()
        };
        let streamed = {
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            m.set_distribution(dist).unwrap();
            st.apply_streamed(&m, chunk_rows).unwrap().to_vec().unwrap()
        };
        prop_assert_eq!(bits(&streamed), bits(&blocking));

        // A constant matrix is filled on the devices instead of streamed,
        // with the same result as the blocking pass over its upload.
        let blocking = {
            let m = Matrix::from_vec(&c, rows, cols, vec![data[0]; rows * cols]);
            m.set_distribution(dist).unwrap();
            st.apply(&m).unwrap().to_vec().unwrap()
        };
        let streamed = {
            let m = Matrix::filled(&c, rows, cols, data[0]);
            m.set_distribution(dist).unwrap();
            st.apply_streamed(&m, chunk_rows).unwrap().to_vec().unwrap()
        };
        prop_assert_eq!(bits(&streamed), bits(&blocking));
    }

    // A streamed map (chunked vector upload, one kernel per chunk) == the
    // blocking map, and a streamed matrix upload round-trips unchanged.
    #[test]
    fn streamed_uploads_are_bit_identical(
        len in 0usize..200,
        rows in 1usize..16,
        cols in 1usize..10,
        devices in 1usize..5,
        chunk in 1usize..33,
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        let data: Vec<f32> = (0..len).map(|i| (i as f32) * 0.75 - 3.0).collect();
        let map = Map::new(skelcl::skel_fn!(
            fn scale(x: f32) -> f32 {
                x * 1.5 + 0.25
            }
        ));
        let blocking = map.apply(&Vector::from_vec(&c, data.clone())).unwrap();
        let streamed = map
            .apply_streamed(&Vector::from_vec(&c, data), chunk)
            .unwrap();
        prop_assert_eq!(
            bits(&streamed.to_vec().unwrap()),
            bits(&blocking.to_vec().unwrap())
        );

        let mdata = test_data(rows, cols, seed);
        let m = Matrix::from_vec(&c, rows, cols, mdata.clone());
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 }).unwrap();
        m.ensure_on_devices_streamed(chunk).unwrap();
        prop_assert_eq!(bits(&m.to_vec().unwrap()), bits(&mdata));
    }

    // Whatever the overlapped paths schedule, no engine of any device ever
    // runs two commands at once.
    #[test]
    fn overlapped_schedules_never_double_book_an_engine(
        rows in 4usize..24,
        cols in 1usize..10,
        devices in 1usize..5,
        n in 1usize..5,
        chunk_rows in 1usize..9,
        boundary in boundary_strategy(),
        seed in 0u32..1000,
    ) {
        let c = ctx(devices);
        c.platform().enable_timeline_trace();
        let st = cross_stencil(boundary);
        let m = Matrix::from_vec(&c, rows, cols, test_data(rows, cols, seed));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 }).unwrap();
        st.iterate(&m, n).unwrap();
        let m2 = Matrix::from_vec(&c, rows, cols, test_data(rows, cols, seed + 1));
        m2.set_distribution(MatrixDistribution::RowBlock { halo: 1 }).unwrap();
        st.apply_streamed(&m2, chunk_rows).unwrap();
        c.sync();
        assert_schedule_sound(&c.platform().take_timeline_trace());
    }
}

/// Recorded upload-chunk events die with their clock epoch: a
/// `reset_clocks` between the streamed upload and the streamed pass (what
/// every virtual-time measurement does) must not leave kernels waiting on
/// pre-reset timestamps.
#[test]
fn clock_reset_invalidates_recorded_upload_events() {
    let c = ctx(2);
    let st = cross_stencil(Boundary2D::Neumann);
    let (rows, cols) = (256usize, 64usize);
    let m = Matrix::from_vec(&c, rows, cols, test_data(rows, cols, 3));
    m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .unwrap();
    // Many small chunks: the upload's per-transfer latency piles up to a
    // clearly non-zero completion time.
    m.ensure_on_devices_streamed(4).unwrap();
    c.sync();
    let uploaded_at = c.host_now_s();
    assert!(uploaded_at > 0.0);

    st.apply(&Matrix::from_vec(&c, 8, 8, test_data(8, 8, 4)))
        .unwrap(); // warm the program cache
    c.platform().reset_clocks();
    c.platform().enable_timeline_trace();
    let out = st.apply_streamed(&m, 4).unwrap();
    c.sync();
    let trace = c.platform().take_timeline_trace();
    let first_start = trace
        .iter()
        .map(|r| r.start_s)
        .fold(f64::INFINITY, f64::min);
    assert!(
        first_start < uploaded_at / 2.0,
        "post-reset launches must not wait on pre-reset upload events \
         (first start {first_start}, stale upload ended at {uploaded_at})"
    );
    // And the result is still the plain stencil output.
    let want = st.apply(&m).unwrap().to_vec().unwrap();
    assert_eq!(bits(&out.to_vec().unwrap()), bits(&want));
}

/// `mark_devices_modified` supersedes any recorded upload events: the next
/// streamed pass sees resident data and takes apply's single-launch path
/// instead of banded launches against dead chunk events.
#[test]
fn device_modification_clears_recorded_upload_events() {
    let c = ctx(2);
    let st = cross_stencil(Boundary2D::Neumann);
    let (rows, cols) = (32usize, 8usize);
    let m = Matrix::from_vec(&c, rows, cols, test_data(rows, cols, 5));
    m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .unwrap();
    m.ensure_on_devices_streamed(2).unwrap();
    m.mark_devices_modified();
    st.apply(&Matrix::from_vec(&c, 8, 8, test_data(8, 8, 6)))
        .unwrap(); // warm the program cache
    let before = c.platform().stats_snapshot();
    st.apply_streamed(&m, 2).unwrap();
    let delta = c.platform().stats_snapshot() - before;
    assert_eq!(
        delta.kernel_launches, 2,
        "resident input must launch once per part, not once per chunk band"
    );
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
