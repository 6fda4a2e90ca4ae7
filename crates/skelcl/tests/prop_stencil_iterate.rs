//! Property-based tests of `Stencil2D::iterate(n)`: the batched ping-pong
//! iteration and `n` chained `apply` calls are bit-identical to `n`
//! sequential host passes for arbitrary shapes, boundary modes, device
//! counts and starting distributions — and its exchange schedule is exact:
//! one halo exchange per block of rounds its `stencil2d.iterate` span
//! reports, where the chain exchanges once per `apply`.

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
            .cache_tag("prop-stencil-iterate"),
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

/// The damped cross's per-cell math over a tap `at(dr, dc)`: value mixing
/// keeps magnitudes bounded over many iterations so repeated applications
/// stay numerically interesting.
fn cross_at(at: impl Fn(isize, isize) -> f32) -> f32 {
    0.2 * (at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1)) + 0.1 * at(0, 0)
}

fn cross_stencil(
    boundary: Boundary2D,
) -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    let user = UserFn::new(
        "icross",
        "float icross(__global float* in, int r, int c, uint nr, uint nc) { /* damped cross */ }",
        |v: &Stencil2DView<'_, f32>| cross_at(|dr, dc| v.get(dr, dc)),
    );
    Stencil2D::new(user, 1, boundary)
}

/// Run `iterate(n)` (`batched`) or `n` chained `apply` calls on `m` and
/// return the halo exchanges the run counted and the block count the
/// `stencil2d.iterate` span reports (0 for the chain, which opens none).
/// The span's blocks cover the `n − 1` rounds after round 1 in near-equal
/// blocks of at most `block_rounds` rounds.
fn run_counting<F>(
    c: &Context,
    st: &Stencil2D<f32, f32, F>,
    m: &Matrix<f32>,
    n: usize,
    batched: bool,
) -> (u64, u64)
where
    F: Fn(&Stencil2DView<'_, f32>) -> f32 + Send + Sync + Clone + 'static,
{
    c.enable_spans();
    c.clear_spans();
    let before = c.halo_exchange_count();
    if !batched {
        let mut cur = m.clone();
        for _ in 0..n {
            cur = st.apply(&cur).unwrap();
        }
        return (c.halo_exchange_count() - before, 0);
    }
    st.iterate(m, n).unwrap();
    let exchanges = c.halo_exchange_count() - before;
    let spans = c.take_spans();
    let span = spans
        .iter()
        .find(|s| s.name == "stencil2d.iterate")
        .expect("iterate span");
    let attr = |key: &str| -> usize {
        let (_, v) = span.attrs.iter().find(|(k, _)| *k == key).expect(key);
        v.parse().unwrap()
    };
    let (blocks, rounds) = (attr("blocks"), attr("block_rounds"));
    if n > 1 {
        assert_eq!((n - 1).div_ceil(blocks), rounds, "near-equal blocks");
    } else {
        assert_eq!(blocks, 0, "one round runs no block");
    }
    (exchanges, blocks as u64)
}

fn test_data(rows: usize, cols: usize, seed: u32) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| {
            ((((i as u32).wrapping_mul(2654435761).wrapping_add(seed)) % 2000) as f32) / 8.0 - 125.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // iterate(n) == n chained applies == n host passes, bit for bit, for
    // every shape / boundary / device count / starting distribution /
    // iteration count.
    #[test]
    fn iterate_is_bit_identical_to_chained_applies(
        rows in 1usize..20,
        cols in 1usize..12,
        devices in 1usize..4,
        n in 0usize..6,
        boundary in boundary_strategy(),
        dist in dist_strategy(),
        seed in 0u32..1000,
    ) {
        let data = test_data(rows, cols, seed);
        let st = cross_stencil(boundary);
        let c = ctx(devices);

        let chained = {
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            m.set_distribution(dist).unwrap();
            let mut cur = m.clone();
            for _ in 0..n {
                cur = st.apply(&cur).unwrap();
            }
            cur.to_vec().unwrap()
        };
        let iterated = {
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            m.set_distribution(dist).unwrap();
            st.iterate(&m, n).unwrap().to_vec().unwrap()
        };
        let host = (0..n).fold(data, |cur, _| {
            host_stencil(&cur, (rows, cols), boundary, |at| cross_at(at))
        });
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&chained), bits(&host));
        prop_assert_eq!(bits(&iterated), bits(&chained));
    }

    // The dedicated 1/2/4-device sweep of the acceptance criteria: the
    // same input must produce one bit pattern on every device count.
    #[test]
    fn iterate_is_device_count_deterministic(
        rows in 1usize..20,
        cols in 1usize..12,
        n in 1usize..5,
        boundary in boundary_strategy(),
        seed in 0u32..1000,
    ) {
        let data = test_data(rows, cols, seed);
        let st = cross_stencil(boundary);
        let single = {
            let c = ctx(1);
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            st.iterate(&m, n).unwrap().to_vec().unwrap()
        };
        for devices in [2usize, 4] {
            let c = ctx(devices);
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            m.set_distribution(MatrixDistribution::RowBlock { halo: 1 }).unwrap();
            let got = st.iterate(&m, n).unwrap().to_vec().unwrap();
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{} devices", devices
            );
        }
    }

    // Exchange-count regression: on 2+ devices with a halo-stale input,
    // n chained applies perform exactly n halo-exchange events — one
    // batched exchange per apply, never one per radius row or per part —
    // and the blocked iterate(n) exactly one for the input plus one per
    // block of rounds its span reports (exchanges issued asynchronously on
    // the copy stream count like blocking ones).
    #[test]
    fn iterate_performs_exactly_n_halo_exchanges(
        rows in 8usize..24,
        cols in 1usize..8,
        devices in 2usize..5,
        n in 1usize..8,
        boundary in boundary_strategy(),
    ) {
        let c = ctx(devices);
        let st = cross_stencil(boundary);
        for batched in [true, false] {
            let m = Matrix::from_vec(&c, rows, cols, test_data(rows, cols, 7));
            m.set_distribution(MatrixDistribution::RowBlock { halo: 1 }).unwrap();
            // Make the input halo-stale, as it is in any real pipeline
            // where the grid arrives from a previous device-side skeleton.
            m.ensure_on_devices().unwrap();
            m.mark_devices_modified();
            let (exchanges, blocks) = run_counting(&c, &st, &m, n, batched);
            let want = if batched { 1 + blocks } else { n as u64 };
            prop_assert_eq!(exchanges, want, "batched={}", batched);
        }
    }
}

/// The non-property twin of the exchange-count regression, pinned to
/// plain configurations so a failure names them: the chain exchanges once
/// per apply, the blocked iterate once for the stale input and once per
/// block its span reports.
#[test]
fn two_and_four_device_iterates_exchange_once_per_iteration() {
    for devices in [2usize, 4] {
        for n in [1usize, 10] {
            for batched in [true, false] {
                let c = ctx(devices);
                let st = cross_stencil(Boundary2D::Neumann);
                let m = Matrix::from_vec(&c, 32, 8, test_data(32, 8, 3));
                m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
                    .unwrap();
                m.ensure_on_devices().unwrap();
                m.mark_devices_modified();
                let (exchanges, blocks) = run_counting(&c, &st, &m, n, batched);
                let want = if batched { 1 + blocks } else { n as u64 };
                assert_eq!(
                    exchanges, want,
                    "{n} iterations on {devices} devices (batched={batched})"
                );
            }
        }
    }
}

/// A fresh upload seeds coherent halos, so the first iteration's exchange
/// is a no-op: n iterations cost n − 1 exchange events on the chain, and
/// one per block of the n − 1 later rounds on the blocked iterate.
#[test]
fn fresh_uploads_save_the_first_exchange() {
    for batched in [true, false] {
        let c = ctx(4);
        let st = cross_stencil(Boundary2D::Wrap);
        let m = Matrix::from_vec(&c, 32, 8, test_data(32, 8, 5));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let (exchanges, blocks) = run_counting(&c, &st, &m, 6, batched);
        assert_eq!(
            exchanges,
            if batched { blocks } else { 5 },
            "batched={batched}"
        );
        assert!(!batched || blocks >= 1, "five later rounds run in blocks");
    }
}

/// Iterates on the modeled Tesla parts (16×16 work-groups, 16 KiB of local
/// memory), where the plan widens the tiles of its multi-round blocks, over
/// ragged shapes: widths that are no multiple of the tile width, parts
/// shorter than one tile, N×1 and 1×N matrices, every boundary mode and 1
/// to 4 devices. Each result equals the sequential host passes bit for bit,
/// and the cases marked as widening ran a tile wider or taller than the
/// lane grid, as their spans report.
#[test]
fn tesla_iterates_with_ragged_tiles_match_the_host_passes() {
    use MatrixDistribution::{Copy, RowBlock, Single};
    let row_block = RowBlock { halo: 1 };
    let cases = [
        // (rows, cols, devices, layout, boundary, n, widens)
        (400, 333, 3, row_block, Boundary2D::Wrap, 9, true),
        (40, 1000, 4, row_block, Boundary2D::Neumann, 8, true),
        (300, 410, 2, Copy, Boundary2D::Zero, 6, true),
        (257, 600, 1, row_block, Boundary2D::Wrap, 11, true),
        (400, 333, 4, row_block, Boundary2D::Neumann, 12, false),
        (300, 500, 2, row_block, Boundary2D::Zero, 10, false),
        (45, 650, 3, row_block, Boundary2D::Wrap, 7, false),
        (700, 1, 3, row_block, Boundary2D::Neumann, 10, false),
        (500, 1, 1, Single(0), Boundary2D::Wrap, 7, false),
        (1, 700, 2, row_block, Boundary2D::Zero, 6, false),
        (1, 700, 1, row_block, Boundary2D::Neumann, 6, false),
    ];
    for (i, &(rows, cols, devices, dist, boundary, n, widens)) in cases.iter().enumerate() {
        let c = Context::new(
            ContextConfig::default()
                .devices(devices)
                .cache_tag("prop-stencil-iterate"),
        );
        let data = test_data(rows, cols, i as u32);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(dist).unwrap();
        c.enable_spans();
        let got = cross_stencil(boundary)
            .iterate(&m, n)
            .unwrap()
            .to_vec()
            .unwrap();
        let host = (0..n).fold(data, |cur, _| {
            host_stencil(&cur, (rows, cols), boundary, |at| cross_at(at))
        });
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let at = format!("{rows}x{cols} on {devices} devices, {dist:?}, {boundary:?}, n={n}");
        assert_eq!(bits(&got), bits(&host), "{at}");
        if widens {
            let spans = c.take_spans();
            let span = spans
                .iter()
                .find(|s| s.name == "stencil2d.iterate")
                .expect("iterate span");
            let (_, tile) = span.attrs.iter().find(|(k, _)| *k == "tile").expect("tile");
            assert_ne!(tile, "16x16", "{at}: a widened tile");
        }
    }
}
