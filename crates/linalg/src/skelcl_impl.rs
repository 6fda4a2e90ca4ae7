//! The SkelCL implementation of the linalg pipelines: `Matrix` containers,
//! the `AllPairs` skeleton (naive or tiled), an element-wise `Map` and the
//! index-carrying `ReduceRowsArg` row reduction, all device-resident.
//! Intermediates never come back to the host: `B` operands are replicated
//! between devices (each range staged through the host once), the
//! distance pipeline chains AllPairs into
//! Map on the devices, and the 1-NN per-query argmin runs as a device-side
//! row reduction over the distance matrix — the `q×p` matrix itself is
//! never downloaded (asserted by the transfer-count regression test
//! below); only the two length-`q` result vectors cross the host boundary.

use skelcl::{
    AllPairs, AllPairsStrategy, Context, Map, Matrix, MatrixDistribution, ReduceRowsArg, Result,
    UserFn, Vector,
};

/// An `f32` AllPairs skeleton customized by plain function pointers (the
/// shape `skel_fn!` produces).
pub type AllPairsF32 = AllPairs<f32, f32, fn(f32, f32) -> f32, fn(f32, f32) -> f32>;

/// The matrix-multiplication skeleton: zip = `×`, reduce = `+` from 0.
pub fn matmul_skeleton() -> AllPairsF32 {
    AllPairs::new(
        skelcl::skel_fn!(
            fn mult(x: f32, y: f32) -> f32 {
                x * y
            }
        ),
        skelcl::skel_fn!(
            fn sum(x: f32, y: f32) -> f32 {
                x + y
            }
        ),
        0.0,
    )
}

/// The squared-distance skeleton: zip = squared difference, reduce = `+`.
pub fn sq_distance_skeleton() -> AllPairsF32 {
    AllPairs::new(
        skelcl::skel_fn!(
            fn sqdiff(x: f32, y: f32) -> f32 {
                let d = x - y;
                d * d
            }
        ),
        skelcl::skel_fn!(
            fn sum(x: f32, y: f32) -> f32 {
                x + y
            }
        ),
        0.0,
    )
}

/// `C = A · B` over device-resident matrices; the result stays on the
/// devices, rows partitioned like `A`'s.
pub fn matmul_matrices(
    a: &Matrix<f32>,
    b: &Matrix<f32>,
    strategy: AllPairsStrategy,
) -> Result<Matrix<f32>> {
    matmul_skeleton().with_strategy(strategy).apply(a, b)
}

/// `C = A · B` from host slices: builds the matrices (A row-blocked, B
/// replicated), multiplies, downloads.
pub fn matmul(
    ctx: &Context,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    strategy: AllPairsStrategy,
) -> Result<Vec<f32>> {
    let a = Matrix::from_slice(ctx, m, k, a);
    let b = Matrix::from_slice(ctx, k, n, b);
    matmul_matrices(&a, &b, strategy)?.to_vec()
}

/// The `q×p` Euclidean distance matrix between every query (rows of
/// `queries`, `q×dim`) and every reference point (rows of `points`,
/// `p×dim`), computed as `sqrt(AllPairs(queries, pointsᵀ))` — the transpose
/// turns each point's coordinates into a column, which is exactly the
/// `B`-operand shape AllPairs consumes (and a natural fit for a
/// [`MatrixDistribution::ColBlock`] layout). The result stays on the
/// devices.
pub fn distance_matrix(
    queries: &Matrix<f32>,
    points: &Matrix<f32>,
    strategy: AllPairsStrategy,
) -> Result<Matrix<f32>> {
    let points_t = points.transpose()?;
    // Column blocks make each device's share of Bᵀ explicit; AllPairs
    // gathers the full copy it needs from the other devices.
    if points_t.ctx().n_devices() > 1 {
        points_t.set_distribution(MatrixDistribution::ColBlock)?;
    }
    let sq = sq_distance_skeleton()
        .with_strategy(strategy)
        .apply(queries, &points_t)?;
    let sqrt = Map::new(UserFn::new(
        "sqrtf",
        "float sqrtf(float x) { return sqrt(x); }",
        |x: f32| x.sqrt(),
    ));
    sqrt.apply_matrix(&sq)
}

/// The per-row argmin skeleton: a strictly-less scan in ascending column
/// order, so the lowest reference index wins ties — exactly the
/// [`crate::seq::nearest_neighbors`] tie-break.
pub fn argmin_skeleton() -> ReduceRowsArg<f32, fn(f32, f32) -> bool> {
    ReduceRowsArg::new(skelcl::skel_fn!(
        fn less(x: f32, y: f32) -> bool {
            x < y
        }
    ))
}

/// The device-resident 1-NN pipeline: distance matrix on the devices, then
/// a device-side per-query argmin row reduction. Returns the per-query
/// `(nearest_distance, nearest_index)` vectors **still on the devices** —
/// the distance matrix never crosses the host boundary.
pub fn nearest_neighbors_device(
    queries: &Matrix<f32>,
    points: &Matrix<f32>,
    strategy: AllPairsStrategy,
) -> Result<(Vector<f32>, Vector<u32>)> {
    let d = distance_matrix(queries, points, strategy)?;
    argmin_skeleton().apply(&d)
}

/// The 1-NN pipeline: distance matrix and per-query argmin on the devices,
/// then a download of the two length-`q` results. Returns
/// `(nearest_distance, nearest_index)` per query.
pub fn nearest_neighbors(
    queries: &Matrix<f32>,
    points: &Matrix<f32>,
    strategy: AllPairsStrategy,
) -> Result<(Vec<f32>, Vec<usize>)> {
    let (dist, idx) = nearest_neighbors_device(queries, points, strategy)?;
    Ok((
        dist.to_vec()?,
        idx.to_vec()?.into_iter().map(|i| i as usize).collect(),
    ))
}

/// The pre-`ReduceRowsArg` baseline: download the whole `q×p` distance
/// matrix and scan it on the host. Kept for the `fig_reduce2d` comparison
/// (device-side argmin vs download-and-host-argmin); produces bit-identical
/// results to [`nearest_neighbors`].
pub fn nearest_neighbors_host_argmin(
    queries: &Matrix<f32>,
    points: &Matrix<f32>,
    strategy: AllPairsStrategy,
) -> Result<(Vec<f32>, Vec<usize>)> {
    let d = distance_matrix(queries, points, strategy)?;
    let (q, p) = d.dims();
    let host = d.to_vec()?;
    let nn = crate::seq::nearest_neighbors(&host, q, p);
    let dist = nn
        .iter()
        .enumerate()
        .map(|(i, &j)| host[i * p + j])
        .collect();
    Ok((dist, nn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skelcl::ContextConfig;

    fn ctx(n: usize) -> Context {
        Context::new(
            ContextConfig::default()
                .devices(n)
                .spec(vgpu::DeviceSpec::tiny())
                .work_group(64)
                .cache_tag("skelcl-linalg-tests"),
        )
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matmul_is_bit_identical_to_sequential_on_1_2_4_devices() {
        let (m, k, n) = (33, 29, 21);
        let a = crate::test_matrix(m, k, 1);
        let b = crate::test_matrix(k, n, 2);
        let want = crate::seq::matmul(&a, &b, m, k, n);
        for devices in [1usize, 2, 4] {
            for strategy in [
                AllPairsStrategy::Naive,
                AllPairsStrategy::Tiled { tile: 16 },
            ] {
                let c = ctx(devices);
                let got = matmul(&c, &a, &b, m, k, n, strategy).unwrap();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{devices} devices, {strategy:?} must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn distances_and_nn_are_bit_identical_on_1_2_4_devices() {
        let (q, p, dim) = (17, 23, 7);
        let queries = crate::test_points(q, dim, 3);
        let points = crate::test_points(p, dim, 4);
        let want_d = crate::seq::pairwise_distances(&queries, &points, q, p, dim);
        let want_nn = crate::seq::nearest_neighbors(&want_d, q, p);
        let want_nd: Vec<f32> = want_nn
            .iter()
            .enumerate()
            .map(|(i, &j)| want_d[i * p + j])
            .collect();
        for devices in [1usize, 2, 4] {
            for strategy in [AllPairsStrategy::Naive, AllPairsStrategy::Tiled { tile: 8 }] {
                let c = ctx(devices);
                let qm = Matrix::from_slice(&c, q, dim, &queries);
                let pm = Matrix::from_slice(&c, p, dim, &points);
                let got_full = distance_matrix(&qm, &pm, strategy)
                    .unwrap()
                    .to_vec()
                    .unwrap();
                assert_eq!(
                    bits(&got_full),
                    bits(&want_d),
                    "{devices} devices {strategy:?}"
                );
                let qm = Matrix::from_slice(&c, q, dim, &queries);
                let pm = Matrix::from_slice(&c, p, dim, &points);
                let (got_nd, got_nn) = nearest_neighbors(&qm, &pm, strategy).unwrap();
                assert_eq!(got_nn, want_nn, "{devices} devices {strategy:?}");
                assert_eq!(
                    bits(&got_nd),
                    bits(&want_nd),
                    "{devices} devices {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn device_and_host_argmin_agree_bitwise() {
        let (q, p, dim) = (13, 19, 5);
        let queries = crate::test_points(q, dim, 7);
        let points = crate::test_points(p, dim, 8);
        for devices in [1usize, 2, 4] {
            let c = ctx(devices);
            let qm = Matrix::from_slice(&c, q, dim, &queries);
            let pm = Matrix::from_slice(&c, p, dim, &points);
            let dev = nearest_neighbors(&qm, &pm, AllPairsStrategy::default()).unwrap();
            let qm = Matrix::from_slice(&c, q, dim, &queries);
            let pm = Matrix::from_slice(&c, p, dim, &points);
            let host =
                nearest_neighbors_host_argmin(&qm, &pm, AllPairsStrategy::default()).unwrap();
            assert_eq!(dev.1, host.1, "{devices} devices");
            assert_eq!(bits(&dev.0), bits(&host.0), "{devices} devices");
        }
    }

    #[test]
    fn query_in_the_point_set_finds_itself() {
        let c = ctx(2);
        let (p, dim) = (12, 5);
        let points_data = crate::test_points(p, dim, 9);
        let queries = Matrix::from_slice(&c, 1, dim, &points_data[5 * dim..6 * dim]);
        let points = Matrix::from_slice(&c, p, dim, &points_data);
        let (d, nn) = nearest_neighbors(&queries, &points, AllPairsStrategy::default()).unwrap();
        assert_eq!(nn, vec![5]);
        assert_eq!(d, vec![0.0]);
    }

    // The doc-contract regression: the module header promises the distance
    // matrix never crosses the host boundary; this pins it down in the
    // transfer accounting. The whole 1-NN pipeline — distances + argmin —
    // performs zero device→host transfers; only the caller's download of
    // the two length-q result vectors is d2h, and it moves q·(4+4) bytes,
    // not q·p·4.
    #[test]
    fn one_nn_downloads_zero_distance_matrix_bytes() {
        let c = ctx(2);
        let (q, p, dim) = (16, 24, 6);
        let qm = Matrix::from_slice(&c, q, dim, &crate::test_points(q, dim, 11));
        let pm = Matrix::from_slice(&c, p, dim, &crate::test_points(p, dim, 12));
        // The d2h accounting is read through the context's unified metrics
        // view (the platform counters surface there as `vgpu.*`).
        let d2h = |c: &skelcl::Context| {
            let m = c.metrics_snapshot();
            (
                m["vgpu.d2h_transfers"].as_counter().unwrap(),
                m["vgpu.d2h_bytes"].as_counter().unwrap(),
            )
        };
        let (before_transfers, before_bytes) = d2h(&c);
        let (dist, idx) = nearest_neighbors_device(&qm, &pm, AllPairsStrategy::default()).unwrap();
        let (after_transfers, after_bytes) = d2h(&c);
        assert_eq!(
            after_transfers - before_transfers,
            0,
            "no device→host transfers at all"
        );
        assert_eq!(
            after_bytes - before_bytes,
            0,
            "no device→host bytes for the distance matrix"
        );
        // The only d2h is the caller's final download of the tiny results.
        let (before_transfers, before_bytes) = d2h(&c);
        let _ = dist.to_vec().unwrap();
        let _ = idx.to_vec().unwrap();
        let (after_transfers, after_bytes) = d2h(&c);
        assert!(
            after_transfers > before_transfers,
            "the result download is real"
        );
        assert!(
            after_bytes - before_bytes < (q * p * 4 / 2) as u64,
            "results are vastly smaller than the q×p matrix"
        );
    }

    #[test]
    fn distance_pipeline_stays_on_the_devices() {
        let c = ctx(2);
        let (q, p, dim) = (10, 14, 4);
        let qm = Matrix::from_slice(&c, q, dim, &crate::test_points(q, dim, 5));
        let pm = Matrix::from_slice(&c, p, dim, &crate::test_points(p, dim, 6));
        // Chaining AllPairs into Map must not download the intermediate:
        // no d2h traffic happens until we fetch the final result.
        let before = c.platform().stats_snapshot();
        let d = distance_matrix(&qm, &pm, AllPairsStrategy::default()).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.d2h_transfers, 0, "intermediates stay on the devices");
        let before = c.platform().stats_snapshot();
        let _ = d.to_vec().unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert!(delta.d2h_transfers > 0, "the final download is real");
    }
}
