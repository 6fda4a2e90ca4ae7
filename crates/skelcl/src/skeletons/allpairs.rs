//! The AllPairs skeleton: `C[i][j] = f(row_i(A), col_j(B))` over
//! [`Matrix`] operands — SkelCL's later `AllPairs(M, N)` extension that
//! opens the dense-linear-algebra workload class (matrix multiplication,
//! pairwise distances, k-NN scoring).
//!
//! Like SkelCL's fast AllPairs implementation, the customizing function is
//! restricted to the **zip-reduce form**: a `zip` function combines the
//! paired elements `A[i][k]` and `B[k][j]`, and an associative `reduce`
//! function folds the `k` partial results (matrix multiplication is
//! `zip = ×`, `reduce = +`). This restriction is what admits the
//! local-memory tiled variant: because the reduction is a left fold in
//! ascending `k`, a work-group can stage `tile × tile` blocks of the A-row
//! strip and B-column strip in local memory and combine from there, cutting
//! global traffic by a factor of `tile` without changing the floating-point
//! evaluation order — naive and tiled results are **bit-identical**.
//!
//! Multi-device execution partitions `C`'s rows: `A` distributes by row
//! blocks, and `B` is replicated (a `Copy` or column-block `B` is
//! redistributed automatically, from its owners when its data is already
//! device-fresh: each range crosses the host once, and the stale host copy
//! is never uploaded).
//!
//! When `B`'s freshest data is on the **host**, the replication is
//! event-driven: each device's copy of `B` is uploaded as asynchronous
//! chunked writes on that device's copy stream, and the kernels are
//! launched with explicit event dependencies (a per-device marker joining
//! previously scheduled work, plus the device's last replication chunk)
//! instead of device-serializing. The upload therefore slides *under*
//! whatever kernels are already in flight on the compute engine — e.g.
//! other tenants' kernels when AllPairs jobs run inside the executor
//! service — while the math stays bit-identical to the blocking path.

use crate::codegen::{self, FusedStage, UserFn};
use crate::error::{Error, Result};
use crate::matrix::{Matrix, MatrixDistribution};
use crate::meter;
use crate::skeletons::pipeline::stage_of;
use crate::skeletons::range_2d;
use std::marker::PhantomData;
use std::sync::Arc;
use vgpu::{Event, KernelBody, NDRange, Order, Program, Scalar as Element};

/// Row granularity of the streamed B-replication upload: small enough that
/// the first chunks land while later ones are still crossing PCIe, large
/// enough that per-transfer latency stays amortised.
const B_REPLICATION_CHUNK_ROWS: usize = 64;

/// Which parallelisation [`AllPairs::apply`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllPairsStrategy {
    /// One work-item per output element, streaming both operands from
    /// global memory (`2k` loads per element).
    Naive,
    /// Work-groups of `tile × tile` items stage an A-row-strip tile and a
    /// B-col-strip tile in local memory per inner-dimension step, so each
    /// operand element is loaded from global memory once per *group*
    /// instead of once per *item*. The tile dimension is clamped to the
    /// context's work-group budget and the device's local-memory capacity.
    Tiled { tile: usize },
}

impl Default for AllPairsStrategy {
    fn default() -> Self {
        AllPairsStrategy::Tiled { tile: 16 }
    }
}

/// The type-erased Rust twin of a post stage, applied to each folded value.
type PostFn<U> = Arc<dyn Fn(U) -> U + Send + Sync>;

/// The AllPairs skeleton, customized by a zip function, an associative
/// reduce function and the reduction's identity element.
pub struct AllPairs<T: Element, U: Element, Fz, Fr> {
    zip: UserFn<Fz>,
    reduce: UserFn<Fr>,
    identity: U,
    strategy: AllPairsStrategy,
    /// The post stages fused into the write, for codegen, and their twins.
    post: Vec<FusedStage>,
    post_fns: Vec<PostFn<U>>,
    _pd: PhantomData<fn(T, T) -> U>,
}

impl<T, U, Fz, Fr> AllPairs<T, U, Fz, Fr>
where
    T: Element,
    U: Element,
    Fz: Fn(T, T) -> U + Send + Sync + Clone + 'static,
    Fr: Fn(U, U) -> U + Send + Sync + Clone + 'static,
{
    /// `AllPairs<float> mm(mult, sum, 0.0)` — matrix multiplication when
    /// `zip` multiplies and `reduce` adds from `identity = 0`.
    pub fn new(zip: UserFn<Fz>, reduce: UserFn<Fr>, identity: U) -> Self {
        AllPairs {
            zip,
            reduce,
            identity,
            strategy: AllPairsStrategy::default(),
            post: Vec::new(),
            post_fns: Vec::new(),
            _pd: PhantomData,
        }
    }

    /// Select the execution strategy (default: tiled with 16×16 tiles).
    pub fn with_strategy(mut self, strategy: AllPairsStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Fuse an element-wise post stage into the write of every output
    /// element: `C[i][j] = post(fold(...))` in the same kernel, with no
    /// intermediate matrix. Stages accumulate in call order and join the
    /// program's name (and so its cache key); the one AllPairs generator,
    /// [`codegen::allpairs_program`], applies them before the write under
    /// either strategy — e.g. a fused `sqrt` turns the zip-reduce of
    /// squared differences into Euclidean pairwise distances in one launch.
    pub fn with_post<Fp>(mut self, user: UserFn<Fp>) -> Self
    where
        Fp: Fn(U) -> U + Send + Sync + Clone + 'static,
    {
        self.post.push(stage_of("map", &user));
        self.post_fns.push(Arc::new(user.func().clone()));
        self
    }

    pub fn strategy(&self) -> AllPairsStrategy {
        self.strategy
    }

    /// The generated program for a tile dimension, `0` for the naive
    /// strategy (exposed for the cache experiments). The tile and the fused
    /// post stages are part of the program name and therefore of the
    /// kernel cache key; with no post stage this is the plain zip-reduce
    /// program.
    pub fn program(&self, tile: usize) -> Program {
        codegen::allpairs_program(
            self.zip.name(),
            self.zip.source(),
            self.reduce.name(),
            self.reduce.source(),
            &self.post,
            T::TYPE_NAME,
            U::TYPE_NAME,
            tile,
        )
    }

    /// The program [`AllPairs::apply`] builds on `ctx`, with its tile
    /// dimension (`0` for the naive strategy).
    pub fn program_on(&self, ctx: &crate::context::Context) -> (Program, usize) {
        let tile = match self.strategy {
            AllPairsStrategy::Naive => 0,
            AllPairsStrategy::Tiled { tile } => self.effective_tile(ctx, tile),
        };
        (self.program(tile), tile)
    }

    /// The largest usable tile dimension: the requested tile halved until
    /// `tile²` fits the context's work-group budget and two `tile²` operand
    /// tiles fit the device's local memory.
    fn effective_tile(&self, ctx: &crate::context::Context, requested: usize) -> usize {
        let spec = *ctx.device(0).spec();
        let wg_budget = ctx.work_group().min(spec.max_work_group).max(1);
        let elem = std::mem::size_of::<T>().max(1);
        let mut tile = requested.max(1);
        while tile > 1 && (tile * tile > wg_budget || 2 * tile * tile * elem > spec.local_mem_bytes)
        {
            tile /= 2;
        }
        tile
    }

    /// Apply the skeleton: `C[i][j] = reduce(identity, zip(A[i][k], B[k][j]))`
    /// folded in ascending `k`. `A` (an `m×k` matrix) keeps — or is moved
    /// to — a row-based distribution; `B` (`k×n`) is replicated to every
    /// device holding rows of `A` (from its owners when already resident).
    /// The output inherits `A`'s distribution, rows partitioned like `A`'s.
    pub fn apply(&self, a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<U>> {
        let (m, ka) = a.dims();
        let (kb, n) = b.dims();
        if ka != kb {
            return Err(Error::InnerDimMismatch {
                left: (m, ka),
                right: (kb, n),
            });
        }
        let ctx = a.ctx().clone();
        let mut span = ctx.span("allpairs.apply");
        span.attr("shape", format!("{m}x{ka}x{n}"));
        span.attr("distribution", format!("{:?}", a.distribution()));
        span.attr("devices", ctx.n_devices().to_string());

        // A's parts must hold full rows; a column-block A is re-laid out
        // into row blocks (from its owners when device-fresh).
        if !a.distribution().is_full_width() {
            a.set_distribution(MatrixDistribution::row_block())?;
        }
        // Every device computing rows of C needs all of B.
        let a_parts = a.parts_with_fresh_halos()?;
        let full_b_on = |parts: &[crate::matrix::MatrixPart<T>], device: usize| {
            parts
                .iter()
                .any(|p| p.device == device && p.rows == kb && p.cols == n)
        };
        // Host-fresh B: replicate it event-driven — markers join each
        // device's already-scheduled work (A's upload, in-flight kernels),
        // then the per-device copies stream as async chunked writes on the
        // copy streams, and each kernel below waits on exactly (marker, the
        // event this upload landed at on its device) instead of
        // serializing on the device.
        // A single-device A takes B to that device alone; on one device
        // that is the same layout as `Copy`, which B keeps there.
        // Device-fresh B: gathered from its owners, each range crossing the
        // host once, never from its stale host copy, with classic
        // device-serializing launches.
        let (b_parts, b_landed, b_markers) = if !b.device_fresh() {
            b.set_distribution(match a.distribution() {
                MatrixDistribution::Single(d) if ctx.n_devices() > 1 => {
                    MatrixDistribution::Single(d)
                }
                _ => MatrixDistribution::Copy,
            })?;
            let markers: Vec<Event> = (0..ctx.n_devices())
                .map(|d| ctx.queue(d).enqueue_marker())
                .collect();
            let (parts, landed) = b.parts_with_upload_chunks(B_REPLICATION_CHUNK_ROWS)?;
            (parts, landed, Some(markers))
        } else {
            let mut b_parts = b.parts()?;
            if a_parts
                .iter()
                .filter(|p| p.rows > 0)
                .any(|p| !full_b_on(&b_parts, p.device))
            {
                b.set_distribution(MatrixDistribution::Copy)?;
                b_parts = b.parts()?;
            }
            (b_parts, Vec::new(), None)
        };

        let (program, tile) = self.program_on(&ctx);
        let compiled = ctx.get_or_build(&program)?;

        // Output parts mirror A's row geometry at C's width. Halo rows are
        // computed too (their input rows — full A rows plus all of B — are
        // resident), so the output's halos are coherent from the start.
        let mut out_parts = Vec::with_capacity(a_parts.len());
        for p in &a_parts {
            out_parts.push(crate::matrix::MatrixPart {
                device: p.device,
                row_offset: p.row_offset,
                rows: p.rows,
                halo_above: p.halo_above,
                halo_below: p.halo_below,
                col_offset: 0,
                cols: n,
                buffer: ctx.device(p.device).alloc::<U>(p.span_rows() * n)?,
            });
        }

        // Static per-k cost of one zip + one reduce application, plus the
        // once-per-element cost of the fused post chain.
        let step_ops = self.zip.static_ops() + self.reduce.static_ops();
        let post_ops: u64 = self.post.iter().map(|s| s.static_ops).sum();
        let post_fns: Arc<Vec<PostFn<U>>> = Arc::new(self.post_fns.clone());
        let elem_bytes = std::mem::size_of::<T>();
        for (ap, op) in a_parts.iter().zip(&out_parts) {
            if ap.rows == 0 || n == 0 {
                continue;
            }
            let bi = b_parts
                .iter()
                .position(|p| p.device == ap.device && p.rows == kb && p.cols == n)
                .expect("B was just replicated to every computing device");
            let bp = &b_parts[bi];
            // Kernel-body snapshots of the device-resident operands: the
            // inner loop runs k times per output element, so per-access
            // counted reads would dominate wall time; traffic and work are
            // charged in bulk per item instead (see `it.traffic_read`), and
            // each item notes the A row and B column it reads for the
            // hazard checker.
            let (a_buf, b_buf) = (ap.buffer.clone(), bp.buffer.clone());
            let a_snap: Arc<Vec<T>> = Arc::new(a_buf.to_vec());
            let b_snap: Arc<Vec<T>> = Arc::new(b_buf.to_vec());
            let b_base = bp.halo_above * n;
            let zip = self.zip.func().clone();
            let red = self.reduce.func().clone();
            let post = post_fns.clone();
            let identity = self.identity;
            let dst = op.buffer.clone();
            let span_rows = ap.span_rows();

            // Both strategies compute the same ascending-k left fold per
            // element (that is what makes naive and tiled bit-identical);
            // they differ only in staging and in how much global traffic
            // each item is charged — naive streams both operands per k
            // step, tiled loads one element of each operand per k-tile and
            // serves the rest from local memory.
            let staging = (tile > 0).then(|| (tile, ka.div_ceil(tile)));
            let per_item_bytes = match staging {
                None => 2 * ka * elem_bytes,
                Some((_, n_ktiles)) => 2 * n_ktiles * elem_bytes,
            };
            let body: KernelBody = Arc::new(move |wg| {
                if let Some((tile, n_ktiles)) = staging {
                    // The staging tiles: allocated so the device's
                    // local-memory budget is enforced and the footprint
                    // shows up in the cost model. The load patterns
                    // (broadcast for the A tile, unit-stride for the B
                    // tile) are bank-conflict-free, so no conflict passes
                    // are recorded.
                    let _a_tile = wg.local_buf::<T>(tile * tile);
                    let _b_tile = wg.local_buf::<T>(tile * tile);
                    for _ in 0..n_ktiles {
                        wg.barrier(); // after staging the tiles
                        wg.barrier(); // before overwriting them
                    }
                }
                wg.for_each_item(|it| {
                    if !it.in_bounds() {
                        return;
                    }
                    let col = it.global_id(0);
                    let s = it.global_id(1);
                    if ka > 0 {
                        it.note_read(&a_buf, s * ka..(s + 1) * ka);
                        it.note_read(&b_buf, b_base + col..b_base + (ka - 1) * n + col + 1);
                    }
                    let a_row = &a_snap[s * ka..(s + 1) * ka];
                    let (acc, dyn_ops) = meter::metered(|| {
                        let mut acc = identity;
                        for (kk, &x) in a_row.iter().enumerate() {
                            acc = red(acc, zip(x, b_snap[b_base + kk * n + col]));
                        }
                        for f in post.iter() {
                            acc = f(acc);
                        }
                        acc
                    });
                    it.write(&dst, s * n + col, acc);
                    it.work(ka as u64 * step_ops + post_ops + dyn_ops);
                    it.traffic_read(per_item_bytes);
                });
            });
            let nd = match staging {
                None => range_2d(&ctx, n, span_rows),
                Some((tile, _)) => NDRange::two_d((n, span_rows), (tile, tile)),
            };
            let deps = b_markers.as_ref().map(|markers| {
                let mut deps = vec![markers[ap.device].clone()];
                deps.extend(b_landed.get(bi).cloned().flatten());
                deps
            });
            let order = deps.as_deref().map_or(Order::Device, Order::After);
            ctx.queue(ap.device)
                .launch(&compiled.with_body(body), nd, order)?;
        }

        Ok(Matrix::from_device_parts(
            &ctx,
            m,
            n,
            a.distribution(),
            out_parts,
            true,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::ctx;

    type AllPairsF32 = AllPairs<f32, f32, fn(f32, f32) -> f32, fn(f32, f32) -> f32>;

    fn matmul_skel() -> AllPairsF32 {
        AllPairs::new(
            crate::skel_fn!(
                fn mult(x: f32, y: f32) -> f32 {
                    x * y
                }
            ),
            crate::skel_fn!(
                fn sum(x: f32, y: f32) -> f32 {
                    x + y
                }
            ),
            0.0,
        )
    }

    fn test_data(rows: usize, cols: usize, salt: u32) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| {
                (((i as u32).wrapping_mul(2654435761).wrapping_add(salt) % 1000) as f32) / 8.0
                    - 60.0
            })
            .collect()
    }

    /// The sequential truth: identical fold order (ascending k from the
    /// identity) to both device strategies.
    fn reference_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c.push(acc);
            }
        }
        c
    }

    #[test]
    fn matmul_matches_reference_on_one_device() {
        let c = ctx(1);
        let (m, k, n) = (9, 7, 11);
        let (da, db) = (test_data(m, k, 1), test_data(k, n, 2));
        let a = Matrix::from_vec(&c, m, k, da.clone());
        let b = Matrix::from_vec(&c, k, n, db.clone());
        let got = matmul_skel().apply(&a, &b).unwrap().to_vec().unwrap();
        let want = reference_matmul(&da, &db, m, k, n);
        assert_eq!(got, want);
    }

    #[test]
    fn naive_and_tiled_are_bit_identical_across_device_counts() {
        let (m, k, n) = (13, 17, 10);
        let (da, db) = (test_data(m, k, 3), test_data(k, n, 4));
        let want: Vec<u32> = reference_matmul(&da, &db, m, k, n)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for devices in [1usize, 2, 4] {
            for strategy in [
                AllPairsStrategy::Naive,
                AllPairsStrategy::Tiled { tile: 16 },
            ] {
                let c = ctx(devices);
                let a = Matrix::from_vec(&c, m, k, da.clone());
                let b = Matrix::from_vec(&c, k, n, db.clone());
                let got: Vec<u32> = matmul_skel()
                    .with_strategy(strategy)
                    .apply(&a, &b)
                    .unwrap()
                    .to_vec()
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, want, "{devices} devices, {strategy:?}");
            }
        }
    }

    #[test]
    fn col_block_b_is_gathered_device_side() {
        let devices = 3;
        let c = ctx(devices);
        let (m, k, n) = (12, 8, 9);
        let (da, db) = (test_data(m, k, 5), test_data(k, n, 6));
        let a = Matrix::from_vec(&c, m, k, da.clone());
        // B's host copy goes stale: its device copies are rewritten to `db`
        // as a kernel would.
        let b = Matrix::from_vec(&c, k, n, vec![-1.0; k * n]);
        b.set_distribution(MatrixDistribution::ColBlock).unwrap();
        for p in b.parts().unwrap() {
            for r in 0..p.rows {
                for j in 0..p.cols {
                    p.buffer.set(r * p.cols + j, db[r * n + p.col_offset + j]);
                }
            }
        }
        b.mark_devices_modified();
        let before = c.platform().stats_snapshot();
        let got = matmul_skel().apply(&a, &b).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        // B's 8×9 cells sit in three column blocks of 3. Each device's
        // block is downloaded once, one 3-cell row at a time (24 downloads
        // of all 72 cells), and uploaded to the two other devices' copies
        // (48 uploads of 144 cells). A's three row blocks are uploaded from
        // its fresh host copy (3 uploads of 96 cells). Nothing is copied
        // device to device, and the stale host copy of B is never read.
        let cell = 4;
        assert_eq!((delta.d2h_transfers, delta.d2h_bytes), (24, 72 * cell));
        assert_eq!((delta.h2d_transfers, delta.h2d_bytes), (51, 240 * cell));
        assert_eq!(delta.d2d_transfers, 0, "B's columns cross the host");
        assert!(b.host_fresh(), "every cell of B crossed the host");
        assert_eq!(got.to_vec().unwrap(), reference_matmul(&da, &db, m, k, n));
    }

    #[test]
    fn inner_dimension_mismatch_is_rejected() {
        let c = ctx(1);
        let a = Matrix::from_vec(&c, 3, 4, vec![0.0f32; 12]);
        let b = Matrix::from_vec(&c, 5, 2, vec![0.0f32; 10]);
        let err = matmul_skel().apply(&a, &b).unwrap_err();
        assert!(matches!(err, Error::InnerDimMismatch { .. }));
        assert!(err.to_string().contains("3x4"));
        assert!(err.to_string().contains("5x2"));
    }

    #[test]
    fn tile_dimension_is_part_of_the_cache_key() {
        let s = matmul_skel();
        let t8 = s.program(8).hash();
        let t16 = s.program(16).hash();
        let naive = s.program(0).hash();
        assert_ne!(t8, t16, "tile dims must produce distinct programs");
        assert_ne!(t8, naive);
    }

    #[test]
    fn oversized_tile_is_clamped_to_the_work_group_budget() {
        // test contexts use a 64-item work-group budget: a 16×16 tile (256
        // items) must clamp down to 8×8 rather than fail the launch.
        let c = ctx(2);
        let (m, k, n) = (20, 33, 18);
        let (da, db) = (test_data(m, k, 7), test_data(k, n, 8));
        let a = Matrix::from_vec(&c, m, k, da.clone());
        let b = Matrix::from_vec(&c, k, n, db.clone());
        let got = matmul_skel()
            .with_strategy(AllPairsStrategy::Tiled { tile: 16 })
            .apply(&a, &b)
            .unwrap();
        assert_eq!(got.to_vec().unwrap(), reference_matmul(&da, &db, m, k, n));
    }

    #[test]
    fn tiled_launches_record_the_a_rows_and_b_columns_they_read() {
        let c = ctx(2);
        let (m, k, n) = (6, 5, 7);
        let a = Matrix::from_vec(&c, m, k, test_data(m, k, 3));
        let b = Matrix::from_vec(&c, k, n, test_data(k, n, 4));
        c.platform().enable_timeline_trace();
        matmul_skel()
            .with_strategy(AllPairsStrategy::Tiled { tile: 8 })
            .apply(&a, &b)
            .unwrap();
        c.sync();
        let trace = c.platform().take_timeline_trace();
        let kernels: Vec<_> = trace
            .iter()
            .filter(|r| r.kind == vgpu::CmdKind::Kernel)
            .collect();
        assert_eq!(kernels.len(), 2);
        let (a_parts, b_parts) = (a.parts().unwrap(), b.parts().unwrap());
        for rec in kernels {
            let on_device = |id| {
                rec.reads
                    .iter()
                    .find(|r| r.buffer == id)
                    .map(|r| (r.lo, r.hi))
            };
            let ap = a_parts.iter().find(|p| p.device == rec.device.0).unwrap();
            let bp = b_parts.iter().find(|p| p.device == rec.device.0).unwrap();
            let a_bytes = (ap.span_rows() * k * 4) as u64;
            assert_eq!(on_device(ap.buffer.id()), Some((0, a_bytes)), "every A row");
            let b_lo = (bp.halo_above * n * 4) as u64;
            let b_hi = b_lo + (k * n * 4) as u64;
            assert_eq!(on_device(bp.buffer.id()), Some((b_lo, b_hi)), "all of B");
        }
    }

    #[test]
    fn tiled_beats_naive_in_the_virtual_timeline() {
        let c = ctx(1);
        let (m, k, n) = (96, 96, 96);
        let a = Matrix::from_vec(&c, m, k, test_data(m, k, 9));
        let b = Matrix::from_vec(&c, k, n, test_data(k, n, 10));
        a.ensure_on_devices().unwrap();
        b.ensure_on_devices().unwrap();
        let s = matmul_skel();
        // Warm the program cache so only kernel time is compared.
        s.apply(&a, &b).unwrap();
        s.with_strategy(AllPairsStrategy::Naive)
            .apply(&a, &b)
            .unwrap();

        c.platform().reset_clocks();
        matmul_skel().apply(&a, &b).unwrap();
        c.sync();
        let t_tiled = c.host_now_s();

        c.platform().reset_clocks();
        matmul_skel()
            .with_strategy(AllPairsStrategy::Naive)
            .apply(&a, &b)
            .unwrap();
        c.sync();
        let t_naive = c.host_now_s();
        assert!(
            t_tiled < t_naive,
            "local-memory tiling must model faster: tiled={t_tiled} naive={t_naive}"
        );
    }

    #[test]
    fn empty_inner_dimension_yields_the_identity() {
        let c = ctx(2);
        let a = Matrix::from_vec(&c, 4, 0, vec![]);
        let b = Matrix::from_vec(&c, 0, 3, vec![]);
        let got = matmul_skel().apply(&a, &b).unwrap().to_vec().unwrap();
        assert_eq!(got, vec![0.0f32; 12]);
    }

    #[test]
    fn host_fresh_b_replication_overlaps_prior_kernels() {
        let c = ctx(1);
        let (m, k, n) = (48, 64, 48);
        let (da, db) = (test_data(m, k, 13), test_data(k, n, 14));
        let s = matmul_skel();
        let a = Matrix::from_vec(&c, m, k, da.clone());
        a.ensure_on_devices().unwrap();
        // Warm the program cache so the timed window is pure scheduling.
        s.apply(&a, &Matrix::from_vec(&c, k, n, db.clone()))
            .unwrap();
        c.sync();
        c.platform().reset_clocks();
        c.platform().enable_timeline_trace();

        // An in-flight kernel on the compute engine: classic launches do
        // not block the host, so the streamed replication below has a
        // window to slide under.
        let b_resident = Matrix::from_vec(&c, k, n, db.clone());
        b_resident.ensure_on_devices().unwrap();
        s.apply(&a, &b_resident).unwrap();

        // Host-fresh B: replication must ride the copy stream *under* the
        // kernel above instead of serializing behind it.
        let b_fresh = Matrix::from_vec(&c, k, n, db.clone());
        let got = s.apply(&a, &b_fresh).unwrap();
        c.sync();
        let trace = c.platform().take_timeline_trace();
        let overlap: f64 = vgpu::compute_copy_overlap_s(&trace)
            .into_iter()
            .map(|(_, s)| s)
            .sum();
        assert!(
            overlap > 0.0,
            "streamed B replication must overlap the in-flight kernel"
        );
        assert_eq!(
            got.to_vec().unwrap(),
            reference_matmul(&da, &db, m, k, n),
            "event-driven replication must stay bit-identical"
        );
    }

    #[test]
    fn every_launch_waits_for_its_devices_streamed_b() {
        // Two devices, a warm program and a host-fresh `B` of several
        // replication chunks: each device's kernel waits for the event its
        // own `B` upload landed at, so no launch starts before the last
        // host-to-device write to its device ends.
        let c = ctx(2);
        let (m, k, n) = (32, 4 * B_REPLICATION_CHUNK_ROWS, 16);
        let s = matmul_skel();
        let a = Matrix::from_vec(&c, m, k, test_data(m, k, 21));
        a.ensure_on_devices().unwrap();
        s.apply(&a, &Matrix::from_vec(&c, k, n, test_data(k, n, 22)))
            .unwrap();
        c.sync();
        c.platform().reset_clocks();
        c.platform().enable_timeline_trace();
        let db = test_data(k, n, 23);
        let got = s
            .apply(&a, &Matrix::from_vec(&c, k, n, db.clone()))
            .unwrap();
        c.sync();
        let trace = c.platform().take_timeline_trace();
        for d in 0..2 {
            let on_d = |kind| {
                trace
                    .iter()
                    .filter(move |r| r.device.0 == d && r.kind == kind)
            };
            let landed = on_d(vgpu::CmdKind::H2D)
                .map(|r| r.end_s)
                .fold(0.0, f64::max);
            assert!(landed > 0.0, "device {d} receives its B");
            let mut launches = 0;
            for r in on_d(vgpu::CmdKind::Kernel) {
                assert!(
                    r.start_s >= landed,
                    "device {d}'s launch at {} starts before its B lands at {landed:.3e}",
                    r.start_s
                );
                launches += 1;
            }
            assert_eq!(launches, 1, "device {d} launches once");
        }
        let want: Vec<u32> = reference_matmul(&test_data(m, k, 21), &db, m, k, n)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let got: Vec<u32> = got.to_vec().unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn host_fresh_b_is_uploaded_only_where_a_has_rows() {
        let c = ctx(2);
        let (m, k, n) = (10, 12, 9);
        let (da, db) = (test_data(m, k, 17), test_data(k, n, 18));
        let a = Matrix::from_vec(&c, m, k, da.clone());
        a.set_distribution(MatrixDistribution::Single(1)).unwrap();
        let b = Matrix::from_vec(&c, k, n, db.clone());
        let before = c.platform().stats_snapshot();
        let got = matmul_skel().apply(&a, &b).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(
            delta.h2d_bytes,
            ((m * k + k * n) * std::mem::size_of::<f32>()) as u64,
            "A and B each cross PCIe once, to device 1 only"
        );
        assert_eq!(c.device(0).used_bytes(), 0, "device 0 computes nothing");
        let want: Vec<u32> = reference_matmul(&da, &db, m, k, n)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let got: Vec<u32> = got.to_vec().unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fused_post_stage_matches_separate_map_bitwise() {
        let sqrt_abs = || {
            crate::skel_fn!(
                fn sqrt_abs(x: f32) -> f32 {
                    x.abs().sqrt()
                }
            )
        };
        let (m, k, n) = (11, 9, 8);
        let (da, db) = (test_data(m, k, 15), test_data(k, n, 16));
        for devices in [1usize, 2, 4] {
            for strategy in [
                AllPairsStrategy::Naive,
                AllPairsStrategy::Tiled { tile: 16 },
            ] {
                let c = ctx(devices);
                let a = Matrix::from_vec(&c, m, k, da.clone());
                let b = Matrix::from_vec(&c, k, n, db.clone());
                let fused: Vec<u32> = matmul_skel()
                    .with_strategy(strategy)
                    .with_post(sqrt_abs())
                    .apply(&a, &b)
                    .unwrap()
                    .to_vec()
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let plain = matmul_skel().with_strategy(strategy).apply(&a, &b).unwrap();
                let unfused: Vec<u32> = crate::Map::new(sqrt_abs())
                    .apply_matrix(&plain)
                    .unwrap()
                    .to_vec()
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(fused, unfused, "{devices} devices, {strategy:?}");
            }
        }
    }

    #[test]
    fn fused_post_stage_changes_the_program_cache_key() {
        let sq = crate::skel_fn!(
            fn sq(x: f32) -> f32 {
                x * x
            }
        );
        let plain = matmul_skel();
        let fused = matmul_skel().with_post(sq);
        assert_ne!(plain.program(0).hash(), fused.program(0).hash());
        assert_ne!(plain.program(8).hash(), fused.program(8).hash());
    }

    #[test]
    fn more_devices_than_rows_still_agrees() {
        let c = ctx(4);
        let (m, k, n) = (2, 6, 5);
        let (da, db) = (test_data(m, k, 11), test_data(k, n, 12));
        let a = Matrix::from_vec(&c, m, k, da.clone());
        let b = Matrix::from_vec(&c, k, n, db.clone());
        let got = matmul_skel().apply(&a, &b).unwrap().to_vec().unwrap();
        assert_eq!(got, reference_matmul(&da, &db, m, k, n));
    }
}
