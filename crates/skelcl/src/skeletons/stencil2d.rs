//! The Stencil2D skeleton: a 2D stencil over [`Matrix`] with automatic
//! inter-device halo exchange.
//!
//! This is the 2D generalisation of [`crate::MapOverlap`] — the skeleton
//! behind SkelCL's image-processing benchmarks (Gaussian blur, Sobel,
//! Canny). Each output element is computed from its input element and the
//! `radius`-neighbourhood around it. Under a
//! [`MatrixDistribution::RowBlock`] distribution the neighbourhood crosses
//! device boundaries; the halo rows the distribution maintains (refreshed
//! by an automatic [`Matrix::halo_exchange`] when stale) provide them
//! without gathering the whole matrix anywhere.
//!
//! Out-of-matrix accesses follow the [`Boundary2D`] mode: `Neumann`
//! replicates the edge element (zero-gradient), `Wrap` treats the matrix as
//! a torus, `Zero` reads the element type's default.
//!
//! Every stencil launch — [`Stencil2D::apply`], [`Stencil2D::apply_streamed`],
//! [`Stencil2D::iterate`] and the stencil groups of a
//! [`Pipeline`](crate::Pipeline) — goes through one per-part launcher over
//! one view type and one generated program family
//! ([`codegen::fused_stencil2d_program`]). A `Stencil2D` is the stencil
//! group with no element-wise stage fused into it.

use crate::codegen::{self, UserFn};
use crate::context::Context;
use crate::error::Result;
use crate::matrix::{
    alloc_parts, block_ranges, exchange_part_halos, exchange_part_halos_overlapped, Matrix,
    MatrixDistribution, MatrixPart, UploadChunk,
};
use crate::meter;
use crate::skeletons::pipeline::{same_type, stage_of, OpId, PixelOp};
use crate::skeletons::{alloc_matching_matrix_parts, range_2d};
use crate::trace::SpanGuard;
use std::marker::PhantomData;
use std::sync::Arc;
use vgpu::{Buffer, CompiledKernel, Event, Item, KernelBody, Order, Program, Scalar as Element};

/// What out-of-matrix neighbourhood positions read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary2D {
    /// Replicate the nearest edge element (zero-gradient boundary).
    Neumann,
    /// Wrap around: the matrix is a torus.
    Wrap,
    /// Read the element type's default value.
    Zero,
}

impl Boundary2D {
    /// The spelling used in generated program names (part of the kernel
    /// cache key — each boundary mode emits different index arithmetic).
    pub fn codegen_name(self) -> &'static str {
        match self {
            Boundary2D::Neumann => "neumann",
            Boundary2D::Wrap => "wrap",
            Boundary2D::Zero => "zero",
        }
    }
}

/// Where a view's neighbourhood reads come from.
enum Taps<'a, T: Element> {
    /// The part buffer itself: no element-wise stage is fused into the
    /// reads.
    Buffer(&'a Buffer<T>, &'a Item<'a>),
    /// The element-wise stages fused before a pipeline stencil, applied to
    /// the part buffer's element at `(span_row, col)`.
    Fused(&'a (dyn Fn(usize, usize) -> T + 'a)),
}

/// The customizing function's view of one stencil application: counted
/// access to the `[-radius, +radius]²` neighbourhood of its element. In a
/// [`Pipeline`](crate::Pipeline) stencil stage a read returns the value of
/// the element-wise stages fused before it at that position.
pub struct Stencil2DView<'a, T: Element> {
    taps: Taps<'a, T>,
    /// Matrix width (also the part buffer's row stride).
    cols: usize,
    /// Matrix height.
    n_rows: usize,
    /// The centre's row within the part's span buffer.
    span_row: usize,
    /// Total rows in the part's span buffer.
    span_rows: usize,
    /// The centre's global row.
    g_row: usize,
    /// The centre's column.
    col: usize,
    radius: usize,
    boundary: Boundary2D,
}

impl<'a, T: Element> Stencil2DView<'a, T> {
    /// The neighbour at `(row + dr, col + dc)`; `(0, 0)` is the element
    /// itself. Panics if `|dr|` or `|dc|` exceeds the stencil radius,
    /// mirroring SkelCL's out-of-range checks.
    #[inline]
    pub fn get(&self, dr: isize, dc: isize) -> T {
        assert!(
            dr.unsigned_abs() <= self.radius && dc.unsigned_abs() <= self.radius,
            "stencil access ({dr}, {dc}) exceeds radius {}",
            self.radius
        );
        let n_rows = self.n_rows as isize;
        let n_cols = self.cols as isize;
        // Resolve the row against the boundary, then express it as a span
        // offset: span rows are consecutive global rows (mod n_rows), so an
        // effective delta of d lands at span_row + d.
        let row_delta = match self.boundary {
            Boundary2D::Wrap => dr,
            Boundary2D::Neumann => {
                let clamped = (self.g_row as isize + dr).clamp(0, n_rows - 1);
                clamped - self.g_row as isize
            }
            Boundary2D::Zero => {
                let target = self.g_row as isize + dr;
                if target < 0 || target >= n_rows {
                    return T::default();
                }
                dr
            }
        };
        let col = match self.boundary {
            Boundary2D::Wrap => (self.col as isize + dc).rem_euclid(n_cols),
            Boundary2D::Neumann => (self.col as isize + dc).clamp(0, n_cols - 1),
            Boundary2D::Zero => {
                let target = self.col as isize + dc;
                if target < 0 || target >= n_cols {
                    return T::default();
                }
                target
            }
        };
        let mut span_row = self.span_row as isize + row_delta;
        if span_row < 0 || span_row >= self.span_rows as isize {
            // Reachable in two cases, both with `span_rows >= n_rows`: a
            // part holding the whole matrix with no halo rows (Single/Copy
            // under Wrap), and a RowBlock part whose halo was clamped to
            // the matrix height because the radius meets or exceeds it.
            // Span rows are consecutive global rows (mod n_rows), so
            // reducing the overflowed span position modulo the height
            // lands on a span row holding exactly the wrapped target row.
            debug_assert!(
                self.span_rows >= self.n_rows,
                "beyond-span stencil read with a span narrower than the matrix"
            );
            span_row = span_row.rem_euclid(n_rows);
        }
        let (span_row, col) = (span_row as usize, col as usize);
        match self.taps {
            Taps::Buffer(buf, item) => item.read(buf, span_row * self.cols + col),
            Taps::Fused(read) => read(span_row, col),
        }
    }

    /// The centre's global position `(row, col)`.
    pub fn position(&self) -> (usize, usize) {
        (self.g_row, self.col)
    }

    /// The matrix dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.n_rows, self.cols)
    }

    pub fn radius(&self) -> usize {
        self.radius
    }
}

/// The kernel of a `Stencil2D` over `T` producing `U`: nothing fused.
type Stencil2DKernel<T, U, F> = StencilKernel<T, T, U, U, F, OpId<T>, OpId<U>>;

/// The Stencil2D skeleton.
pub struct Stencil2D<T: Element, U: Element, F> {
    user: UserFn<F>,
    radius: usize,
    boundary: Boundary2D,
    program: Program,
    _pd: PhantomData<fn(T) -> U>,
}

impl<T, U, F> Stencil2D<T, U, F>
where
    T: Element,
    U: Element,
    F: Fn(&Stencil2DView<'_, T>) -> U + Send + Sync + Clone + 'static,
{
    pub fn new(user: UserFn<F>, radius: usize, boundary: Boundary2D) -> Self {
        // The one-stage member of the fused stencil family: `apply`,
        // `apply_streamed`, `iterate` and a one-stage pipeline stencil over
        // the same function all run this one program.
        let program = codegen::fused_stencil2d_program(
            &[stage_of("stencil", &user)],
            T::TYPE_NAME,
            U::TYPE_NAME,
            radius,
            boundary.codegen_name(),
        );
        Stencil2D {
            user,
            radius,
            boundary,
            program,
            _pd: PhantomData,
        }
    }

    /// The generated OpenCL-C program (exposed for the cache experiments).
    pub fn program(&self) -> &Program {
        &self.program
    }

    pub fn radius(&self) -> usize {
        self.radius
    }

    pub fn boundary(&self) -> Boundary2D {
        self.boundary
    }

    /// Open an entry-point span with the attributes every stencil call
    /// records.
    fn span(&self, ctx: &Context, name: &'static str, input: &Matrix<T>) -> SpanGuard {
        let mut span = ctx.span(name);
        let (r, c) = input.dims();
        span.attr("shape", format!("{r}x{c}"));
        span.attr("distribution", format!("{:?}", input.distribution()));
        span.attr("devices", ctx.n_devices().to_string());
        span.attr("radius", self.radius.to_string());
        span
    }

    /// The stencil kernel with nothing fused into it, over a matrix of
    /// `n_rows` rows.
    fn kernel(&self, ctx: &Context, n_rows: usize) -> Result<Stencil2DKernel<T, U, F>> {
        Ok(StencilKernel {
            compiled: ctx.get_or_build(&self.program)?,
            eval: self.user.func().clone(),
            pre: OpId::new(),
            fused_reads: false,
            post: OpId::new(),
            static_ops: self.user.static_ops(),
            radius: self.radius,
            boundary: self.boundary,
            n_rows,
            _pd: PhantomData,
        })
    }

    /// Apply the skeleton. Under `RowBlock` the input's halo is widened to
    /// the stencil radius if needed and stale halo rows are refreshed by
    /// automatic device-to-device exchange; everything stays on the devices
    /// (lazy copying).
    pub fn apply(&self, input: &Matrix<T>) -> Result<Matrix<U>> {
        let ctx = input.ctx().clone();
        let _span = self.span(&ctx, "stencil2d.apply", input);
        let (n_rows, cols) = input.dims();
        let kernel = self.kernel(&ctx, n_rows)?;
        stencil_input_layout(input, self.radius)?;
        let in_parts = input.parts_with_fresh_halos()?;

        // Output parts mirror the input geometry. Stencils can only write
        // their owned rows (halo outputs would need radius-beyond-halo
        // inputs), so output halos are stale unless there are none.
        let out_parts = alloc_matching_matrix_parts::<T, U>(&ctx, &in_parts)?;
        kernel.launch_parts(&ctx, &in_parts, &out_parts)?;

        Ok(Matrix::from_device_parts(
            &ctx,
            n_rows,
            cols,
            input.distribution(),
            out_parts,
            stale_free(&in_parts),
        ))
    }

    /// Like [`Stencil2D::apply`], but when the input still lives on the
    /// host its upload is **streamed in row chunks on the copy stream** and
    /// the stencil launches in chunk-sized row bands, each waiting only for
    /// the upload chunks covering its read window — so the first bands
    /// compute while later chunks are still crossing PCIe, instead of the
    /// whole upload completing before the first kernel. Bit-identical to
    /// [`Stencil2D::apply`] (same generated program, same per-element
    /// math); on device-fresh input it degrades to exactly `apply`'s
    /// schedule.
    pub fn apply_streamed(&self, input: &Matrix<T>, chunk_rows: usize) -> Result<Matrix<U>> {
        let ctx = input.ctx().clone();
        let mut span = self.span(&ctx, "stencil2d.apply_streamed", input);
        span.attr("chunk_rows", chunk_rows.to_string());
        let (n_rows, cols) = input.dims();
        let kernel = self.kernel(&ctx, n_rows)?;
        stencil_input_layout(input, self.radius)?;

        let chunk_rows = chunk_rows.max(1);
        let (in_parts, upload_chunks) = input.parts_with_upload_chunks(chunk_rows)?;
        let out_parts = alloc_matching_matrix_parts::<T, U>(&ctx, &in_parts)?;

        for (pi, (ip, chunks)) in in_parts.iter().zip(&upload_chunks).enumerate() {
            let op = &out_parts[pi];
            if chunks.is_empty() {
                // Already resident: the plain device-serializing launch.
                kernel.launch_part(&ctx, pi, ip, op, &[ip.owned_span()], Order::Device)?;
                continue;
            }
            // Launch in chunk-aligned owned-row bands, each depending on
            // the upload chunks covering its radius-widened read window.
            let mut start = 0;
            while start < ip.rows {
                let len = chunk_rows.min(ip.rows - start);
                let deps = covering_chunks(chunks, ip, self.radius, self.boundary, start, len);
                let band = [(ip.halo_above + start, len)];
                kernel.launch_part(&ctx, pi, ip, op, &band, Order::After(&deps))?;
                start += len;
            }
        }

        Ok(Matrix::from_device_parts(
            &ctx,
            n_rows,
            cols,
            input.distribution(),
            out_parts,
            stale_free(&in_parts),
        ))
    }
}

/// The most rounds one halo exchange of [`Stencil2D::iterate`] serves. A
/// block of `k` rounds exchanges a `k·radius`-row halo once and runs in
/// `k + 1` launches. On `skelbench`'s `heat_iterate` (4 devices, 20
/// rounds, seed 1) k = 1, 2, 3, 4, 5 and 8 model 2.180, 1.939, 1.866,
/// 1.822, 1.814 and 1.819 ms: 4 takes nearly all of the gain, and every
/// further round deepens the halos of both ping-pong sets by another
/// radius.
const BLOCK_ROUNDS: usize = 4;

impl<T, F> Stencil2D<T, T, F>
where
    T: Element,
    F: Fn(&Stencil2DView<'_, T>) -> T + Send + Sync + Clone + 'static,
{
    /// Apply the stencil `n` times, feeding each pass's output to the next
    /// — the iterative form behind heat relaxation, Jacobi sweeps and
    /// game-of-life (bit-identical to `n` chained [`Stencil2D::apply`]
    /// calls, for every boundary mode and device count).
    ///
    /// Unlike the chain, the whole iteration stays inside two
    /// device-resident part sets that ping-pong roles each round:
    ///
    /// * **no intermediate matrices** — two buffers per device total,
    ///   instead of one fresh allocation per pass;
    /// * **one batched halo exchange per block of up to four rounds** —
    ///   issued directly on the part buffers, without re-synchronising the
    ///   host in between, and (under `Neumann`/`Zero` boundaries) without
    ///   the wrapped matrix-edge rows only `Wrap` ever reads;
    /// * **one cached kernel across all `n` launches** — the skeleton's one
    ///   program (the same one [`Stencil2D::apply`] runs) is built once and
    ///   rebound to the swapped buffers each round.
    ///
    /// `iterate(input, 0)` is the identity: it returns a handle to `input`.
    ///
    /// ## Blocked, overlapped schedule
    ///
    /// Round 1 reads the input's own parts, exchanging their halos first if
    /// they are stale. The other `n − 1` rounds run in `⌈(n − 1) / 4⌉`
    /// near-equal blocks of at most four rounds (`n = 10` runs as 3 + 3 +
    /// 3), and only a block's first round exchanges halos:
    ///
    /// * The exchange of a `k`-round block moves `k·radius` rows per halo.
    ///   It is issued on the **copy stream**, so the copies run on the
    ///   copy engines *underneath* the round's **interior** launch (owned
    ///   rows that read no halo row). Only the **boundary** launch (the top
    ///   and bottom bands, packed into one kernel) waits for them.
    /// * In round `j` of the block each device also computes the
    ///   `(k − j)·radius` halo rows that are still valid. They hold the
    ///   same values their owner computes, from the same inputs.
    /// * Rounds 2 to `k` therefore need no exchange and run as one launch
    ///   each: `k + 1` launches per `k` rounds instead of `2k`.
    ///
    /// The library picks the block length: four rounds, capped so that a
    /// `k·radius`-row halo fits in the thinnest part. Where nothing is
    /// exchanged (one part, `Single`/`Copy` inputs) and on parts thinner
    /// than `2·radius` every block is one round, and parts that receive no
    /// exchanged rows launch whole. Under `Neumann` and `Zero` the halo
    /// rows that wrap around the matrix edge are neither exchanged nor
    /// computed.
    ///
    /// Under `RowBlock` the result is laid out `RowBlock { halo: k·radius
    /// }`, with `k` the longest block's rounds, and its halo rows are
    /// stale: the next stencil over it exchanges them. Results are
    /// bit-identical to [`Stencil2D::iterate_serial`] (same kernel, same
    /// data; only the modeled timeline changes).
    pub fn iterate(&self, input: &Matrix<T>, n: usize) -> Result<Matrix<T>> {
        self.iterate_blocked(input, n, BLOCK_ROUNDS)
    }

    /// The serial schedule of [`Stencil2D::iterate`]: one kernel per part
    /// per round, each round's halo exchange device-serializing on the main
    /// timeline (the pre-overlap behaviour, kept as the measurable
    /// baseline for `fig_overlap` and the overlap property suite). The
    /// result keeps the input's distribution.
    pub fn iterate_serial(&self, input: &Matrix<T>, n: usize) -> Result<Matrix<T>> {
        if n == 0 {
            return Ok(input.clone());
        }
        let ctx = input.ctx().clone();
        let (n_rows, cols) = input.dims();
        let mut span = self.span(&ctx, "stencil2d.iterate", input);
        span.attr("iterations", n.to_string());
        span.attr("schedule", "serial");
        span.attr("block_rounds", "1");
        let kernel = self.kernel(&ctx, n_rows)?;
        stencil_input_layout(input, self.radius)?;
        // Round 1 reads the input's own parts.
        let in_parts = input.parts_with_fresh_halos()?;
        let skip_wrapped = self.boundary != Boundary2D::Wrap;
        let alloc = || alloc_matching_matrix_parts::<T, T>(&ctx, &in_parts);
        let sets = ping_pong(n, alloc)?;
        for round in 1..=n {
            let (src, dst) = round_parts(&in_parts, &sets, round);
            if round > 1 {
                // The previous round wrote only owned rows; one batched
                // exchange refreshes this round's input halos. The device
                // clocks already order the copies against the producing
                // kernels — the host never blocks between rounds.
                exchange_part_halos(&ctx, src, n_rows, cols, skip_wrapped)?;
            }
            kernel.launch_parts(&ctx, src, dst)?;
        }
        let halos_fresh = stale_free(&in_parts);
        let out = last_round_parts(sets, n);
        let dist = input.distribution();
        Ok(Matrix::from_device_parts(
            &ctx,
            n_rows,
            cols,
            dist,
            out,
            halos_fresh,
        ))
    }

    /// The blocked schedule of [`Stencil2D::iterate`], with blocks of at
    /// most `max_block` rounds.
    fn iterate_blocked(&self, input: &Matrix<T>, n: usize, max_block: usize) -> Result<Matrix<T>> {
        if n == 0 {
            return Ok(input.clone());
        }
        let ctx = input.ctx().clone();
        let (n_rows, cols) = input.dims();
        let mut span = self.span(&ctx, "stencil2d.iterate", input);
        span.attr("iterations", n.to_string());
        span.attr("schedule", "overlapped");
        let kernel = self.kernel(&ctx, n_rows)?;
        stencil_input_layout(input, self.radius)?;
        // Round 1 reads the input's own parts.
        let in_parts = input.parts_with_fresh_halos()?;
        let radius = self.radius;
        let dist = input.distribution();

        // The rounds after round 1 in near-equal blocks, longest first.
        let k = block_cap(dist, &in_parts, radius, max_block);
        let blocks: Vec<usize> = match n - 1 {
            0 => Vec::new(),
            rest => block_ranges(rest, rest.div_ceil(k))
                .into_iter()
                .map(|(_, len)| len)
                .collect(),
        };
        let depth = blocks.first().copied().unwrap_or(1);
        span.attr("block_rounds", depth.to_string());
        let dist = match dist {
            MatrixDistribution::RowBlock { .. } => MatrixDistribution::RowBlock {
                halo: depth * radius,
            },
            other => other,
        };
        let sets = ping_pong(n, || alloc_parts::<T>(&ctx, dist, n_rows, cols))?;
        let skip_wrapped = self.boundary != Boundary2D::Wrap;

        // Per device: the last launch, which the next exchange waits for.
        // Round 1 waits for a marker joining everything already scheduled
        // on the device (the input's upload or exchange).
        let mut producers: Vec<Vec<Event>> = (0..ctx.n_devices())
            .map(|d| vec![ctx.queue(d).enqueue_marker()])
            .collect();
        for (pi, (ip, op)) in in_parts.iter().zip(&sets[0]).enumerate() {
            let order = Order::After(&producers[ip.device]);
            if let Some(ev) = kernel.launch_part(&ctx, pi, ip, op, &[ip.owned_span()], order)? {
                producers[ip.device] = vec![ev];
            }
        }

        let mut round = 1;
        for len in blocks {
            // Refresh the halos the block's first round reads, deep enough
            // for the whole block.
            let src = round_parts(&in_parts, &sets, round + 1).0;
            let exchange = exchange_part_halos_overlapped(
                &ctx,
                src,
                n_rows,
                cols,
                skip_wrapped,
                len * radius,
                &producers,
            )?;
            for j in 1..=len {
                round += 1;
                let (src, dst) = round_parts(&in_parts, &sets, round);
                // The halo rows whose inputs are still valid this round.
                let ext = (len - j) * radius;
                for (pi, (ip, op)) in src.iter().zip(dst).enumerate() {
                    let (above, below) = if skip_wrapped {
                        let below_matrix = n_rows - ip.row_offset - ip.rows;
                        (ext.min(ip.row_offset), ext.min(below_matrix))
                    } else {
                        (ext, ext)
                    };
                    let lo = ip.halo_above - above;
                    let hi = ip.halo_above + ip.rows + below;
                    let ex = &exchange[pi];
                    let produced = if j == 1 && !ex.incoming.is_empty() && 2 * radius < ip.rows {
                        // Interior first: it reads no halo row and has no
                        // event dependencies, so the in-order queue starts
                        // it at once while the exchange still runs. Then
                        // the top and bottom bands, which read the
                        // exchanged rows, as one dependent launch. The
                        // interior never overwrites rows an earlier
                        // exchange still copies out: a one-round block
                        // copies out only `radius` rows per edge, and a
                        // longer block's round 2 waits for its copies.
                        let top = ip.halo_above + radius;
                        let bottom = ip.halo_above + ip.rows - radius;
                        let interior = [(top, bottom - top)];
                        kernel.launch_part(&ctx, pi, ip, op, &interior, Order::After(&[]))?;
                        let bands = [(lo, top - lo), (bottom, hi - bottom)];
                        kernel.launch_part(&ctx, pi, ip, op, &bands, Order::After(&ex.incoming))?
                    } else {
                        // Round 1 of a block reads the exchanged rows.
                        // Round 2 overwrites the owned edge rows the
                        // exchange copied out to the neighbours.
                        let deps: &[Event] = match j {
                            1 => &ex.incoming,
                            2 => &ex.outgoing,
                            _ => &[],
                        };
                        kernel.launch_part(
                            &ctx,
                            pi,
                            ip,
                            op,
                            &[(lo, hi - lo)],
                            Order::After(deps),
                        )?
                    };
                    if let Some(ev) = produced {
                        producers[ip.device] = vec![ev];
                    }
                }
            }
        }

        let out = last_round_parts(sets, n);
        let halos_fresh = stale_free(&out);
        Ok(Matrix::from_device_parts(
            &ctx,
            n_rows,
            cols,
            dist,
            out,
            halos_fresh,
        ))
    }
}

/// The two ping-pong part sets of an `n`-round iterate; one round needs
/// only the first.
fn ping_pong<T: Element>(
    n: usize,
    alloc: impl Fn() -> Result<Vec<MatrixPart<T>>>,
) -> Result<[Vec<MatrixPart<T>>; 2]> {
    Ok([alloc()?, if n > 1 { alloc()? } else { Vec::new() }])
}

/// Round `round`'s (1-based) source and destination parts: round 1 reads
/// the input's own parts, and the ping-pong sets trade roles after it.
fn round_parts<'a, T: Element>(
    input: &'a [MatrixPart<T>],
    sets: &'a [Vec<MatrixPart<T>>; 2],
    round: usize,
) -> (&'a [MatrixPart<T>], &'a [MatrixPart<T>]) {
    let src = if round == 1 { input } else { &sets[round % 2] };
    (src, &sets[(round - 1) % 2])
}

/// The parts round `n` wrote.
fn last_round_parts<T: Element>(sets: [Vec<MatrixPart<T>>; 2], n: usize) -> Vec<MatrixPart<T>> {
    let [first, second] = sets;
    if n % 2 == 1 {
        first
    } else {
        second
    }
}

/// The most rounds one halo exchange may serve: `max_block`, capped so a
/// `k·radius`-row halo stays within the thinnest non-empty part. It is 1
/// where nothing is exchanged: inputs without halo rows, and a lone part.
fn block_cap<T: Element>(
    dist: MatrixDistribution,
    parts: &[MatrixPart<T>],
    radius: usize,
    max_block: usize,
) -> usize {
    let owned = parts.iter().map(|p| p.rows).filter(|&rows| rows > 0);
    let thinnest = owned.clone().min().unwrap_or(0);
    if !matches!(dist, MatrixDistribution::RowBlock { .. }) || radius == 0 || owned.count() < 2 {
        return 1;
    }
    (thinnest / radius).clamp(1, max_block)
}

/// The layout rule for stencil inputs (and for the fused row fold, which
/// also reads whole rows): parts span full rows and carry at least
/// `radius` halo rows. A narrower `RowBlock` halo is widened; column blocks
/// have no column halos, so they become row blocks with a `radius`-deep
/// halo. Device-fresh data moves device-side.
pub(crate) fn stencil_input_layout<T: Element>(input: &Matrix<T>, radius: usize) -> Result<()> {
    match input.distribution() {
        MatrixDistribution::RowBlock { halo } if halo >= radius => Ok(()),
        MatrixDistribution::RowBlock { .. } | MatrixDistribution::ColBlock => {
            input.set_distribution(MatrixDistribution::RowBlock { halo: radius })
        }
        MatrixDistribution::Single(_) | MatrixDistribution::Copy => Ok(()),
    }
}

/// One stencil kernel as every stencil path launches it: per owned element,
/// `post(eval(view))`, where the view's neighbourhood reads apply `pre` to
/// the input part's elements. `Stencil2D` launches it with identity ops; a
/// pipeline stencil group fuses its pending element-wise chains into `pre`
/// and `post`. `J`, `A`, `I` and `V` are the input, view, stencil-result and
/// output element types.
pub(crate) struct StencilKernel<J, A, I, V, E, Pre, Post> {
    pub compiled: CompiledKernel,
    /// The stencil user function (a `stencil_pair` combines two).
    pub eval: E,
    /// The element-wise chain fused into every neighbourhood read.
    pub pre: Pre,
    /// Whether `pre` holds any stage. Without one it is an identity chain,
    /// and reads go to the part buffer directly instead of through a
    /// dynamic read closure (measurably cheaper in host time).
    pub fused_reads: bool,
    /// The element-wise chain fused into the write.
    pub post: Post,
    /// Static per-element issue cost of every stage in the kernel.
    pub static_ops: u64,
    pub radius: usize,
    pub boundary: Boundary2D,
    /// Matrix height.
    pub n_rows: usize,
    pub _pd: PhantomData<fn(J, A, I) -> V>,
}

impl<J, A, I, V, E, Pre, Post> StencilKernel<J, A, I, V, E, Pre, Post>
where
    J: Element,
    A: Element,
    I: Element,
    V: Element,
    Pre: PixelOp<J, A>,
    E: Fn(&Stencil2DView<'_, A>) -> I + Send + Sync + Clone + 'static,
    Post: PixelOp<I, V>,
{
    /// Launch one pass over every part pair: `src[i]` (halo rows assumed
    /// coherent) is read, the owned rows of `dst[i]` are written, one
    /// device-serializing launch per part. Source and destination geometry
    /// must mirror each other.
    pub(crate) fn launch_parts(
        &self,
        ctx: &Context,
        src: &[MatrixPart<J>],
        dst: &[MatrixPart<V>],
    ) -> Result<()> {
        for (pi, (ip, op)) in src.iter().zip(dst).enumerate() {
            self.launch_part(ctx, pi, ip, op, &[ip.owned_span()], Order::Device)?;
        }
        Ok(())
    }

    /// Launch one pass over `segments` of part `pi`: each `(start, len)`
    /// names span rows `[start, start + len)` of the input part `ip`, owned
    /// or halo, and the launch covers their disjoint union in one kernel
    /// (the overlapped iterate packs its top and bottom bands into a single
    /// launch this way). Each row is written at the same global row of
    /// `op`, whose halo may differ from `ip`'s: span row `s` of `ip` lands
    /// at span row `s - ip.halo_above + op.halo_above` of `op`. The input
    /// rows within `radius` of every covered row are assumed coherent.
    ///
    /// `order` is passed straight to the launch: [`Order::Device`] for the
    /// device-ordered launch, or [`Order::After`] to order the kernel only
    /// by the main queue, the listed events, and the compute engine.
    /// Returns the launch event, or `None` when the segments are empty.
    ///
    /// However the rows are split into launches, every covered element
    /// computes the exact same value: the split changes the modeled
    /// timeline, never the data.
    pub(crate) fn launch_part(
        &self,
        ctx: &Context,
        pi: usize,
        ip: &MatrixPart<J>,
        op: &MatrixPart<V>,
        segments: &[(usize, usize)],
        order: Order<'_>,
    ) -> Result<Option<Event>> {
        let cols = ip.cols;
        let launch_rows: usize = segments.iter().map(|&(_, len)| len).sum();
        if launch_rows == 0 || cols == 0 {
            return Ok(None);
        }
        let src = ip.buffer.clone();
        // Stage-free reads: `pre` is an identity chain, so `J` is `A`.
        let direct: Option<Buffer<A>> = same_type(src.clone()).filter(|_| !self.fused_reads);
        let dst = op.buffer.clone();
        let (eval, pre, post) = (self.eval.clone(), self.pre.clone(), self.post.clone());
        let (radius, boundary, n_rows) = (self.radius, self.boundary, self.n_rows);
        let static_ops = self.static_ops;
        let (in_halo, out_halo) = (ip.halo_above, op.halo_above);
        let (row_offset, span_rows) = (ip.row_offset, ip.span_rows());
        let segs = segments.to_vec();
        let body: KernelBody = Arc::new(move |wg| {
            wg.for_each_item(|it| {
                if !it.in_bounds() {
                    return;
                }
                let col = it.global_id(0);
                // Map the compact launch row back to its span row through
                // the segment list (at most two segments).
                let mut launch_row = it.global_id(1);
                let mut span_row = 0;
                for &(start, len) in &segs {
                    if launch_row < len {
                        span_row = start + launch_row;
                        break;
                    }
                    launch_row -= len;
                }
                let fused =
                    |sr: usize, c: usize| pre.apply(it, pi, sr, c, it.read(&src, sr * cols + c));
                let view = Stencil2DView {
                    taps: match &direct {
                        Some(buf) => Taps::Buffer(buf, it),
                        None => Taps::Fused(&fused),
                    },
                    cols,
                    n_rows,
                    span_row,
                    span_rows,
                    g_row: (row_offset + n_rows + span_row - in_halo) % n_rows,
                    col,
                    radius,
                    boundary,
                };
                let (y, dyn_ops) =
                    meter::metered(|| post.apply(it, pi, span_row, col, eval(&view)));
                it.write(&dst, (span_row + out_halo - in_halo) * cols + col, y);
                it.work(static_ops + dyn_ops);
            });
        });
        let kernel = self.compiled.with_body(body);
        let nd = range_2d(ctx, cols, launch_rows);
        Ok(Some(ctx.queue(ip.device).launch(&kernel, nd, order)?))
    }
}

/// Can a stencil's output start life with coherent halos? Only when there
/// are none to go stale.
pub(crate) fn stale_free<T: Element>(parts: &[MatrixPart<T>]) -> bool {
    parts.iter().all(|p| p.halo_above == 0 && p.halo_below == 0)
}

/// The upload-chunk events a band launch over owned rows
/// `[start, start + len)` of `p` must wait for: the chunks intersecting the
/// band's radius-widened span-row read window. `Neumann` and `Zero` never
/// read outside the span (they clamp or synthesize), so the window clamps
/// to it; under `Wrap` a window leaving the span wraps modulo the matrix
/// height (`Stencil2DView::get`'s beyond-span rule) and can touch any span
/// row, so every chunk becomes a dependency.
fn covering_chunks<T: Element>(
    chunks: &[UploadChunk],
    p: &MatrixPart<T>,
    radius: usize,
    boundary: Boundary2D,
    start: usize,
    len: usize,
) -> Vec<Event> {
    let span = p.span_rows() as isize;
    let mut lo = (p.halo_above + start) as isize - radius as isize;
    let mut hi = (p.halo_above + start + len - 1) as isize + radius as isize;
    if lo < 0 || hi >= span {
        if boundary == Boundary2D::Wrap {
            return chunks.iter().map(|c| c.event.clone()).collect();
        }
        lo = lo.max(0);
        hi = hi.min(span - 1);
    }
    chunks
        .iter()
        .filter(|c| (c.span_start as isize) <= hi && lo < (c.span_start + c.span_len) as isize)
        .map(|c| c.event.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::ctx;

    /// 5-point Laplacian-style sum, radius 1.
    fn cross_user() -> UserFn<impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
        UserFn::new(
            "cross_sum",
            "float cross_sum(__global float* in, int r, int c, uint nr, uint nc) {\n\
             return stencil_at(in,r,c,nr,nc,-1,0) + stencil_at(in,r,c,nr,nc,1,0)\n\
                  + stencil_at(in,r,c,nr,nc,0,-1) + stencil_at(in,r,c,nr,nc,0,1)\n\
                  + stencil_at(in,r,c,nr,nc,0,0);\n}",
            |v: &Stencil2DView<'_, f32>| {
                v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1) + v.get(0, 0)
            },
        )
    }

    fn cross_sum() -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
        Stencil2D::new(cross_user(), 1, Boundary2D::Neumann)
    }

    fn reference_cross_sum(
        data: &[f32],
        rows: usize,
        cols: usize,
        boundary: Boundary2D,
    ) -> Vec<f32> {
        let at = |r: isize, c: isize| -> f32 {
            let (r, c) = match boundary {
                Boundary2D::Neumann => {
                    (r.clamp(0, rows as isize - 1), c.clamp(0, cols as isize - 1))
                }
                Boundary2D::Wrap => (r.rem_euclid(rows as isize), c.rem_euclid(cols as isize)),
                Boundary2D::Zero => {
                    if r < 0 || r >= rows as isize || c < 0 || c >= cols as isize {
                        return 0.0;
                    }
                    (r, c)
                }
            };
            data[r as usize * cols + c as usize]
        };
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows as isize {
            for c in 0..cols as isize {
                out.push(at(r - 1, c) + at(r + 1, c) + at(r, c - 1) + at(r, c + 1) + at(r, c));
            }
        }
        out
    }

    fn test_image(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| ((i * 37) % 101) as f32 - 50.0)
            .collect()
    }

    #[test]
    fn stencil_on_one_device_matches_reference() {
        let c = ctx(1);
        let (rows, cols) = (13, 9);
        let data = test_image(rows, cols);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        let out = cross_sum().apply(&m).unwrap().to_vec().unwrap();
        assert_eq!(
            out,
            reference_cross_sum(&data, rows, cols, Boundary2D::Neumann)
        );
    }

    #[test]
    fn multi_device_output_is_bit_identical_to_single() {
        let (rows, cols) = (23, 11);
        let data = test_image(rows, cols);
        let single = {
            let c = ctx(1);
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            cross_sum().apply(&m).unwrap().to_vec().unwrap()
        };
        for devices in [2usize, 3, 4] {
            let c = ctx(devices);
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
                .unwrap();
            let got = cross_sum().apply(&m).unwrap().to_vec().unwrap();
            assert_eq!(got, single, "{devices}-device run must be bit-identical");
        }
    }

    #[test]
    fn all_boundary_modes_match_the_reference() {
        let (rows, cols) = (10, 7);
        let data = test_image(rows, cols);
        for boundary in [Boundary2D::Neumann, Boundary2D::Wrap, Boundary2D::Zero] {
            let c = ctx(3);
            let user = UserFn::new(
                "csum",
                "float csum(__global float* in, int r, int c, uint nr, uint nc) { /* as cross_sum */ }",
                |v: &Stencil2DView<'_, f32>| {
                    v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1) + v.get(0, 0)
                },
            );
            let st = Stencil2D::new(user, 1, boundary);
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
                .unwrap();
            let got = st.apply(&m).unwrap().to_vec().unwrap();
            assert_eq!(
                got,
                reference_cross_sum(&data, rows, cols, boundary),
                "{boundary:?}"
            );
        }
    }

    #[test]
    fn narrow_halo_is_widened_automatically() {
        let c = ctx(2);
        let (rows, cols) = (16, 5);
        let data = test_image(rows, cols);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
            .unwrap();
        let user = UserFn::new(
            "wide",
            "float wide(__global float* in, int r, int c, uint nr, uint nc) { /* r3 sum */ }",
            |v: &Stencil2DView<'_, f32>| v.get(-3, 0) + v.get(3, 0),
        );
        let st = Stencil2D::new(user, 3, Boundary2D::Zero);
        let got = st.apply(&m).unwrap().to_vec().unwrap();
        assert_eq!(
            m.distribution(),
            MatrixDistribution::RowBlock { halo: 3 },
            "halo must be widened to the radius"
        );
        let want: Vec<f32> = (0..rows as isize)
            .flat_map(|r| {
                let data = &data;
                (0..cols as isize).map(move |c| {
                    let up = if r >= 3 {
                        data[(r - 3) as usize * cols + c as usize]
                    } else {
                        0.0
                    };
                    let down = if r + 3 < rows as isize {
                        data[(r + 3) as usize * cols + c as usize]
                    } else {
                        0.0
                    };
                    up + down
                })
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn halo_exchange_shows_up_in_transfer_accounting() {
        let c = ctx(4);
        let (rows, cols) = (32, 8);
        let m = Matrix::from_vec(&c, rows, cols, test_image(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let st = cross_sum();
        let first = st.apply(&m).unwrap();
        // The second application consumes a device-fresh matrix whose halos
        // were never written: the skeleton must trigger the exchange.
        assert!(!first.halos_fresh());
        let before = c.platform().stats_snapshot();
        let second = st.apply(&first).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert!(
            delta.d2d_transfers > 0,
            "chained stencil must exchange halos device-to-device"
        );
        assert_eq!(delta.h2d_transfers, 0, "no host round trip");
        assert_eq!(delta.d2h_transfers, 0, "no host round trip");
        // And the result is still right.
        let host = m.to_vec().unwrap();
        let once = reference_cross_sum(&host, rows, cols, Boundary2D::Neumann);
        let twice = reference_cross_sum(&once, rows, cols, Boundary2D::Neumann);
        assert_eq!(second.to_vec().unwrap(), twice);
    }

    #[test]
    fn radius_larger_than_a_part_spans_several_parts() {
        // 4 devices × 2 rows per part, radius 3 reaches two parts away.
        let c = ctx(4);
        let (rows, cols) = (8, 3);
        let data = test_image(rows, cols);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(MatrixDistribution::RowBlock { halo: 3 })
            .unwrap();
        let user = UserFn::new(
            "far",
            "float far(__global float* in, int r, int c, uint nr, uint nc) { /* +-3 rows */ }",
            |v: &Stencil2DView<'_, f32>| v.get(-3, 0) + v.get(3, 0),
        );
        let st = Stencil2D::new(user, 3, Boundary2D::Wrap);
        let got = st.apply(&m).unwrap().to_vec().unwrap();
        let want: Vec<f32> = (0..rows as isize)
            .flat_map(|r| {
                let data = &data;
                (0..cols as isize).map(move |c| {
                    let up = data[(r - 3).rem_euclid(rows as isize) as usize * cols + c as usize];
                    let down = data[(r + 3).rem_euclid(rows as isize) as usize * cols + c as usize];
                    up + down
                })
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn out_of_radius_access_is_a_typed_error() {
        let c = ctx(1);
        let user = UserFn::new(
            "bad",
            "float bad(__global float* in, int r, int c, uint nr, uint nc) { /* in[r-2] */ }",
            |v: &Stencil2DView<'_, f32>| v.get(-2, 0),
        );
        let st = Stencil2D::new(user, 1, Boundary2D::Neumann);
        let m = Matrix::from_vec(&c, 4, 4, vec![1.0f32; 16]);
        let err = st.apply(&m).expect_err("launch must fail");
        assert!(err.to_string().contains("exceeds radius"), "{err}");
    }

    #[test]
    fn iterate_matches_chained_applies_bitwise() {
        let (rows, cols) = (17, 9);
        let data = test_image(rows, cols);
        for boundary in [Boundary2D::Neumann, Boundary2D::Wrap, Boundary2D::Zero] {
            for devices in [1usize, 2, 4] {
                let c = ctx(devices);
                let user = UserFn::new(
                    "csum",
                    "float csum(__global float* in, int r, int c, uint nr, uint nc) { /* cross */ }",
                    |v: &Stencil2DView<'_, f32>| {
                        0.2 * (v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1) + v.get(0, 0))
                    },
                );
                let st = Stencil2D::new(user, 1, boundary);
                let m = Matrix::from_vec(&c, rows, cols, data.clone());
                let chained = {
                    let mut cur = st.apply(&m).unwrap();
                    for _ in 1..5 {
                        cur = st.apply(&cur).unwrap();
                    }
                    cur.to_vec().unwrap()
                };
                let m2 = Matrix::from_vec(&c, rows, cols, data.clone());
                let iterated = st.iterate(&m2, 5).unwrap().to_vec().unwrap();
                assert_eq!(
                    iterated.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    chained.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{boundary:?} on {devices} devices"
                );
            }
        }
    }

    /// A damped stencil reading every row within `radius` of its centre, so
    /// a stale row anywhere in a round's read window changes the result.
    fn damped_column(
        radius: usize,
        boundary: Boundary2D,
    ) -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
        let r = radius as isize;
        let user = UserFn::new(
            "damped_column",
            "float damped_column(__global float* in, int r, int c, uint nr, uint nc) { /* rows +-r */ }",
            move |v: &Stencil2DView<'_, f32>| {
                let column: f32 = (-r..=r).map(|dr| v.get(dr, 0)).sum();
                0.15 * (column + v.get(0, -1) + v.get(0, 1))
            },
        );
        Stencil2D::new(user, radius, boundary)
    }

    #[test]
    fn blocked_iterate_is_bit_identical_to_chained_applies_for_every_block_length() {
        // Shapes, per device count: parts deep enough for k·r halos (k is
        // capped at the thinnest part), parts thinner than 2r or than r
        // (k = 1, halos reaching across parts) and empty parts.
        let cols = 5;
        for (radius, rows) in [(1usize, 3usize), (1, 17), (2, 7), (2, 19)] {
            let data = test_image(rows, cols);
            for boundary in [Boundary2D::Neumann, Boundary2D::Wrap, Boundary2D::Zero] {
                let st = damped_column(radius, boundary);
                for devices in 1..=4 {
                    let c = ctx(devices);
                    for halo in 0..=2 {
                        let input = || {
                            let m = Matrix::from_vec(&c, rows, cols, data.clone());
                            m.set_distribution(MatrixDistribution::RowBlock { halo })
                                .unwrap();
                            m
                        };
                        let bits = |m: Matrix<f32>| -> Vec<u32> {
                            m.to_vec().unwrap().iter().map(|v| v.to_bits()).collect()
                        };
                        let mut chained = Vec::new();
                        let mut cur = input();
                        for _ in 0..10 {
                            cur = st.apply(&cur).unwrap();
                            chained.push(bits(cur.clone()));
                        }
                        for (n, want) in (1..=10).zip(&chained) {
                            for k in [1, 2, 3, 4, 8] {
                                let got = st.iterate_blocked(&input(), n, k).unwrap();
                                assert_eq!(
                                    &bits(got),
                                    want,
                                    "r={radius} {rows} rows, {boundary:?}, {devices} devices, \
                                     halo {halo}, n={n}, k={k}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn iterate_zero_is_the_identity() {
        let c = ctx(2);
        let (rows, cols) = (6, 5);
        let data = test_image(rows, cols);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        let out = cross_sum().iterate(&m, 0).unwrap();
        assert_eq!(out.to_vec().unwrap(), data);
    }

    #[test]
    fn iterate_never_writes_the_input() {
        let c = ctx(3);
        let (rows, cols) = (12, 4);
        let data = test_image(rows, cols);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        let _ = cross_sum().iterate(&m, 3).unwrap();
        assert_eq!(m.to_vec().unwrap(), data, "input must be untouched");
    }

    #[test]
    fn iterate_stays_on_the_devices() {
        let c = ctx(4);
        let (rows, cols) = (32, 8);
        let m = Matrix::from_vec(&c, rows, cols, test_image(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let out = cross_sum().iterate(&m, 8).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.h2d_transfers, 0, "no host round trip");
        assert_eq!(delta.d2h_transfers, 0, "no host round trip");
        assert!(delta.d2d_transfers > 0, "halo exchange crosses devices");
        // Still correct after the ping-pong.
        let mut want = m.to_vec().unwrap();
        for _ in 0..8 {
            want = reference_cross_sum(&want, rows, cols, Boundary2D::Neumann);
        }
        assert_eq!(out.to_vec().unwrap(), want);
    }

    #[test]
    fn iterate_widens_a_narrow_halo_like_apply() {
        let c = ctx(2);
        let (rows, cols) = (10, 3);
        let m = Matrix::from_vec(&c, rows, cols, test_image(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
            .unwrap();
        let out = cross_sum().iterate(&m, 2).unwrap();
        assert_eq!(
            m.distribution(),
            MatrixDistribution::RowBlock { halo: 1 },
            "halo must be widened to the radius"
        );
        let mut want = m.to_vec().unwrap();
        for _ in 0..2 {
            want = reference_cross_sum(&want, rows, cols, Boundary2D::Neumann);
        }
        assert_eq!(out.to_vec().unwrap(), want);
    }

    #[test]
    fn wrap_free_single_part_iterate_counts_no_exchanges() {
        // One part owning all rows: its halo rows are all wrapped edge
        // rows, which a Neumann stencil never reads — so the per-round
        // exchange refreshes nothing and must not count as an event.
        let c = ctx(1);
        let m = Matrix::from_vec(&c, 12, 5, test_image(12, 5));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let before = c.halo_exchange_count();
        cross_sum().iterate(&m, 5).unwrap();
        assert_eq!(c.halo_exchange_count(), before);
    }

    #[test]
    fn iterate_reuses_one_cached_kernel_for_all_rounds() {
        use crate::{Pipeline, PipelineExpr};
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 16, 8, test_image(16, 8));
        let st = cross_sum();
        let before = c.programs_built();
        st.iterate(&m, 6).unwrap();
        let built = c.programs_built();
        st.iterate(&m, 6).unwrap();
        assert_eq!(c.programs_built(), built, "no rebuild on a second run");
        // Every launch path of one stencil runs one program.
        st.apply(&m).unwrap();
        st.apply_streamed(&Matrix::from_vec(&c, 16, 8, test_image(16, 8)), 4)
            .unwrap();
        Pipeline::start::<f32>()
            .stencil(cross_user(), 1, Boundary2D::Neumann)
            .run(&m)
            .unwrap();
        assert_eq!(
            c.programs_built(),
            before + 1,
            "apply, apply_streamed, iterate and a one-stage pipeline share one program"
        );
    }

    #[test]
    fn boundary_modes_produce_distinct_programs() {
        let mk = |b: Boundary2D| {
            let user = UserFn::new(
                "f",
                "float f(__global float* in, int r, int c, uint nr, uint nc) { return 0.0f; }",
                |v: &Stencil2DView<'_, f32>| v.get(0, 0),
            );
            Stencil2D::new(user, 1, b).program().hash()
        };
        let n = mk(Boundary2D::Neumann);
        let w = mk(Boundary2D::Wrap);
        let z = mk(Boundary2D::Zero);
        assert_ne!(n, w);
        assert_ne!(w, z);
        assert_ne!(n, z);
    }
}
