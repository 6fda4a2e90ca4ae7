//! The algorithmic skeletons (paper Section III-B):
//! [`Map`], [`Zip`], [`Reduce`], [`Scan`] — plus the with-arguments
//! variants of Section III-C ([`MapArgs`], [`MapVoid`], [`ZipArgs`]) and
//! the 2-D skeletons SkelCL grew next ([`Stencil2D`], [`AllPairs`], the row
//! and column reductions). The stencil extension the paper's conclusion
//! announces (SkelCL's 1-D `MapOverlap`) is a [`Stencil2D`] over an N×1
//! [`Matrix`](crate::Matrix).
//!
//! Every element-wise launch — each `Map` and `Zip` variant and the
//! [`Pipeline`]'s element-wise groups — goes through one launcher over each
//! part's contiguous span, from one program generator
//! ([`codegen::elementwise_program`](crate::codegen::elementwise_program)).
//! Likewise every value fold — [`ReduceRows`], [`ReduceCols`] and the
//! [`Pipeline`]'s row folds — goes through one fold launcher, from
//! [`codegen::fold_program`](crate::codegen::fold_program).
//!
//! Every skeleton is a higher-order entity customized by a [`UserFn`](crate::UserFn)
//! (source string + Rust twin, see [`crate::skel_fn!`]). Construction
//! generates the OpenCL-C program; the first call per context builds it
//! through the two-level kernel cache; every call then launches on each
//! device holding a part of the input, per the input's distribution.

mod allpairs;
mod map;
pub(crate) mod pipeline;
mod reduce;
mod reduce2d;
mod scan;
mod stencil2d;
mod zip;

pub use allpairs::{AllPairs, AllPairsStrategy};
pub use map::{Map, MapArgs, MapVoid};
pub use pipeline::{PipeMap, PipeStencil, PipeStencilPair, PipeZip, Pipeline, PipelineExpr, Start};
pub use reduce::{Reduce, ReduceStrategy};
pub use reduce2d::{ReduceCols, ReduceColsArg, ReduceRows, ReduceRowsArg};
pub use scan::{Scan, ScanStrategy};
pub use stencil2d::{Boundary2D, Stencil2D, Stencil2DView};
pub use zip::{Zip, ZipArgs};

use crate::context::Context;
use crate::error::Result;
use vgpu::Scalar as Element;

/// Allocate output parts matching an input part layout (same devices, same
/// owned/halo row geometry, same column range). Used by the element-wise
/// and stencil launchers, whose output inherits the input's distribution.
pub(crate) fn alloc_matching_matrix_parts<T: Element, U: Element>(
    ctx: &Context,
    parts: &[crate::matrix::MatrixPart<T>],
) -> Result<Vec<crate::matrix::MatrixPart<U>>> {
    let mut out = Vec::with_capacity(parts.len());
    for p in parts {
        out.push(crate::matrix::MatrixPart {
            device: p.device,
            row_offset: p.row_offset,
            rows: p.rows,
            halo_above: p.halo_above,
            halo_below: p.halo_below,
            col_offset: p.col_offset,
            cols: p.cols,
            buffer: ctx.device(p.device).alloc::<U>(p.span_rows() * p.cols)?,
        });
    }
    Ok(out)
}

/// 1-D launch range for `len` elements under the context's work-group size.
pub(crate) fn linear_range(ctx: &Context, len: usize) -> vgpu::NDRange {
    let wg = ctx.work_group().min(len.max(1));
    vgpu::NDRange::linear(len.max(1), wg)
}

/// 2-D launch range over a `cols × rows` grid: square-ish work-groups (like
/// SkelCL's 32×4 / 16×16 stencil groups) whose size stays within the
/// context's configured budget.
pub(crate) fn range_2d(ctx: &Context, cols: usize, rows: usize) -> vgpu::NDRange {
    let budget = ctx.work_group().max(1);
    let lx = cols.clamp(1, 16.min(budget));
    let ly = rows.clamp(1, (budget / lx).max(1)).min(16);
    vgpu::NDRange::two_d((cols.max(1), rows.max(1)), (lx, ly))
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::context::{Context, ContextConfig};
    use crate::Boundary2D;

    /// A small multi-CU context for skeleton tests.
    pub fn ctx(n_devices: usize) -> Context {
        Context::new(
            ContextConfig::default()
                .devices(n_devices)
                .spec(vgpu::DeviceSpec::tiny())
                .work_group(64)
                .cache_tag("skelcl-skeleton-tests"),
        )
    }

    /// The 5-point cross sum's per-cell math over a tap `at(dr, dc)`,
    /// shared by the device user functions and the host references.
    pub fn cross_sum_at(at: impl Fn(isize, isize) -> f32) -> f32 {
        at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1) + at(0, 0)
    }

    /// `n` host passes of the cross sum over a `dims` matrix.
    pub fn host_cross_sum(
        data: &[f32],
        dims: (usize, usize),
        boundary: Boundary2D,
        n: usize,
    ) -> Vec<f32> {
        (0..n).fold(data.to_vec(), |cur, _| {
            host_stencil(&cur, dims, boundary, |at| cross_sum_at(at))
        })
    }

    /// The sequential host evaluation of one stencil pass over a `rows ×
    /// cols` matrix: `cell(at)` for every cell in row-major order, where
    /// `at(dr, dc)` reads the neighbour with the boundary resolved on the
    /// host (clamp, wrap or the default), as `skelcl_imgproc::seq`
    /// evaluates Canny.
    pub fn host_stencil<T: Copy + Default, U>(
        data: &[T],
        (rows, cols): (usize, usize),
        boundary: Boundary2D,
        cell: impl Fn(&dyn Fn(isize, isize) -> T) -> U,
    ) -> Vec<U> {
        let (n, m) = (rows as isize, cols as isize);
        let at = |r: isize, c: isize| -> T {
            let (r, c) = match boundary {
                Boundary2D::Neumann => (r.clamp(0, n - 1), c.clamp(0, m - 1)),
                Boundary2D::Wrap => (r.rem_euclid(n), c.rem_euclid(m)),
                Boundary2D::Zero => {
                    if !(0..n).contains(&r) || !(0..m).contains(&c) {
                        return T::default();
                    }
                    (r, c)
                }
            };
            data[r as usize * cols + c as usize]
        };
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..n {
            for c in 0..m {
                out.push(cell(&|dr, dc| at(r + dr, c + dc)));
            }
        }
        out
    }
}
