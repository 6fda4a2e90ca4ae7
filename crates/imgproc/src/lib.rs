//! # skelcl-imgproc — image-processing workloads over `Matrix`/`Stencil2D`
//!
//! The canny pipeline of SkelCL's benchmark suite (Gaussian blur → Sobel
//! gradient → non-maximum suppression → hysteresis thresholding),
//! implemented twice:
//!
//! * [`seq`] — a plain sequential host reference,
//! * [`skelcl_impl`] — matrices + 2D stencils + element-wise stages, all
//!   device-resident with lazy transfers and automatic halo exchange; the
//!   full detector runs both *fused* (a lazy [`Pipeline`](skelcl::Pipeline)
//!   collapsing the stage chain into one stencil chain, whose labels the
//!   host reads back band by band under the chain's own kernels) and
//!   *unfused* (one skeleton per stage — the baseline `fig_fusion`
//!   measures against).
//!
//! Both paths evaluate every pixel through the *same* per-pixel functions
//! ([`gaussian3_at`], [`sobel_x_at`], [`sobel_y_at`], [`magnitude`],
//! [`nms_at`], [`edge_label`], [`hysteresis`]), so their floating-point
//! evaluation order is identical and results are **bit-identical** — on
//! one device, on many devices, fused, unfused, and sequentially.

pub mod seq;
pub mod skelcl_impl;

/// A gradient vector: the Sobel x/y derivative pair at one pixel. Device
/// buffers hold `Grad` directly (it is a vgpu scalar), so the gradient
/// field never splits into two matrices.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Grad {
    pub gx: f32,
    pub gy: f32,
}

vgpu::impl_scalar!(Grad);

/// tan(22.5°): the slope that separates the four quantized gradient
/// directions of non-maximum suppression.
const TAN_22_5: f32 = 0.414_213_56;

/// Non-maximum suppression of the pixel at the getter's origin: keep the
/// gradient magnitude only where it peaks along the (quantized) gradient
/// direction; elsewhere the edge response is thinned to 0. The comparison
/// is `>=` against the first neighbour and `>` against the second, so
/// plateau pixels survive exactly once per direction.
#[inline]
pub fn nms_at(get: impl Fn(isize, isize) -> Grad) -> f32 {
    let g = get(0, 0);
    let m = magnitude(g.gx, g.gy);
    let (ax, ay) = (g.gx.abs(), g.gy.abs());
    let ((r1, c1), (r2, c2)) = if ay <= TAN_22_5 * ax {
        // Mostly-horizontal gradient: compare along the row.
        ((0, -1), (0, 1))
    } else if ax <= TAN_22_5 * ay {
        // Mostly-vertical gradient: compare along the column.
        ((-1, 0), (1, 0))
    } else if g.gx * g.gy > 0.0 {
        ((-1, -1), (1, 1))
    } else {
        ((-1, 1), (1, -1))
    };
    let n1 = get(r1, c1);
    let n2 = get(r2, c2);
    let m1 = magnitude(n1.gx, n1.gy);
    let m2 = magnitude(n2.gx, n2.gy);
    if m >= m1 && m > m2 {
        m
    } else {
        0.0
    }
}

/// Double-threshold classification of a suppressed magnitude:
/// `2.0` = strong edge (`m >= hi`), `1.0` = weak candidate (`m >= lo`),
/// `0.0` = suppressed.
#[inline]
pub fn edge_label(m: f32, lo: f32, hi: f32) -> f32 {
    if m >= hi {
        2.0
    } else if m >= lo {
        1.0
    } else {
        0.0
    }
}

/// Hysteresis thresholding over a label image ([`edge_label`] output):
/// every strong pixel is an edge, and weak pixels join iff they connect to
/// a strong pixel through an 8-connected chain of weak pixels. A host-side
/// flood fill — the reachable set is order-independent, so the result is
/// deterministic regardless of traversal order.
pub fn hysteresis(labels: &[f32], rows: usize, cols: usize) -> Vec<u8> {
    assert_eq!(labels.len(), rows * cols);
    let mut edges = vec![0u8; rows * cols];
    let mut stack: Vec<usize> = Vec::new();
    for (i, &l) in labels.iter().enumerate() {
        if l >= 2.0 {
            edges[i] = 1;
            stack.push(i);
        }
    }
    while let Some(i) = stack.pop() {
        let (r, c) = ((i / cols) as isize, (i % cols) as isize);
        for dr in -1isize..=1 {
            for dc in -1isize..=1 {
                let (nr, nc) = (r + dr, c + dc);
                if nr < 0 || nr >= rows as isize || nc < 0 || nc >= cols as isize {
                    continue;
                }
                let j = nr as usize * cols + nc as usize;
                if edges[j] == 0 && labels[j] >= 1.0 {
                    edges[j] = 1;
                    stack.push(j);
                }
            }
        }
    }
    edges
}

/// 3×3 binomial Gaussian blur of the pixel at the getter's origin.
/// `get(dr, dc)` resolves the neighbour under the caller's boundary rule.
/// The summation order is fixed (row-major), which both implementations
/// share — do not "simplify" the expression.
#[inline]
pub fn gaussian3_at(get: impl Fn(isize, isize) -> f32) -> f32 {
    (get(-1, -1)
        + 2.0 * get(-1, 0)
        + get(-1, 1)
        + 2.0 * get(0, -1)
        + 4.0 * get(0, 0)
        + 2.0 * get(0, 1)
        + get(1, -1)
        + 2.0 * get(1, 0)
        + get(1, 1))
        * (1.0 / 16.0)
}

/// Horizontal Sobel derivative at the getter's origin.
#[inline]
pub fn sobel_x_at(get: impl Fn(isize, isize) -> f32) -> f32 {
    (get(-1, 1) + 2.0 * get(0, 1) + get(1, 1)) - (get(-1, -1) + 2.0 * get(0, -1) + get(1, -1))
}

/// Vertical Sobel derivative at the getter's origin.
#[inline]
pub fn sobel_y_at(get: impl Fn(isize, isize) -> f32) -> f32 {
    (get(1, -1) + 2.0 * get(1, 0) + get(1, 1)) - (get(-1, -1) + 2.0 * get(-1, 0) + get(-1, 1))
}

/// Gradient magnitude from the two Sobel derivatives.
#[inline]
pub fn magnitude(gx: f32, gy: f32) -> f32 {
    (gx * gx + gy * gy).sqrt()
}

/// A deterministic synthetic grayscale test image: smooth gradients with a
/// few hard edges, so the pipeline has realistic structure to find.
pub fn test_image(rows: usize, cols: usize) -> Vec<f32> {
    let mut img = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let smooth = ((r as f32 * 0.37).sin() + (c as f32 * 0.23).cos()) * 40.0;
            let edge = if (r / 7 + c / 11) % 2 == 0 { 60.0 } else { 0.0 };
            let texture = ((r * 31 + c * 17) % 13) as f32;
            img.push(smooth + edge + texture);
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_functions_are_deterministic() {
        let img = test_image(8, 8);
        let get = |dr: isize, dc: isize| {
            let r = (3 + dr) as usize;
            let c = (3 + dc) as usize;
            img[r * 8 + c]
        };
        let a = gaussian3_at(get);
        let b = gaussian3_at(get);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(sobel_x_at(get).to_bits(), sobel_x_at(get).to_bits());
    }

    #[test]
    fn sobel_of_flat_image_is_zero() {
        let get = |_dr: isize, _dc: isize| 5.0f32;
        assert_eq!(sobel_x_at(get), 0.0);
        assert_eq!(sobel_y_at(get), 0.0);
        assert_eq!(magnitude(0.0, 0.0), 0.0);
        assert_eq!(gaussian3_at(get), 5.0);
    }

    #[test]
    fn test_image_is_reproducible() {
        assert_eq!(test_image(16, 16), test_image(16, 16));
        assert_eq!(test_image(16, 16).len(), 256);
    }
}
