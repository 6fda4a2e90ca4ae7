//! The MapOverlap skeleton: a 1-D stencil with halo exchange.
//!
//! The paper's conclusion lists extending the skeleton set as future work;
//! MapOverlap is the extension SkelCL shipped next (Steuwer et al., later
//! publications). Each output element is computed from its input element
//! and a neighbourhood of `radius` elements on each side. Under a Block
//! distribution the halos cross device boundaries, so applying the skeleton
//! triggers automatic device-to-device halo exchange — a compact showcase
//! of the distribution machinery.

use crate::codegen::{self, UserFn};
use crate::error::Result;
use crate::matrix::MatrixPart;
use crate::meter;
use crate::skeletons::{alloc_matching_matrix_parts, linear_range};
use crate::vector::Vector;
use std::marker::PhantomData;
use std::sync::Arc;
use vgpu::{Buffer, Item, KernelBody, Order, Program, Scalar as Element};

/// What out-of-range neighbourhood positions read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Boundary<T> {
    /// Replicate the edge element.
    Clamp,
    /// A constant value.
    Neutral(T),
}

/// The customizing function's view of one stencil application: counted
/// access to the neighbourhood `[-radius, +radius]`, with positions outside
/// the vector resolved by the boundary rule.
pub struct StencilView<'a, T: Element> {
    ext: &'a Buffer<T>,
    /// Index of the centre element inside the halo-extended buffer.
    centre: usize,
    /// The centre's global index.
    g_centre: usize,
    /// Vector length.
    n: usize,
    radius: usize,
    boundary: Boundary<T>,
    item: &'a Item<'a>,
}

impl<'a, T: Element> StencilView<'a, T> {
    /// The neighbour at `offset` (0 = the element itself). Panics if
    /// `|offset| > radius`, mirroring SkelCL's out-of-range checks.
    #[inline]
    pub fn get(&self, offset: isize) -> T {
        assert!(
            offset.unsigned_abs() <= self.radius,
            "stencil access {offset} exceeds radius {}",
            self.radius
        );
        let n = self.n as isize;
        let mut target = self.g_centre as isize + offset;
        if target < 0 || target >= n {
            match self.boundary {
                Boundary::Neutral(v) => return v,
                // The clamped element lies inside this part's extended
                // window: it is at most `radius` away from the centre.
                Boundary::Clamp => target = target.clamp(0, n - 1),
            }
        }
        let idx = self.centre as isize + (target - self.g_centre as isize);
        self.item.read(self.ext, idx as usize)
    }

    pub fn radius(&self) -> usize {
        self.radius
    }
}

/// The MapOverlap skeleton.
pub struct MapOverlap<T: Element, F> {
    user: UserFn<F>,
    radius: usize,
    boundary: Boundary<T>,
    program: Program,
    _pd: PhantomData<fn(T) -> T>,
}

impl<T, F> MapOverlap<T, F>
where
    T: Element,
    F: Fn(&StencilView<'_, T>) -> T + Send + Sync + Clone + 'static,
{
    pub fn new(user: UserFn<F>, radius: usize, boundary: Boundary<T>) -> Self {
        let program =
            codegen::map_overlap_program(user.name(), user.source(), T::TYPE_NAME, radius);
        MapOverlap {
            user,
            radius,
            boundary,
            program,
            _pd: PhantomData,
        }
    }

    pub fn program(&self) -> &Program {
        &self.program
    }

    pub fn apply(&self, input: &Vector<T>) -> Result<Vector<T>> {
        let ctx = input.ctx().clone();
        let mut span = ctx.span("map_overlap.apply");
        span.attr("len", input.len().to_string());
        span.attr("distribution", format!("{:?}", input.distribution()));
        span.attr("devices", ctx.n_devices().to_string());
        span.attr("radius", self.radius.to_string());
        let compiled = ctx.get_or_build(&self.program)?;
        let parts = input.parts()?;
        let out_parts = alloc_matching_matrix_parts::<T, T>(&ctx, &parts)?;
        let n_global = input.len();
        let r = self.radius;

        for (ip, op) in parts.iter().zip(&out_parts) {
            if ip.rows == 0 {
                continue;
            }
            // Build the halo-extended input on this device.
            let ext = ctx.device(ip.device).alloc::<T>(ip.rows + 2 * r)?;
            ctx.platform()
                .copy_on_device(&ip.buffer, 0, &ext, r, ip.rows)?;
            self.fill_halo(&ctx, &parts, ip, &ext, n_global)?;

            let f = self.user.func().clone();
            let static_ops = self.user.static_ops();
            let (radius, boundary, row_offset) = (r, self.boundary, ip.row_offset);
            let dst = op.buffer.clone();
            let ext_body = ext.clone();
            let body: KernelBody = Arc::new(move |wg| {
                wg.for_each_item(|it| {
                    if !it.in_bounds() {
                        return;
                    }
                    let i = it.global_id(0);
                    let view = StencilView {
                        ext: &ext_body,
                        centre: i + radius,
                        g_centre: row_offset + i,
                        n: n_global,
                        radius,
                        boundary,
                        item: it,
                    };
                    let (y, dyn_ops) = meter::metered(|| f(&view));
                    it.write(&dst, i, y);
                    it.work(static_ops + dyn_ops);
                });
            });
            let kernel = compiled.with_body(body);
            ctx.queue(ip.device)
                .launch(&kernel, linear_range(&ctx, ip.rows), Order::Device)?;
        }
        Ok(Vector::from_device_parts(
            &ctx,
            n_global,
            input.distribution(),
            out_parts,
        ))
    }

    /// Fill the halo slots of the extended buffer (`[0, r)` and
    /// `[r + len, len + 2r)`) that lie inside the vector from the parts
    /// holding them, device-to-device. Slots outside the vector stay unset:
    /// the view resolves those positions by the boundary rule.
    fn fill_halo(
        &self,
        ctx: &crate::context::Context,
        parts: &[MatrixPart<T>],
        ip: &MatrixPart<T>,
        ext: &Buffer<T>,
        n_global: usize,
    ) -> Result<()> {
        let r = self.radius;
        // Halo global index ranges, clipped to the vector: left =
        // [off - r, off), right = [off + len, off + len + r).
        let (off, end) = (ip.row_offset, ip.row_offset + ip.rows);
        for (mut g, stop) in [(off.saturating_sub(r), off), (end, (end + r).min(n_global))] {
            while g < stop {
                // Copy the longest run within one part.
                let src = part_holding(parts, g);
                let run = (src.row_offset + src.rows).min(stop) - g;
                ctx.platform().copy(
                    &src.buffer,
                    g - src.row_offset,
                    ext,
                    g + r - off,
                    run,
                    1,
                    Order::Device,
                )?;
                g += run;
            }
        }
        Ok(())
    }
}

fn part_holding<T: Element>(parts: &[MatrixPart<T>], global: usize) -> &MatrixPart<T> {
    parts
        .iter()
        .find(|p| global >= p.row_offset && global < p.row_offset + p.rows)
        .expect("global index not covered by any part")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::ctx;
    use crate::vector::Distribution;

    fn blur3() -> MapOverlap<f32, impl Fn(&StencilView<'_, f32>) -> f32 + Clone> {
        let user = UserFn::new(
            "blur3",
            "float blur3(__global float* in, uint i, uint n) { return (in[i-1]+in[i]+in[i+1])/3.0f; }",
            |v: &StencilView<'_, f32>| (v.get(-1) + v.get(0) + v.get(1)) / 3.0,
        );
        MapOverlap::new(user, 1, Boundary::Clamp)
    }

    fn reference_blur3_clamp(data: &[f32]) -> Vec<f32> {
        let n = data.len();
        (0..n)
            .map(|i| {
                let l = data[i.saturating_sub(1)];
                let r = data[(i + 1).min(n - 1)];
                (l + data[i] + r) / 3.0
            })
            .collect()
    }

    #[test]
    fn stencil_on_one_device() {
        let c = ctx(1);
        let data: Vec<f32> = (0..100).map(|i| ((i * 31) % 17) as f32).collect();
        let v = Vector::from_vec(&c, data.clone());
        let out = blur3().apply(&v).unwrap().to_vec().unwrap();
        let want = reference_blur3_clamp(&data);
        for (a, b) in out.iter().zip(&want) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn halo_exchange_across_block_parts() {
        let c = ctx(4);
        let data: Vec<f32> = (0..101).map(|i| (i as f32).sin() * 10.0).collect();
        let v = Vector::from_vec(&c, data.clone());
        v.set_distribution(Distribution::Block).unwrap();
        v.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let out = blur3().apply(&v).unwrap().to_vec().unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert!(
            delta.d2d_transfers > 0,
            "block halos must move between devices"
        );
        let want = reference_blur3_clamp(&data);
        for (i, (a, b)) in out.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-4, "mismatch at {i}: {a} vs {b}");
        }
    }

    #[test]
    fn neutral_boundary() {
        let c = ctx(1);
        let user = UserFn::new(
            "sum3",
            "float sum3(__global float* in, uint i, uint n) { return in[i-1]+in[i]+in[i+1]; }",
            |v: &StencilView<'_, f32>| v.get(-1) + v.get(0) + v.get(1),
        );
        let st = MapOverlap::new(user, 1, Boundary::Neutral(100.0));
        let v = Vector::from_vec(&c, vec![1.0f32, 2.0, 3.0]);
        let out = st.apply(&v).unwrap().to_vec().unwrap();
        assert_eq!(out, vec![103.0, 6.0, 105.0]);
    }

    #[test]
    fn radius_larger_than_part() {
        // 4 devices, 8 elements -> parts of 2; radius 3 spans parts.
        let c = ctx(4);
        let data: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let v = Vector::from_vec(&c, data.clone());
        v.set_distribution(Distribution::Block).unwrap();
        let user = UserFn::new(
            "wide",
            "float wide(__global float* in, uint i, uint n) { return in[i-3]+in[i+3]; }",
            |v: &StencilView<'_, f32>| v.get(-3) + v.get(3),
        );
        let st = MapOverlap::new(user, 3, Boundary::Neutral(0.0));
        let out = st.apply(&v).unwrap().to_vec().unwrap();
        let want: Vec<f32> = (0..8i32)
            .map(|i| {
                let l = if i - 3 >= 0 { (i - 3) as f32 } else { 0.0 };
                let r = if i + 3 < 8 { (i + 3) as f32 } else { 0.0 };
                l + r
            })
            .collect();
        assert_eq!(out, want);
    }

    /// The boundary lives in the view: a one-device `Clamp` apply copies
    /// its part into the extended buffer and launches, nothing more.
    #[test]
    fn clamp_halo_is_one_copy_and_one_kernel() {
        let c = ctx(1);
        let user = UserFn::new(
            "sum5",
            "float sum5(__global float* in, uint i, uint n) { return in[i-2]+in[i-1]+in[i]+in[i+1]+in[i+2]; }",
            |v: &StencilView<'_, f32>| v.get(-2) + v.get(-1) + v.get(0) + v.get(1) + v.get(2),
        );
        let st = MapOverlap::new(user, 2, Boundary::Clamp);
        let data: Vec<f32> = (0..100).map(|i| ((i * 7) % 13) as f32).collect();
        let v = Vector::from_vec(&c, data.clone());
        st.apply(&v).unwrap(); // warm-up: build and upload
        c.platform().enable_timeline_trace();
        let out = st.apply(&v).unwrap();
        let trace = c.platform().take_timeline_trace();
        let count = |kind| trace.iter().filter(|r| r.kind == kind).count();
        assert_eq!(count(vgpu::CmdKind::D2D), 1, "{trace:#?}");
        assert_eq!(count(vgpu::CmdKind::Kernel), 1, "{trace:#?}");
        let at = |j: isize| data[j.clamp(0, 99) as usize];
        let want: Vec<f32> = (0..100isize)
            .map(|i| at(i - 2) + at(i - 1) + at(i) + at(i + 1) + at(i + 2))
            .collect();
        assert_eq!(out.to_vec().unwrap(), want);
    }

    #[test]
    fn out_of_radius_access_is_a_typed_error() {
        let c = ctx(1);
        let user = UserFn::new(
            "bad",
            "float bad(__global float* in, uint i, uint n) { return in[i-2]; }",
            |v: &StencilView<'_, f32>| v.get(-2),
        );
        let st = MapOverlap::new(user, 1, Boundary::Clamp);
        let v = Vector::from_vec(&c, vec![1.0f32; 8]);
        let err = st.apply(&v).expect_err("launch must fail");
        assert!(err.to_string().contains("exceeds radius"), "{err}");
    }
}
