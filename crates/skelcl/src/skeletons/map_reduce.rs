//! Fused skeletons: [`MapReduce`] (a Zip feeding a Reduce without
//! materialising the intermediate) and [`MapIndex`] (Map over an implicit
//! index range, without an input vector).
//!
//! Both are natural extensions of the paper's skeleton set (its conclusion
//! notes the set is "currently" four) and of the related work it compares
//! against (SkePU ships map-reduce and index-map variants). `MapReduce`
//! also quantifies the value of fusion: the intermediate vector of
//! `sum(mult(A, B))` never exists, saving one full write+read of global
//! memory per element.

use crate::codegen::UserFn;
use crate::context::Context;
use crate::error::{Error, Result};
use crate::matrix::alloc_parts;
use crate::meter;
use crate::scalar::Scalar;
use crate::skeletons::linear_range;
use crate::vector::{Distribution, Vector};
use std::marker::PhantomData;
use std::sync::Arc;
use vgpu::{KernelBody, NDRange, Order, Program, Scalar as Element, WorkGroup};

/// Fused element-wise combine + reduction:
/// `mapreduce f ⊕ xs ys = f(x0,y0) ⊕ f(x1,y1) ⊕ ...`.
pub struct MapReduce<T1: Element, T2: Element, U: Element, F, G> {
    map_fn: UserFn<F>,
    reduce_fn: UserFn<G>,
    identity: U,
    program: Program,
    _pd: PhantomData<fn(T1, T2) -> U>,
}

impl<T1, T2, U, F, G> MapReduce<T1, T2, U, F, G>
where
    T1: Element,
    T2: Element,
    U: Element,
    F: Fn(T1, T2) -> U + Send + Sync + Clone + 'static,
    G: Fn(U, U) -> U + Send + Sync + Clone + 'static,
{
    pub fn new(map_fn: UserFn<F>, reduce_fn: UserFn<G>, identity: U) -> Self {
        let source = format!(
            "// generated by SkelCL codegen: fused MapReduce skeleton\n\
             {}\n{}\n\
             __kernel void skelcl_map_reduce(__global const {}* restrict lhs,\n\
                                             __global const {}* restrict rhs,\n\
                                             __global {}* restrict partials,\n\
                                             const uint n,\n\
                                             __local {}* scratch) {{\n\
                 uint gid = get_global_id(0);\n\
                 uint lid = get_local_id(0);\n\
                 scratch[lid] = (gid < n) ? {}(lhs[gid], rhs[gid]) : IDENTITY;\n\
                 barrier(CLK_LOCAL_MEM_FENCE);\n\
                 for (uint s = get_local_size(0) / 2; s > 0; s >>= 1) {{\n\
                     if (lid < s) scratch[lid] = {}(scratch[lid], scratch[lid + s]);\n\
                     barrier(CLK_LOCAL_MEM_FENCE);\n\
                 }}\n\
                 if (lid == 0) partials[get_group_id(0)] = scratch[0];\n\
             }}\n",
            map_fn.source(),
            reduce_fn.source(),
            T1::TYPE_NAME,
            T2::TYPE_NAME,
            U::TYPE_NAME,
            U::TYPE_NAME,
            map_fn.name(),
            reduce_fn.name(),
        );
        let program = Program::from_source(
            format!(
                "skelcl_mapreduce_{}_{}_{}",
                map_fn.name(),
                reduce_fn.name(),
                U::TYPE_NAME
            ),
            source,
        )
        .with_arg_count(5);
        MapReduce {
            map_fn,
            reduce_fn,
            identity,
            program,
            _pd: PhantomData,
        }
    }

    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Apply the fused skeleton; the intermediate `f(x, y)` values live
    /// only in registers/local memory.
    pub fn apply(&self, lhs: &Vector<T1>, rhs: &Vector<T2>) -> Result<Scalar<U>> {
        if lhs.len() != rhs.len() {
            return Err(Error::LengthMismatch {
                left: lhs.len(),
                right: rhs.len(),
            });
        }
        if lhs.is_empty() {
            return Err(Error::Empty("map-reduce"));
        }
        let ctx = lhs.ctx().clone();
        let mut span = ctx.span("map_reduce.apply");
        span.attr("len", lhs.len().to_string());
        span.attr("distribution", format!("{:?}", lhs.distribution()));
        span.attr("devices", ctx.n_devices().to_string());
        let compiled = ctx.get_or_build(&self.program)?;
        if rhs.distribution() != lhs.distribution() {
            rhs.set_distribution(lhs.distribution())?;
        }
        let l_parts = lhs.parts()?;
        let r_parts = rhs.parts()?;

        let active = match lhs.distribution() {
            Distribution::Copy => 1,
            _ => l_parts.len(),
        };

        let mut acc = self.identity;
        let g_host = self.reduce_fn.func();
        for (lp, rp) in l_parts.iter().zip(&r_parts).take(active) {
            if lp.rows == 0 {
                continue;
            }
            let wg_size = ctx.work_group().min(lp.rows.next_power_of_two()).max(1);
            let n_groups = lp.rows.div_ceil(wg_size);
            let mut partials = ctx.device(lp.device).alloc::<U>(n_groups)?;

            // Fused first pass: map + in-group tree reduction.
            let f = self.map_fn.func().clone();
            let g = self.reduce_fn.func().clone();
            let identity = self.identity;
            let static_ops = self.map_fn.static_ops() + self.reduce_fn.static_ops();
            let a = lp.buffer.clone();
            let b = rp.buffer.clone();
            let out = partials.clone();
            let n = lp.rows;
            let body: KernelBody = Arc::new(move |wg: &WorkGroup| {
                let lsize = wg.local_size(0);
                let scratch = wg.local_buf::<U>(lsize);
                wg.for_each_item(|it| {
                    let gid = it.global_id(0);
                    let lid = it.local_id(0);
                    let v = if gid < n {
                        let (v, dyn_ops) = meter::metered(|| f(it.read(&a, gid), it.read(&b, gid)));
                        it.work(static_ops + dyn_ops);
                        v
                    } else {
                        identity
                    };
                    scratch.set(lid, v);
                });
                wg.barrier();
                let mut s = lsize / 2;
                while s > 0 {
                    wg.for_each_item(|it| {
                        let lid = it.local_id(0);
                        if lid < s {
                            let (r, dyn_ops) =
                                meter::metered(|| g(scratch.get(lid), scratch.get(lid + s)));
                            scratch.set(lid, r);
                            it.work(dyn_ops + 1);
                        }
                    });
                    crate::skeletons::reduce::record_tree_banks(wg, s, false);
                    wg.barrier();
                    s /= 2;
                }
                wg.for_each_item(|it| {
                    if it.local_id(0) == 0 {
                        it.write(&out, wg.group_id(0), scratch.get(0));
                    }
                });
            });
            let kernel = compiled.with_body(body);
            ctx.queue(lp.device).launch(
                &kernel,
                NDRange::linear(n_groups * wg_size, wg_size),
                Order::Device,
            )?;

            // Remaining passes: plain tree reduction of the partials.
            let mut remaining = n_groups;
            while remaining > 1 {
                let next_groups = remaining.div_ceil(wg_size);
                let next = ctx.device(lp.device).alloc::<U>(next_groups)?;
                let g2 = self.reduce_fn.func().clone();
                let src = partials.clone();
                let dst = next.clone();
                let m = remaining;
                let red_static = self.reduce_fn.static_ops();
                let body: KernelBody = Arc::new(move |wg: &WorkGroup| {
                    let lsize = wg.local_size(0);
                    let scratch = wg.local_buf::<U>(lsize);
                    wg.for_each_item(|it| {
                        let gid = it.global_id(0);
                        let lid = it.local_id(0);
                        let v = if gid < m {
                            it.read(&src, gid)
                        } else {
                            identity
                        };
                        scratch.set(lid, v);
                    });
                    wg.barrier();
                    let mut s = lsize / 2;
                    while s > 0 {
                        wg.for_each_item(|it| {
                            let lid = it.local_id(0);
                            if lid < s {
                                let (r, dyn_ops) =
                                    meter::metered(|| g2(scratch.get(lid), scratch.get(lid + s)));
                                scratch.set(lid, r);
                                it.work(red_static + dyn_ops);
                            }
                        });
                        wg.barrier();
                        s /= 2;
                    }
                    wg.for_each_item(|it| {
                        if it.local_id(0) == 0 {
                            it.write(&dst, wg.group_id(0), scratch.get(0));
                        }
                    });
                });
                let kernel = compiled.with_body(body);
                ctx.queue(lp.device).launch(
                    &kernel,
                    NDRange::linear(next_groups * wg_size, wg_size),
                    Order::Device,
                )?;
                partials = next;
                remaining = next_groups;
            }

            let mut v = [U::default()];
            ctx.queue(lp.device)
                .enqueue_read(&partials, None, &mut v, 1, true, Order::Device)?;
            acc = g_host(acc, v[0]);
        }
        Ok(Scalar::new(acc, ctx.host_now_s()))
    }
}

/// Map over the implicit index range `[0, n)`: `out[i] = f(i)`.
///
/// SkelCL's later `IndexVector` feature; avoids materialising an input of
/// indices (which the paper's OSEM version does by hand).
pub struct MapIndex<U: Element, F> {
    user: UserFn<F>,
    program: Program,
    _pd: PhantomData<fn(u32) -> U>,
}

impl<U, F> MapIndex<U, F>
where
    U: Element,
    F: Fn(u32) -> U + Send + Sync + Clone + 'static,
{
    pub fn new(user: UserFn<F>) -> Self {
        let source = format!(
            "// generated by SkelCL codegen: MapIndex skeleton\n\
             {}\n\
             __kernel void skelcl_map_index(__global {}* restrict out, const uint n) {{\n\
                 uint gid = get_global_id(0);\n\
                 if (gid < n) out[gid] = {}(gid);\n\
             }}\n",
            user.source(),
            U::TYPE_NAME,
            user.name(),
        );
        let program = Program::from_source(
            format!("skelcl_mapindex_{}_{}", user.name(), U::TYPE_NAME),
            source,
        )
        .with_arg_count(2);
        MapIndex {
            user,
            program,
            _pd: PhantomData,
        }
    }

    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Produce a vector of `n` elements distributed per `dist` across the
    /// context's devices; `f` receives the *global* index.
    pub fn apply(&self, ctx: &Context, n: usize, dist: Distribution) -> Result<Vector<U>> {
        let mut span = ctx.span("map_index.apply");
        span.attr("len", n.to_string());
        span.attr("distribution", format!("{dist:?}"));
        span.attr("devices", ctx.n_devices().to_string());
        let compiled = ctx.get_or_build(&self.program)?;
        // The output's parts, laid out like an uploaded vector's; every
        // element is generated on the device, so nothing is uploaded.
        let out_parts = alloc_parts::<U>(ctx, dist.as_matrix(), n, 1)?;

        let static_ops = self.user.static_ops();
        for op in &out_parts {
            if op.rows == 0 {
                continue;
            }
            let f = self.user.func().clone();
            let dst = op.buffer.clone();
            let offset = op.row_offset;
            let body: KernelBody = Arc::new(move |wg| {
                wg.for_each_item(|it| {
                    if !it.in_bounds() {
                        return;
                    }
                    let i = it.global_id(0);
                    let (v, dyn_ops) = meter::metered(|| f((offset + i) as u32));
                    it.write(&dst, i, v);
                    it.work(static_ops + dyn_ops);
                });
            });
            let kernel = compiled.with_body(body);
            ctx.queue(op.device)
                .launch(&kernel, linear_range(ctx, op.rows), Order::Device)?;
        }
        Ok(Vector::from_device_parts(ctx, n, dist, out_parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::ctx;

    #[test]
    fn fused_dot_product_matches_chained() {
        let c = ctx(2);
        let a_data: Vec<f32> = (0..2000).map(|i| (i % 13) as f32).collect();
        let b_data: Vec<f32> = (0..2000).map(|i| (i % 7) as f32).collect();
        let a = Vector::from_slice(&c, &a_data);
        let b = Vector::from_slice(&c, &b_data);

        let fused = MapReduce::new(
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
            0.0f32,
        );
        let got = fused.apply(&a, &b).unwrap().get_value();
        let want: f32 = a_data.iter().zip(&b_data).map(|(x, y)| x * y).sum();
        assert!((got - want).abs() <= want.abs() * 1e-5, "{got} vs {want}");
    }

    #[test]
    fn fusion_saves_the_intermediate_traffic() {
        let c = ctx(1);
        let n = 1 << 14;
        let a = Vector::from_vec(&c, vec![1.5f32; n]);
        let b = Vector::from_vec(&c, vec![2.0f32; n]);
        a.ensure_on_devices().unwrap();
        b.ensure_on_devices().unwrap();

        let fused = MapReduce::new(
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
            0.0f32,
        );
        let zip = crate::skeletons::Zip::new(crate::skel_fn!(
            fn mult2(x: f32, y: f32) -> f32 {
                x * y
            }
        ));
        let reduce = crate::skeletons::Reduce::new(
            crate::skel_fn!(
                fn sum2(x: f32, y: f32) -> f32 {
                    x + y
                }
            ),
            0.0f32,
        );

        // Warm builds.
        fused.apply(&a, &b).unwrap();
        reduce.apply(&zip.apply(&a, &b).unwrap()).unwrap();

        c.platform().reset_clocks();
        let v1 = fused.apply(&a, &b).unwrap().get_value();
        c.sync();
        let t_fused = c.host_now_s();

        c.platform().reset_clocks();
        let v2 = reduce
            .apply(&zip.apply(&a, &b).unwrap())
            .unwrap()
            .get_value();
        c.sync();
        let t_chain = c.host_now_s();

        assert_eq!(v1, v2);
        assert!(
            t_fused < t_chain,
            "fusion must be faster: fused={t_fused} chain={t_chain}"
        );
    }

    #[test]
    fn map_reduce_rejects_mismatch_and_empty() {
        let c = ctx(1);
        let fused = MapReduce::new(
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
            0.0f32,
        );
        let a = Vector::from_vec(&c, vec![1.0f32; 4]);
        let b = Vector::from_vec(&c, vec![1.0f32; 5]);
        assert!(matches!(
            fused.apply(&a, &b),
            Err(Error::LengthMismatch { .. })
        ));
        let e1 = Vector::from_vec(&c, Vec::<f32>::new());
        let e2 = Vector::from_vec(&c, Vec::<f32>::new());
        assert!(matches!(fused.apply(&e1, &e2), Err(Error::Empty(_))));
    }

    #[test]
    fn map_index_generates_the_range() {
        let c = ctx(3);
        let squares = MapIndex::new(crate::skel_fn!(
            fn sq(i: u32) -> u64 {
                (i as u64) * (i as u64)
            }
        ));
        let v = squares.apply(&c, 1000, Distribution::Block).unwrap();
        let got = v.to_vec().unwrap();
        for (i, &x) in got.iter().enumerate() {
            assert_eq!(x, (i as u64) * (i as u64));
        }
        assert_eq!(v.distribution(), Distribution::Block);
    }

    #[test]
    fn map_index_respects_requested_distribution() {
        let c = ctx(2);
        let identity = MapIndex::new(crate::skel_fn!(
            fn id(i: u32) -> u32 {
                i
            }
        ));
        for dist in [
            Distribution::Single(1),
            Distribution::Copy,
            Distribution::Block,
        ] {
            let before = c.platform().stats_snapshot();
            let v = identity.apply(&c, 100, dist).unwrap();
            let delta = c.platform().stats_snapshot() - before;
            assert_eq!(delta.h2d_bytes, 0, "{dist:?}: no input is uploaded");
            assert_eq!(v.distribution(), dist);
            assert_eq!(v.to_vec().unwrap(), (0..100u32).collect::<Vec<_>>());
        }
    }
}
