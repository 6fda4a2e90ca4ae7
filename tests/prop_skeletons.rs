//! Property-based tests: the algebraic laws of the skeletons (the paper's
//! equations (1)–(4)) hold for arbitrary inputs, lengths, distributions and
//! device counts.

use proptest::prelude::*;
use skelcl::{
    Arguments, Context, ContextConfig, Distribution, KernelEnv, Map, MapArgs, MapVoid, Reduce,
    Scan, UserFn, Vector, Zip, ZipArgs,
};
use vgpu::DeviceSpec;

fn ctx(n_devices: usize) -> Context {
    Context::new(
        ContextConfig::default()
            .devices(n_devices)
            .spec(DeviceSpec::tiny())
            .work_group(64)
            .cache_tag("proptests"),
    )
}

fn dist_strategy() -> impl Strategy<Value = Distribution> {
    prop_oneof![
        Just(Distribution::Single(0)),
        Just(Distribution::Copy),
        Just(Distribution::Block),
    ]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Eq. (1): map f [x0..] = [f(x0)..]
    #[test]
    fn map_matches_host_map(
        data in prop::collection::vec(-1e3f32..1e3, 0..400),
        devices in 1usize..4,
        dist in dist_strategy(),
    ) {
        let c = ctx(devices);
        let v = Vector::from_slice(&c, &data);
        v.set_distribution(dist).unwrap();
        let m = Map::new(skelcl::skel_fn!(fn f(x: f32) -> f32 { x * 2.0 + 1.0 }));
        let got = m.apply(&v).unwrap().to_vec().unwrap();
        let want: Vec<f32> = data.iter().map(|x| x * 2.0 + 1.0).collect();
        prop_assert_eq!(got, want);
    }

    // Eq. (2): zip ⊕ xs ys = [x0⊕y0, ...]
    #[test]
    fn zip_matches_host_zip(
        pairs in prop::collection::vec((-1e3f32..1e3, -1e3f32..1e3), 0..400),
        devices in 1usize..4,
    ) {
        let c = ctx(devices);
        let xs: Vec<f32> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f32> = pairs.iter().map(|p| p.1).collect();
        let a = Vector::from_slice(&c, &xs);
        let b = Vector::from_slice(&c, &ys);
        let z = Zip::new(skelcl::skel_fn!(fn f(x: f32, y: f32) -> f32 { x - y }));
        let got = z.apply(&a, &b).unwrap().to_vec().unwrap();
        let want: Vec<f32> = xs.iter().zip(&ys).map(|(x, y)| x - y).collect();
        prop_assert_eq!(got, want);
    }

    // Eq. (3): reduce ⊕ [x0..] = x0 ⊕ ... ⊕ xn-1, for associative ⊕.
    // Integer addition avoids float-reassociation noise.
    #[test]
    fn reduce_matches_host_fold(
        data in prop::collection::vec(0u32..1000, 1..500),
        devices in 1usize..4,
        dist in dist_strategy(),
    ) {
        let c = ctx(devices);
        let v = Vector::from_slice(&c, &data);
        v.set_distribution(dist).unwrap();
        let r = Reduce::new(skelcl::skel_fn!(fn add(x: u32, y: u32) -> u32 { x + y }), 0u32);
        let got = r.apply(&v).unwrap().get_value();
        prop_assert_eq!(got, data.iter().sum::<u32>());
    }

    #[test]
    fn reduce_max_is_order_insensitive(
        data in prop::collection::vec(-1e6f32..1e6, 1..300),
        devices in 1usize..4,
    ) {
        let c = ctx(devices);
        let v = Vector::from_slice(&c, &data);
        let r = Reduce::new(
            skelcl::skel_fn!(fn mx(x: f32, y: f32) -> f32 { if x > y { x } else { y } }),
            f32::NEG_INFINITY,
        );
        let got = r.apply(&v).unwrap().get_value();
        let want = data.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert_eq!(got, want);
    }

    // Eq. (4): scan ⊕ [x0..] = [id, x0, x0⊕x1, ...]
    #[test]
    fn scan_matches_host_prefix(
        data in prop::collection::vec(0u32..1000, 0..600),
        devices in 1usize..4,
    ) {
        let c = ctx(devices);
        let v = Vector::from_slice(&c, &data);
        let s = Scan::new(skelcl::skel_fn!(fn add(x: u32, y: u32) -> u32 { x + y }), 0u32);
        let (out, total) = s.apply_with_total(&v).unwrap();
        let got = out.to_vec().unwrap();
        let mut acc = 0u32;
        let mut want = Vec::with_capacity(data.len());
        for &x in &data {
            want.push(acc);
            acc += x;
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(total, acc);
    }

    // scan ∘ shift law: inclusive[i] = exclusive[i] ⊕ x[i]
    #[test]
    fn scan_inclusive_relation(
        data in prop::collection::vec(0u64..100, 1..300),
    ) {
        let c = ctx(1);
        let v = Vector::from_slice(&c, &data);
        let s = Scan::new(skelcl::skel_fn!(fn add(x: u64, y: u64) -> u64 { x + y }), 0u64);
        let z = Zip::new(skelcl::skel_fn!(fn add2(x: u64, y: u64) -> u64 { x + y }));
        let exclusive = s.apply(&v).unwrap();
        let inclusive = z.apply(&exclusive, &v).unwrap().to_vec().unwrap();
        let mut acc = 0u64;
        for (i, &x) in data.iter().enumerate() {
            acc += x;
            prop_assert_eq!(inclusive[i], acc);
        }
    }

    // map g ∘ map f = map (g ∘ f): skeleton fusion law.
    #[test]
    fn map_composition_law(
        data in prop::collection::vec(-100i32..100, 0..300),
        devices in 1usize..4,
    ) {
        let c = ctx(devices);
        let v = Vector::from_slice(&c, &data);
        let f = Map::new(skelcl::skel_fn!(fn f(x: i32) -> i32 { x + 3 }));
        let g = Map::new(skelcl::skel_fn!(fn g(x: i32) -> i32 { x * 2 }));
        let gf = Map::new(skelcl::skel_fn!(fn gf(x: i32) -> i32 { (x + 3) * 2 }));
        let chained = g.apply(&f.apply(&v).unwrap()).unwrap().to_vec().unwrap();
        let fused = gf.apply(&v).unwrap().to_vec().unwrap();
        prop_assert_eq!(chained, fused);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Distribution round trips never lose data, whatever the path taken.
    #[test]
    fn distribution_round_trips_preserve_data(
        data in prop::collection::vec(0u32..u32::MAX, 0..300),
        devices in 1usize..4,
        path in prop::collection::vec(dist_strategy(), 1..5),
    ) {
        let c = ctx(devices);
        let v = Vector::from_slice(&c, &data);
        v.ensure_on_devices().unwrap();
        v.mark_devices_modified(); // force device data to be the truth
        for d in path {
            v.set_distribution(d).unwrap();
        }
        prop_assert_eq!(v.to_vec().unwrap(), data);
    }

    // The dot product composed from skeletons equals the host dot product.
    #[test]
    fn dot_product_law(
        pairs in prop::collection::vec((0f32..10.0, 0f32..10.0), 1..256),
        devices in 1usize..4,
    ) {
        let c = ctx(devices);
        let xs: Vec<f32> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f32> = pairs.iter().map(|p| p.1).collect();
        let a = Vector::from_slice(&c, &xs);
        let b = Vector::from_slice(&c, &ys);
        let mult = Zip::new(skelcl::skel_fn!(fn mult(x: f32, y: f32) -> f32 { x * y }));
        let sum = Reduce::new(skelcl::skel_fn!(fn sum(x: f32, y: f32) -> f32 { x + y }), 0.0);
        let got = sum.apply(&mult.apply(&a, &b).unwrap()).unwrap().get_value();
        let want: f32 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        let tol = want.abs() * 1e-4 + 1e-3;
        prop_assert!((got - want).abs() <= tol, "got {got}, want {want}");
    }
}

// The with-arguments variants (Section III-C) and a Zip whose inputs start
// in different distributions, each against a host reference, bit for bit.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // MapArgs reading a scalar and a `Copy` vector used as a gather table.
    #[test]
    fn map_args_gathers_from_a_copy_table(
        idx in prop::collection::vec(0u32..64, 0..300),
        table in prop::collection::vec(-1e3f32..1e3, 64..65),
        scale in -4f32..4.0,
        devices in 1usize..=4,
        dist in dist_strategy(),
    ) {
        let c = ctx(devices);
        let v = Vector::from_slice(&c, &idx);
        v.set_distribution(dist).unwrap();
        let t = Vector::from_slice(&c, &table);
        t.set_distribution(Distribution::Copy).unwrap();
        let mut args = Arguments::new();
        args.push(scale);
        args.push(&t);
        let gather = UserFn::new(
            "gather_scaled",
            "float gather_scaled(uint i, float s, __global float* t) { return t[i] * s; }",
            |i: u32, env: &KernelEnv<'_>| env.vec::<f32>(1).get(i as usize) * env.scalar::<f32>(0),
        );
        let got = MapArgs::new(gather, 2).apply(&v, &args).unwrap().to_vec().unwrap();
        let want: Vec<f32> = idx.iter().map(|&i| table[i as usize] * scale).collect();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn zip_args_matches_host_zip(
        pairs in prop::collection::vec((-1e3f32..1e3, -1e3f32..1e3), 0..300),
        scale in -4f32..4.0,
        devices in 1usize..=4,
        dist in dist_strategy(),
    ) {
        let c = ctx(devices);
        let xs: Vec<f32> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f32> = pairs.iter().map(|p| p.1).collect();
        let a = Vector::from_slice(&c, &xs);
        a.set_distribution(dist).unwrap();
        let b = Vector::from_slice(&c, &ys);
        let mut args = Arguments::new();
        args.push(scale);
        let fma = UserFn::new(
            "fma_scaled",
            "float fma_scaled(float x, float y, float s) { return x + y * s; }",
            |x: f32, y: f32, env: &KernelEnv<'_>| x + y * env.scalar::<f32>(0),
        );
        let got = ZipArgs::new(fma, 1).apply(&a, &b, &args).unwrap().to_vec().unwrap();
        let want: Vec<f32> = xs.iter().zip(&ys).map(|(x, y)| x + y * scale).collect();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    // MapVoid scatters into a `Copy` accumulator; merging the copies with
    // `add` sums every device's hits. Under `Copy` every device maps the
    // whole input, so each hit lands once per device.
    #[test]
    fn map_void_scatter_merges_every_devices_hits(
        idx in prop::collection::vec(0u32..1000, 0..300),
        slots in 1usize..16,
        devices in 1usize..=4,
        dist in dist_strategy(),
    ) {
        let c = ctx(devices);
        let v = Vector::from_slice(&c, &idx);
        v.set_distribution(dist).unwrap();
        let acc = Vector::from_vec(&c, vec![0.0f32; slots]);
        acc.set_distribution(Distribution::Copy).unwrap();
        let mut args = Arguments::new();
        args.push(&acc);
        let scatter = UserFn::new(
            "scatter_hits",
            "void scatter_hits(uint i, __global float* acc) { /* acc[i % slots] += 1 */ }",
            move |i: u32, env: &KernelEnv<'_>| {
                env.vec::<f32>(0).atomic_add(i as usize % slots, 1.0);
            },
        );
        MapVoid::new(scatter, 1).apply(&v, &args).unwrap();
        acc.mark_devices_modified();
        let add = skelcl::skel_fn!(fn add(x: f32, y: f32) -> f32 { x + y });
        acc.set_distribution_with(Distribution::Block, &add).unwrap();
        let copies = if dist == Distribution::Copy { devices } else { 1 };
        let mut want = vec![0.0f32; slots];
        for &i in &idx {
            want[i as usize % slots] += copies as f32;
        }
        prop_assert_eq!(bits(&acc.to_vec().unwrap()), bits(&want));
    }

    // Zip's rhs starts in its own distribution, on the devices, and follows
    // lhs's by a device-side exchange.
    #[test]
    fn zip_redistributes_rhs_to_follow_lhs(
        pairs in prop::collection::vec((-1e3f32..1e3, -1e3f32..1e3), 0..300),
        devices in 1usize..=4,
        lhs_dist in dist_strategy(),
        rhs_dist in dist_strategy(),
    ) {
        let c = ctx(devices);
        let xs: Vec<f32> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f32> = pairs.iter().map(|p| p.1).collect();
        let a = Vector::from_slice(&c, &xs);
        a.set_distribution(lhs_dist).unwrap();
        let b = Vector::from_slice(&c, &ys);
        b.set_distribution(rhs_dist).unwrap();
        b.ensure_on_devices().unwrap();
        let z = Zip::new(skelcl::skel_fn!(fn sub(x: f32, y: f32) -> f32 { x - y }));
        let out = z.apply(&a, &b).unwrap();
        prop_assert_eq!(out.distribution(), lhs_dist);
        prop_assert_eq!(b.distribution(), lhs_dist);
        let want: Vec<f32> = xs.iter().zip(&ys).map(|(x, y)| x - y).collect();
        prop_assert_eq!(bits(&out.to_vec().unwrap()), bits(&want));
    }
}
