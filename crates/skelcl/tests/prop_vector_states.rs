//! Model-based testing of the Vector coherence state machine: an arbitrary
//! interleaving of host writes, uploads, device-side modifications and
//! redistributions must always agree with a plain `Vec<f32>` model.
//!
//! This is the invariant behind the paper's lazy-copying protocol: "Before
//! every data transfer, the vector implementation checks whether the data
//! transfer is necessary; only then the data is actually transferred."

use proptest::prelude::*;
use skelcl::{Context, ContextConfig, Distribution, Map, Vector};
use vgpu::DeviceSpec;

#[derive(Debug, Clone)]
enum Op {
    /// Overwrite host element `i % len` with `v` (through host_view_mut).
    HostWrite(usize, f32),
    /// Force an upload under the current distribution.
    Upload,
    /// Download + verify against the model.
    Verify,
    /// Run a Map skeleton (x + delta), replacing the vector.
    MapAdd(f32),
    /// Change distribution.
    Redistribute(Distribution),
    /// Change distribution with the add combine (`set_distribution_with`).
    MergeAdd(Distribution),
}

fn dist_strategy() -> impl Strategy<Value = Distribution> {
    prop_oneof![
        Just(Distribution::Single(0)),
        Just(Distribution::Copy),
        Just(Distribution::Block),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<usize>(), -100.0f32..100.0).prop_map(|(i, v)| Op::HostWrite(i, v)),
        Just(Op::Upload),
        Just(Op::Verify),
        (-10.0f32..10.0).prop_map(Op::MapAdd),
        dist_strategy().prop_map(Op::Redistribute),
        dist_strategy().prop_map(Op::MergeAdd),
    ]
}

fn ctx(n: usize) -> Context {
    Context::new(
        ContextConfig::default()
            .devices(n)
            .spec(DeviceSpec::tiny())
            .work_group(64)
            .cache_tag("vector-state-machine"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn vector_always_agrees_with_the_model(
        init in prop::collection::vec(-100.0f32..100.0, 1..200),
        devices in 1usize..=4,
        ops in prop::collection::vec(op_strategy(), 0..25),
    ) {
        let c = ctx(devices);
        let add = |d: f32| {
            Map::new(skelcl::UserFn::new(
                "shift",
                "float shift(float x) { return x + DELTA; }",
                move |x: f32| x + d,
            ))
        };
        let merge = skelcl::skel_fn!(
            fn merge(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        // Every case runs from the host data and from a constant vector.
        let n = init.len();
        let starts = [
            (init.clone(), Vector::from_slice(&c, &init)),
            (vec![init[0]; n], Vector::filled(&c, n, init[0])),
        ];
        for (mut model, mut v) in starts {
            for op in ops.iter().cloned() {
                match op {
                    Op::HostWrite(i, val) => {
                        let idx = i % model.len();
                        model[idx] = val;
                        v.host_view_mut().unwrap()[idx] = val;
                    }
                    Op::Upload => {
                        v.ensure_on_devices().unwrap();
                    }
                    Op::Verify => {
                        prop_assert_eq!(v.to_vec().unwrap(), model.clone());
                    }
                    Op::MapAdd(d) => {
                        for x in model.iter_mut() {
                            *x += d;
                        }
                        v = add(d).apply(&v).unwrap();
                    }
                    Op::Redistribute(dist) => {
                        v.set_distribution(dist).unwrap();
                    }
                    Op::MergeAdd(dist) => {
                        // A merge combines copies only after
                        // `mark_devices_modified`, which no op calls: the
                        // copies are identical and the model is unchanged.
                        v.set_distribution_with(dist, &merge).unwrap();
                    }
                }
            }
            prop_assert_eq!(v.to_vec().unwrap(), model);
        }
    }

    // Laziness invariant: a verify-after-verify performs no transfers.
    #[test]
    fn repeated_reads_are_free(
        init in prop::collection::vec(-10.0f32..10.0, 1..100),
        devices in 1usize..=4,
    ) {
        let c = ctx(devices);
        let v = Vector::from_slice(&c, &init);
        v.ensure_on_devices().unwrap();
        v.mark_devices_modified();
        let first = v.to_vec().unwrap();
        let before = c.platform().stats_snapshot();
        let second = v.to_vec().unwrap();
        let third = v.to_vec().unwrap();
        let delta = c.platform().stats_snapshot() - before;
        prop_assert_eq!(delta.total_transfers(), 0);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&second, &third);
    }

    // Upload-after-upload under the same distribution is also free.
    #[test]
    fn repeated_uploads_are_free(
        init in prop::collection::vec(-10.0f32..10.0, 1..100),
        devices in 1usize..=4,
    ) {
        let c = ctx(devices);
        let v = Vector::from_slice(&c, &init);
        v.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        for _ in 0..3 {
            v.ensure_on_devices().unwrap();
        }
        let delta = c.platform().stats_snapshot() - before;
        prop_assert_eq!(delta.total_transfers(), 0);
    }
}
