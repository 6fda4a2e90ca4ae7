//! List-mode OSEM with SkelCL — a transcription of the paper's Listing 4.
//!
//! Per subset:
//! 1. the events are put in a `Vector` and **block**-distributed;
//! 2. reconstruction image `f` and error image `c` are **copy**-distributed
//!    (one full copy per device);
//! 3. a `Map` skeleton over a vector of indices computes the error image —
//!    each index processes a sub-subset of the device-local events, with
//!    events, path scratch, `f` and `c` passed as *additional arguments*;
//!    the skeleton "produces no result, but updates the error image by
//!    side-effect", so `c` is flagged with `dataOnDevicesModified`;
//! 4. the per-device copies of `c` are merged by redistributing to
//!    **block with the add operator**, `f` is block-distributed;
//! 5. a `Zip` skeleton updates the reconstruction image.

use crate::geometry::{Event, Volume};
use crate::siddon::{self, OPS_PER_VISIT};
use crate::{UNCOALESCED_ATOMIC_EXTRA, UNCOALESCED_READ_EXTRA};
use skelcl::{Arguments, Context, Distribution, KernelEnv, MapVoid, Result, UserFn, Vector, Zip};

/// Indices (and thus concurrent path computations) per device — the paper:
/// "the input of the Map skeleton is not a subset, but rather a vector of
/// 512 indices. These indices refer to disjoint sub-subsets of events [...]
/// we must not compute too many paths in parallel to avoid excessive
/// memory consumption."
pub const INDICES_PER_DEVICE: usize = 512;

/// The error-image kernel source a SkelCL user writes (abridged from the
/// ~200-line original; counted as this variant's kernel share).
// >>> kernel
pub const COMPUTE_C_KERNEL: &str = r#"
void compute_c(uint index, __global const Event* events, uint num_events,
               __global ulong* paths, __global const float* f,
               __global float* c, uint indices_per_device) {
    uint local_index = index % indices_per_device;
    uint chunk = (num_events + indices_per_device - 1) / indices_per_device;
    uint begin = local_index * chunk;
    uint end = min(begin + chunk, num_events);
    for (uint e = begin; e < end; ++e) {
        /* compute path of LOR (Siddon traversal) */
        uint path_len = 0;
        float fp = 0.0f;
        ulong* my_path = paths + local_index * MAX_PATH;
        TRAVERSE_LOR(events[e], my_path, &path_len);
        /* compute error (forward projection) */
        for (uint m = 0; m < path_len; ++m)
            fp += f[PATH_COORD(my_path[m])] * PATH_LEN(my_path[m]);
        /* add path to error image */
        if (fp > 0.0f)
            for (uint m = 0; m < path_len; ++m)
                atomic_add_f(&c[PATH_COORD(my_path[m])], PATH_LEN(my_path[m]) / fp);
    }
}
"#;
// <<< kernel

/// The update kernel source (the Zip customizing function; "resembles the
/// body of the second inner loop of the sequential implementation").
// >>> kernel
pub const UPDATE_KERNEL: &str =
    "float update(float f, float c) { if (c > 0.0f) return f * c; return f; }";
// <<< kernel

/// Pack a path element into the scratch word.
#[inline]
pub fn pack_path_elem(coord: usize, len: f32) -> u64 {
    ((coord as u64) << 32) | len.to_bits() as u64
}

/// Unpack a scratch word.
#[inline]
pub fn unpack_path_elem(w: u64) -> (usize, f32) {
    ((w >> 32) as usize, f32::from_bits(w as u32))
}

/// Reconstruct with SkelCL on every device of `ctx`.
pub fn reconstruct(ctx: &Context, vol: &Volume, subsets: &[Vec<Event>]) -> Result<Vec<f32>> {
    let n_devices = ctx.n_devices();
    let image_size = vol.n_voxels();
    let max_path = vol.max_path_len();
    let volume = *vol;

    // create skeletons
    let compute_c = MapVoid::new(
        // >>> kernel
        UserFn::new(
            "compute_c",
            COMPUTE_C_KERNEL,
            move |index: u32, env: &KernelEnv<'_>| {
                let events = env.vec::<Event>(0);
                let _num_events_global = env.scalar::<u32>(1);
                let paths = env.vec::<u64>(2);
                let f = env.vec::<f32>(3);
                let c = env.vec::<f32>(4);
                let ipd = env.scalar::<u32>(5) as usize;

                let local_index = index as usize % ipd;
                let num_events = events.len();
                let chunk = num_events.div_ceil(ipd);
                let begin = (local_index * chunk).min(num_events);
                let end = (begin + chunk).min(num_events);
                let scratch_base = local_index * max_path;

                for e in begin..end {
                    let ev = events.get(e);
                    // compute path of LOR + forward projection
                    let mut path_len = 0usize;
                    let mut fp = 0.0f32;
                    siddon::for_each_voxel(&volume, ev.p1(), ev.p2(), |coord, len| {
                        if path_len < max_path {
                            paths.set(scratch_base + path_len, pack_path_elem(coord, len));
                            env.work(OPS_PER_VISIT);
                            // scattered read of f[coord]: full segment moves
                            fp += f.get(coord) * len;
                            env.traffic_read(UNCOALESCED_READ_EXTRA);
                            path_len += 1;
                        }
                    });
                    // add path to error image
                    if fp > 0.0 {
                        for m in 0..path_len {
                            let (coord, len) = unpack_path_elem(paths.get(scratch_base + m));
                            env.work(OPS_PER_VISIT);
                            c.atomic_add(coord, len / fp);
                            env.traffic_write(UNCOALESCED_ATOMIC_EXTRA);
                        }
                    }
                }
            },
        ),
        // <<< kernel
        6,
    );
    let update = Zip::new(UserFn::new(
        "update",
        UPDATE_KERNEL,
        // >>> kernel
        |f: f32, c: f32| if c > 0.0 { f * c } else { f },
        // <<< kernel
    ));
    let add = skelcl::skel_fn!(
        fn add(x: f32, y: f32) -> f32 {
            x + y
        }
    );

    // reconstruction image f, path scratch, index vector
    let mut f = Vector::filled(ctx, image_size, 1.0f32);
    let paths: Vector<u64> = Vector::zeroed(ctx, INDICES_PER_DEVICE * max_path);
    paths.set_distribution(Distribution::Copy)?;
    let indices = Vector::from_vec(
        ctx,
        (0..(INDICES_PER_DEVICE * n_devices) as u32).collect::<Vec<u32>>(),
    );
    indices.set_distribution(Distribution::Block)?;

    for subset in subsets {
        // read events from file; distribute events to devices
        let events = Vector::from_vec(ctx, subset.clone());
        events.set_distribution(Distribution::Block)?;

        // copy reconstruction (f) and error image (c) to all devices
        f.set_distribution(Distribution::Copy)?;
        let c = Vector::zeroed(ctx, image_size);
        c.set_distribution(Distribution::Copy)?;

        // prepare arguments of error image computation
        let mut arguments = Arguments::new();
        arguments.push(&events);
        arguments.push(subset.len() as u32);
        arguments.push(&paths); // memory for paths
        arguments.push(&f);
        arguments.push(&c);
        arguments.push(INDICES_PER_DEVICE as u32);

        // compute error image (map skeleton)
        compute_c.apply(&indices, &arguments)?;
        // signal modification of error image
        c.mark_devices_modified();

        // distribute reconstruction image to all devices
        f.set_distribution(Distribution::Block)?;
        // reduce (element-wise add) all copies of error image;
        // re-distribute after reduction
        c.set_distribution_with(Distribution::Block, &add)?;

        // update reconstruction image (zip skeleton)
        f = update.apply(&f, &c)?;
    }
    f.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventGenerator;
    use crate::metrics;
    use skelcl::ContextConfig;

    fn test_ctx(n: usize) -> Context {
        Context::new(
            ContextConfig::default()
                .devices(n)
                .spec(vgpu::DeviceSpec::tiny())
                .cache_tag("osem-skelcl-test"),
        )
    }

    #[test]
    fn matches_the_sequential_reference_single_device() {
        let vol = Volume::test_scale();
        let mut generator = EventGenerator::new(&vol, 21);
        let subsets = generator.subsets(4000, 2);
        let seq = crate::seq::reconstruct(&vol, &subsets);
        let ctx = test_ctx(1);
        let got = reconstruct(&ctx, &vol, &subsets).unwrap();
        let diff = metrics::relative_l2(&got, &seq);
        assert!(diff < 1e-4, "relative diff {diff}");
    }

    #[test]
    fn matches_the_sequential_reference_multi_device() {
        let vol = Volume::test_scale();
        let mut generator = EventGenerator::new(&vol, 22);
        let subsets = generator.subsets(4000, 2);
        let seq = crate::seq::reconstruct(&vol, &subsets);
        for n in [2usize, 4] {
            let ctx = test_ctx(n);
            let got = reconstruct(&ctx, &vol, &subsets).unwrap();
            let diff = metrics::relative_l2(&got, &seq);
            assert!(diff < 1e-3, "{n} devices: relative diff {diff}");
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for (coord, len) in [(0usize, 0.0f32), (12345, 1.5), (1 << 20, 0.001)] {
            let (c2, l2) = unpack_path_elem(pack_path_elem(coord, len));
            assert_eq!(c2, coord);
            assert_eq!(l2, len);
        }
    }

    #[test]
    fn multi_gpu_runs_faster_in_virtual_time() {
        let vol = Volume::test_scale();
        let mut generator = EventGenerator::new(&vol, 23);
        let subsets = generator.subsets(8000, 2);

        let ctx1 = test_ctx(1);
        reconstruct(&ctx1, &vol, &subsets).unwrap(); // warm cache
        ctx1.platform().reset_clocks();
        reconstruct(&ctx1, &vol, &subsets).unwrap();
        ctx1.sync();
        let t1 = ctx1.host_now_s();

        let ctx4 = test_ctx(4);
        reconstruct(&ctx4, &vol, &subsets).unwrap();
        ctx4.platform().reset_clocks();
        reconstruct(&ctx4, &vol, &subsets).unwrap();
        ctx4.sync();
        let t4 = ctx4.host_now_s();

        assert!(t4 < t1, "4 virtual GPUs must beat 1: t1={t1} t4={t4}");
    }
}
