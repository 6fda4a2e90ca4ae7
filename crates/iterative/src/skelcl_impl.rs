//! The SkelCL implementation of the iterative workloads: one `Stencil2D`
//! per simulation, driven by `iterate(n)`.
//!
//! Everything device-resident: the `n` passes ping-pong two buffers per
//! device with one batched halo exchange and one launch per block of
//! passes (each work-group steps the block's passes in local memory, so
//! global memory is read and written once per block); the host sees the
//! grid again only when the caller downloads the result.

use crate::{heat_at, life_at};
use skelcl::{Boundary2D, Matrix, Result, Stencil2D, Stencil2DView, UserFn};

/// The Jacobi heat-relaxation skeleton (radius 1, insulated edges).
pub fn heat_skeleton() -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
    // >>> kernel
    let user = UserFn::new(
        "heat4",
        "float heat4(__global float* in, int r, int c, uint nr, uint nc) {\n\
         #define AT(dr, dc) stencil_at(in, r, c, nr, nc, dr, dc)\n\
             return 0.25f * (AT(-1,0) + AT(1,0) + AT(0,-1) + AT(0,1));\n\
         #undef AT\n\
         }",
        |v: &Stencil2DView<'_, f32>| heat_at(|dr, dc| v.get(dr, dc)),
    );
    // <<< kernel
    Stencil2D::new(user, 1, Boundary2D::Neumann)
}

/// The game-of-life skeleton (radius 1, toroidal world).
pub fn life_skeleton() -> Stencil2D<u8, u8, impl Fn(&Stencil2DView<'_, u8>) -> u8 + Clone> {
    // >>> kernel
    let user = UserFn::new(
        "life",
        "uchar life(__global uchar* in, int r, int c, uint nr, uint nc) {\n\
         #define AT(dr, dc) stencil_at(in, r, c, nr, nc, dr, dc)\n\
             int n = AT(-1,-1) + AT(-1,0) + AT(-1,1)\n\
                   + AT(0,-1)             + AT(0,1)\n\
                   + AT(1,-1)  + AT(1,0)  + AT(1,1);\n\
             return (n == 3 || (AT(0,0) && n == 2)) ? 1 : 0;\n\
         #undef AT\n\
         }",
        |v: &Stencil2DView<'_, u8>| life_at(|dr, dc| v.get(dr, dc)),
    );
    // <<< kernel
    Stencil2D::new(user, 1, Boundary2D::Wrap)
}

/// Relax the plate for `n` Jacobi steps on the devices.
pub fn heat_run(plate: &Matrix<f32>, n: usize) -> Result<Matrix<f32>> {
    heat_skeleton().iterate(plate, n)
}

/// Advance the world by `n` generations on the devices.
pub fn life_run(world: &Matrix<u8>, n: usize) -> Result<Matrix<u8>> {
    life_skeleton().iterate(world, n)
}
