//! The sequential host reference the stencil suites check against.

use skelcl::Boundary2D;

/// The sequential host evaluation of one stencil pass over a `rows × cols`
/// matrix: `cell(at)` for every cell in row-major order, where `at(dr, dc)`
/// reads the neighbour with the boundary resolved on the host (clamp, wrap
/// or the default), as `skelcl_imgproc::seq` evaluates Canny. A test's
/// stencil keeps its per-cell math in one function over such a tap, which
/// both its device user function and this loop call.
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
