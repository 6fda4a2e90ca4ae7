//! Fundamental types: device identifiers and the [`Scalar`] element trait.

use std::fmt;

/// Identifies one device on the platform (index into the device list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// Identifies one device allocation, unique across the whole process for
/// the lifetime of the program (ids are never reused, so a trace recorded
/// before a buffer was dropped still names it unambiguously).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(pub u64);

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf{}", self.0)
    }
}

/// Element types storable in device buffers and SkelCL vectors.
///
/// Mirrors the paper's statement that `Vector` is "a generic container class
/// that is capable of storing data items of any primitive C/C++ data type
/// (e.g. `int`), as well as user-defined data structures (structs)".
///
/// `TYPE_NAME` is the OpenCL-C spelling used by the code generator when the
/// skeleton templates are instantiated (Section III-B of the paper).
pub trait Scalar: Copy + Send + Sync + Default + fmt::Debug + PartialEq + 'static {
    /// OpenCL C type name used in generated kernel source.
    const TYPE_NAME: &'static str;
}

macro_rules! impl_scalar_prim {
    ($($t:ty => $n:literal),* $(,)?) => {
        $(impl Scalar for $t { const TYPE_NAME: &'static str = $n; })*
    };
}

impl_scalar_prim! {
    f32 => "float",
    f64 => "double",
    i8  => "char",
    u8  => "uchar",
    i16 => "short",
    u16 => "ushort",
    i32 => "int",
    u32 => "uint",
    i64 => "long",
    u64 => "ulong",
    // The output element of a kernel that writes nothing.
    () => "void",
}

/// Implements [`Scalar`] for a user-defined struct, registering the struct's
/// name as its OpenCL-C type name — the same way SkelCL users pass a struct
/// definition alongside their customizing function.
///
/// ```
/// #[derive(Clone, Copy, Debug, Default, PartialEq)]
/// struct Complex { re: f32, im: f32 }
/// vgpu::impl_scalar!(Complex);
/// assert_eq!(<Complex as vgpu::Scalar>::TYPE_NAME, "Complex");
/// ```
#[macro_export]
macro_rules! impl_scalar {
    ($t:ident) => {
        impl $crate::Scalar for $t {
            const TYPE_NAME: &'static str = stringify!($t);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_type_names_match_opencl_c() {
        assert_eq!(<f32 as Scalar>::TYPE_NAME, "float");
        assert_eq!(<u32 as Scalar>::TYPE_NAME, "uint");
        assert_eq!(<i64 as Scalar>::TYPE_NAME, "long");
        assert_eq!(<u8 as Scalar>::TYPE_NAME, "uchar");
    }

    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct Pixel {
        x: u16,
        y: u16,
        iters: u32,
    }
    crate::impl_scalar!(Pixel);

    #[test]
    fn struct_scalar_via_macro() {
        assert_eq!(<Pixel as Scalar>::TYPE_NAME, "Pixel");
        let p = Pixel::default();
        assert_eq!(p.iters, 0);
    }

    #[test]
    fn device_id_display() {
        assert_eq!(DeviceId(2).to_string(), "gpu2");
    }
}
