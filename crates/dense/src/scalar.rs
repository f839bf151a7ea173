//! The element type abstraction shared by every crate in the workspace.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A plain-data buffer element that can travel in a message.
///
/// How many bytes one element costs on the wire is a compile-time property
/// of the type — [`WireElem::WIRE_BYTES`] — and *not* `size_of`: every
/// ordinary type leaves the default (the two agree), while [`Shape64`]
/// occupies no memory and still charges the 8 bytes of the `f64` it stands
/// for. `msgpass` sizes every `Vec<T>` payload and collective from this
/// constant, so traffic accounting never inspects the element type at run
/// time.
pub trait WireElem: Copy + Send + 'static {
    /// Bytes one element occupies in a message.
    const WIRE_BYTES: usize = std::mem::size_of::<Self>();
}

macro_rules! wire_elem {
    ($($t:ty),*) => {$( impl WireElem for $t {} )*};
}
wire_elem!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, char);

/// A real floating-point matrix element.
///
/// The paper's artifact supports `float` and `double`; this trait plays the
/// same role. Everything in the workspace — local GEMM, the message-passing
/// runtime, redistribution, and the distributed algorithms — is generic over
/// `Scalar`, and the test suites run both instantiations. A third,
/// [`Shape64`], carries no value at all: it is what compute-free simulation
/// instantiates the same generic code with.
pub trait Scalar:
    WireElem
    + Sync
    + Debug
    + Display
    + Default
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Machine epsilon for this precision.
    const EPSILON: Self;

    /// Lossless conversion from `f64` (lossy for `f32`, as in any BLAS).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `max` that propagates neither NaN nor sign tricks; used for norms.
    fn max_val(self, other: Self) -> Self {
        if self > other {
            self
        } else {
            other
        }
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f32::EPSILON;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
}

/// The shape-only stand-in for `f64`: zero bytes in memory, 8 on the wire.
///
/// Compute-free virtual-time runs (`msgpass::SimOptions::execute_compute =
/// false`) need message sizes, counts and clocks — never values. Running the
/// generic algorithms over `Shape64` keeps every length, shape and
/// `nbytes()` exactly what `f64` gives while storing nothing: a
/// `Vec<Shape64>` of any length owns no allocation. A copy, join or sum of
/// its elements is only its length where it goes through [`crate::Mat`]'s
/// block and join methods or [`crate::add_slice`], which branch on the
/// element size instead of looping, so that holds in unoptimised builds
/// too. All arithmetic is the identity on the single value.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Shape64;

impl WireElem for Shape64 {
    const WIRE_BYTES: usize = std::mem::size_of::<f64>();
}

impl Display for Shape64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad("_")
    }
}

macro_rules! shape64_binop {
    ($($tr:ident $f:ident),*) => {$(
        impl $tr for Shape64 {
            type Output = Shape64;
            #[inline]
            fn $f(self, _: Shape64) -> Shape64 { Shape64 }
        }
    )*};
}
shape64_binop!(Add add, Sub sub, Mul mul, Div div);

macro_rules! shape64_assignop {
    ($($tr:ident $f:ident),*) => {$(
        impl $tr for Shape64 {
            #[inline]
            fn $f(&mut self, _: Shape64) {}
        }
    )*};
}
shape64_assignop!(AddAssign add_assign, SubAssign sub_assign, MulAssign mul_assign);

impl Neg for Shape64 {
    type Output = Shape64;
    #[inline]
    fn neg(self) -> Shape64 {
        Shape64
    }
}

impl Sum for Shape64 {
    fn sum<I: Iterator<Item = Shape64>>(_: I) -> Shape64 {
        Shape64
    }
}

impl Scalar for Shape64 {
    const ZERO: Self = Shape64;
    const ONE: Self = Shape64;
    const EPSILON: Self = Shape64;

    #[inline]
    fn from_f64(_: f64) -> Self {
        Shape64
    }
    #[inline]
    fn to_f64(self) -> f64 {
        0.0
    }
    #[inline]
    fn abs(self) -> Self {
        Shape64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_identities() {
        assert_eq!(<f64 as Scalar>::ZERO + <f64 as Scalar>::ONE, 1.0);
        assert_eq!(<f64 as Scalar>::from_f64(2.5), 2.5);
        assert_eq!(2.5f64.to_f64(), 2.5);
    }

    #[test]
    fn f32_round_trip_is_lossy_but_close() {
        let x = 1.000_000_1_f64;
        let y = <f32 as Scalar>::from_f64(x).to_f64();
        assert!((x - y).abs() < 1e-6);
    }

    #[test]
    fn wire_size_is_size_of_except_for_shape64() {
        fn wire<T: WireElem>() -> usize {
            T::WIRE_BYTES
        }
        macro_rules! same_as_size_of {
            ($($t:ty),*) => {$(
                assert_eq!(wire::<$t>(), std::mem::size_of::<$t>(), stringify!($t));
            )*};
        }
        same_as_size_of!(
            u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool, char
        );
        assert_eq!(std::mem::size_of::<Shape64>(), 0);
        assert_eq!(wire::<Shape64>(), 8);
    }

    #[test]
    fn shape64_arithmetic_is_the_identity() {
        let mut x = Shape64::ZERO + Shape64::ONE * Shape64::from_f64(3.5) - -Shape64::EPSILON;
        x += Shape64;
        x -= Shape64;
        x *= Shape64;
        assert_eq!(x / Shape64, Shape64);
        assert_eq!(x.abs().to_f64(), 0.0);
        assert_eq!([Shape64; 4].into_iter().sum::<Shape64>(), Shape64);
        assert_eq!(format!("{x:>3}"), "  _");
    }

    #[test]
    fn abs_and_max() {
        assert_eq!((-3.0f64).abs(), 3.0);
        assert_eq!(Scalar::max_val(2.0f32, 5.0f32), 5.0);
        assert_eq!(Scalar::max_val(5.0f64, 2.0f64), 5.0);
    }
}
