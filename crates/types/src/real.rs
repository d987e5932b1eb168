//! The reality-level scalar: `REAL ∈ {float, double}` (paper Table I).

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point precision selector carried at runtime by field handles and
/// the code generator (the paper's kernels exist in SP and DP variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FloatType {
    /// 32-bit IEEE-754 (`.f32` in PTX).
    F32,
    /// 64-bit IEEE-754 (`.f64` in PTX).
    F64,
}

impl FloatType {
    /// Size of one element in bytes.
    #[inline]
    pub fn size_bytes(self) -> usize {
        match self {
            FloatType::F32 => 4,
            FloatType::F64 => 8,
        }
    }

    /// PTX type suffix (e.g. `f32` in `add.f32`).
    #[inline]
    fn ptx_suffix(self) -> &'static str {
        match self {
            FloatType::F32 => "f32",
            FloatType::F64 => "f64",
        }
    }

    /// Short human-readable tag used in kernel names ("SP"/"DP").
    #[inline]
    pub fn tag(self) -> &'static str {
        match self {
            FloatType::F32 => "sp",
            FloatType::F64 => "dp",
        }
    }
}

impl Display for FloatType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.ptx_suffix())
    }
}

/// Abstraction over the two supported reality-level scalar types.
///
/// This is deliberately minimal: only the operations the framework and the
/// application layer actually need.
pub trait Real:
    Copy
    + Clone
    + Debug
    + Display
    + PartialEq
    + PartialOrd
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + 'static
{
    /// The runtime tag for this precision.
    const FLOAT_TYPE: FloatType;

    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Lossless widening to `f64` (used by reductions and validation).
    fn to_f64(self) -> f64;
    /// Conversion from `f64` (possibly lossy for `f32`).
    fn from_f64(v: f64) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Fused (or contracted) multiply-add `self * b + c`.
    fn mul_add(self, b: Self, c: Self) -> Self;
}

impl Real for f32 {
    const FLOAT_TYPE: FloatType = FloatType::F32;
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn mul_add(self, b: Self, c: Self) -> Self {
        f32::mul_add(self, b, c)
    }
}

impl Real for f64 {
    const FLOAT_TYPE: FloatType = FloatType::F64;
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn mul_add(self, b: Self, c: Self) -> Self {
        f64::mul_add(self, b, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_type_sizes() {
        assert_eq!(FloatType::F32.size_bytes(), 4);
        assert_eq!(FloatType::F64.size_bytes(), 8);
        assert_eq!(f32::FLOAT_TYPE, FloatType::F32);
        assert_eq!(f64::FLOAT_TYPE, FloatType::F64);
    }

    #[test]
    fn ptx_suffixes() {
        assert_eq!(FloatType::F32.ptx_suffix(), "f32");
        assert_eq!(FloatType::F64.ptx_suffix(), "f64");
        assert_eq!(FloatType::F32.tag(), "sp");
    }

    #[test]
    fn real_roundtrip() {
        assert_eq!(f32::from_f64(1.5).to_f64(), 1.5);
        assert_eq!(f64::from_f64(-2.25), -2.25);
        assert_eq!(f64::one() + f64::zero(), 1.0);
        assert_eq!(2.0f64.mul_add(3.0, 1.0), 7.0);
    }
}
