//! The [`Element`] trait: what reduction kernels need from a dtype.

use crate::{Bf16, F16, F8E4M3};
use std::fmt::Debug;

/// Identifies a wire dtype; used for sizing transfers and dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit IEEE float.
    F32,
    /// 16-bit IEEE float.
    F16,
    /// bfloat16.
    Bf16,
    /// FP8 E4M3.
    F8E4M3,
}

impl DType {
    /// Bytes per element on the wire and in buffers.
    pub const fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 | DType::Bf16 => 2,
            DType::F8E4M3 => 1,
        }
    }

    /// Human-readable name, matching the paper's terminology.
    pub const fn name(self) -> &'static str {
        match self {
            DType::F32 => "FP32",
            DType::F16 => "FP16",
            DType::Bf16 => "BF16",
            DType::F8E4M3 => "FP8",
        }
    }
}

/// An element type usable in reduction kernels: plain-old-data, convertible
/// to/from `f32` (the accumulate width), with a zero identity and a
/// native-width byte encoding.
///
/// Implementations accumulate in `f32` to match HFReduce's CPU reduction,
/// which widens to single precision in vector registers before adding.
pub trait Element: Copy + Send + Sync + Debug + PartialEq + 'static {
    /// The dtype tag for this element type.
    const DTYPE: DType;
    /// Additive identity.
    const ZERO: Self;
    /// Bytes one element occupies on the wire: its own width.
    const WIRE_BYTES: usize = Self::DTYPE.size_bytes();

    /// Widen to f32 (exact for every type here).
    fn to_f32(self) -> f32;
    /// Narrow from f32 with round-to-nearest-even.
    fn from_f32(x: f32) -> Self;
    /// Write the bit pattern, little-endian, into `out`, which must be
    /// [`WIRE_BYTES`](Self::WIRE_BYTES) long.
    fn write_le(self, out: &mut [u8]);
    /// The element whose little-endian bit pattern is `bytes`, which must
    /// be [`WIRE_BYTES`](Self::WIRE_BYTES) long. Every pattern is an
    /// element, so with [`write_le`](Self::write_le) this is the identity
    /// on bits — NaN payloads and signed zeros included.
    fn read_le(bytes: &[u8]) -> Self;
}

/// The codec half of an [`Element`] impl, from the type's `to_bits` /
/// `from_bits` and the matching unsigned integer.
macro_rules! le_bits_codec {
    ($bits:ty) => {
        #[inline]
        fn write_le(self, out: &mut [u8]) {
            out.copy_from_slice(&self.to_bits().to_le_bytes());
        }
        #[inline]
        fn read_le(bytes: &[u8]) -> Self {
            let mut b = [0u8; std::mem::size_of::<$bits>()];
            b.copy_from_slice(bytes);
            Self::from_bits(<$bits>::from_le_bytes(b))
        }
    };
}

impl Element for f32 {
    const DTYPE: DType = DType::F32;
    const ZERO: Self = 0.0;
    #[inline]
    fn to_f32(self) -> f32 {
        self
    }
    #[inline]
    fn from_f32(x: f32) -> Self {
        x
    }
    le_bits_codec!(u32);
}

impl Element for F16 {
    const DTYPE: DType = DType::F16;
    const ZERO: Self = F16::ZERO;
    #[inline]
    fn to_f32(self) -> f32 {
        F16::to_f32(self)
    }
    #[inline]
    fn from_f32(x: f32) -> Self {
        F16::from_f32(x)
    }
    le_bits_codec!(u16);
}

impl Element for Bf16 {
    const DTYPE: DType = DType::Bf16;
    const ZERO: Self = Bf16::ZERO;
    #[inline]
    fn to_f32(self) -> f32 {
        Bf16::to_f32(self)
    }
    #[inline]
    fn from_f32(x: f32) -> Self {
        Bf16::from_f32(x)
    }
    le_bits_codec!(u16);
}

impl Element for F8E4M3 {
    const DTYPE: DType = DType::F8E4M3;
    const ZERO: Self = F8E4M3::ZERO;
    #[inline]
    fn to_f32(self) -> f32 {
        F8E4M3::to_f32(self)
    }
    #[inline]
    fn from_f32(x: f32) -> Self {
        F8E4M3::from_f32(x)
    }
    le_bits_codec!(u8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_wire_format() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::Bf16.size_bytes(), 2);
        assert_eq!(DType::F8E4M3.size_bytes(), 1);
    }

    #[test]
    fn names_follow_paper() {
        assert_eq!(DType::F32.name(), "FP32");
        assert_eq!(DType::F8E4M3.name(), "FP8");
    }

    fn roundtrip_one<E: Element>(x: f32) {
        let e = E::from_f32(x);
        let back = E::from_f32(e.to_f32());
        assert_eq!(e, back);
    }

    #[test]
    fn narrowing_is_idempotent() {
        for x in [0.0f32, 1.0, -1.5, std::f32::consts::PI, 1e-3, 100.0] {
            roundtrip_one::<f32>(x);
            roundtrip_one::<F16>(x);
            roundtrip_one::<Bf16>(x);
            roundtrip_one::<F8E4M3>(x);
        }
    }

    #[test]
    fn wire_width_is_the_dtype_size() {
        assert_eq!(f32::WIRE_BYTES, 4);
        assert_eq!(F16::WIRE_BYTES, 2);
        assert_eq!(Bf16::WIRE_BYTES, 2);
        assert_eq!(F8E4M3::WIRE_BYTES, 1);
    }

    #[test]
    fn le_codec_is_little_endian_and_keeps_nan_payloads() {
        let mut b = [0u8; 4];
        f32::from_bits(0x7fa0_0001).write_le(&mut b);
        assert_eq!(b, [0x01, 0x00, 0xa0, 0x7f]);
        assert_eq!(f32::read_le(&b).to_bits(), 0x7fa0_0001);
        // A signalling bf16 NaN, which `from_f32(to_f32(x))` would quiet.
        let mut h = [0u8; 2];
        Bf16::from_bits(0x7f81).write_le(&mut h);
        assert_eq!(h, [0x81, 0x7f]);
        assert_eq!(Bf16::read_le(&h).to_bits(), 0x7f81);
        assert_eq!(F16::read_le(&[0x01, 0x7c]).to_bits(), 0x7c01);
        assert_eq!(F8E4M3::read_le(&[0x80]).to_bits(), 0x80);
    }

    #[test]
    fn zero_is_identity() {
        assert_eq!(f32::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(Bf16::ZERO.to_f32(), 0.0);
        assert_eq!(F8E4M3::ZERO.to_f32(), 0.0);
    }
}
