//! Zero-dependency substrate for the workspace.
//!
//! The build environment has no access to crates.io, so the handful of
//! external utility crates the original design leaned on (`bytes`,
//! `parking_lot`, `rand`/`rand_chacha`) are replaced by small, std-only
//! equivalents with compatible APIs (channels are `std::sync::mpsc`):
//!
//! - [`bytes::Bytes`] — cheaply cloneable, sliceable, immutable byte buffer
//! - [`sync`] — `Mutex` / `RwLock` with `parking_lot`'s non-poisoning
//!   guard API
//! - [`par`] — a deterministic weighted parallel map on scoped threads
//! - [`rng`] — a seeded, deterministic ChaCha8 generator
//! - [`fnv1a64`] — the byte-wise FNV-1a hash behind every digest and
//!   shard placement
//!
//! [`scengen`] builds on [`rng`] to generate seeded random fluid-simulation
//! scenarios (topology + flow schedule) for differential solver testing.

pub mod bytes;
pub mod error;
pub mod par;
pub mod rng;
pub mod scengen;
pub mod sync;

pub use error::{FfError, FfKind};

/// 64-bit FNV-1a over `bytes`, one byte at a time: stable across
/// platforms and runs, which is all the workspace's digests and shard
/// placement ask of a hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(super::fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
