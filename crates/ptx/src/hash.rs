//! The two in-tree hashes: FNV-1a for what is named or persisted, and the
//! memo hasher for the compiler's own lookup tables.
//!
//! * **FNV-1a** ([`fnv1a`]). The persistent kernel store keys entries on a
//!   hash of the *source* PTX text, and kernels are named after a hash of
//!   their token key. `std::collections::hash_map::DefaultHasher` is only
//!   documented to be deterministic within one process, so neither can use
//!   it: a toolchain update would silently rename every kernel and orphan
//!   every stored one. FNV-1a is tiny, dependency-free and specified
//!   byte-for-byte, so hashes written by one build are found by the next.
//! * **The memo hasher** ([`MemoHasher`], maps [`MemoMap`]). The code
//!   generator probes its memo tables (value numbers, shift paths,
//!   constants, address arithmetic) tens of thousands of times per cold
//!   kernel set, on keys the program makes itself. std's SipHash guards a
//!   map against keys crafted to collide, which such keys never are, and
//!   costs several times more per probe. The memo hasher is one multiply
//!   per integer written, unseeded and fixed, so a memo behaves the same in
//!   every process. It is for in-memory tables only: nothing it hashes is
//!   named or written down.

use crate::emit::emit_module;
use crate::module::Module;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Multiplier of the memo hasher: odd, with well-spread bits (the constant
/// of rustc's `FxHasher` successor).
const MEMO_K: u64 = 0xf135_7aea_2e62_a9c5;

/// A fixed, unseeded hasher for the compiler's in-memory memo tables: each
/// integer written is added to the state, which is then multiplied by one
/// odd constant; a byte string is folded 8 bytes at a time (the tail
/// zero-padded). The product's high bits are its best mixed, so
/// [`Hasher::finish`] rotates them down to where `HashMap` takes its bucket
/// index. Not for anything named or persisted (use [`fnv1a`]), nor for keys
/// from outside the program (it gives no protection against chosen
/// collisions).
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoHasher {
    hash: u64,
}

impl Hasher for MemoHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = self.hash.wrapping_add(n).wrapping_mul(MEMO_K);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`MemoHasher`]: the compiler's memo tables. Build
/// one with `MemoMap::default()`.
pub type MemoMap<K, V> = HashMap<K, V, BuildHasherDefault<MemoHasher>>;

/// Stable hash of a PTX text, formatted as the fixed-width hex digest the
/// persistent store uses for its keys.
pub fn stable_text_digest(text: &str) -> String {
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// Stable hash of a module: the digest of its emitted text, so two modules
/// that print identically hash identically regardless of how they were
/// built.
pub fn stable_module_digest(module: &Module) -> String {
    stable_text_digest(&emit_module(module))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::KernelBuilder;
    use crate::types::PtxType;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    fn memo_hash<T: std::hash::Hash + ?Sized>(key: &T) -> u64 {
        use std::hash::BuildHasher;
        BuildHasherDefault::<MemoHasher>::default().hash_one(key)
    }

    #[test]
    fn memo_hash_is_pinned() {
        // Fixed and unseeded: a key hashes alike in every process and
        // build, through the integer writes and the 8-byte fold alike.
        assert_eq!(memo_hash(&0x0123_4567_89ab_cdefu64), 0x2c8e_98ff_aeb7_f9df);
        assert_eq!(memo_hash(&(7u32, 11u32)), 0x3208_849a_9ba9_8999);
        assert_eq!(memo_hash(&[1u8, 2, 3, 4, 5, 6, 7, 8, 9][..]), 0x04cd_8b94_ac25_135d);
    }

    #[test]
    fn memo_hash_spreads_sequential_keys() {
        // 10 000 keys over 1 024 buckets (the low bits, where `HashMap`
        // takes its bucket index) is 9.8 a bucket; a bucket above 16 would
        // mean runs of keys share low bits. The top 7 bits (the map's tag)
        // average 78 a value and may not pass 120.
        let worst = |hashes: Vec<u64>| {
            let (mut buckets, mut tags) = ([0u32; 1024], [0u32; 128]);
            for h in hashes {
                buckets[(h & 1023) as usize] += 1;
                tags[(h >> 57) as usize] += 1;
            }
            (buckets.into_iter().max(), tags.into_iter().max())
        };
        let keys: [Vec<u64>; 4] = [
            (0..10_000u32).map(|i| memo_hash(&i)).collect(),
            (0..10_000u32).map(|i| memo_hash(&(i / 100, i % 100))).collect(),
            (0..10_000u32).map(|i| memo_hash(&(i, i + 1))).collect(),
            (0..10_000u32).map(|i| memo_hash(&(0u32, i))).collect(),
        ];
        for (i, hashes) in keys.into_iter().enumerate() {
            let (bucket, tag) = worst(hashes);
            assert!(bucket <= Some(16), "key set {i}: {bucket:?} keys in one bucket");
            assert!(tag <= Some(120), "key set {i}: {tag:?} keys under one tag");
        }
    }

    #[test]
    fn digest_is_stable_and_collision_averse() {
        let a = stable_text_digest(".entry k { ret; }");
        let b = stable_text_digest(".entry k { ret; }");
        let c = stable_text_digest(".entry k2 { ret; }");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn module_digest_tracks_emitted_text() {
        let mut b = KernelBuilder::new("k_hash");
        b.param("n", PtxType::U32);
        let m = Module::with_kernel(b.finish());
        assert_eq!(stable_module_digest(&m), stable_text_digest(&emit_module(&m)));
    }
}
