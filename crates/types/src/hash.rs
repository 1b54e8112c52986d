//! Content hashing for integrity checking.
//!
//! A single hand-rolled FNV-1a 64 implementation shared by the DFS blob
//! framing (`sigmund-dfs`) and the model-snapshot payload checksum
//! (`sigmund-core`), so "what hash protects these bytes" has exactly one
//! answer in the workspace and zero external dependencies.
//!
//! Like the chaos harness's fault draws, the hash is **entropy-free**: a pure
//! function of its input bytes with no RNG object, no wall clock, and no
//! process state, so checksums are bitwise reproducible across runs (the
//! xtask determinism lint covers this file like any other; see the
//! `integrity_hash_*` fixtures).
//!
//! Why FNV-1a for corruption detection: each absorption step
//! `h = (h ^ byte) * PRIME` is a bijection on the 64-bit state (xor with a
//! constant and multiplication by an odd constant are both invertible), so
//! any *single-byte substitution* is guaranteed — not just overwhelmingly
//! likely — to change the final hash. That makes the "every single-byte
//! mutation is rejected" property in `tests/properties.rs` a theorem, not a
//! statistical hope. Torn (truncated) payloads change the absorbed length
//! and are likewise caught.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64 over `bytes`: the workspace's canonical content checksum.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// [`fnv1a64`] of every `chunk`-byte piece of `bytes`, in order (the last
/// piece may be short; empty input has no pieces), handed to `sink`.
///
/// FNV-1a is one multiply per byte on a serial dependency chain, so a lone
/// hash runs at the multiplier's *latency*. Pieces are independent, so four
/// of them are absorbed in lockstep — four chains in flight, bounded by the
/// multiplier's *throughput* instead — and each sum is still exactly
/// `fnv1a64(piece)`: the lanes never mix. This is what lets the DFS stamp
/// and verify per-chunk checksums in a single pass that is faster than the
/// whole-blob hash it replaced (DESIGN.md §10).
pub fn fnv1a64_chunks(bytes: &[u8], chunk: usize, mut sink: impl FnMut(u64)) {
    let chunk = chunk.max(1);
    let mut groups = bytes.chunks_exact(4 * chunk);
    for group in &mut groups {
        let (a, rest) = group.split_at(chunk);
        let (b, rest) = rest.split_at(chunk);
        let (c, d) = rest.split_at(chunk);
        let mut h = [FNV_OFFSET; 4];
        for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
            h[0] = (h[0] ^ u64::from(a)).wrapping_mul(FNV_PRIME);
            h[1] = (h[1] ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            h[2] = (h[2] ^ u64::from(c)).wrapping_mul(FNV_PRIME);
            h[3] = (h[3] ^ u64::from(d)).wrapping_mul(FNV_PRIME);
        }
        h.into_iter().for_each(&mut sink);
    }
    groups.remainder().chunks(chunk).map(fnv1a64).for_each(sink);
}

/// SplitMix64 finalizer: the workspace's canonical *stateless* mixer.
///
/// Where [`fnv1a64`] digests byte streams, `splitmix64` scrambles a single
/// 64-bit word — the building block for entropy-free "draws" that are pure
/// functions of `(seed, index)` with no RNG object to advance. The chaos
/// harness's fault decisions and the fleet generator's catalog-size samples
/// both need this shape: any index can be evaluated in O(1) without drawing
/// all the indexes before it, which is what makes streaming generation
/// byte-identical to materialized generation.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a [`splitmix64`]-style word to a uniform `f64` in `(0, 1]`.
///
/// Uses the top 53 bits (the f64 mantissa width) so the result is exactly
/// representable; clamped away from zero so Pareto-style `u^(-1/alpha)`
/// transforms stay finite.
#[must_use]
pub fn unit_f64(h: u64) -> f64 {
    let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    u.max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn single_byte_substitution_always_changes_the_hash() {
        // The bijectivity argument, exercised: flip every bit of every byte
        // of a sample payload and confirm the hash moves each time.
        let data: Vec<u8> = (0u8..=63).collect();
        let base = fnv1a64(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut m = data.clone();
                m[i] ^= 1 << bit;
                assert_ne!(fnv1a64(&m), base, "byte {i} bit {bit} collided");
            }
        }
    }

    #[test]
    fn chunked_sums_are_the_plain_hash_of_every_piece() {
        let data: Vec<u8> = (0..1000u64)
            .map(|i| splitmix64(i).to_le_bytes()[0])
            .collect();
        for chunk in [0usize, 1, 3, 7, 64, 249, 250, 251, 1000, 4096] {
            for len in [0usize, 1, 6, 7, 27, 28, 29, 255, 256, 999, 1000] {
                let mut got = Vec::new();
                fnv1a64_chunks(&data[..len], chunk, |h| got.push(h));
                let want: Vec<u64> = data[..len].chunks(chunk.max(1)).map(fnv1a64).collect();
                assert_eq!(got, want, "chunk {chunk} len {len}");
            }
        }
    }

    #[test]
    fn truncation_changes_the_hash() {
        let data = vec![0u8; 32];
        // All-zero payloads still distinguish lengths: absorbing a zero byte
        // multiplies the state by the prime, which never fixes it.
        assert_ne!(fnv1a64(&data), fnv1a64(&data[..16]));
        assert_ne!(fnv1a64(&data[..16]), fnv1a64(&data[..15]));
    }
}
