//! SHA-256 as specified in FIPS 180-2.
//!
//! The paper's reference MAC for both SMART+ and HYDRA implementations is
//! HMAC-SHA256, so SHA-256 is the default hash used to compute `H(mem_t)`
//! throughout the workspace.
//!
//! # Why the compression is unrolled
//!
//! This is the one-message-at-a-time core behind the prover's
//! self-measurement, key derivation, reference images, history-chain
//! extends and chain checks; the lane cores in [`crate::multi`] serve only
//! lane-batched work. The textbook compression (a `[u32; 64]` schedule
//! filled by a 48-step loop, then a 64-step round loop that shifts `a..h`)
//! got slower under `target-cpu=native`: LLVM packed the schedule loop
//! and the shifted working variables into vector registers, and paid for
//! lane inserts and extracts in every round. The compression below is
//! fully unrolled over a 16-word rolling schedule. It renames `a..h` per
//! round instead of moving them, and writes `Ch` as `g ^ (e & (f ^ g))`
//! and `Maj` as `(a & b) | (c & (a | b))`. Each sigma nests its rotations;
//! written flat, LLVM still paired rounds into vector code and ran ~15%
//! slower. Per 64-byte block, best of 200 digests of a 64 KiB message on a
//! 2-vCPU Xeon host:
//!
//! | core     | portable | `target-cpu=native` |
//! |----------|----------|---------------------|
//! | loop     | ~280 ns  | ~550 ns             |
//! | unrolled | ~210 ns  | ~200 ns             |
//!
//! The SHA extensions (`sha256rnds2`) are faster still where the CPU has
//! them: ~70 ns per block in a throwaway prototype on the same host. They
//! are not used because they are reachable only through `core::arch`
//! intrinsics, which need `unsafe` under this crate's `forbid(unsafe_code)`,
//! and because they need a runtime-detected second code path that hosts
//! without them never run.

use crate::digest::Digest;

/// Round constants (first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use erasmus_crypto::{Digest, Sha256};
///
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// # fn hex(bytes: &[u8]) -> String {
/// #     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Buffered partial block.
    buffer: [u8; 64],
    buffer_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Sha256 {
    /// Creates a fresh SHA-256 state.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One compression (see the module docs for why it is unrolled). Rounds
    /// 16..64 expand `w[i % 16]` in place just before use, and every index
    /// is a compile-time constant.
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;

        // Round `$i` leaves the new `a` in `$h` and the new `e` in `$d`. Nested
        // sigmas (`Σ1(e) = ror6(ror5(ror14(e) ^ e) ^ e)`) keep LLVM from vectorizing.
        macro_rules! round {
            ($i:expr, $a:tt, $b:tt, $c:tt, $d:tt, $e:tt, $f:tt, $g:tt, $h:tt) => {
                if $i >= 16 {
                    let (w1, w14) = (w[($i + 1) % 16], w[($i + 14) % 16]);
                    w[$i % 16] = w[$i % 16]
                        .wrapping_add((w1.rotate_right(11) ^ w1).rotate_right(7) ^ (w1 >> 3))
                        .wrapping_add(w[($i + 9) % 16])
                        .wrapping_add((w14.rotate_right(2) ^ w14).rotate_right(17) ^ (w14 >> 10));
                }
                let t1 = $h
                    .wrapping_add((($e.rotate_right(14) ^ $e).rotate_right(5) ^ $e).rotate_right(6))
                    .wrapping_add($g ^ ($e & ($f ^ $g)))
                    .wrapping_add(K[$i])
                    .wrapping_add(w[$i % 16]);
                $d = $d.wrapping_add(t1);
                $h = t1
                    .wrapping_add((($a.rotate_right(9) ^ $a).rotate_right(11) ^ $a).rotate_right(2))
                    .wrapping_add(($a & $b) | ($c & ($a | $b)));
            };
        }
        macro_rules! rounds {
            ($($i:expr),*) => {$(
                round!($i, a, b, c, d, e, f, g, h);
                round!($i + 1, h, a, b, c, d, e, f, g);
                round!($i + 2, g, h, a, b, c, d, e, f);
                round!($i + 3, f, g, h, a, b, c, d, e);
                round!($i + 4, e, f, g, h, a, b, c, d);
                round!($i + 5, d, e, f, g, h, a, b, c);
                round!($i + 6, c, d, e, f, g, h, a, b);
                round!($i + 7, b, c, d, e, f, g, h, a);
            )*};
        }
        rounds!(0, 8, 16, 24, 32, 40, 48, 56);

        for (word, add) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }

    /// Lane view used by the multi-lane cores to transpose midstates:
    /// `(state words, absorbed bytes, buffered bytes)`.
    pub(crate) fn lane_parts(&self) -> ([u32; 8], u64, usize) {
        (self.state, self.total_len, self.buffer_len)
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest for Sha256 {
    const OUTPUT_SIZE: usize = 32;
    const BLOCK_SIZE: usize = 64;

    type Output = [u8; 32];

    fn new() -> Self {
        Sha256::new()
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);

        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }

        // Aligned full blocks compress straight from the input slice; the
        // copy through `self.buffer` is only for partial blocks.
        let mut chunks = data.chunks_exact(64);
        for chunk in &mut chunks {
            self.compress(chunk.try_into().expect("64-byte chunk"));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            self.buffer[..rem.len()].copy_from_slice(rem);
            self.buffer_len = rem.len();
        }
    }

    fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80, then zeros, then the 64-bit big-endian length — at
        // most 72 bytes, built on the stack.
        let mut padding = [0u8; 72];
        padding[0] = 0x80;
        let msg_len = (self.total_len % 64) as usize;
        let zero_count = if msg_len < 56 {
            55 - msg_len
        } else {
            119 - msg_len
        };
        let pad_len = 1 + zero_count + 8;
        padding[1 + zero_count..pad_len].copy_from_slice(&bit_len.to_be_bytes());

        // `update` adjusts total_len but padding length no longer matters.
        self.update(&padding[..pad_len]);
        debug_assert_eq!(self.buffer_len, 0);

        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_message() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn long_multiblock_message() {
        // 896-bit test vector from FIPS 180-2.
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                    ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex(&Sha256::digest(msg)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 128, 500, 999, 1000] {
            let mut hasher = Sha256::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            assert_eq!(hasher.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_matches_oneshot() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut hasher = Sha256::new();
        for byte in &data {
            hasher.update(std::slice::from_ref(byte));
        }
        assert_eq!(hasher.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn aligned_fast_path_is_stream_identical() {
        // Regression for the direct-compress fast path: full blocks arriving
        // on an empty buffer bypass the copy, and the stream must stay
        // byte-identical to any other split of the same data.
        let data: Vec<u8> = (0..512u32).map(|i| (i * 13 % 251) as u8).collect();
        let oneshot = Sha256::digest(&data);

        // Pure aligned updates (fast path only).
        let mut aligned = Sha256::new();
        for chunk in data.chunks(64) {
            aligned.update(chunk);
        }
        assert_eq!(aligned.finalize(), oneshot);

        // Partial fill, buffer drain, then the fast path mid-update, then a
        // trailing partial block again.
        let mut mixed = Sha256::new();
        mixed.update(&data[..10]); // partial: buffered
        mixed.update(&data[10..202]); // drains buffer, then 2 aligned blocks
        mixed.update(&data[202..512]); // drains again, aligned tail
        assert_eq!(mixed.finalize(), oneshot);

        // Multi-block single update on an aligned boundary.
        let mut bulk = Sha256::new();
        bulk.update(&data[..128]);
        bulk.update(&data[128..]);
        assert_eq!(bulk.finalize(), oneshot);
    }

    #[test]
    fn output_and_block_size_constants() {
        assert_eq!(<Sha256 as Digest>::OUTPUT_SIZE, 32);
        assert_eq!(<Sha256 as Digest>::BLOCK_SIZE, 64);
        assert_eq!(Sha256::digest(b"x").len(), 32);
    }

    #[test]
    fn default_equals_new() {
        let a = Sha256::default();
        let b = Sha256::new();
        assert_eq!(a.finalize(), b.finalize());
    }
}
