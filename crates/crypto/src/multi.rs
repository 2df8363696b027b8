//! Lane-interleaved multi-buffer hashing: N independent messages hashed in
//! lockstep.
//!
//! ERASMUS provers spend almost all of their attestation time computing
//! `H(mem_t)` over the application memory. One SHA-256 (or BLAKE2s)
//! compression is a long dependency chain of 32-bit operations, so a single
//! message cannot use the host's vector units — but a *fleet* harness has
//! many equal-sized memory images to hash at the same simulated instant.
//! [`Sha256xN`] and [`Blake2sxN`] exploit that: the hash state is stored
//! **lane-major** (`[[u32; N]; 8]` — word `w` of lane `l` lives at
//! `state[w][l]`), and every round operates on all `N` lanes elementwise.
//! LLVM autovectorizes those fixed-size elementwise loops to SSE/AVX/NEON —
//! no `unsafe`, no intrinsics, no target feature detection.
//!
//! ```text
//!            lane 0   lane 1   lane 2   lane 3
//!  state[a] [ a_0    | a_1    | a_2    | a_3    ]  ← one SIMD register
//!  state[b] [ b_0    | b_1    | b_2    | b_3    ]
//!    ⋮                    ⋮
//!  w[i]     [ w_i^0  | w_i^1  | w_i^2  | w_i^3  ]  message schedule,
//!                                                   also lane-major
//! ```
//!
//! The [`MultiDigest`] trait mirrors [`Digest`](crate::Digest) for equal-length inputs;
//! [`MultiKeyedMac`] rides the *existing* precomputed key schedules — the
//! HMAC ipad/opad midstates of [`HmacKey`] and the keyed
//! BLAKE2s key block — transposed across the lanes, so lane-batched
//! measurements reuse exactly the per-device states the scalar hot path
//! uses. Every lane produces a digest/tag bit-identical to the scalar
//! [`Sha256`]/[`Blake2s`]/[`KeyedMac`] paths (pinned by the
//! `multi_lane_equivalence` suite).

use crate::blake2s::{Blake2s, IV as BLAKE2S_IV, SIGMA};
use crate::hmac::HmacKey;
use crate::mac::{KeyedMac, MacAlgorithm, MacTag};
use crate::sha256::{Sha256, H0 as SHA256_H0, K};

/// An incremental hash over `N` equal-length messages processed in lockstep.
///
/// The shape mirrors [`Digest`](crate::Digest), with every input and output widened to `N`
/// lanes. All `update` calls must pass lanes of equal length (the lanes
/// share one block counter), which is exactly the fleet-measurement case:
/// every device hashes the same-sized memory image.
///
/// # Example
///
/// ```
/// use erasmus_crypto::{Digest, MultiDigest, Sha256, Sha256x4};
///
/// let inputs = [&b"a"[..], b"b", b"c", b"d"];
/// let digests = Sha256x4::digest(inputs);
/// for (lane, input) in inputs.iter().enumerate() {
///     assert_eq!(digests[lane], Sha256::digest(input));
/// }
/// ```
pub trait MultiDigest<const N: usize>: Clone {
    /// Size of each lane's digest in bytes.
    const OUTPUT_SIZE: usize;
    /// Internal block size in bytes (shared by all lanes).
    const BLOCK_SIZE: usize;

    /// The fixed-size digest array each lane produces.
    type Output: Copy + AsRef<[u8]> + PartialEq + Eq + std::fmt::Debug;

    /// Creates a fresh `N`-lane hasher.
    fn new() -> Self;

    /// Absorbs one equal-length slice per lane.
    ///
    /// # Panics
    ///
    /// Panics if the lanes are not all the same length.
    fn update(&mut self, lanes: [&[u8]; N]);

    /// Consumes the hasher and returns each lane's digest.
    fn finalize(self) -> [Self::Output; N];

    /// One-shot helper: hash `N` equal-length messages in lockstep.
    fn digest(lanes: [&[u8]; N]) -> [Self::Output; N]
    where
        Self: Sized,
    {
        let mut hasher = Self::new();
        hasher.update(lanes);
        hasher.finalize()
    }
}

// ---------------------------------------------------------------------------
// Lane-wide u32 helpers. Each takes/returns `[u32; N]` and applies the
// operation elementwise; the loops are fixed-trip-count and branch-free, the
// exact shape LLVM's loop vectorizer turns into packed-integer SIMD.
// ---------------------------------------------------------------------------

#[inline(always)]
fn splat<const N: usize>(x: u32) -> [u32; N] {
    [x; N]
}

#[inline(always)]
fn add<const N: usize>(mut a: [u32; N], b: [u32; N]) -> [u32; N] {
    for (a, b) in a.iter_mut().zip(b) {
        *a = a.wrapping_add(b);
    }
    a
}

#[inline(always)]
fn xor<const N: usize>(mut a: [u32; N], b: [u32; N]) -> [u32; N] {
    for (a, b) in a.iter_mut().zip(b) {
        *a ^= b;
    }
    a
}

#[inline(always)]
fn and<const N: usize>(mut a: [u32; N], b: [u32; N]) -> [u32; N] {
    for (a, b) in a.iter_mut().zip(b) {
        *a &= b;
    }
    a
}

#[inline(always)]
fn not<const N: usize>(mut a: [u32; N]) -> [u32; N] {
    for a in a.iter_mut() {
        *a = !*a;
    }
    a
}

#[inline(always)]
fn shr<const N: usize>(mut a: [u32; N], r: u32) -> [u32; N] {
    for a in a.iter_mut() {
        *a >>= r;
    }
    a
}

#[inline(always)]
fn rotr<const N: usize>(mut a: [u32; N], r: u32) -> [u32; N] {
    for a in a.iter_mut() {
        *a = a.rotate_right(r);
    }
    a
}

#[inline(always)]
fn xor3<const N: usize>(a: [u32; N], b: [u32; N], c: [u32; N]) -> [u32; N] {
    xor(xor(a, b), c)
}

/// Asserts the equal-length lane contract shared by every [`MultiDigest`].
#[inline]
fn lane_len<const N: usize>(lanes: &[&[u8]; N]) -> usize {
    let len = lanes[0].len();
    assert!(
        lanes.iter().all(|lane| lane.len() == len),
        "multi-lane update requires equal-length lanes"
    );
    len
}

// ---------------------------------------------------------------------------
// SHA-256, N lanes.
// ---------------------------------------------------------------------------

/// `N`-lane SHA-256: `N` independent messages compressed in lockstep.
///
/// Use the [`Sha256x4`] / [`Sha256x8`] aliases; 4 lanes fill a 128-bit
/// vector unit, 8 lanes a 256-bit one.
#[derive(Debug, Clone)]
pub struct Sha256xN<const N: usize> {
    /// Lane-major state: `state[word][lane]`.
    state: [[u32; N]; 8],
    /// One partial-block buffer per lane; all lanes share `buffer_len`.
    buffer: [[u8; 64]; N],
    buffer_len: usize,
    /// Per-lane message length in bytes (identical across lanes).
    total_len: u64,
}

/// 4-lane SHA-256 (fills one 128-bit vector register per state word).
pub type Sha256x4 = Sha256xN<4>;
/// 8-lane SHA-256 (fills one 256-bit vector register per state word).
pub type Sha256x8 = Sha256xN<8>;

/// The lane-interleaved SHA-256 compression: one message schedule and one
/// round function evaluation, `N` lanes wide. Free function over the state
/// so callers can pass buffer-derived block references without aliasing
/// the mutable state borrow.
fn sha256_compress<const N: usize>(state: &mut [[u32; N]; 8], blocks: [&[u8; 64]; N]) {
    let mut w = [[0u32; N]; 64];
    for (i, w_i) in w.iter_mut().take(16).enumerate() {
        for (slot, block) in w_i.iter_mut().zip(blocks) {
            *slot = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
    }
    for i in 16..64 {
        let s0 = xor3(rotr(w[i - 15], 7), rotr(w[i - 15], 18), shr(w[i - 15], 3));
        let s1 = xor3(rotr(w[i - 2], 17), rotr(w[i - 2], 19), shr(w[i - 2], 10));
        w[i] = add(add(w[i - 16], s0), add(w[i - 7], s1));
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for i in 0..64 {
        let s1 = xor3(rotr(e, 6), rotr(e, 11), rotr(e, 25));
        let ch = xor(and(e, f), and(not(e), g));
        let temp1 = add(add(h, s1), add(ch, add(splat(K[i]), w[i])));
        let s0 = xor3(rotr(a, 2), rotr(a, 13), rotr(a, 22));
        let maj = xor3(and(a, b), and(a, c), and(b, c));
        let temp2 = add(s0, maj);

        h = g;
        g = f;
        f = e;
        e = add(d, temp1);
        d = c;
        c = b;
        b = a;
        a = add(temp1, temp2);
    }

    state[0] = add(state[0], a);
    state[1] = add(state[1], b);
    state[2] = add(state[2], c);
    state[3] = add(state[3], d);
    state[4] = add(state[4], e);
    state[5] = add(state[5], f);
    state[6] = add(state[6], g);
    state[7] = add(state[7], h);
}

impl<const N: usize> Sha256xN<N> {
    /// Creates a fresh `N`-lane state (every lane at the SHA-256 IV).
    pub fn new() -> Self {
        assert!(N >= 1, "at least one lane is required");
        Self {
            state: std::array::from_fn(|word| splat(SHA256_H0[word])),
            buffer: [[0u8; 64]; N],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Transposes `N` scalar midstates into one lane-major state.
    ///
    /// This is how [`MultiKeyedMac`] rides the precomputed HMAC ipad/opad
    /// midstates: each lane starts from a *different* keyed midstate and the
    /// lanes then absorb their messages in lockstep.
    ///
    /// # Panics
    ///
    /// Panics if any midstate holds buffered partial input (lanes must be
    /// block-aligned to share a schedule) or if the midstates have absorbed
    /// different message lengths.
    pub fn from_midstates(states: [&Sha256; N]) -> Self {
        assert!(N >= 1, "at least one lane is required");
        let (_, total_len, _) = states[0].lane_parts();
        let state = std::array::from_fn(|word| {
            std::array::from_fn(|lane| {
                let (words, lane_total, buffered) = states[lane].lane_parts();
                assert_eq!(buffered, 0, "lane midstates must be block-aligned");
                assert_eq!(
                    lane_total, total_len,
                    "lane midstates must have absorbed equal lengths"
                );
                words[word]
            })
        });
        Self {
            state,
            buffer: [[0u8; 64]; N],
            buffer_len: 0,
            total_len,
        }
    }
}

impl<const N: usize> Default for Sha256xN<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> MultiDigest<N> for Sha256xN<N> {
    const OUTPUT_SIZE: usize = 32;
    const BLOCK_SIZE: usize = 64;

    type Output = [u8; 32];

    fn new() -> Self {
        Sha256xN::new()
    }

    fn update(&mut self, mut lanes: [&[u8]; N]) {
        let len = lane_len(&lanes);
        self.total_len = self.total_len.wrapping_add(len as u64);

        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(len);
            for (buffer, lane) in self.buffer.iter_mut().zip(lanes.iter_mut()) {
                buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&lane[..take]);
                *lane = &lane[take..];
            }
            self.buffer_len += take;
            if self.buffer_len == 64 {
                let blocks = self.buffer;
                sha256_compress(&mut self.state, std::array::from_fn(|lane| &blocks[lane]));
                self.buffer_len = 0;
            }
        }

        let full_blocks = lanes[0].len() / 64;
        for block in 0..full_blocks {
            let offset = block * 64;
            // Full blocks compress straight from the input slices — the
            // same zero-copy fast path the scalar cores use.
            let blocks: [&[u8; 64]; N] = std::array::from_fn(|lane| {
                lanes[lane][offset..offset + 64]
                    .try_into()
                    .expect("64-byte chunk")
            });
            sha256_compress(&mut self.state, blocks);
        }

        let rem_offset = full_blocks * 64;
        let rem = lanes[0].len() - rem_offset;
        if rem > 0 {
            for (buffer, lane) in self.buffer.iter_mut().zip(lanes) {
                buffer[..rem].copy_from_slice(&lane[rem_offset..]);
            }
            self.buffer_len = rem;
        }
    }

    fn finalize(mut self) -> [[u8; 32]; N] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Identical padding for every lane (the lengths are equal), built on
        // the stack exactly like the scalar finalizer.
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
        self.update([&padding[..pad_len]; N]);
        debug_assert_eq!(self.buffer_len, 0);

        std::array::from_fn(|lane| {
            let mut out = [0u8; 32];
            for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
                chunk.copy_from_slice(&word[lane].to_be_bytes());
            }
            out
        })
    }
}

// ---------------------------------------------------------------------------
// BLAKE2s, N lanes.
// ---------------------------------------------------------------------------

/// `N`-lane BLAKE2s-256 (32-byte output per lane), with the keyed mode
/// entered by transposing scalar keyed states via
/// [`Blake2sxN::from_keyed_states`].
#[derive(Debug, Clone)]
pub struct Blake2sxN<const N: usize> {
    /// Lane-major chain value: `h[word][lane]`.
    h: [[u32; N]; 8],
    /// Byte counter, shared by all lanes (equal-length inputs).
    t: [u32; 2],
    buffer: [[u8; 64]; N],
    buffer_len: usize,
}

/// 4-lane BLAKE2s.
pub type Blake2sx4 = Blake2sxN<4>;
/// 8-lane BLAKE2s.
pub type Blake2sx8 = Blake2sxN<8>;

/// Lane-wide BLAKE2s compression. `last` flags the final block for every
/// lane at once (the shared counter keeps the lanes in lockstep).
fn blake2s_compress<const N: usize>(
    h: &mut [[u32; N]; 8],
    t: [u32; 2],
    blocks: [&[u8; 64]; N],
    last: bool,
) {
    let mut m = [[0u32; N]; 16];
    for (i, m_i) in m.iter_mut().enumerate() {
        for (slot, block) in m_i.iter_mut().zip(blocks) {
            *slot = u32::from_le_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
    }

    let mut v = [[0u32; N]; 16];
    v[..8].copy_from_slice(h);
    for (word, iv) in v[8..].iter_mut().zip(BLAKE2S_IV) {
        *word = splat(iv);
    }
    v[12] = xor(v[12], splat(t[0]));
    v[13] = xor(v[13], splat(t[1]));
    if last {
        v[14] = not(v[14]);
    }

    #[inline(always)]
    fn g<const N: usize>(
        v: &mut [[u32; N]; 16],
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        x: [u32; N],
        y: [u32; N],
    ) {
        v[a] = add(add(v[a], v[b]), x);
        v[d] = rotr(xor(v[d], v[a]), 16);
        v[c] = add(v[c], v[d]);
        v[b] = rotr(xor(v[b], v[c]), 12);
        v[a] = add(add(v[a], v[b]), y);
        v[d] = rotr(xor(v[d], v[a]), 8);
        v[c] = add(v[c], v[d]);
        v[b] = rotr(xor(v[b], v[c]), 7);
    }

    for s in &SIGMA {
        g(&mut v, 0, 4, 8, 12, m[s[0]], m[s[1]]);
        g(&mut v, 1, 5, 9, 13, m[s[2]], m[s[3]]);
        g(&mut v, 2, 6, 10, 14, m[s[4]], m[s[5]]);
        g(&mut v, 3, 7, 11, 15, m[s[6]], m[s[7]]);
        g(&mut v, 0, 5, 10, 15, m[s[8]], m[s[9]]);
        g(&mut v, 1, 6, 11, 12, m[s[10]], m[s[11]]);
        g(&mut v, 2, 7, 8, 13, m[s[12]], m[s[13]]);
        g(&mut v, 3, 4, 9, 14, m[s[14]], m[s[15]]);
    }

    for i in 0..8 {
        h[i] = xor(h[i], xor(v[i], v[i + 8]));
    }
}

impl<const N: usize> Blake2sxN<N> {
    /// Creates a fresh unkeyed `N`-lane BLAKE2s-256 state.
    pub fn new() -> Self {
        assert!(N >= 1, "at least one lane is required");
        let mut h: [[u32; N]; 8] = std::array::from_fn(|word| splat(BLAKE2S_IV[word]));
        // Parameter block word 0: digest length 32, no key, fanout=1,
        // depth=1 — the unkeyed Blake2s::new() parameters.
        h[0] = xor(h[0], splat(0x0101_0000 ^ 32));
        Self {
            h,
            t: [0, 0],
            buffer: [[0u8; 64]; N],
            buffer_len: 0,
        }
    }

    /// Transposes `N` scalar BLAKE2s states — typically freshly keyed ones,
    /// whose key block sits buffered awaiting the first message byte — into
    /// one lane-major state.
    ///
    /// # Panics
    ///
    /// Panics if any state is a truncated-output instance (all lanes must
    /// produce the full 32-byte digest) or if the states are not at the same
    /// stream position (equal counters and buffered lengths).
    pub fn from_keyed_states(states: [&Blake2s; N]) -> Self {
        assert!(N >= 1, "at least one lane is required");
        let (_, t, _, buffer_len, _) = states[0].lane_parts();
        let h = std::array::from_fn(|word| {
            std::array::from_fn(|lane| {
                let (h, lane_t, _, lane_buffered, out_len) = states[lane].lane_parts();
                assert_eq!(out_len, 32, "lane states must use the full 32-byte output");
                assert_eq!(lane_t, t, "lane states must share one stream position");
                assert_eq!(
                    lane_buffered, buffer_len,
                    "lane states must share one stream position"
                );
                h[word]
            })
        });
        let mut buffer = [[0u8; 64]; N];
        for (buffer, state) in buffer.iter_mut().zip(states) {
            let (_, _, buffered, _, _) = state.lane_parts();
            *buffer = *buffered;
        }
        Self {
            h,
            t,
            buffer,
            buffer_len,
        }
    }

    fn increment_counter(&mut self, bytes: u32) {
        let (lo, carry) = self.t[0].overflowing_add(bytes);
        self.t[0] = lo;
        if carry {
            self.t[1] = self.t[1].wrapping_add(1);
        }
    }
}

impl<const N: usize> Default for Blake2sxN<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> MultiDigest<N> for Blake2sxN<N> {
    const OUTPUT_SIZE: usize = 32;
    const BLOCK_SIZE: usize = 64;

    type Output = [u8; 32];

    fn new() -> Self {
        Blake2sxN::new()
    }

    fn update(&mut self, mut lanes: [&[u8]; N]) {
        lane_len(&lanes);
        // Like the scalar core: a full buffer only compresses once more data
        // arrives, because the final block must carry the "last" flag.
        while !lanes[0].is_empty() {
            if self.buffer_len == 64 {
                self.increment_counter(64);
                let blocks = self.buffer;
                blake2s_compress(
                    &mut self.h,
                    self.t,
                    std::array::from_fn(|lane| &blocks[lane]),
                    false,
                );
                self.buffer_len = 0;
            }
            // With the buffer empty, every full block except the trailing
            // 1..=64 bytes (which must stay buffered for the last-block
            // flag) compresses straight from the input slices — no copy.
            if self.buffer_len == 0 {
                while lanes[0].len() > 64 {
                    self.increment_counter(64);
                    let blocks: [&[u8; 64]; N] = std::array::from_fn(|lane| {
                        lanes[lane][..64].try_into().expect("64-byte chunk")
                    });
                    blake2s_compress(&mut self.h, self.t, blocks, false);
                    for lane in lanes.iter_mut() {
                        *lane = &lane[64..];
                    }
                }
            }
            let take = (64 - self.buffer_len).min(lanes[0].len());
            for (buffer, lane) in self.buffer.iter_mut().zip(lanes.iter_mut()) {
                buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&lane[..take]);
                *lane = &lane[take..];
            }
            self.buffer_len += take;
        }
    }

    fn finalize(mut self) -> [[u8; 32]; N] {
        self.increment_counter(self.buffer_len as u32);
        let mut blocks = [[0u8; 64]; N];
        for (block, buffer) in blocks.iter_mut().zip(self.buffer) {
            block[..self.buffer_len].copy_from_slice(&buffer[..self.buffer_len]);
        }
        blake2s_compress(
            &mut self.h,
            self.t,
            std::array::from_fn(|lane| &blocks[lane]),
            true,
        );

        std::array::from_fn(|lane| {
            let mut out = [0u8; 32];
            for (chunk, word) in out.chunks_exact_mut(4).zip(self.h) {
                chunk.copy_from_slice(&word[lane].to_le_bytes());
            }
            out
        })
    }
}

// ---------------------------------------------------------------------------
// Multi-lane keyed MAC.
// ---------------------------------------------------------------------------

/// `N` precomputed MAC key schedules transposed into lane form: one tag per
/// lane from one lockstep pass over `N` equal-length messages.
///
/// Built from existing [`KeyedMac`] schedules, so the once-per-device key
/// derivation is shared with the scalar hot path:
///
/// * HMAC-SHA256 — the ipad and opad midstates of each lane are transposed
///   into two [`Sha256xN`] states; a MAC is one lockstep inner pass and one
///   lockstep outer pass.
/// * Keyed BLAKE2s — the per-lane keyed states (key block buffered) are
///   transposed into one [`Blake2sxN`].
/// * HMAC-SHA1 — kept for the Table 1 comparison only; there is no
///   lane-interleaved SHA-1 core, so the lanes fall back to the scalar
///   schedules (still one `MultiKeyedMac` call site for every algorithm).
///
/// # Example
///
/// ```
/// use erasmus_crypto::{MacAlgorithm, MultiKeyedMac};
///
/// let keys: Vec<_> = (0u8..4)
///     .map(|i| MacAlgorithm::HmacSha256.with_key(&[i; 32]))
///     .collect();
/// let multi = MultiKeyedMac::<4>::new(std::array::from_fn(|i| &keys[i]));
/// let tags = multi.mac([&b"same-length-msg."[..]; 4]);
/// for (lane, keyed) in keys.iter().enumerate() {
///     assert_eq!(tags[lane], keyed.mac(b"same-length-msg."));
/// }
/// ```
#[derive(Clone)]
pub struct MultiKeyedMac<const N: usize> {
    state: MultiKeyedState<N>,
}

#[derive(Clone)]
enum MultiKeyedState<const N: usize> {
    HmacSha256 {
        inner: Sha256xN<N>,
        outer: Sha256xN<N>,
    },
    KeyedBlake2s(Blake2sxN<N>),
    /// Scalar fallback lanes (HMAC-SHA1 has no lane-interleaved core).
    Scalar(Box<[KeyedMac; N]>),
}

impl<const N: usize> MultiKeyedMac<N> {
    /// Transposes `N` per-device key schedules into lane form.
    ///
    /// # Panics
    ///
    /// Panics if the schedules do not all use the same [`MacAlgorithm`].
    pub fn new(lanes: [&KeyedMac; N]) -> Self {
        assert!(N >= 1, "at least one lane is required");
        let algorithm = lanes[0].algorithm();
        assert!(
            lanes.iter().all(|lane| lane.algorithm() == algorithm),
            "all lanes must use the same MAC algorithm"
        );
        let state = match algorithm {
            MacAlgorithm::HmacSha256 => {
                let keys: [&HmacKey<Sha256>; N] = std::array::from_fn(|lane| match lanes[lane] {
                    KeyedMac::HmacSha256(key) => key,
                    _ => unreachable!("algorithm checked above"),
                });
                MultiKeyedState::HmacSha256 {
                    inner: Sha256xN::from_midstates(std::array::from_fn(|lane| {
                        keys[lane].lane_midstates().0
                    })),
                    outer: Sha256xN::from_midstates(std::array::from_fn(|lane| {
                        keys[lane].lane_midstates().1
                    })),
                }
            }
            MacAlgorithm::KeyedBlake2s => {
                let states: [&Blake2s; N] = std::array::from_fn(|lane| match lanes[lane] {
                    KeyedMac::KeyedBlake2s(state) => state,
                    _ => unreachable!("algorithm checked above"),
                });
                MultiKeyedState::KeyedBlake2s(Blake2sxN::from_keyed_states(states))
            }
            MacAlgorithm::HmacSha1 => {
                MultiKeyedState::Scalar(Box::new(std::array::from_fn(|lane| lanes[lane].clone())))
            }
        };
        Self { state }
    }

    /// The algorithm every lane was keyed for.
    pub fn algorithm(&self) -> MacAlgorithm {
        match &self.state {
            MultiKeyedState::HmacSha256 { .. } => MacAlgorithm::HmacSha256,
            MultiKeyedState::KeyedBlake2s(_) => MacAlgorithm::KeyedBlake2s,
            MultiKeyedState::Scalar(lanes) => lanes[0].algorithm(),
        }
    }

    /// Tag length in bytes (identical for every lane).
    pub fn tag_len(&self) -> usize {
        self.algorithm().tag_len()
    }

    /// Computes one tag per lane over `N` equal-length messages.
    ///
    /// Each lane's tag is bit-identical to `KeyedMac::mac` under the same
    /// schedule.
    ///
    /// # Panics
    ///
    /// Panics if the messages are not all the same length (the lane-
    /// interleaved cores share one block counter). The scalar-fallback
    /// algorithms accept ragged messages, but callers should not rely on it.
    pub fn mac(&self, messages: [&[u8]; N]) -> [MacTag; N] {
        match &self.state {
            MultiKeyedState::HmacSha256 { inner, outer } => {
                let mut inner = inner.clone();
                inner.update(messages);
                let digests = inner.finalize();
                let mut outer = outer.clone();
                outer.update(std::array::from_fn(|lane| &digests[lane][..]));
                let tags = outer.finalize();
                std::array::from_fn(|lane| MacTag::from(tags[lane]))
            }
            MultiKeyedState::KeyedBlake2s(state) => {
                let mut state = state.clone();
                state.update(messages);
                let tags = state.finalize();
                std::array::from_fn(|lane| MacTag::from(tags[lane]))
            }
            MultiKeyedState::Scalar(lanes) => {
                std::array::from_fn(|lane| lanes[lane].mac(messages[lane]))
            }
        }
    }
}

impl<const N: usize> std::fmt::Debug for MultiKeyedMac<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Lane states are key-derived material; never print them.
        write!(f, "MultiKeyedMac({}x{N}, ..redacted..)", self.algorithm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digest;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_lanes_match_fips_vectors() {
        // Distinct KAT inputs of equal length ("abc" x reorderings).
        let digests = Sha256x4::digest([&b"abc"[..], b"bca", b"cab", b"abc"]);
        assert_eq!(
            hex(&digests[0]),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(digests[0], digests[3]);
        assert_ne!(digests[0], digests[1]);
        for (lane, input) in [&b"abc"[..], b"bca", b"cab", b"abc"].iter().enumerate() {
            assert_eq!(digests[lane], Sha256::digest(input), "lane {lane}");
        }
    }

    #[test]
    fn sha256_lanes_match_scalar_across_lengths() {
        // 0..=320 crosses every 55/56/63/64 padding boundary of five blocks.
        for len in (0usize..=320).chain([1000]) {
            let messages: Vec<Vec<u8>> = (0..8u8)
                .map(|lane| (0..len).map(|i| (i as u8).wrapping_mul(lane + 1)).collect())
                .collect();
            let lanes: [&[u8]; 8] = std::array::from_fn(|l| &messages[l][..]);
            let digests = Sha256x8::digest(lanes);
            for lane in 0..8 {
                assert_eq!(
                    digests[lane],
                    Sha256::digest(&messages[lane]),
                    "len {len} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn sha256_incremental_matches_oneshot() {
        let messages: Vec<Vec<u8>> = (0..4u8).map(|lane| vec![lane; 200]).collect();
        for split in [0usize, 1, 63, 64, 65, 199, 200] {
            let mut hasher = Sha256x4::new();
            hasher.update(std::array::from_fn(|l| &messages[l][..split]));
            hasher.update(std::array::from_fn(|l| &messages[l][split..]));
            let digests = hasher.finalize();
            for (lane, message) in messages.iter().enumerate() {
                assert_eq!(digests[lane], Sha256::digest(message), "split {split}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn ragged_lanes_panic() {
        let mut hasher = Sha256x4::new();
        hasher.update([&b"a"[..], b"ab", b"a", b"a"]);
    }

    #[test]
    fn blake2s_lanes_match_scalar() {
        for len in [0usize, 1, 63, 64, 65, 128, 129, 500] {
            let messages: Vec<Vec<u8>> = (0..4u8)
                .map(|lane| (0..len).map(|i| (i as u8) ^ lane).collect())
                .collect();
            let digests = Blake2sx4::digest(std::array::from_fn(|l| &messages[l][..]));
            for lane in 0..4 {
                assert_eq!(
                    digests[lane],
                    Blake2s::digest(&messages[lane]),
                    "len {len} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn blake2s_rfc7693_vector_in_every_lane() {
        let digests = Blake2sx8::digest([&b"abc"[..]; 8]);
        for digest in digests {
            assert_eq!(
                hex(&digest),
                "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982"
            );
        }
    }

    #[test]
    fn multi_keyed_mac_matches_scalar_for_all_algorithms() {
        for alg in MacAlgorithm::ALL {
            let keys: Vec<KeyedMac> = (0u8..4).map(|i| alg.with_key(&[i ^ 0x5a; 32])).collect();
            let multi = MultiKeyedMac::<4>::new(std::array::from_fn(|i| &keys[i]));
            assert_eq!(multi.algorithm(), alg);
            assert_eq!(multi.tag_len(), alg.tag_len());
            let messages: Vec<Vec<u8>> = (0..4u8).map(|lane| vec![lane; 40]).collect();
            let tags = multi.mac(std::array::from_fn(|l| &messages[l][..]));
            for (lane, keyed) in keys.iter().enumerate() {
                assert_eq!(tags[lane], keyed.mac(&messages[lane]), "{alg} lane {lane}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "same MAC algorithm")]
    fn mixed_algorithms_panic() {
        let a = MacAlgorithm::HmacSha256.with_key(&[1; 32]);
        let b = MacAlgorithm::KeyedBlake2s.with_key(&[1; 32]);
        let _ = MultiKeyedMac::<2>::new([&a, &b]);
    }

    #[test]
    fn multi_keyed_mac_debug_is_redacted() {
        let keyed = MacAlgorithm::HmacSha256.with_key(&[0xffu8; 32]);
        let multi = MultiKeyedMac::<4>::new([&keyed; 4]);
        let text = format!("{multi:?}");
        assert!(text.contains("redacted"), "{text}");
        assert!(!text.contains("ff"), "{text}");
    }

    #[test]
    fn single_lane_is_valid() {
        let digests = Sha256xN::<1>::digest([&b"hello"[..]]);
        assert_eq!(digests[0], Sha256::digest(b"hello"));
        let keyed = MacAlgorithm::KeyedBlake2s.with_key(&[7; 32]);
        let multi = MultiKeyedMac::<1>::new([&keyed]);
        assert_eq!(multi.mac([b"m"])[0], keyed.mac(b"m"));
    }
}
