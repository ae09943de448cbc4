//! A self-contained SHA-256 (FIPS 180-4).
//!
//! The build environment vendors every dependency, so the hash is
//! implemented here rather than pulled in.  Two compression paths:
//!
//! * a portable scalar path (~80 lines of the standard compression
//!   function, no unsafe, no tables beyond the round constants), and
//! * an x86-64 SHA-NI path (`sha256rnds2`/`sha256msg1`/`sha256msg2`
//!   via `core::arch`), selected per process by runtime feature
//!   detection.  Verify-on-receive hashes every delivered payload, so
//!   the hash sits directly on the broadcast hot path; the scalar
//!   rounds top out around 150 MB/s while the hardware rounds run in
//!   the GB/s range — the difference between authentication being a
//!   rounding error and halving delivered throughput.  A second entry
//!   runs two equal-length messages side by side (`sha256_pair`, for
//!   Merkle leaves), interleaving their rounds.
//!
//! Both paths produce identical digests (pinned by the equivalence
//! test below); the scalar path is the reference.
//!
//! The hardware rounds are deliberately a real call, never inlined: the
//! SHA instructions have no VEX encoding, so inside a caller that has
//! just touched 256-bit registers (any AVX-enabled build copying a
//! 32-byte digest) each of them would pay an SSE/AVX transition stall —
//! measured at 47× on a 68-leaf tree commit.  See `ni::compress_blocks`;
//! the two-lane `ni::compress_blocks2` is out of line for the same reason.

/// The SHA-256 round constants (first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256: `update` in any chunking, then `finalize`.
#[derive(Debug, Clone)]
pub(crate) struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes.
    len: u64,
    /// Partial block carried between updates.
    buf: [u8; 64],
    buffered: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub(crate) fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buffered: 0,
        }
    }

    /// Absorbs `data`.
    pub(crate) fn update(&mut self, data: &[u8]) -> &mut Self {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                let block = self.buf;
                self.compress_blocks(&block);
                self.buffered = 0;
            }
        }
        let whole = rest.len() - rest.len() % 64;
        if whole > 0 {
            self.compress_blocks(&rest[..whole]);
            rest = &rest[whole..];
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
        self
    }

    /// Pads and returns the digest.
    pub(crate) fn finalize(mut self) -> [u8; 32] {
        let mut tail = [0u8; 128];
        let len = pad_tail(&self.buf[..self.buffered], &[], self.len, &mut tail);
        self.compress_blocks(&tail[..len]);
        digest(self.state)
    }

    /// Compresses `data`, which must be a whole number of 64-byte blocks,
    /// through whichever compression path the CPU supports.
    fn compress_blocks(&mut self, data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        if ni::available() {
            // SAFETY: `available` confirmed sha + ssse3 + sse4.1 at runtime.
            unsafe { ni::compress_blocks(&mut self.state, data) };
            return;
        }
        for block in data.chunks_exact(64) {
            compress_soft(&mut self.state, block.try_into().expect("chunks_exact(64)"));
        }
    }
}

/// Writes a message's last partial block, `prefix || rest` (under 64
/// bytes together), into the zeroed `out` followed by the padding: `0x80`,
/// zeros up to 56 mod 64, the message's bit length.  Returns the padded
/// length, 64 or 128.
fn pad_tail(prefix: &[u8], rest: &[u8], message_len: u64, out: &mut [u8; 128]) -> usize {
    let n = prefix.len() + rest.len();
    debug_assert!(n < 64);
    out[..prefix.len()].copy_from_slice(prefix);
    out[prefix.len()..n].copy_from_slice(rest);
    out[n] = 0x80;
    let len = if n < 56 { 64 } else { 128 };
    out[len - 8..len].copy_from_slice(&message_len.wrapping_mul(8).to_be_bytes());
    len
}

/// The big-endian digest bytes of a final state.
fn digest(state: [u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The portable scalar compression function — the reference path.
fn compress_soft(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("chunks_exact(4)"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// SHA-NI compression: four message-schedule vectors kept in registers,
/// two rounds per `sha256rnds2`.  The `(a,b,e,f)/(c,d,g,h)` register
/// split is the ISA's, not ours — the pre/post shuffles translate from
/// the FIPS word order.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // `core::arch` intrinsics; entry gated by `available()`.
mod ni {
    use super::K;
    use core::arch::x86_64::*;

    pub(crate) fn available() -> bool {
        // `is_x86_feature_detected!` caches after the first probe, so the
        // per-call cost on the hot path is one relaxed atomic load.
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// One message-schedule step: from schedule words `w[i-16..i]` held in
    /// four vectors, produce the next four words `w[i..i+4]`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn schedule(v0: __m128i, v1: __m128i, v2: __m128i, v3: __m128i) -> __m128i {
        let t1 = _mm_sha256msg1_epu32(v0, v1);
        let t2 = _mm_alignr_epi8(v3, v2, 4);
        let t3 = _mm_add_epi32(t1, t2);
        _mm_sha256msg2_epu32(t3, v3)
    }

    /// Kept out of line on purpose.  The SHA instructions exist only in
    /// legacy-SSE encoding; executed while the upper halves of the YMM
    /// registers are dirty, every one of them stalls on the SSE/AVX
    /// transition.  A caller compiled with AVX enabled (`-C
    /// target-cpu=native`, CI's `x86-64-v3`) has a superset of this
    /// function's features, so LLVM would inline it — straight after the
    /// caller's 256-bit digest copies, with no `vzeroupper` in between
    /// (measured: a 68-leaf `CommitPlan::commit` took 1.4 ms instead of
    /// 30 µs).  Across a real call LLVM emits the `vzeroupper` itself.
    ///
    /// # Safety
    /// Requires the `sha`, `ssse3` and `sse4.1` CPU features, and
    /// `data.len() % 64 == 0`.
    #[inline(never)]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(crate) unsafe fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        // Per-u32 byte swap for the big-endian message words.
        let mask = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0Bu64 as i64, 0x0405_0607_0001_0203);
        // Four round constants per quad, K[4i] in the low lane.
        let kv = |i: usize| _mm_loadu_si128(K.as_ptr().add(4 * i) as *const __m128i);

        let (mut abef, mut cdgh) = load_state(state);

        // Two rounds per `sha256rnds2`; the operand swap between the pair
        // of calls restores the (abef, cdgh) roles every four rounds.
        macro_rules! rounds4 {
            ($wk:expr) => {{
                let wk = $wk;
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }};
        }

        for block in data.chunks_exact(64) {
            let abef_save = abef;
            let cdgh_save = cdgh;

            let p = block.as_ptr() as *const __m128i;
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), mask);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask);

            rounds4!(_mm_add_epi32(w0, kv(0)));
            rounds4!(_mm_add_epi32(w1, kv(1)));
            rounds4!(_mm_add_epi32(w2, kv(2)));
            rounds4!(_mm_add_epi32(w3, kv(3)));
            for quad in [4usize, 8, 12] {
                let w4 = schedule(w0, w1, w2, w3);
                rounds4!(_mm_add_epi32(w4, kv(quad)));
                let w5 = schedule(w1, w2, w3, w4);
                rounds4!(_mm_add_epi32(w5, kv(quad + 1)));
                let w6 = schedule(w2, w3, w4, w5);
                rounds4!(_mm_add_epi32(w6, kv(quad + 2)));
                let w7 = schedule(w3, w4, w5, w6);
                rounds4!(_mm_add_epi32(w7, kv(quad + 3)));
                (w0, w1, w2, w3) = (w4, w5, w6, w7);
            }

            abef = _mm_add_epi32(abef, abef_save);
            cdgh = _mm_add_epi32(cdgh, cdgh_save);
        }

        store_state(state, abef, cdgh);
    }

    /// [`compress_blocks`] over two independent messages at once: the
    /// two lanes' rounds alternate, so one lane's `sha256rnds2` issues
    /// while the other's waits on its predecessor, and the pair costs
    /// well under two single passes.  Out of line for the same reason.
    ///
    /// # Safety
    /// Requires the `sha`, `ssse3` and `sse4.1` CPU features, and both
    /// `data` slices of one length, a multiple of 64.
    #[inline(never)]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(crate) unsafe fn compress_blocks2(state: &mut [[u32; 8]; 2], data: [&[u8]; 2]) {
        debug_assert_eq!(data[0].len(), data[1].len());
        debug_assert_eq!(data[0].len() % 64, 0);
        let mask = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0Bu64 as i64, 0x0405_0607_0001_0203);
        let kv = |i: usize| _mm_loadu_si128(K.as_ptr().add(4 * i) as *const __m128i);
        let (mut abef0, mut cdgh0) = load_state(&state[0]);
        let (mut abef1, mut cdgh1) = load_state(&state[1]);

        // Four rounds of each lane, interleaved instruction by instruction.
        macro_rules! rounds4 {
            ($w0:expr, $w1:expr, $k:expr) => {{
                let k = kv($k);
                let wk0 = _mm_add_epi32($w0, k);
                let wk1 = _mm_add_epi32($w1, k);
                cdgh0 = _mm_sha256rnds2_epu32(cdgh0, abef0, wk0);
                cdgh1 = _mm_sha256rnds2_epu32(cdgh1, abef1, wk1);
                abef0 = _mm_sha256rnds2_epu32(abef0, cdgh0, _mm_shuffle_epi32(wk0, 0x0E));
                abef1 = _mm_sha256rnds2_epu32(abef1, cdgh1, _mm_shuffle_epi32(wk1, 0x0E));
            }};
        }

        for (b0, b1) in data[0].chunks_exact(64).zip(data[1].chunks_exact(64)) {
            let save = (abef0, cdgh0, abef1, cdgh1);
            let (p0, p1) = (b0.as_ptr() as *const __m128i, b1.as_ptr() as *const __m128i);
            macro_rules! load {
                ($p:expr, $i:expr) => {
                    _mm_shuffle_epi8(_mm_loadu_si128($p.add($i)), mask)
                };
            }
            let mut w = [load!(p0, 0), load!(p0, 1), load!(p0, 2), load!(p0, 3)];
            let mut v = [load!(p1, 0), load!(p1, 1), load!(p1, 2), load!(p1, 3)];
            for quad in 0..4 {
                rounds4!(w[quad], v[quad], quad);
            }
            for quad in (4..16).step_by(4) {
                for i in 0..4 {
                    let wn = schedule(w[i], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                    let vn = schedule(v[i], v[(i + 1) % 4], v[(i + 2) % 4], v[(i + 3) % 4]);
                    rounds4!(wn, vn, quad + i);
                    w[i] = wn;
                    v[i] = vn;
                }
            }
            abef0 = _mm_add_epi32(abef0, save.0);
            cdgh0 = _mm_add_epi32(cdgh0, save.1);
            abef1 = _mm_add_epi32(abef1, save.2);
            cdgh1 = _mm_add_epi32(cdgh1, save.3);
        }

        store_state(&mut state[0], abef0, cdgh0);
        store_state(&mut state[1], abef1, cdgh1);
    }

    /// Repacks FIPS `(a,b,c,d),(e,f,g,h)` into the ISA's `(a,b,e,f),(c,d,g,h)`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn load_state(state: &[u32; 8]) -> (__m128i, __m128i) {
        let s01 = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let s23 = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
        let t = _mm_shuffle_epi32(s01, 0xB1);
        let efgh = _mm_shuffle_epi32(s23, 0x1B);
        (_mm_alignr_epi8(t, efgh, 8), _mm_blend_epi16(efgh, t, 0xF0))
    }

    /// The inverse of [`load_state`].
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn store_state(state: &mut [u32; 8], abef: __m128i, cdgh: __m128i) {
        let t = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let abcd = _mm_blend_epi16(t, dchg, 0xF0);
        let efgh = _mm_alignr_epi8(dchg, t, 8);
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, abcd);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, efgh);
    }
}

/// One-shot digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Digests of the two messages `head[i] || body[i]`, whose heads have one
/// length under 64 bytes (a Merkle leaf's header) and whose bodies have
/// one length.  The SHA-NI path hashes the two side by side
/// (`ni::compress_blocks2`); the portable path hashes one after the other.
pub(crate) fn sha256_pair(head: [&[u8]; 2], body: [&[u8]; 2]) -> [[u8; 32]; 2] {
    debug_assert!(head[0].len() == head[1].len() && head[0].len() < 64);
    debug_assert_eq!(body[0].len(), body[1].len());
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if ni::available() {
        let h = head[0].len();
        let message_len = (h + body[0].len()) as u64;
        let mut state = [H0, H0];
        // A message that fills a block opens with head plus the body's
        // first bytes, then runs the body's whole blocks in place; what is
        // left (all of a shorter message) goes into the padded tail.
        let (mut prefix, mut rest) = (head, body);
        if h + body[0].len() >= 64 {
            let mut first = [[0u8; 64]; 2];
            for lane in 0..2 {
                first[lane][..h].copy_from_slice(head[lane]);
                first[lane][h..].copy_from_slice(&body[lane][..64 - h]);
            }
            let after = body[0].len() - (64 - h);
            let whole = after - after % 64;
            let blocks = body.map(|b| &b[64 - h..64 - h + whole]);
            // SAFETY: `available` confirmed sha + ssse3 + sse4.1 at
            // runtime; both lanes are 64, then `whole`, bytes long.
            unsafe {
                ni::compress_blocks2(&mut state, [&first[0], &first[1]]);
                ni::compress_blocks2(&mut state, blocks);
            }
            prefix = [&[], &[]];
            rest = body.map(|b| &b[64 - h + whole..]);
        }
        let mut tail = [[0u8; 128]; 2];
        let len = pad_tail(prefix[0], rest[0], message_len, &mut tail[0]);
        pad_tail(prefix[1], rest[1], message_len, &mut tail[1]);
        // SAFETY: as above; both tails are `len` bytes, 64 or 128.
        unsafe { ni::compress_blocks2(&mut state, [&tail[0][..len], &tail[1][..len]]) };
        return state.map(digest);
    }
    [0, 1].map(|lane| {
        let mut h = Sha256::new();
        h.update(head[lane]).update(body[lane]);
        h.finalize()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: [u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        for _ in 0..1_000_000 / 50 {
            h.update(&[b'a'; 50]);
        }
        assert_eq!(
            hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn chunking_is_immaterial() {
        let data: Vec<u8> = (0..997u32).map(|i| (i % 251) as u8).collect();
        let whole = sha256(&data);
        for chunk in [1usize, 3, 63, 64, 65, 100] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), whole, "chunk size {chunk}");
        }
    }

    /// The paired digests equal two single ones across every tail shape:
    /// each head length a leaf header could have, bodies straddling the
    /// one- and two-block padding boundaries, and a whole 16 KiB leaf.
    #[test]
    fn pairs_match_single_digests() {
        for h in [0usize, 1, 25, 55, 56, 63] {
            for len in (0..200).chain([4096, 16_384, 16_385]) {
                let head: [Vec<u8>; 2] =
                    [0u8, 1].map(|lane| (0..h).map(|i| i as u8 ^ lane).collect());
                let body: [Vec<u8>; 2] =
                    [3usize, 5].map(|k| (0..len).map(|i| (i * k + h) as u8).collect());
                let want = [0, 1].map(|lane| sha256(&[&head[lane][..], &body[lane][..]].concat()));
                let got = sha256_pair([&head[0], &head[1]], [&body[0], &body[1]]);
                assert_eq!(got, want, "head {h} body {len}");
            }
        }
    }

    /// The hardware path must agree with the scalar reference on every
    /// block count and tail length, or it must not exist on this CPU.
    #[test]
    fn hardware_path_matches_scalar_reference() {
        for len in [
            0usize, 1, 55, 56, 63, 64, 65, 119, 120, 121, 127, 128, 129, 183, 640, 4096, 8191,
        ] {
            let data: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
            // Reference: scalar rounds, block at a time.
            let mut state = H0;
            let mut msg = data.clone();
            let bit_len = (data.len() as u64).wrapping_mul(8);
            msg.push(0x80);
            while msg.len() % 64 != 56 {
                msg.push(0);
            }
            msg.extend_from_slice(&bit_len.to_be_bytes());
            for block in msg.chunks_exact(64) {
                compress_soft(&mut state, block.try_into().unwrap());
            }
            let mut want = [0u8; 32];
            for (i, word) in state.iter().enumerate() {
                want[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
            }
            assert_eq!(sha256(&data), want, "len {len}");
        }
    }
}
