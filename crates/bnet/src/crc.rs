//! The wire checksum: CRC-32 (IEEE 802.3, reflected polynomial
//! `0xEDB88320`), computed by whichever of two kernels the CPU allows.
//!
//! Every wire byte is checksummed four times on its way from the station
//! to a client (whole frame and fragment when sending, the same two when
//! receiving), so the checksum sets the ceiling on broadcast bandwidth.
//!
//! * **Portable path** — slicing-by-16 over `const`-built tables, safe
//!   Rust, sixteen bytes per step.  The only path on targets other than
//!   x86-64 and on x86-64 CPUs without carry-less multiply; it also
//!   finishes every input's last `< 16` bytes and handles inputs shorter
//!   than 64 bytes whole.
//! * **Carry-less-multiply path** (x86-64) — 512 bits folded per step with
//!   `pclmulqdq`, folded down to 128, then Barrett-reduced to 32 (Gopal et
//!   al., *Fast CRC Computation for Generic Polynomials Using PCLMULQDQ*).
//!   Chosen per call, by runtime detection of `pclmulqdq` and `sse4.1`, for
//!   inputs of at least 64 bytes.
//!
//! Both compute the same function as the byte-at-a-time loop the format
//! was defined with — the wire bytes are unchanged — and the tests below
//! pin all three against each other and against answers from outside this
//! repository.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the CRC state left by byte `b` followed by `k` zero
/// bytes, so sixteen consecutive bytes fold with sixteen independent
/// lookups (`TABLES[0]` is the classic byte-at-a-time table).
const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 16] = tables();

/// The portable kernel: advances the (pre-inverted) CRC `state` over
/// `data`, sixteen bytes per step, the remainder a byte at a time.
fn update_tables(mut state: u32, data: &[u8]) -> u32 {
    // The last of `bytes` is followed by as many bytes as `tables` skips.
    let lookups = |acc: u32, bytes: &[u8], tables: &[[u32; 256]]| {
        bytes
            .iter()
            .zip(tables.iter().rev())
            .fold(acc, |acc, (&b, t)| acc ^ t[b as usize])
    };
    let mut steps = data.chunks_exact(16);
    for step in &mut steps {
        // Only a step's first four bytes meet the running state.  The other
        // twelve index their tables straight from memory, so their lookups
        // stay off the loop's dependency chain.  (Written as one sixteen-way
        // XOR of shifted words, LLVM with AVX-512 enabled turns the lookups
        // into gathers queued behind the state and runs three times slower.)
        let (head, rest) = step.split_at(4);
        let rest = lookups(0, rest, &TABLES[..12]);
        let head = u32::from_le_bytes(head.try_into().expect("four of sixteen")) ^ state;
        state = lookups(rest, &head.to_le_bytes(), &TABLES[12..]);
    }
    for &b in steps.remainder() {
        state = TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// The CRC-32 (IEEE) of `data`, as appended to every packet.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some((state, tail)) = clmul::fold(!0, data) {
        return !update_tables(state, tail);
    }
    !update_tables(!0, data)
}

/// The carry-less-multiply kernel.  A CRC is the remainder of the message
/// polynomial modulo `P`; multiplying a 128-bit lane by `x^k mod P` moves
/// it `k` bits forward without changing that remainder, so four lanes
/// advance 512 bits per step independently of each other.  The constants
/// are `x^k mod P` in the bit-reflected domain (shifted left by one, as the
/// reflected multiply needs): `k = 512 ± 32` for the four-lane step,
/// `128 ± 32` for the one-lane step, `64` for the 96 → 64 bit step, then
/// Barrett's `µ = ⌊x^64 / P⌋` and `P` itself.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // `core::arch` intrinsics; `fold` is the one entry and detects the CPU.
mod clmul {
    use core::arch::x86_64::*;

    const FOLD_BY_4: (u64, u64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    const FOLD_BY_1: (u64, u64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    const FOLD_96_TO_64: u64 = 0x1_63cd_6124;
    const BARRETT: (u64, u64) = (0x1_db71_0641, 0x1_f701_1641);

    /// Advances the (pre-inverted) CRC `state` over the longest prefix of
    /// `data` that is a multiple of 16 bytes; returns the new state and the
    /// unconsumed tail (`< 16` bytes).  `None` — nothing consumed — when
    /// `data` is shorter than the 64 bytes the kernel starts from or the
    /// CPU lacks `pclmulqdq`/`sse4.1`.
    pub(super) fn fold(state: u32, data: &[u8]) -> Option<(u32, &[u8])> {
        // `is_x86_feature_detected!` caches after the first probe, so the
        // per-call cost is one relaxed atomic load.
        if data.len() < 64
            || !std::arch::is_x86_feature_detected!("pclmulqdq")
            || !std::arch::is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        let (lanes, tail) = data.split_at(data.len() & !15);
        // SAFETY: pclmulqdq + sse4.1 were detected just above (sse2 is part
        // of the x86-64 baseline); `lanes` holds at least 64 bytes.
        Some((unsafe { fold_lanes(state, lanes) }, tail))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load(lane: &[u8]) -> __m128i {
        assert_eq!(lane.len(), 16);
        _mm_loadu_si128(lane.as_ptr() as *const __m128i)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn pair((lo, hi): (u64, u64)) -> __m128i {
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// Moves `acc` forward by the distance `k` encodes and adds `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    unsafe fn step(acc: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// # Safety
    /// Requires the `pclmulqdq` and `sse4.1` CPU features.  `data` must be
    /// a whole number of 16-byte lanes, at least four (checked: a shorter
    /// or ragged input panics, it does not read out of bounds).
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    unsafe fn fold_lanes(state: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= 64 && data.len() & 15 == 0);
        let mut blocks = data.chunks_exact(64);
        let first = blocks.next().expect("at least 64 bytes");
        // The running state enters as the first four message bytes.
        let mut x0 = _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(&first[16..32]);
        let mut x2 = load(&first[32..48]);
        let mut x3 = load(&first[48..]);

        let k = pair(FOLD_BY_4);
        for block in &mut blocks {
            x0 = step(x0, k, load(&block[..16]));
            x1 = step(x1, k, load(&block[16..32]));
            x2 = step(x2, k, load(&block[32..48]));
            x3 = step(x3, k, load(&block[48..]));
        }

        // Four lanes into one, then the remaining whole lanes.
        let k = pair(FOLD_BY_1);
        let mut x = step(x0, k, x1);
        x = step(x, k, x2);
        x = step(x, k, x3);
        for lane in blocks.remainder().chunks_exact(16) {
            x = step(x, k, load(lane));
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, !0, 0, !0);
        let x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k, 0x10));
        let x = _mm_xor_si128(
            _mm_srli_si128(x, 4),
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), pair((FOLD_96_TO_64, 0)), 0x00),
        );

        // Barrett reduction 64 → 32 bits.
        let k = pair(BARRETT);
        let t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), k, 0x10);
        let t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), k, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t), 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The byte-at-a-time loop the wire format was defined with — the
    /// reference both kernels must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    fn crc32_portable(data: &[u8]) -> u32 {
        !update_tables(!0, data)
    }

    #[test]
    fn every_kernel_agrees_with_the_bytewise_reference() {
        let mut rng = StdRng::seed_from_u64(0xC4C3_2017);
        let buf: Vec<u8> = (0..(1 << 20) + 3)
            .map(|_| rng.gen_range(0u8..=255))
            .collect();
        let lengths = (0..=1100).chain([1400, 16_384, 16_946, 65_537, 1 << 20]);
        for len in lengths {
            // Three start offsets: the kernels use unaligned loads, and the
            // lane/tail split must not depend on where the slice starts.
            for offset in [0usize, 1, 3] {
                let data = &buf[offset..offset + len];
                let want = crc32_bytewise(data);
                assert_eq!(crc32(data), want, "dispatching, len {len} offset {offset}");
                assert_eq!(
                    crc32_portable(data),
                    want,
                    "portable, len {len} offset {offset}"
                );
            }
        }
    }

    /// Answers computed outside this repository (zlib's `crc32`): a CRC that
    /// is merely self-consistent would pass every round-trip test and still
    /// break interoperability with every other speaker of the format.
    #[test]
    fn known_answers_from_outside_this_repository() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        for (len, want) in [
            (64usize, 0x38e4_dbb5u32),
            (129, 0x9a7c_58ad),
            (1400, 0xb510_8ea4),
            (16_946, 0x26c9_9de6),
            (1 << 20, 0xcc7a_0791),
        ] {
            let data: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
            assert_eq!(crc32(&data), want, "dispatching, len {len}");
            assert_eq!(crc32_portable(&data), want, "portable, len {len}");
            assert_eq!(crc32_bytewise(&data), want, "bytewise, len {len}");
        }
    }
}
