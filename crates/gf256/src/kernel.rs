//! Slice-oriented bulk kernels over GF(2⁸).
//!
//! The matrix/vector API in [`crate::Matrix`] multiplies element-at-a-time
//! through the [`Gf256`] operator overloads — two table lookups plus a
//! branch per byte, with no way for the compiler to vectorize across the
//! log/exp tables.  Bulk coding (information dispersal over whole files) is
//! a *constant-coefficient* workload instead: the same coefficient `c`
//! multiplies an entire source slice into an accumulator,
//! `acc[i] ^= c · src[i]`.  That shape admits two much faster realisations,
//! both packaged behind [`MulTable`]:
//!
//! * **Split-nibble lookup tables.**  Multiplication by a fixed `c` is
//!   GF(2)-linear, so `c·x = c·(x_hi·16) ⊕ c·x_lo` and two 16-entry tables
//!   (one per nibble) replace the log/exp dance with two branch-free loads.
//!   These drive the scalar path (short slices and vector tails).
//! * **Bit-broadcast lanes.**  Writing `x = Σ xᵦ·2ᵇ` gives
//!   `c·x = Σ_{b: xᵦ=1} c·2ᵇ`, so with the eight products `c·2ᵇ`
//!   precomputed, a slice multiply is eight mask-and-XOR passes of pure
//!   byte-parallel bit logic — no lookups at all, which LLVM autovectorizes
//!   to full SIMD width (16 bytes/op on baseline x86-64, 32–64 with
//!   AVX2/AVX-512).  This drives the bulk path and is what makes dispersal
//!   run at memory-bandwidth-class speeds rather than lookup-latency speeds.
//!
//! The additive half of the field (`c = 1`) is plain XOR and goes through
//! [`xor_slice`]'s wide `u64` lanes.
//!
//! All kernels treat a source shorter than the accumulator as implicitly
//! zero-padded (a zero source byte contributes nothing), which lets callers
//! encode the final, partially-filled block of a file without materialising
//! the padding.

use crate::Gf256;

/// Bytes per vector-friendly chunk of the bit-broadcast bulk path.  32 keeps
/// the whole working set (source chunk, accumulator chunk, one broadcast
/// mask) in registers at AVX2 width while still letting baseline SSE2 unroll
/// it as two 16-byte lanes.
const LANE: usize = 32;

/// Precomputed multiplication tables for one fixed coefficient, cheap
/// enough to build per call (the `ida` crate builds them and keeps none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulTable {
    coeff: Gf256,
    /// `lo[x] = coeff · x` for `x ∈ [0, 16)`.
    lo: [u8; 16],
    /// `hi[x] = coeff · (x·16)` for `x ∈ [0, 16)`.
    hi: [u8; 16],
    /// `bits[b] = coeff · 2ᵇ` — the bit-broadcast products of the bulk path.
    bits: [u8; 8],
}

impl MulTable {
    /// Builds the split-nibble and bit-broadcast tables for `coeff`: the
    /// bits' products are successive doublings, and as multiplying by
    /// `coeff` is GF(2)-linear, each nibble's product XORs its bits'.
    pub fn new(coeff: Gf256) -> Self {
        let (mut bits, mut product) = ([0u8; 8], coeff);
        for bit in &mut bits {
            (*bit, product) = (product.value(), product.double());
        }
        let (mut lo, mut hi) = ([0u8; 16], [0u8; 16]);
        for x in 0..16 {
            for b in 0..4 {
                let set = 0u8.wrapping_sub((x >> b) as u8 & 1);
                lo[x] ^= bits[b] & set;
                hi[x] ^= bits[b + 4] & set;
            }
        }
        MulTable {
            coeff,
            lo,
            hi,
            bits,
        }
    }

    /// Scalar product `coeff · x` via the split-nibble tables (branch-free).
    #[inline]
    pub(crate) fn mul(&self, x: u8) -> u8 {
        self.lo[(x & 0x0f) as usize] ^ self.hi[(x >> 4) as usize]
    }

    /// `acc[i] ^= coeff · src[i]` for `i < min(src.len(), acc.len())`.
    ///
    /// A source shorter than the accumulator behaves as if zero-padded (the
    /// tail of `acc` is untouched).  `coeff = 0` is a no-op and `coeff = 1`
    /// degrades to `xor_slice`.
    pub fn mul_acc(&self, src: &[u8], acc: &mut [u8]) {
        if self.coeff.is_zero() {
            return;
        }
        if self.coeff == Gf256::ONE {
            xor_slice(src, acc);
            return;
        }
        let n = src.len().min(acc.len());
        let mut src_chunks = src[..n].chunks_exact(LANE);
        let mut acc_chunks = acc[..n].chunks_exact_mut(LANE);
        for (s, a) in (&mut src_chunks).zip(&mut acc_chunks) {
            // Bit-broadcast: eight byte-parallel mask-and-XOR passes.  The
            // `0 - bit` trick turns the extracted bit into a 0x00/0xFF mask
            // without a branch, so the whole chunk body is straight-line
            // byte logic the autovectorizer maps onto SIMD lanes.
            for (b, &c) in self.bits.iter().enumerate() {
                for j in 0..LANE {
                    let mask = 0u8.wrapping_sub((s[j] >> b) & 1);
                    a[j] ^= mask & c;
                }
            }
        }
        for (a, s) in acc_chunks
            .into_remainder()
            .iter_mut()
            .zip(src_chunks.remainder())
        {
            *a ^= self.mul(*s);
        }
    }
}

/// `acc[i] ^= src[i]` for `i < min(src.len(), acc.len())`, XORing eight
/// bytes at a time through `u64` lanes — the additive half of the field
/// (and the whole of a `coeff = 1` multiply).
pub(crate) fn xor_slice(src: &[u8], acc: &mut [u8]) {
    let n = src.len().min(acc.len());
    let mut src_chunks = src[..n].chunks_exact(8);
    let mut acc_chunks = acc[..n].chunks_exact_mut(8);
    for (s, a) in (&mut src_chunks).zip(&mut acc_chunks) {
        let s = u64::from_ne_bytes(s.try_into().expect("chunks_exact yields 8-byte slices"));
        let x = u64::from_ne_bytes((&*a).try_into().expect("chunks_exact yields 8-byte slices"));
        a.copy_from_slice(&(x ^ s).to_ne_bytes());
    }
    for (a, s) in acc_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        *a ^= *s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte value once, in an order with no structure the kernels
    /// could exploit.
    fn all_bytes_scrambled() -> Vec<u8> {
        (0..=255u8)
            .map(|i| i.wrapping_mul(167).wrapping_add(13))
            .collect()
    }

    #[test]
    fn scalar_table_mul_matches_gf256_exhaustively() {
        // The full 256×256 multiplication table, nibble-table vs. operator.
        for a in 0..=255u8 {
            let table = MulTable::new(Gf256::new(a));
            for b in 0..=255u8 {
                assert_eq!(
                    table.mul(b),
                    (Gf256::new(a) * Gf256::new(b)).value(),
                    "mismatch at {a} · {b}"
                );
            }
        }
    }

    #[test]
    fn mul_acc_matches_scalar_for_every_coefficient() {
        // Exhaustive over coefficients × all 256 source byte values, with a
        // slice long enough to hit the vector path, the u64 path and the
        // scalar tail (length 256 = 8 full LANE chunks, then offsets below).
        let src = all_bytes_scrambled();
        for c in 0..=255u8 {
            let coeff = Gf256::new(c);
            let table = MulTable::new(coeff);
            for len in [src.len(), LANE + 7, 8, 5, 1, 0] {
                let src = &src[..len];
                let mut acc: Vec<u8> = src.iter().map(|s| s.wrapping_mul(31)).collect();
                let expected: Vec<u8> = src
                    .iter()
                    .zip(&acc)
                    .map(|(&s, &a)| a ^ (coeff * Gf256::new(s)).value())
                    .collect();
                table.mul_acc(src, &mut acc);
                assert_eq!(acc, expected, "coeff {c}, len {len}");
            }
        }
    }

    #[test]
    fn short_sources_behave_as_zero_padded() {
        let table = MulTable::new(Gf256::new(0x53));
        let src = [7u8, 11, 13];
        let mut acc = vec![0xAAu8; 70];
        let snapshot = acc.clone();
        table.mul_acc(&src, &mut acc);
        for i in 0..3 {
            assert_eq!(acc[i], snapshot[i] ^ table.mul(src[i]));
        }
        assert_eq!(&acc[3..], &snapshot[3..], "tail must be untouched");
    }

    #[test]
    fn xor_slice_is_addition_with_wide_lanes() {
        let a = all_bytes_scrambled();
        for len in [256usize, 65, 8, 3, 0] {
            let mut acc: Vec<u8> = (0..len).map(|i| (i * 91 + 5) as u8).collect();
            let expected: Vec<u8> = acc.iter().zip(&a).map(|(&x, &y)| x ^ y).collect();
            xor_slice(&a[..len], &mut acc);
            assert_eq!(acc, expected, "len {len}");
        }
    }

    #[test]
    fn zero_and_one_coefficients_take_their_fast_paths() {
        let src = all_bytes_scrambled();
        let mut acc = vec![0x0Fu8; src.len()];
        let snapshot = acc.clone();
        MulTable::new(Gf256::ZERO).mul_acc(&src, &mut acc);
        assert_eq!(acc, snapshot, "zero coefficient is a no-op");
        MulTable::new(Gf256::ONE).mul_acc(&src, &mut acc);
        let expected: Vec<u8> = snapshot.iter().zip(&src).map(|(&a, &s)| a ^ s).collect();
        assert_eq!(acc, expected, "one coefficient is plain XOR");
    }
}
