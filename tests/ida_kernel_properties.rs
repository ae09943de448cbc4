//! New-vs-old coding-path equivalence: the vectorized slice-kernel
//! disperse/reconstruct must be byte-identical to the scalar `Gf256`
//! matrix algebra it replaced, for the systematic generator, odd/padded
//! file lengths and arbitrary loss patterns.  Rows `0..m` of the generator
//! are the identity and every row `≥ m` is coded, so each case checks both
//! the view rows and the coded rows.
//!
//! The "old" path is reproduced here from the public `gf256` scalar API
//! exactly as `ida` used it before the kernel rewrite: pad to `m` blocks of
//! `Gf256`, multiply by [`Matrix::systematic`] via [`Matrix::mul_blocks`],
//! and on reconstruction invert the whole `m×m` received-row sub-matrix and
//! multiply again.  The production path ([`ida::Dispersal`]) runs on
//! split-nibble / bit-broadcast slice kernels, copies the source blocks it
//! received and solves only the `k` missing ones from a `k×k` system of the
//! coded blocks — none of which may change a single byte, at the small
//! widths and at the wire's (`m` up to 64, up to 8 coded blocks).

use gf256::{Gf256, Matrix};
use ida::{Dispersal, DispersedBlock, FileId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Property-test depth: `RTBDISK_PROP_CASES` (default 64).
fn prop_cases() -> usize {
    std::env::var("RTBDISK_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
        .max(1)
}

/// The pre-kernel scalar encode: zero-pad into `m` `Gf256` blocks, multiply
/// element-at-a-time, return the `n` payloads.
fn scalar_disperse(matrix: &Matrix, m: usize, data: &[u8]) -> Vec<Vec<u8>> {
    let block_len = data.len().div_ceil(m);
    let sources: Vec<Vec<Gf256>> = (0..m)
        .map(|i| {
            (0..block_len)
                .map(|k| Gf256::new(data.get(i * block_len + k).copied().unwrap_or(0)))
                .collect()
        })
        .collect();
    matrix
        .mul_blocks(&sources)
        .expect("shapes match")
        .into_iter()
        .map(|row| row.into_iter().map(Gf256::value).collect())
        .collect()
}

/// The pre-kernel scalar decode: select the first `m` distinct indices in
/// supplied order, invert that row sub-matrix, multiply, concatenate and
/// strip padding.
fn scalar_reconstruct(matrix: &Matrix, m: usize, blocks: &[&DispersedBlock]) -> Vec<u8> {
    let mut chosen: Vec<&DispersedBlock> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for b in blocks {
        if seen.insert(b.index()) {
            chosen.push(b);
            if chosen.len() == m {
                break;
            }
        }
    }
    assert_eq!(chosen.len(), m, "caller supplies enough distinct blocks");
    let rows: Vec<usize> = chosen.iter().map(|b| b.index() as usize).collect();
    let inverse = matrix
        .submatrix_rows(&rows)
        .and_then(|sub| sub.inverted())
        .expect("every m-row subset is invertible");
    let received: Vec<Vec<Gf256>> = chosen
        .iter()
        .map(|b| b.payload().iter().copied().map(Gf256::new).collect())
        .collect();
    let decoded = inverse.mul_blocks(&received).expect("shapes match");
    let original_len = chosen[0].header().original_len as usize;
    let mut out = Vec::with_capacity(original_len);
    for block in decoded {
        for g in block {
            if out.len() == original_len {
                return out;
            }
            out.push(g.value());
        }
    }
    out
}

/// Shuffles `items` in place (Fisher–Yates).
fn shuffle(rng: &mut StdRng, items: &mut [usize]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0usize..=i));
    }
}

#[test]
fn vectorized_coding_is_byte_identical_to_scalar_for_random_cases() {
    let mut rng = StdRng::seed_from_u64(0x1DA_C0DE);
    for case in 0..prop_cases() {
        let m = rng.gen_range(1usize..=8);
        let n = rng.gen_range(m..=m + 10);
        // Odd lengths on purpose: the final source block is partial, so the
        // implicit-zero-padding path is always exercised.
        let len = rng.gen_range(1usize..=400) * 2 - 1;
        let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..=255) as u8).collect();

        let dispersal = Dispersal::new(m, n).unwrap();
        let dispersed = dispersal.disperse(FileId(7), &data).unwrap();
        let matrix = Matrix::systematic(n, m).unwrap();

        // Encode equivalence: all n payloads, byte for byte.
        let scalar_blocks = scalar_disperse(&matrix, m, &data);
        for (index, expected) in scalar_blocks.iter().enumerate() {
            assert_eq!(
                &dispersed.blocks()[index].payload()[..],
                &expected[..],
                "case {case} ({m}/{n}, len {len}): encode block {index}"
            );
        }

        // Decode equivalence under a random loss pattern: a random subset of
        // m..=n survivors, in random order.
        let keep = rng.gen_range(m..=n);
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut rng, &mut order);
        let survivors: Vec<&DispersedBlock> = order[..keep]
            .iter()
            .map(|&i| &dispersed.blocks()[i])
            .collect();
        let owned: Vec<DispersedBlock> = survivors.iter().map(|&b| b.clone()).collect();
        let fast = dispersal.reconstruct(&owned).unwrap();
        let slow = scalar_reconstruct(&matrix, m, &survivors);
        assert_eq!(
            fast,
            slow,
            "case {case} ({m}/{n}, len {len}): decode from {:?}",
            &order[..keep]
        );
        assert_eq!(fast, data, "case {case}: decode must round-trip");
    }
}

#[test]
fn systematic_fast_paths_match_scalar_on_extreme_loss_patterns() {
    // The two extremes the fast path special-cases: all-systematic survivors
    // (pure copy) and all-coded survivors (every row solved), plus a mixed
    // half-and-half pattern.
    let mut rng = StdRng::seed_from_u64(0xFA57);
    for _ in 0..prop_cases().min(32) {
        let m = rng.gen_range(2usize..=6);
        let n = m + rng.gen_range(m..=m + 4); // enough coded rows for all-coded
        let len = rng.gen_range(3usize..=300) * 2 - 1;
        let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..=255) as u8).collect();
        let dispersal = Dispersal::new(m, n).unwrap();
        let dispersed = dispersal.disperse(FileId(3), &data).unwrap();
        let matrix = Matrix::systematic(n, m).unwrap();

        let patterns: Vec<Vec<usize>> = vec![
            (0..m).collect(),                               // systematic prefix verbatim
            (n - m..n).collect(),                           // all coded
            (0..m / 2).chain(m..m + (m - m / 2)).collect(), // mixed
        ];
        for pattern in patterns {
            let survivors: Vec<&DispersedBlock> =
                pattern.iter().map(|&i| &dispersed.blocks()[i]).collect();
            let owned: Vec<DispersedBlock> = survivors.iter().map(|&b| b.clone()).collect();
            let fast = dispersal.reconstruct(&owned).unwrap();
            assert_eq!(fast, scalar_reconstruct(&matrix, m, &survivors));
            assert_eq!(fast, data, "pattern {pattern:?}");
        }
    }
}

#[test]
fn wire_shapes_match_scalar_with_parity_heavy_losses() {
    // The widths a wire station disperses at (m up to 64, n − m from 1 to
    // 8), at short odd lengths, under two loss patterns in random order: a
    // random survivor set, and a parity-heavy one holding every coded block
    // that fits among the m chosen (k = min(m, n − m) blocks solved).
    let mut rng = StdRng::seed_from_u64(0x64_0068);
    for case in 0..prop_cases() {
        let m = rng.gen_range(1usize..=64);
        let n = m + rng.gen_range(1usize..=8);
        let len = rng.gen_range(1usize..=3 * m) * 2 - 1;
        let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..=255) as u8).collect();
        let dispersal = Dispersal::new(m, n).unwrap();
        let dispersed = dispersal.disperse(FileId(11), &data).unwrap();
        let matrix = Matrix::systematic(n, m).unwrap();
        for (index, expected) in scalar_disperse(&matrix, m, &data).iter().enumerate() {
            assert_eq!(
                &dispersed.blocks()[index].payload()[..],
                &expected[..],
                "case {case} ({m}/{n}, len {len}): encode block {index}"
            );
        }

        let mut random: Vec<usize> = (0..n).collect();
        shuffle(&mut rng, &mut random);
        random.truncate(rng.gen_range(m..=n));
        let (mut coded, mut sources): (Vec<usize>, Vec<usize>) =
            ((m..n).collect(), (0..m).collect());
        shuffle(&mut rng, &mut coded);
        shuffle(&mut rng, &mut sources);
        coded.truncate(m);
        sources.truncate(m - coded.len());
        let mut heavy: Vec<usize> = coded.into_iter().chain(sources).collect();
        shuffle(&mut rng, &mut heavy);

        for pattern in [random, heavy] {
            let survivors: Vec<&DispersedBlock> =
                pattern.iter().map(|&i| &dispersed.blocks()[i]).collect();
            let owned: Vec<DispersedBlock> = survivors.iter().map(|&b| b.clone()).collect();
            let fast = dispersal.reconstruct(&owned).unwrap();
            assert_eq!(
                fast,
                scalar_reconstruct(&matrix, m, &survivors),
                "case {case} ({m}/{n}, len {len}): decode from {pattern:?}"
            );
            assert_eq!(fast, data, "case {case}: decode must round-trip");
        }
    }
}
