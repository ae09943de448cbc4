//! Seeded input generation.  Everything the program under test sees —
//! specifications, contents, request order, loss pattern — derives from the
//! workload seed here, and from nothing else.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rtbdisk::{Broadcast, FileId, GeneralizedFileSpec, Station};
use std::collections::BTreeMap;

/// The fixed part of a workload's catalog.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub files: u32,
    /// File size `m` in blocks.
    pub blocks: u32,
    pub block_bytes: u32,
    /// Latency vector `d⁽⁰⁾ … d⁽ʳ⁾` in slots.
    pub latencies: &'static [u32],
    pub authenticated: bool,
}

impl Shape {
    pub fn file_bytes(&self) -> usize {
        self.blocks as usize * self.block_bytes as usize
    }

    pub fn file_ids(&self) -> impl Iterator<Item = FileId> {
        (1..=self.files).map(FileId)
    }
}

/// Independent sub-streams of one workload seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    Contents,
    Requests,
    Loss,
    Refresh,
}

/// Derives the seed of one sub-stream (splitmix-style mixing, so adjacent
/// workload seeds do not yield correlated streams).
pub fn sub_seed(seed: u64, stream: Stream) -> u64 {
    let tag = match stream {
        Stream::Contents => 0x434f_4e54,
        Stream::Requests => 0x5245_5155,
        Stream::Loss => 0x4c4f_5353,
        Stream::Refresh => 0x5245_4652,
    };
    let mut z = seed ^ (tag as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` pseudo-random bytes.
pub fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    for chunk in out.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    out
}

/// The generated inputs of one workload run.
#[derive(Debug, Clone)]
pub struct Catalog {
    pub specs: Vec<GeneralizedFileSpec>,
    pub contents: BTreeMap<FileId, Vec<u8>>,
}

impl Catalog {
    pub fn generate(shape: &Shape, seed: u64) -> Catalog {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, Stream::Contents));
        let specs = shape
            .file_ids()
            .map(|id| {
                GeneralizedFileSpec::new(id, shape.blocks, shape.latencies.to_vec())
                    .expect("workload shapes are valid specifications")
                    .with_block_bytes(shape.block_bytes)
            })
            .collect();
        let contents = shape
            .file_ids()
            .map(|id| (id, random_bytes(&mut rng, shape.file_bytes())))
            .collect();
        Catalog { specs, contents }
    }

    /// Designs and loads a station from exactly these inputs.
    pub fn build_station(&self, authenticated: bool) -> Result<Station, String> {
        let mut builder = Broadcast::builder()
            .files(self.specs.iter().cloned())
            .authenticated(authenticated);
        for (file, bytes) in &self.contents {
            builder = builder.content(*file, bytes.clone());
        }
        builder.build().map_err(|e| format!("build: {e}"))
    }
}

/// The closed-loop request order: each next file is drawn uniformly, so the
/// mix of schedule phases a listener starts from does not depend on how a
/// particular permutation happens to line up with the broadcast program.
#[derive(Debug, Clone)]
pub struct Requests {
    rng: StdRng,
    files: u32,
}

impl Requests {
    pub fn new(shape: &Shape, seed: u64) -> Self {
        Requests {
            rng: StdRng::seed_from_u64(sub_seed(seed, Stream::Requests)),
            files: shape.files,
        }
    }

    pub fn next_file(&mut self) -> FileId {
        FileId(self.rng.gen_range(1..=self.files))
    }

    /// A uniform draw below `bound`, from the request stream (stagger of a
    /// fleet's request slots).
    pub fn below(&mut self, bound: usize) -> usize {
        self.rng.gen_range(0..bound.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        files: 5,
        blocks: 3,
        block_bytes: 64,
        latencies: &[12, 14],
        authenticated: false,
    };

    fn order(seed: u64) -> Vec<FileId> {
        let mut requests = Requests::new(&SHAPE, seed);
        (0..64).map(|_| requests.next_file()).collect()
    }

    fn drops(seed: u64) -> Vec<bool> {
        let mut impairer = rtbdisk::bfault::Impairer::new(
            rtbdisk::bfault::Impairments::loss(0.3),
            sub_seed(seed, Stream::Loss),
        );
        (0..256)
            .map(|_| impairer.apply(&[0u8; 32]).is_empty())
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let (a, b) = (Catalog::generate(&SHAPE, 9), Catalog::generate(&SHAPE, 9));
        assert_eq!(a.specs, b.specs);
        assert_eq!(a.contents, b.contents);
        assert_eq!(order(9), order(9));
        assert_eq!(drops(9), drops(9));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        let (a, b) = (Catalog::generate(&SHAPE, 9), Catalog::generate(&SHAPE, 10));
        // The specifications are the workload's shape, not its seed.
        assert_eq!(a.specs, b.specs);
        assert_ne!(a.contents, b.contents);
        assert_ne!(order(9), order(10));
        assert_ne!(drops(9), drops(10));
    }

    #[test]
    fn contents_match_the_shape_and_differ_between_files() {
        let catalog = Catalog::generate(&SHAPE, 1);
        assert_eq!(catalog.specs.len(), 5);
        assert!(catalog.contents.values().all(|c| c.len() == 3 * 64));
        assert_ne!(catalog.contents[&FileId(1)], catalog.contents[&FileId(2)]);
        assert!(order(1).iter().all(|f| (1..=5).contains(&f.0)));
    }

    #[test]
    fn sub_streams_are_distinct() {
        let seeds = [
            sub_seed(1, Stream::Contents),
            sub_seed(1, Stream::Requests),
            sub_seed(1, Stream::Loss),
            sub_seed(1, Stream::Refresh),
            sub_seed(2, Stream::Contents),
        ];
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
