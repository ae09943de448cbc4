//! Broadcast files: data items with real-time and fault-tolerance
//! requirements.

use ida::FileId;

/// The latency vector `d⃗ = [d⁽⁰⁾, d⁽¹⁾, …, d⁽ʳ⁾]` of a *generalized*
/// fault-tolerant real-time broadcast file (paper Section 4.1):
/// `d⁽ʲ⁾` is the worst-case latency (in block-transmission slots) tolerable
/// when `j` faults occur during the retrieval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyVector(Vec<u32>);

impl LatencyVector {
    /// Builds a latency vector; entries must be positive and there must be at
    /// least one (the fault-free latency `d⁽⁰⁾`).
    pub fn new(latencies: Vec<u32>) -> Option<Self> {
        if latencies.is_empty() || latencies.contains(&0) {
            return None;
        }
        Some(LatencyVector(latencies))
    }

    /// A "regular" real-time file: a single latency, no fault tolerance.
    pub fn uniform_zero_faults(latency: u32) -> Self {
        LatencyVector(vec![latency])
    }

    /// The latency tolerable with `j` faults, if specified.
    pub fn latency(&self, faults: usize) -> Option<u32> {
        self.0.get(faults).copied()
    }

    /// The fault-free latency `d⁽⁰⁾`.
    pub fn base_latency(&self) -> u32 {
        self.0[0]
    }

    /// The number of faults covered, `r` (the vector has `r + 1` entries).
    pub fn max_faults(&self) -> usize {
        self.0.len() - 1
    }

    /// All entries, in fault order.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }
}

/// A broadcast data item (file).
///
/// In the paper's notation a file `Fᵢ` has a size `mᵢ` (in blocks), a latency
/// `Tᵢ` (or, in the generalized model, a latency vector `d⃗ᵢ`), and — when it
/// is dispersed with AIDA — a dispersal width `nᵢ ≥ mᵢ` of which any `mᵢ`
/// blocks reconstruct the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastFile {
    /// The file identifier.
    pub id: FileId,
    /// A human-readable name (used by examples and experiment output).
    pub name: String,
    /// Size in blocks before dispersal (`mᵢ`).
    pub size_blocks: u32,
    /// Size of one block in bytes.
    pub block_bytes: u32,
    /// Number of dispersed blocks placed on the broadcast (`nᵢ`); equals
    /// `size_blocks` when the file is not dispersed.
    pub dispersed_blocks: u32,
    /// The latency vector (per-fault-level deadlines, in slots).
    pub latencies: LatencyVector,
}

impl BroadcastFile {
    /// Creates an undispersed file with a very loose default deadline (its
    /// own size); tighten it with [`BroadcastFile::with_latency_vector`].
    pub fn new(id: FileId, name: impl Into<String>, size_blocks: u32, block_bytes: u32) -> Self {
        BroadcastFile {
            id,
            name: name.into(),
            size_blocks,
            block_bytes,
            dispersed_blocks: size_blocks,
            latencies: LatencyVector::uniform_zero_faults(size_blocks.max(1)),
        }
    }

    /// Sets the dispersal width `nᵢ` (AIDA): any `size_blocks` of the
    /// `dispersed` blocks reconstruct the file.
    pub fn with_dispersal(mut self, dispersed: u32) -> Self {
        self.dispersed_blocks = dispersed.max(self.size_blocks);
        self
    }

    /// Sets the full generalized latency vector.
    pub fn with_latency_vector(mut self, latencies: LatencyVector) -> Self {
        self.latencies = latencies;
        self
    }

    /// `mᵢ`, the reconstruction threshold.
    pub fn threshold(&self) -> u32 {
        self.size_blocks
    }

    /// The redundancy `nᵢ − mᵢ` (number of faults masked within one data
    /// cycle visit).
    pub fn redundancy(&self) -> u32 {
        self.dispersed_blocks - self.size_blocks
    }

    /// Total size of the original file in bytes.
    pub fn total_bytes(&self) -> usize {
        self.size_blocks as usize * self.block_bytes as usize
    }
}

/// A set of broadcast files destined for the same broadcast disk.
///
/// Files keep their declaration order; lookups by id go through a sorted
/// index, so [`FileSet::get`] costs `O(log n)` however large the catalog.
#[derive(Clone, Default)]
pub struct FileSet {
    files: Vec<BroadcastFile>,
    /// `(id, position in files)`, sorted by id; the first file declared
    /// under an id wins.
    index: Vec<(FileId, usize)>,
}

impl FileSet {
    /// Builds a file set; ids must be unique.
    pub fn new(files: Vec<BroadcastFile>) -> Option<Self> {
        let set: FileSet = files.into_iter().collect();
        (set.index.len() == set.files.len()).then_some(set)
    }

    /// The files in declaration order.
    pub fn files(&self) -> &[BroadcastFile] {
        &self.files
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Looks a file up by id.
    pub fn get(&self, id: FileId) -> Option<&BroadcastFile> {
        let at = self.index.binary_search_by_key(&id, |(id, _)| *id).ok()?;
        Some(&self.files[self.index[at].1])
    }

    /// Total number of pre-dispersal blocks, `Σ mᵢ` — the broadcast period of
    /// a flat program over this set.
    pub fn total_blocks(&self) -> u32 {
        self.files.iter().map(|f| f.size_blocks).sum()
    }

    /// Total number of dispersed blocks, `Σ nᵢ` — the program data cycle of
    /// an AIDA flat program over this set.
    pub fn total_dispersed_blocks(&self) -> u32 {
        self.files.iter().map(|f| f.dispersed_blocks).sum()
    }
}

/// Collects files in order, without the uniqueness check of
/// [`FileSet::new`]: a repeated id is looked up as its first file.
impl FromIterator<BroadcastFile> for FileSet {
    fn from_iter<T: IntoIterator<Item = BroadcastFile>>(iter: T) -> Self {
        let files: Vec<BroadcastFile> = iter.into_iter().collect();
        let mut index: Vec<(FileId, usize)> = files.iter().map(|f| f.id).zip(0..).collect();
        // Stable, so equal ids stay in declaration order and the first wins.
        index.sort_by_key(|(id, _)| *id);
        index.dedup_by_key(|(id, _)| *id);
        FileSet { files, index }
    }
}

/// Two sets are equal when they list the same files in the same order (the
/// index follows from the files).
impl PartialEq for FileSet {
    fn eq(&self, other: &Self) -> bool {
        self.files == other.files
    }
}

impl Eq for FileSet {}

impl core::fmt::Debug for FileSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FileSet")
            .field("files", &self.files)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_vector_construction() {
        assert!(LatencyVector::new(vec![]).is_none());
        assert!(LatencyVector::new(vec![10, 0]).is_none());
        let v = LatencyVector::new(vec![100, 105, 110]).unwrap();
        assert_eq!(v.base_latency(), 100);
        assert_eq!(v.max_faults(), 2);
        assert_eq!(v.latency(1), Some(105));
        assert_eq!(v.latency(3), None);
        assert_eq!(v.as_slice(), &[100, 105, 110]);
    }

    #[test]
    fn uniform_latency_vectors() {
        let z = LatencyVector::uniform_zero_faults(9);
        assert_eq!(z.max_faults(), 0);
    }

    #[test]
    fn file_builders_and_accessors() {
        let f = BroadcastFile::new(FileId(1), "A", 5, 128)
            .with_dispersal(10)
            .with_latency_vector(LatencyVector::new(vec![40; 3]).unwrap());
        assert_eq!(f.threshold(), 5);
        assert_eq!(f.redundancy(), 5);
        assert_eq!(f.total_bytes(), 640);
        assert_eq!(f.latencies.max_faults(), 2);

        let plain = BroadcastFile::new(FileId(2), "B", 3, 128);
        assert_eq!(plain.redundancy(), 0);
    }

    #[test]
    fn dispersal_width_cannot_shrink_below_size() {
        let f = BroadcastFile::new(FileId(1), "A", 5, 64).with_dispersal(2);
        assert_eq!(f.dispersed_blocks, 5);
    }

    #[test]
    fn file_set_totals_match_paper_example() {
        // Paper Section 2.3: A (5 → 10 blocks), B (3 → 6 blocks):
        // broadcast period 8, program data cycle 16.
        let set = FileSet::new(vec![
            BroadcastFile::new(FileId(0), "A", 5, 64).with_dispersal(10),
            BroadcastFile::new(FileId(1), "B", 3, 64).with_dispersal(6),
        ])
        .unwrap();
        assert_eq!(set.total_blocks(), 8);
        assert_eq!(set.total_dispersed_blocks(), 16);
        assert_eq!(set.len(), 2);
        assert!(set.get(FileId(1)).is_some());
        assert!(set.get(FileId(9)).is_none());
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let dup = FileSet::new(vec![
            BroadcastFile::new(FileId(1), "A", 5, 64),
            BroadcastFile::new(FileId(1), "B", 3, 64),
        ]);
        assert!(dup.is_none());
    }

    #[test]
    fn lookups_go_through_the_index_in_any_declaration_order() {
        let ids = [7u32, 2, 9, 4, 1];
        let set = FileSet::new(
            ids.iter()
                .map(|&id| BroadcastFile::new(FileId(id), format!("f{id}"), id, 8))
                .collect(),
        )
        .unwrap();
        for id in ids {
            assert_eq!(set.get(FileId(id)).unwrap().size_blocks, id);
        }
        assert!(set.get(FileId(3)).is_none());
        assert_eq!(set.files()[0].id, FileId(7), "declaration order is kept");
        // Collected without the uniqueness check, a repeated id finds its
        // first file.
        let collected: FileSet = [("A", 5), ("B", 3)]
            .into_iter()
            .map(|(name, m)| BroadcastFile::new(FileId(1), name, m, 8))
            .collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected.get(FileId(1)).unwrap().name, "A");
    }
}
