//! Self-identifying dispersed blocks.
//!
//! Section 2.1 of the paper assumes every broadcast block carries two
//! identifiers: the data item (file) it belongs to, and its sequence number
//! among the dispersed blocks of that item ("this is block 4 out of 5").
//! [`BlockHeader`] captures exactly that, plus the dispersal parameters a
//! client needs to choose the correct inverse transformation.

use bauth::BlockProof;
use bytes::Bytes;
use std::sync::Arc;

/// Identifier of a broadcast data item (file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FileId(pub u32);

impl core::fmt::Display for FileId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// The self-identifying header attached to every dispersed block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockHeader {
    /// The data item this block belongs to.
    pub file: FileId,
    /// Sequence number of this block among the `n` dispersed blocks.
    pub index: u32,
    /// Reconstruction threshold: any `m` distinct blocks rebuild the file.
    pub m: u32,
    /// Total number of dispersed blocks that exist for this file.
    pub n: u32,
    /// Length, in bytes, of the original (pre-dispersal) file — needed to
    /// strip padding after reconstruction.
    pub original_len: u64,
}

/// A single dispersed block: header plus payload bytes.
///
/// The payload is reference-counted ([`Bytes`]) so a broadcast program can
/// cheaply repeat the same block many times per program data cycle without
/// copying the data.  A systematic block that lies wholly inside its file
/// is a view of the file's content ([`crate::Dispersal::disperse_bytes`]):
/// it shares that buffer and keeps the whole content alive for as long as
/// the block lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispersedBlock {
    header: BlockHeader,
    payload: Bytes,
    /// The block's Merkle inclusion proof under its file's commitment root,
    /// when the file was dispersed authenticated (`Arc`-shared: cloning a
    /// block never copies the path).
    proof: Option<Arc<BlockProof>>,
}

impl DispersedBlock {
    /// Creates a block from its header and payload (unauthenticated: no
    /// inclusion proof attached).
    pub fn new(header: BlockHeader, payload: Bytes) -> Self {
        DispersedBlock {
            header,
            payload,
            proof: None,
        }
    }

    /// Attaches a Merkle inclusion proof (disperse-time commitment, or a
    /// proof decoded off the wire alongside the block).
    pub fn with_proof(mut self, proof: Arc<BlockProof>) -> Self {
        self.proof = Some(proof);
        self
    }

    /// The block's inclusion proof under its file's commitment root, if it
    /// was dispersed (or delivered) authenticated.
    pub fn proof(&self) -> Option<&Arc<BlockProof>> {
        self.proof.as_ref()
    }

    /// The block header.
    pub fn header(&self) -> &BlockHeader {
        &self.header
    }

    /// The file this block belongs to.
    pub fn file(&self) -> FileId {
        self.header.file
    }

    /// The sequence number of this block (`0 ≤ index < n`).
    pub fn index(&self) -> u32 {
        self.header.index
    }

    /// The reconstruction threshold recorded in the header.
    pub fn threshold(&self) -> u32 {
        self.header.m
    }

    /// The payload bytes.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// `true` when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> BlockHeader {
        BlockHeader {
            file: FileId(3),
            index: 4,
            m: 5,
            n: 10,
            original_len: 123,
        }
    }

    #[test]
    fn accessors_expose_header_fields() {
        let b = DispersedBlock::new(header(), Bytes::from_static(b"abc"));
        assert_eq!(b.file(), FileId(3));
        assert_eq!(b.index(), 4);
        assert_eq!(b.threshold(), 5);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.header().original_len, 123);
    }

    #[test]
    fn cloning_shares_payload_storage() {
        let payload = Bytes::from(vec![9u8; 1024]);
        let b = DispersedBlock::new(header(), payload.clone());
        let c = b.clone();
        // `Bytes` clones share the same backing buffer.
        assert_eq!(c.payload().as_ptr(), payload.as_ptr());
    }

    #[test]
    fn file_id_display() {
        assert_eq!(FileId(42).to_string(), "F42");
    }
}
