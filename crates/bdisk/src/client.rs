//! The retrieval machine: one client retrieving one file from the broadcast
//! stream.
//!
//! A client that needs file `Fᵢ` starts listening at some slot and collects
//! blocks of that file as they go by.  With IDA dispersal any `mᵢ` *distinct*
//! blocks complete the retrieval; without dispersal (`nᵢ = mᵢ`) the client
//! effectively needs every one of the `mᵢ` source blocks.  A block reception
//! can fail (transmission error); the client simply keeps listening — the
//! whole point of the paper is how long that makes it wait.
//!
//! [`ClientSession`] is the one sans-IO model of that client.  The facade's
//! `Retrieval` (in-process and threaded drivers) and `bnet::ClientState`
//! (the network) wrap it with their transport only; every per-retrieval
//! fact lives here: the file and request slot, the dispersal parameters
//! `(m, n)`, the commitment root, the tuned `(channel, epoch)`, the
//! collected blocks, the erasure and verify-failure counts and the
//! completion slot.
//!
//! `(m, n)` comes from the caller, from [`ClientSession::retune`] or from
//! the header of the first stored block, whichever is first.  A block whose
//! header disagrees with it, or with the `original_len` and payload length
//! of the blocks already stored, is never stored — the consistency
//! `Dispersal::reconstruct` demands — so "complete" implies
//! "reconstructible".
//!
//! Across an epoch change [`ClientSession::retune`] applies the one
//! keep-or-restart rule: the collected blocks are kept only when `(m, n)`
//! **and** the commitment root are both unchanged (two absent roots count as
//! unchanged); otherwise collection starts again, the erasure count carried
//! forward.  A new root over the same `(m, n)` is a content refresh: the
//! blocks already held verified against the old content, and any `m` of
//! them mixed with blocks of the new content reconstruct bytes equal to
//! neither.

use crate::TransmissionRef;
use bauth::{BlockProof, Root};
use ida::{Dispersal, DispersedBlock, FileId, IdaError};
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

/// One unit of client-side block/erasure intake — everything a
/// [`ClientSession`] can learn about its file flows through
/// [`ClientSession::ingest`] as one of these, whether it came off an
/// in-process slot driver, a network transport, or out-of-band lag
/// accounting.
#[derive(Debug, Clone)]
pub enum Observation<'a> {
    /// One slot as heard on the channel: what was on the air (`None` for an
    /// idle slot) and whether reception succeeded — the in-process driver
    /// path, borrowing straight from the server.
    Slot {
        /// The channel's transmission this slot, if any.
        transmission: Option<TransmissionRef<'a>>,
        /// Whether the client's reception succeeded; a failed reception of a
        /// block of the session's file counts as an erasure.
        received_ok: bool,
    },
    /// One block delivered by a transport at `slot` — the wire path, where
    /// blocks arrive decoded from frames rather than borrowed from a server.
    Block {
        /// The slot the block was transmitted in.
        slot: usize,
        /// The delivered block.
        block: &'a DispersedBlock,
        /// Whether reception succeeded (transports usually only deliver
        /// intact frames, but the flag keeps the erasure bookkeeping in one
        /// place).
        received_ok: bool,
        /// An inclusion proof delivered alongside the block (e.g. decoded
        /// from a wire-v2 frame).  `None` falls back to the proof embedded
        /// in the block itself, if any.
        proof: Option<Arc<BlockProof>>,
    },
    /// `count` reception errors observed out of band — slots a lagging
    /// subscriber dropped while blocks of this file were on the air.
    Erasure {
        /// Number of erasures to book.
        count: usize,
    },
}

/// What one [`ClientSession::ingest`] call did with its observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// The observation completed the retrieval.
    Completed,
    /// A new distinct block was stored; the retrieval is still short of its
    /// threshold.
    Stored,
    /// Nothing for this session: idle slot, another file's block, a slot
    /// before the request, a duplicate index, a block whose header does not
    /// fit the blocks collected so far, or a session already complete.
    Ignored,
    /// The observation was booked as one or more erasures.
    Erased,
    /// The block failed commitment verification against the session's
    /// expected root and was booked as an erasure — the typed Byzantine
    /// outcome (corruption degrades to a loss the `n − m` budget absorbs).
    BadProof,
    /// The block was held back unverified, to be checked together with the
    /// next block of the file (see [`ClientSession::ingest`]).  It is not
    /// stored and not counted in [`ClientSession::blocks_received`].
    Held,
}

impl Ingest {
    /// `true` when the observation completed the retrieval.
    pub fn completed(self) -> bool {
        matches!(self, Ingest::Completed)
    }
}

/// The outcome of a completed retrieval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetrievalOutcome {
    /// The file that was retrieved.
    pub file: FileId,
    /// The slot at which the client started listening.
    pub request_slot: usize,
    /// The slot in which the final needed block was received.
    pub completion_slot: usize,
    /// Number of block receptions that failed while listening.
    pub errors_observed: usize,
    /// The reconstructed file contents.
    pub data: Vec<u8>,
}

impl RetrievalOutcome {
    /// The retrieval latency in slots, counted inclusively: a retrieval that
    /// completes in the very slot it was issued has latency 1.
    pub fn latency(&self) -> usize {
        self.completion_slot - self.request_slot + 1
    }
}

/// A client session retrieving a single file — the retrieval machine (see
/// the module docs for what it owns and its keep-or-restart rule).
#[derive(Debug, Clone)]
pub struct ClientSession {
    file: FileId,
    request_slot: usize,
    /// `m`, once known.
    threshold: Option<usize>,
    /// `n`, once known.
    width: Option<usize>,
    /// The file's Merkle commitment root, when the session verifies on
    /// receive: blocks that fail their inclusion proof are booked as
    /// erasures instead of stored.
    expected_root: Option<Root>,
    /// The `(channel, epoch)` the session is tuned to, once known.
    tuning: Option<(usize, u64)>,
    received: BTreeMap<u32, DispersedBlock>,
    /// A block of the file held back unverified, with its proof, until a
    /// second block arrives to share the leaf hashing (armed sessions only).
    held: Option<(DispersedBlock, Arc<BlockProof>)>,
    errors_observed: usize,
    verify_failures: usize,
    completed_at: Option<usize>,
}

impl ClientSession {
    /// Starts a session for `file` at `request_slot`.  `threshold` is the
    /// file's reconstruction threshold `m` when the caller knows it; 0
    /// leaves `(m, n)` to [`ClientSession::retune`] or the first block.
    pub fn new(file: FileId, threshold: usize, request_slot: usize) -> Self {
        ClientSession {
            file,
            request_slot,
            threshold: (threshold > 0).then_some(threshold),
            width: None,
            expected_root: None,
            tuning: None,
            received: BTreeMap::new(),
            held: None,
            errors_observed: 0,
            verify_failures: 0,
            completed_at: None,
        }
    }

    /// Tunes the session to `channel` under `epoch` — at subscription, or
    /// across an epoch change — with the file's dispersal parameters there
    /// (`None`: not stated, keep what the session knows) and the commitment
    /// root served there (`None`: unauthenticated).
    ///
    /// The one keep-or-restart rule: the collected blocks survive only when
    /// `(m, n)` and the root are both unchanged; otherwise they are dropped
    /// and collection starts again, every erasure and verify failure
    /// observed so far carried forward.  A block held back unverified is
    /// first checked against the root it arrived under, so it is kept or
    /// booked exactly as if it had been verified on arrival.  A completed
    /// session ignores it.
    pub fn retune(
        &mut self,
        channel: usize,
        epoch: u64,
        params: Option<(usize, usize)>,
        root: Option<Root>,
    ) {
        if self.is_complete() {
            return;
        }
        self.settle();
        let params = params.filter(|&(m, n)| (1..=n).contains(&m));
        if params.is_some_and(|p| self.params() != Some(p)) || root != self.expected_root {
            self.received.clear();
        }
        if let Some((m, n)) = params {
            (self.threshold, self.width) = (Some(m), Some(n));
        }
        self.expected_root = root;
        self.tuning = Some((channel, epoch));
    }

    /// Arms verify-on-receive: every subsequently ingested block must carry
    /// an inclusion proof that verifies against `root`, or it is booked as
    /// an erasure ([`Ingest::BadProof`]).  Blocks already stored are kept —
    /// arm the root before feeding the session.
    pub fn require_root(&mut self, root: Root) {
        self.settle();
        self.expected_root = Some(root);
    }

    /// The dispersal parameters `(m, n)`, once both are known.
    pub fn params(&self) -> Option<(usize, usize)> {
        self.threshold.zip(self.width)
    }

    /// The channel the session is tuned to, once known.
    pub fn channel(&self) -> Option<usize> {
        self.tuning.map(|(channel, _)| channel)
    }

    /// The epoch of the channel's program the session is tuned to, once
    /// known.
    pub fn epoch(&self) -> Option<u64> {
        self.tuning.map(|(_, epoch)| epoch)
    }

    /// The slot at which the client started listening.
    pub fn request_slot(&self) -> usize {
        self.request_slot
    }

    /// The commitment root this session verifies against, if armed.
    pub fn expected_root(&self) -> Option<Root> {
        self.expected_root
    }

    /// Number of blocks that failed commitment verification (each also
    /// counted in [`ClientSession::errors_observed`]).
    pub fn verify_failures(&self) -> usize {
        self.verify_failures
    }

    /// The file being retrieved.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Number of distinct blocks received so far (verified, when a root is
    /// armed; a block held back unverified is not counted).
    pub fn blocks_received(&self) -> usize {
        self.received.len()
    }

    /// Whether a block of the session's file with this `index` could still
    /// be stored: the session is not complete and holds no block of that
    /// index.  A transport asks before it pays for a block's bytes.
    pub fn needs(&self, index: u32) -> bool {
        !self.is_complete() && !self.received.contains_key(&index)
    }

    /// Number of failed receptions observed so far.
    pub fn errors_observed(&self) -> usize {
        self.errors_observed
    }

    /// `true` once enough distinct blocks have been received.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// The single block/erasure intake of the session — every way a client
    /// learns something about its file funnels through here, so erasure
    /// bookkeeping, duplicate suppression and commitment verification live
    /// in exactly one audited place.
    ///
    /// * [`Observation::Slot`] — one slot as heard on the channel (idle
    ///   slots, other files' blocks and pre-request slots are
    ///   [`Ingest::Ignored`]);
    /// * [`Observation::Block`] — one transport-delivered block, optionally
    ///   with a wire-carried inclusion proof;
    /// * [`Observation::Erasure`] — out-of-band erasures (lag accounting).
    ///
    /// A block whose index the session already holds is
    /// [`Ingest::Ignored`] before any hashing, whatever its bytes.
    ///
    /// When a root is armed ([`ClientSession::require_root`]), every block
    /// must verify against it before it is stored; a failure is booked as
    /// an erasure and reported as [`Ingest::BadProof`] so callers can count
    /// it distinctly (it is the Byzantine signal, not a mere loss).  To
    /// hash leaves two at a time, an armed session that already stores a
    /// block holds one more back unverified ([`Ingest::Held`]: not stored,
    /// not counted, never reconstructed) and checks it together with the
    /// next block of the file.  A block is checked at once, with any held
    /// one, when it is the first to be stored, when it could complete the
    /// session (stored + held + 1 ≥ `m`), or when it repeats the held
    /// index (the held copy is then checked first, as if alone).  The
    /// outcome reports the observed block; a held block that fails is
    /// booked, once, in the call that checks it, and shows in
    /// [`ClientSession::verify_failures`].  So the completion slot, the
    /// stored blocks and, from completion on, the error counts equal those
    /// of checking every block on arrival.
    pub fn ingest(&mut self, observation: Observation<'_>) -> Ingest {
        match observation {
            Observation::Erasure { count } => {
                if self.is_complete() || count == 0 {
                    return Ingest::Ignored;
                }
                self.errors_observed += count;
                Ingest::Erased
            }
            Observation::Slot {
                transmission,
                received_ok,
            } => match transmission {
                Some(tx) => self.ingest_block(tx.slot, tx.block, received_ok, None),
                None => Ingest::Ignored,
            },
            Observation::Block {
                slot,
                block,
                received_ok,
                proof,
            } => self.ingest_block(slot, block, received_ok, proof.as_ref()),
        }
    }

    fn ingest_block(
        &mut self,
        slot: usize,
        block: &DispersedBlock,
        received_ok: bool,
        proof: Option<&Arc<BlockProof>>,
    ) -> Ingest {
        if self.is_complete() {
            return Ingest::Ignored;
        }
        if slot < self.request_slot || block.file() != self.file {
            return Ingest::Ignored;
        }
        if !received_ok {
            self.errors_observed += 1;
            return Ingest::Erased;
        }
        if !self.fits(block) {
            return Ingest::Ignored;
        }
        match self.expected_root {
            Some(root) => self.verify_and_store(root, slot, block, proof),
            None => self.store(slot, block),
        }
    }

    /// Stores `block` once it verifies against `root` — alone, with the
    /// block held back, or held back itself (see [`ClientSession::ingest`]).
    fn verify_and_store(
        &mut self,
        root: Root,
        slot: usize,
        block: &DispersedBlock,
        proof: Option<&Arc<BlockProof>>,
    ) -> Ingest {
        if self.received.contains_key(&block.index()) {
            return Ingest::Ignored;
        }
        if self
            .held
            .as_ref()
            .is_some_and(|(held, _)| held.index() == block.index())
        {
            self.settle();
            if self.received.contains_key(&block.index()) {
                return Ingest::Ignored;
            }
        }
        let Some(proof) = proof.or(block.proof()) else {
            self.reject();
            return Ingest::BadProof;
        };
        let verified = match self.held.take() {
            None if !self.received.is_empty()
                && self.received.len() + 1 < block.threshold() as usize =>
            {
                self.held = Some((block.clone(), Arc::clone(proof)));
                return Ingest::Held;
            }
            None => verify(&root, block, proof),
            Some((held, held_proof)) => {
                let h = held.header();
                debug_assert!(
                    (h.m, h.n, h.original_len, held.len())
                        == (
                            block.threshold(),
                            block.header().n,
                            block.header().original_len,
                            block.len()
                        ),
                    "held and new blocks both fit the stored ones"
                );
                let [held_ok, ok] = bauth::verify_block_pair(
                    &root,
                    h.file.0,
                    h.m,
                    h.n,
                    h.original_len,
                    [h.index, block.index()],
                    [held.payload(), block.payload()],
                    [&held_proof, proof],
                );
                if held_ok {
                    self.received.insert(held.index(), held);
                } else {
                    self.reject();
                }
                ok
            }
        };
        if !verified {
            self.reject();
            return Ingest::BadProof;
        }
        self.store(slot, block)
    }

    /// Stores a block of an index not yet held, completing the session at
    /// `slot` when it is the `m`-th.
    fn store(&mut self, slot: usize, block: &DispersedBlock) -> Ingest {
        let Entry::Vacant(entry) = self.received.entry(block.index()) else {
            return Ingest::Ignored;
        };
        entry.insert(block.clone());
        let h = block.header();
        let m = *self.threshold.get_or_insert(h.m as usize);
        self.width.get_or_insert(h.n as usize);
        if self.received.len() >= m {
            self.completed_at = Some(slot);
            return Ingest::Completed;
        }
        Ingest::Stored
    }

    /// Checks a held-back block alone, against the armed root: stored when
    /// it verifies (a held block can never complete the session), booked
    /// otherwise.
    fn settle(&mut self) {
        let Some((held, proof)) = self.held.take() else {
            return;
        };
        let root = self
            .expected_root
            .expect("a block is held only under a root");
        if verify(&root, &held, &proof) {
            self.received.insert(held.index(), held);
        } else {
            self.reject();
        }
    }

    /// Books one block that failed commitment verification.
    fn reject(&mut self) {
        self.errors_observed += 1;
        self.verify_failures += 1;
    }

    /// Whether `block` can join the blocks collected so far: its header
    /// agrees with the known `(m, n)` and with the `original_len` and
    /// payload length of the blocks already stored.
    fn fits(&self, block: &DispersedBlock) -> bool {
        let h = block.header();
        self.threshold.is_none_or(|m| m == h.m as usize)
            && self.width.is_none_or(|n| n == h.n as usize)
            && self.received.first_key_value().is_none_or(|(_, first)| {
                first.header().original_len == h.original_len && first.len() == block.len()
            })
    }

    /// Finishes the session: reconstructs the file from the received blocks.
    ///
    /// Returns an IDA error if called before enough blocks were received.
    pub fn finish(&self, dispersal: &Dispersal) -> Result<RetrievalOutcome, IdaError> {
        let blocks: Vec<DispersedBlock> = self.received.values().cloned().collect();
        let data = dispersal.reconstruct(&blocks)?;
        Ok(RetrievalOutcome {
            file: self.file,
            request_slot: self.request_slot,
            completion_slot: self
                .completed_at
                .expect("reconstruct succeeded, so the session completed"),
            errors_observed: self.errors_observed,
            data,
        })
    }
}

/// Whether `block` verifies against `root` under `proof`.
fn verify(root: &Root, block: &DispersedBlock, proof: &BlockProof) -> bool {
    let h = block.header();
    bauth::verify_block(
        root,
        h.file.0,
        h.index,
        h.m,
        h.n,
        h.original_len,
        block.payload(),
        proof,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BroadcastFile, BroadcastProgram, BroadcastServer, FileSet, FlatOrder};

    /// Test shorthand: one slot of the broadcast into the session.
    fn hear(session: &mut ClientSession, tx: Option<TransmissionRef<'_>>, ok: bool) -> Ingest {
        session.ingest(Observation::Slot {
            transmission: tx,
            received_ok: ok,
        })
    }

    fn setup() -> (FileSet, BroadcastServer, Dispersal) {
        let files = FileSet::new(vec![
            BroadcastFile::new(FileId(0), "A", 5, 16).with_dispersal(10),
            BroadcastFile::new(FileId(1), "B", 3, 16).with_dispersal(6),
        ])
        .unwrap();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        let server = BroadcastServer::with_synthetic_contents(&files, program).unwrap();
        let dispersal = Dispersal::new(5, 10).unwrap();
        (files, server, dispersal)
    }

    #[test]
    fn fault_free_retrieval_completes_within_one_period() {
        let (_, server, dispersal) = setup();
        let mut session = ClientSession::new(FileId(0), 5, 0);
        let mut slot = 0;
        while !session.is_complete() {
            let tx = server.transmit_ref(slot);
            hear(&mut session, tx, true);
            slot += 1;
            assert!(slot <= 16, "retrieval did not complete in a data cycle");
        }
        let outcome = session.finish(&dispersal).unwrap();
        assert_eq!(outcome.errors_observed, 0);
        assert!(
            outcome.latency() <= 8,
            "latency {} > broadcast period",
            outcome.latency()
        );
        // The reconstruction matches the server's original content.
        let expected = {
            let df = server.dispersed(FileId(0)).unwrap();
            dispersal.reconstruct(df.blocks()).unwrap()
        };
        assert_eq!(outcome.data, expected);
    }

    #[test]
    fn a_lost_block_only_costs_a_few_slots_with_ida() {
        let (_, server, dispersal) = setup();
        // Fail the first reception of a block of file A, succeed afterwards.
        let mut session = ClientSession::new(FileId(0), 5, 0);
        let mut failed = false;
        let mut slot = 0;
        while !session.is_complete() {
            let tx = server.transmit_ref(slot);
            let ok = if !failed && tx.map(|t| t.block.file()) == Some(FileId(0)) {
                failed = true;
                false
            } else {
                true
            };
            hear(&mut session, tx, ok);
            slot += 1;
        }
        let outcome = session.finish(&dispersal).unwrap();
        assert_eq!(outcome.errors_observed, 1);
        // Paper Figure 7: one error costs at most 3 extra slots in the
        // AIDA-based program (worst case), so the latency stays well below a
        // full extra broadcast period.
        assert!(outcome.latency() <= 8 + 3, "latency {}", outcome.latency());
    }

    #[test]
    fn duplicate_blocks_do_not_complete_a_session() {
        let (_, _, _) = setup();
        let files = FileSet::new(vec![
            BroadcastFile::new(FileId(0), "A", 2, 8).with_dispersal(2)
        ])
        .unwrap();
        let program = BroadcastProgram::flat(&files, FlatOrder::Spread).unwrap();
        let server = BroadcastServer::with_synthetic_contents(&files, program).unwrap();
        let mut session = ClientSession::new(FileId(0), 2, 0);
        // Feed the same slot repeatedly: only one distinct block arrives.
        let tx = server.transmit_ref(0);
        assert_eq!(hear(&mut session, tx, true), Ingest::Stored);
        for _ in 0..4 {
            assert_eq!(hear(&mut session, tx, true), Ingest::Ignored);
        }
        assert_eq!(session.blocks_received(), 1);
        assert!(!session.is_complete());
    }

    #[test]
    fn blocks_of_other_files_are_ignored() {
        let (_, server, _) = setup();
        let mut session = ClientSession::new(FileId(1), 3, 0);
        // Slot 0 carries A1 in the spread layout; it must not count for B.
        let tx = server.transmit_ref(0);
        assert_eq!(tx.unwrap().block.file(), FileId(0));
        assert_eq!(hear(&mut session, tx, true), Ingest::Ignored);
        assert_eq!(session.blocks_received(), 0);
    }

    #[test]
    fn finishing_early_fails_cleanly() {
        let (_, server, dispersal) = setup();
        let mut session = ClientSession::new(FileId(0), 5, 0);
        hear(&mut session, server.transmit_ref(0), true);
        assert!(session.finish(&dispersal).is_err());
    }

    #[test]
    fn latency_is_inclusive_of_the_completion_slot() {
        let outcome = RetrievalOutcome {
            file: FileId(0),
            request_slot: 10,
            completion_slot: 14,
            errors_observed: 0,
            data: vec![],
        };
        assert_eq!(outcome.latency(), 5);
    }

    #[test]
    fn observation_after_completion_is_a_no_op() {
        let (_, server, _) = setup();
        let mut session = ClientSession::new(FileId(0), 5, 0);
        assert!(!session.is_complete());
        let mut slot = 0;
        while !session.is_complete() {
            hear(&mut session, server.transmit_ref(slot), true);
            slot += 1;
        }
        let before = session.blocks_received();
        assert_eq!(
            hear(&mut session, server.transmit_ref(slot), true),
            Ingest::Ignored
        );
        assert_eq!(session.blocks_received(), before);
        // A completed session also ignores out-of-band erasures.
        assert_eq!(
            session.ingest(Observation::Erasure { count: 3 }),
            Ingest::Ignored
        );
        assert_eq!(session.errors_observed(), 0);
    }

    #[test]
    fn erasure_observations_book_errors() {
        let mut session = ClientSession::new(FileId(0), 5, 0);
        assert_eq!(
            session.ingest(Observation::Erasure { count: 2 }),
            Ingest::Erased
        );
        assert_eq!(
            session.ingest(Observation::Erasure { count: 0 }),
            Ingest::Ignored
        );
        assert_eq!(session.errors_observed(), 2);
    }

    #[test]
    fn armed_sessions_verify_on_receive() {
        use bytes::Bytes;
        let d = Dispersal::authenticated(3, 6).unwrap();
        let data: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let df = d.disperse(FileId(7), &data).unwrap();
        let root = df.commitment_root().unwrap();

        let mut session = ClientSession::new(FileId(7), 3, 0);
        session.require_root(root);
        assert_eq!(session.expected_root(), Some(root));

        // A corrupted payload under the real proof: booked as an erasure,
        // never stored.
        let good = &df.blocks()[0];
        let mut tampered = good.payload().to_vec();
        tampered[0] ^= 0xFF;
        let bad = ida::DispersedBlock::new(*good.header(), Bytes::from(tampered))
            .with_proof(good.proof().unwrap().clone());
        assert_eq!(
            session.ingest(Observation::Block {
                slot: 0,
                block: &bad,
                received_ok: true,
                proof: None,
            }),
            Ingest::BadProof
        );
        assert_eq!(session.blocks_received(), 0);
        assert_eq!(session.errors_observed(), 1);
        assert_eq!(session.verify_failures(), 1);

        // A proofless block fails too (an unauthenticated sender cannot
        // satisfy an armed session).
        let bare = ida::DispersedBlock::new(*good.header(), good.payload().clone());
        assert_eq!(
            session.ingest(Observation::Block {
                slot: 1,
                block: &bare,
                received_ok: true,
                proof: None,
            }),
            Ingest::BadProof
        );

        // The authentic blocks complete the retrieval byte-identically; a
        // wire-carried proof (explicit field) works like an embedded one.
        // The first is checked alone, the second is held back and checked
        // with the third, which completes the session.
        let expected = [Ingest::Stored, Ingest::Held, Ingest::Completed];
        for (i, b) in df.blocks().iter().take(3).enumerate() {
            let outcome = session.ingest(Observation::Block {
                slot: 2 + i,
                block: &ida::DispersedBlock::new(*b.header(), b.payload().clone()),
                received_ok: true,
                proof: b.proof().cloned(),
            });
            assert_eq!(outcome, expected[i], "block {i}");
        }
        let outcome = session.finish(&d).unwrap();
        assert_eq!(outcome.data, data);
        assert_eq!(outcome.errors_observed, 2);
        assert_eq!(session.verify_failures(), 2);
    }

    /// A copy of an index the session holds is ignored before hashing, so
    /// a tampered copy costs nothing; the same for a copy of the index
    /// held back unverified, once the held copy checks out.
    #[test]
    fn a_tampered_duplicate_is_ignored_unhashed_and_unbooked() {
        use bytes::Bytes;
        let d = Dispersal::authenticated(4, 8).unwrap();
        let df = d.disperse(FileId(3), &[0x3Cu8; 400]).unwrap();
        let root = df.commitment_root().unwrap();
        let tamper = |b: &DispersedBlock| {
            let mut payload = b.payload().to_vec();
            payload[1] ^= 0x80;
            DispersedBlock::new(*b.header(), Bytes::from(payload))
                .with_proof(b.proof().unwrap().clone())
        };
        let mut session = ClientSession::new(FileId(3), 0, 0);
        session.require_root(root);
        let blocks = df.blocks();
        assert_eq!(block_in(&mut session, 0, &blocks[0]), Ingest::Stored);
        assert!(!session.needs(0) && session.needs(1));
        assert_eq!(
            block_in(&mut session, 1, &tamper(&blocks[0])),
            Ingest::Ignored
        );
        assert_eq!(block_in(&mut session, 2, &blocks[1]), Ingest::Held);
        assert_eq!(
            block_in(&mut session, 3, &tamper(&blocks[1])),
            Ingest::Ignored
        );
        assert_eq!(session.blocks_received(), 2, "the held copy checked out");
        assert_eq!(
            (session.errors_observed(), session.verify_failures()),
            (0, 0)
        );
        assert_eq!(block_in(&mut session, 4, &blocks[2]), Ingest::Held);
        assert_eq!(block_in(&mut session, 5, &blocks[3]), Ingest::Completed);
        let outcome = session.finish(&d).unwrap();
        assert_eq!(
            (outcome.data, outcome.errors_observed),
            (vec![0x3C; 400], 0)
        );
    }

    fn block_in(session: &mut ClientSession, slot: usize, block: &DispersedBlock) -> Ingest {
        session.ingest(Observation::Block {
            slot,
            block,
            received_ok: true,
            proof: None,
        })
    }

    /// The one keep-or-restart rule, row by row.  Every session books an
    /// erasure, tunes to channel 0 / epoch 1 (armed with `armed`, stating
    /// `known` as its `(m, n)`) and stores `held` verified blocks of
    /// content A; then it retunes to channel 1 / epoch 2 with `params` and
    /// `root`.
    #[test]
    fn retune_keeps_blocks_only_when_params_and_root_are_unchanged() {
        let d = Dispersal::authenticated(3, 6).unwrap();
        let content = |salt: u8| -> Vec<u8> { (0..90u8).map(|i| i ^ salt).collect() };
        let a = d.disperse(FileId(1), &content(0)).unwrap();
        let root_a = a.commitment_root();
        let root_b = d
            .disperse(FileId(1), &content(0x5A))
            .unwrap()
            .commitment_root();
        assert_ne!(root_a, root_b);
        struct Row {
            name: &'static str,
            armed: Option<Root>,
            known: Option<(usize, usize)>,
            held: usize,
            params: Option<(usize, usize)>,
            root: Option<Root>,
            kept: bool,
        }
        #[rustfmt::skip]
        let rows = [
            Row { name: "same (m, n) and same root", armed: root_a, known: Some((3, 6)), held: 2, params: Some((3, 6)), root: root_a, kept: true },
            Row { name: "same (m, n) and new root", armed: root_a, known: Some((3, 6)), held: 2, params: Some((3, 6)), root: root_b, kept: false },
            Row { name: "new (m, n)", armed: None, known: Some((3, 6)), held: 2, params: Some((2, 4)), root: None, kept: false },
            Row { name: "no root on either side", armed: None, known: Some((3, 6)), held: 2, params: Some((3, 6)), root: None, kept: true },
            Row { name: "erasures before (m, n) was known", armed: root_a, known: None, held: 2, params: Some((3, 6)), root: root_a, kept: true },
            Row { name: "retune after completion", armed: root_a, known: Some((3, 6)), held: 3, params: Some((2, 4)), root: root_b, kept: true },
        ];
        for row in rows {
            let name = row.name;
            let mut session = ClientSession::new(FileId(1), 0, 0);
            session.ingest(Observation::Erasure { count: 1 });
            session.retune(0, 1, row.known, row.armed);
            for (slot, block) in a.blocks()[..row.held].iter().enumerate() {
                block_in(&mut session, slot, block);
            }
            assert_eq!(session.params(), Some((3, 6)), "{name}");
            session.retune(1, 2, row.params, row.root);

            let complete = row.held == 3;
            let kept = if row.kept { row.held } else { 0 };
            assert_eq!(session.blocks_received(), kept, "{name}: kept blocks");
            assert_eq!(session.errors_observed(), 1, "{name}: errors carried");
            assert_eq!(session.is_complete(), complete, "{name}: completion");
            let tuned = if complete { (0, 1) } else { (1, 2) };
            assert_eq!(
                (session.channel(), session.epoch()),
                (Some(tuned.0), Some(tuned.1)),
                "{name}: tuning"
            );
            if complete {
                let outcome = session.finish(&d).unwrap();
                assert_eq!((outcome.data, outcome.errors_observed), (content(0), 1));
            } else {
                assert_eq!(session.params(), row.params, "{name}: (m, n)");
                assert_eq!(session.expected_root(), row.root, "{name}: root");
            }
        }
    }

    #[test]
    fn blocks_that_do_not_fit_the_collected_ones_are_ignored() {
        let d = Dispersal::new(2, 4).unwrap();
        let df = d.disperse(FileId(1), &[7u8; 64]).unwrap();
        let mut session = ClientSession::new(FileId(1), 0, 0);
        assert_eq!(block_in(&mut session, 0, &df.blocks()[0]), Ingest::Stored);
        assert_eq!(session.params(), Some((2, 4)), "(m, n) from the header");
        // Same (m, n), another original length and payload length: its
        // bytes cannot be solved together with the stored block's.
        let longer = d.disperse(FileId(1), &[7u8; 80]).unwrap();
        assert_eq!(
            block_in(&mut session, 1, &longer.blocks()[1]),
            Ingest::Ignored
        );
        assert_eq!(session.blocks_received(), 1);
        assert_eq!(session.errors_observed(), 0, "a misfit is not an erasure");
        assert!(!session.is_complete());
        assert_eq!(
            block_in(&mut session, 2, &df.blocks()[1]),
            Ingest::Completed
        );
        assert_eq!(session.finish(&d).unwrap().data, vec![7u8; 64]);
    }
}
