//! # bdisk — the broadcast-disk model
//!
//! Broadcast disks (Zdonik, Acharya, Franklin et al.) use the abundant
//! *downstream* bandwidth from a server to its clients to emulate a storage
//! device: the server cyclically transmits data blocks and clients fetch them
//! "as they go by".  This crate implements the model the paper builds on:
//!
//! * [`BroadcastFile`] — a data item with a size in blocks, a real-time
//!   latency constraint and a fault-tolerance requirement;
//! * [`BroadcastProgram`] — the cyclic layout of blocks on the broadcast
//!   channel, including the distinction between the *broadcast period*
//!   (enough blocks of every file for one reconstruction) and the *program
//!   data cycle* (all dispersed blocks of every file), cf. paper Figure 6;
//! * flat programs (paper Figure 5), AIDA-based flat programs (Figure 6) and
//!   programs derived from pinwheel schedules (Sections 3–4);
//! * [`BroadcastServer`] — turns a program plus dispersed file contents into
//!   a stream of block transmissions;
//! * [`EpochBank`] — a bank of slot-synchronized broadcast channels with a
//!   file → channel routing table (the serving side of sharding), and the
//!   mode-transition primitive: per-channel *segment timelines* under epoch
//!   numbers, so broadcast programs hot-swap atomically at a slot boundary
//!   while unchanged channels stay byte-identical;
//! * [`ClientSession`] — the retrieval machine: a client retrieving one
//!   file from the broadcast, tolerant of lost blocks thanks to IDA
//!   redundancy, and the one place that decides whether collected blocks
//!   survive an epoch change;
//! * [`ChannelErrorModel`] — the reception-loss seam every slot driver
//!   samples per delivered block ([`ErrorModel`] for one shared process,
//!   [`NoErrors`] for a lossless channel).
//!
//! ## Quick example
//!
//! ```
//! use bdisk::{BroadcastFile, BroadcastProgram, FileSet, FlatOrder};
//! use ida::FileId;
//!
//! // Paper Section 2.3: file A has 5 blocks, file B has 3.
//! let files = FileSet::new(vec![
//!     BroadcastFile::new(FileId(0), "A", 5, 64).with_dispersal(10),
//!     BroadcastFile::new(FileId(1), "B", 3, 64).with_dispersal(6),
//! ]).unwrap();
//! let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
//! assert_eq!(program.broadcast_period(), 8);
//! assert_eq!(program.data_cycle(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod epoch;
mod file;
mod loss;
mod program;
mod server;

pub use client::{ClientSession, Ingest, Observation, RetrievalOutcome};
pub use epoch::{EpochBank, SwapApplied};
pub use file::{BroadcastFile, FileSet, LatencyVector};
pub use ida::FileId;
pub use loss::{ChannelErrorModel, ErrorModel, NoErrors};
pub use program::{BroadcastProgram, FlatOrder, ProgramEntry, ProgramError};
pub use server::{BroadcastServer, FileSource, ServerError, TransmissionRef};
