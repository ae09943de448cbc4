//! `bnet` — fault-tolerant broadcast disks over real sockets.
//!
//! Everything else in this workspace simulates the paper's lossy broadcast
//! medium in-process; this crate replaces the simulation with the real
//! thing.  Lossy UDP *is* the erasure channel of conf_icde_BaruahB97: the
//! station publishes every served slot once per channel as a datagram,
//! clients passively listen, and whatever the network drops or corrupts is
//! exactly the erasure the IDA dispersal was provisioned to absorb — no
//! acknowledgements, no retransmission, byte-identical reconstruction.
//!
//! The crate has four layers, std-only:
//!
//! * [`wire`] — the versioned wire format: slot frames, control frames,
//!   fragmentation of oversized blocks, a hardened bounds-checked decoder,
//!   and the CRC-32 every packet ends with ([`wire::crc32`]: slicing
//!   tables everywhere, carry-less multiply where the CPU has it).
//! * [`NetServer`] / [`UdpFanout`] — the station side: a
//!   [`brt::SlotSink`] that fans every served slot out to the joined
//!   peers (a fragmented frame in one system call where the kernel does
//!   UDP segmentation offload), a datagram membership loop, and an
//!   optional TCP control plane
//!   answering subscriptions from a [`Directory`] it derives from the
//!   serving bank ([`directory_of`]) whenever the mode changes.
//! * [`ClientState`] — the socket-free client transport: it turns
//!   datagrams into blocks and losses into erasures for the
//!   [`bdisk::ClientSession`] it wraps.
//! * [`NetClient`] / [`ControlClient`] — the socket clients wrapping it.
//!
//! The station side records into a shared [`bobs::Telemetry`] (see
//! [`NetServer::bind`]); the TCP control plane serves the
//! registry as a live metrics endpoint ([`ControlClient::metrics`]) in
//! Prometheus-style text or JSON.
//!
//! Unsafe code follows `bauth`'s policy: denied crate-wide, allowed in
//! exactly two private modules, each behind one safe entry point that
//! states the safety argument where it calls in.  `crc::clmul` is the
//! `pclmulqdq` checksum kernel: it needs `core::arch` intrinsics, and its
//! entry point checks the CPU at run time.  `gso::sys` is the one foreign
//! call, `sendmsg` with a `UDP_SEGMENT` control message, which `std` does
//! not expose: it puts a fragmented frame on the air in one system call
//! (64-bit glibc Linux only; everywhere else, and whenever the kernel
//! refuses, the `send_to` loop beside it is the path).

// `deny`, not `forbid`: the two sanctioned exceptions, `crc::clmul` and
// `gso::sys`, carry their own scoped `allow` (see the crate docs).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod crc;
mod error;
mod gso;
mod server;
mod session;
pub mod wire;

pub use client::{ControlClient, NetClient, RecoveryConfig};
pub use error::NetError;
pub use server::{
    check_mtu, directory_of, Directory, NetConfig, NetHandle, NetServer, NetStats, UdpFanout,
};
pub use session::{ClientState, ClientStats};
pub use wire::{MetricsFormat, SubscriptionInfo, VERSION, VERSION_AUTH};
