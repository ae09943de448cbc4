//! The `bnet` wire format, versions 1 and 2.
//!
//! Every datagram is one *packet*: a fixed prefix (magic `b"BNET"`, version
//! byte, kind byte), a kind-specific body, and a trailing CRC-32 (IEEE) over
//! everything before it.  All integers are little-endian.
//!
//! The checksum is [`crc32`].  A station computes it twice over every
//! wire byte of a fragmented frame — the whole frame and each fragment when
//! [`datagrams`] seals them.  A client checks every datagram's, and the
//! reassembled frame's only for a frame it keeps: fragment 0 carries the
//! slot header, so a client drops a frame of another file (or of a block
//! it already holds) there and skips the frame's later fragments
//! unchecked and uncopied.  The frame checksum stays for kept frames: it
//! is what rejects chunks of two frames mixed under one sequence number.
//! It is computed sixteen bytes per step from `const`-built slicing tables
//! (safe Rust, every target) and, on x86-64 CPUs that report `pclmulqdq`
//! and `sse4.1` at run time, by carry-less multiplication for every input
//! of 64 bytes or more, the tables finishing the last `< 16` bytes.  Both
//! compute exactly the function the format was defined with; nothing
//! selects between them but the CPU and the input length.
//!
//! | kind | packet | body |
//! |------|--------|------|
//! | `0x01` | slot frame | `epoch u64, channel u16, slot u64, file u32, index u32, m u32, n u32, original_len u64, payload_len u32, payload` |
//! | `0x02` | fragment | `seq u64, index u16, count u16, chunk_len u32, chunk` |
//! | `0x03` | control frame | `op u8` + op-specific fields |
//!
//! Version 2 ([`VERSION_AUTH`]) extends two bodies with authenticated-
//! broadcast fields and leaves everything else byte-identical to v1:
//!
//! | v2 packet | appended fields |
//! |-----------|-----------------|
//! | slot frame | `proof_depth u8, proof_depth × [u8; 32]` — the block's Merkle inclusion path (depth 0 = no proof) |
//! | `SubscribeAck` | `has_root u8, root [u8; 32] if has_root` — the file's commitment root |
//!
//! The encoder picks the version per packet: frames without proofs or
//! roots go out as v1, so an unauthenticated station is bit-compatible
//! with v1-only clients, and a v1 client talking to an authenticated
//! station simply rejects the (v2) frames it cannot verify anyway.
//!
//! A frame that does not fit the transport MTU is split by [`datagrams`]
//! into fragment packets sharing a sequence number; a [`Reassembler`] on the
//! receiver writes their chunks into one buffer, the original encoded
//! frame, which is then decoded again, its payload a view of that buffer.
//! Because a broadcast medium is lossy by assumption, the decoder is
//! hardened rather than trusting: every length field is bounds-checked
//! against the buffer before use, bodies must be consumed exactly (trailing
//! garbage is rejected), and no input can make [`decode`] panic or allocate
//! unboundedly — corruption always surfaces as a [`WireError`].

pub use crate::crc::crc32;
use bauth::{BlockProof, Root};
use bdisk::TransmissionRef;
use bytes::Bytes;
use ida::{BlockHeader, DispersedBlock, FileId};
use std::sync::Arc;

/// The four magic bytes opening every packet.
pub(crate) const MAGIC: [u8; 4] = *b"BNET";
/// The baseline (unauthenticated) wire-format version.
pub const VERSION: u8 = 1;
/// The authenticated wire-format version: slot frames may carry Merkle
/// inclusion proofs, `SubscribeAck` may carry the file's commitment root.
pub const VERSION_AUTH: u8 = 2;

const KIND_SLOT: u8 = 0x01;
const KIND_FRAG: u8 = 0x02;
const KIND_CONTROL: u8 = 0x03;

/// Bytes of fixed framing around every body: magic + version + kind before
/// it, CRC-32 after it.
pub(crate) const PACKET_OVERHEAD: usize = 4 + 1 + 1 + 4;
/// Fixed body bytes of a fragment packet (`seq, index, count, chunk_len`).
const FRAG_HEADER: usize = 8 + 2 + 2 + 4;
/// Most fragments one frame may be split into.  At the default MTU this
/// allows multi-megabyte frames — far beyond any dispersed block this
/// workspace serves — while bounding what a [`Reassembler`] can be asked to
/// buffer for one sequence number.
pub(crate) const MAX_FRAGMENTS: u16 = 4096;

/// One broadcast slot on the wire: which channel transmitted what, when,
/// under which epoch.  The dispersed block travels with its full
/// self-identifying header, so a purely passive receiver can derive the
/// dispersal parameters `(m, n)` without any control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotFrame {
    /// The epoch the channel serves under.
    pub epoch: u64,
    /// The broadcast channel.
    pub channel: u16,
    /// The slot index.
    pub slot: u64,
    /// The transmitted block.
    pub block: DispersedBlock,
}

impl SlotFrame {
    /// Builds the slot frame for one live lane of a served slot.
    pub fn from_transmission(channel: u16, epoch: u64, tx: TransmissionRef<'_>) -> Self {
        SlotFrame {
            epoch,
            channel,
            slot: tx.slot as u64,
            block: tx.block.clone(),
        }
    }
}

/// Where (and how) one file is served: the single carrier of subscription
/// metadata, from the station's directory through the control plane to the
/// client's tuner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriptionInfo {
    /// The channel carrying the file.
    pub channel: u16,
    /// The epoch the channel serves under (at directory-build time).
    pub epoch: u64,
    /// Reconstruction threshold.
    pub m: u32,
    /// Dispersed block count.
    pub n: u32,
    /// The file's Merkle commitment root, when the station disperses it
    /// authenticated — the capability bit selecting wire v2.
    pub commitment_root: Option<Root>,
}

impl SubscriptionInfo {
    /// An unauthenticated subscription answer.
    pub fn new(channel: u16, epoch: u64, m: u32, n: u32) -> Self {
        SubscriptionInfo {
            channel,
            epoch,
            m,
            n,
            commitment_root: None,
        }
    }

    /// Attaches the file's commitment root (authenticated serving).
    pub fn with_root(mut self, root: Root) -> Self {
        self.commitment_root = Some(root);
        self
    }

    /// `true` when the file is served authenticated.
    pub fn is_authenticated(&self) -> bool {
        self.commitment_root.is_some()
    }

    /// The wire version an ack carrying this info encodes as:
    /// [`VERSION_AUTH`] when a commitment root rides along, [`VERSION`]
    /// otherwise (v1 clients keep interoperating unauthenticated).
    pub fn wire_version(&self) -> u8 {
        if self.commitment_root.is_some() {
            VERSION_AUTH
        } else {
            VERSION
        }
    }
}

/// A reliable in-band control message: membership, subscription, the slot
/// counter and metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlFrame {
    /// A client asks to be added to the UDP fan-out set.
    Join,
    /// A client asks to be removed from the UDP fan-out set.
    Leave,
    /// A client asks where `file` is served (TCP control plane).
    Subscribe {
        /// The requested file.
        file: FileId,
    },
    /// The station's answer to [`ControlFrame::Subscribe`].
    SubscribeAck {
        /// The requested file.
        file: FileId,
        /// Everything the client needs to tune: channel, epoch, dispersal
        /// parameters and (authenticated serving) the commitment root.
        info: SubscriptionInfo,
    },
    /// The station does not carry the requested file.
    SubscribeNak {
        /// The requested file.
        file: FileId,
        /// Why the subscription was refused.
        reason: String,
    },
    /// The station tells a (re)joining client where the slot counter is.
    Resync {
        /// The highest epoch any lane has been published under so far (0
        /// before the first live slot) — the station's newest mode, not
        /// the epoch of any one channel: a channel a swap left alone may
        /// still serve an older one.  Advisory: `NetClient` ignores it.
        epoch: u64,
        /// The next slot the station will serve.
        next_slot: u64,
    },
    /// A client asks for a [`ControlFrame::Resync`] (TCP control plane).
    ResyncRequest,
    /// A client asks the station for a telemetry snapshot in `format`
    /// (TCP control plane).
    MetricsRequest {
        /// The requested exposition format.
        format: MetricsFormat,
    },
    /// The station's answer to [`ControlFrame::MetricsRequest`]: the
    /// rendered exposition.  The body carries a u32 length on the wire —
    /// unlike the u16-capped string fields — but a whole control packet is
    /// still bounded by the receiver's frame cap, so a station must keep
    /// its registry small enough to fit.
    Metrics {
        /// The format the body is rendered in.
        format: MetricsFormat,
        /// The rendered snapshot (UTF-8 text or JSON).
        body: String,
    },
}

/// The exposition formats a [`ControlFrame::MetricsRequest`] may ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus-style text exposition.
    Text = 0,
    /// A JSON object of counters, gauges and histograms.
    Json = 1,
}

impl MetricsFormat {
    fn from_wire(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(MetricsFormat::Text),
            1 => Ok(MetricsFormat::Json),
            _ => Err(WireError::Inconsistent("unknown metrics format")),
        }
    }
}

const OP_JOIN: u8 = 0x01;
const OP_LEAVE: u8 = 0x02;
const OP_SUBSCRIBE: u8 = 0x03;
const OP_SUBSCRIBE_ACK: u8 = 0x04;
const OP_SUBSCRIBE_NAK: u8 = 0x05;
// 0x06..=0x08 are retired (the in-band `Unsubscribe`, `Retune` and
// `Cancel` notes no station sent): unassigned, they decode to
// `WireError::BadOpcode`, which a client books as one erasure.
const OP_RESYNC: u8 = 0x09;
const OP_RESYNC_REQUEST: u8 = 0x0A;
const OP_METRICS_REQUEST: u8 = 0x0B;
const OP_METRICS: u8 = 0x0C;

/// A complete (unfragmented) message: one slot transmission or one control
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A broadcast slot.
    Slot(SlotFrame),
    /// A control message.
    Control(ControlFrame),
}

/// One piece of a frame too large for a single datagram.  All fragments of
/// a frame share `seq`; reassembling the `count` chunks in index order
/// yields the frame's complete encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// Sequence number shared by all fragments of one frame.
    pub seq: u64,
    /// This fragment's position (`0 ≤ index < count`).
    pub index: u16,
    /// Total fragments of the frame (`1 ≤ count ≤ MAX_FRAGMENTS`).
    pub count: u16,
    /// The carried slice of the frame's encoding.
    pub chunk: Vec<u8>,
}

/// Anything [`decode`] can yield: a complete frame or one fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// A complete frame.
    Frame(Frame),
    /// A fragment to feed a [`Reassembler`].
    Fragment(Fragment),
}

/// Why a buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed packet framing.
    TooShort,
    /// The magic bytes are wrong — not a `bnet` packet.
    BadMagic,
    /// The version byte names a format this decoder does not speak.
    BadVersion(u8),
    /// The kind byte names no packet kind.
    BadKind(u8),
    /// The control opcode names no control message.
    BadOpcode(u8),
    /// The trailing CRC-32 does not match the packet contents.
    BadChecksum,
    /// A length field points past the end of the buffer.
    Truncated,
    /// The body was longer than its kind's layout — trailing garbage.
    TrailingGarbage,
    /// A string field holds invalid UTF-8.
    BadUtf8,
    /// A field combination violates the format's invariants.
    Inconsistent(&'static str),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::TooShort => write!(f, "packet shorter than fixed framing"),
            WireError::BadMagic => write!(f, "bad magic: not a bnet packet"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown packet kind {k:#04x}"),
            WireError::BadOpcode(op) => write!(f, "unknown control opcode {op:#04x}"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::Truncated => write!(f, "length field exceeds buffer"),
            WireError::TrailingGarbage => write!(f, "trailing bytes after body"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::Inconsistent(what) => write!(f, "inconsistent fields: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Encoding.

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = u16::try_from(bytes.len()).expect("wire strings are capped at 64 KiB");
    put_u16(out, len);
    out.extend_from_slice(bytes);
}

fn open_packet(version: u8, kind: u8, body_hint: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(PACKET_OVERHEAD + body_hint);
    out.extend_from_slice(&MAGIC);
    out.push(version);
    out.push(kind);
    out
}

fn seal_packet(mut out: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Encodes one frame into a single packet (no fragmentation — see
/// [`datagrams`] for MTU-bounded output).
pub fn encode(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Slot(sf) => {
            let h = sf.block.header();
            let proof = sf.block.proof();
            let version = if proof.is_some() {
                VERSION_AUTH
            } else {
                VERSION
            };
            let mut out = open_packet(
                version,
                KIND_SLOT,
                slot_frame_len(&sf.block) - PACKET_OVERHEAD,
            );
            put_u64(&mut out, sf.epoch);
            put_u16(&mut out, sf.channel);
            put_u64(&mut out, sf.slot);
            put_u32(&mut out, h.file.0);
            put_u32(&mut out, h.index);
            put_u32(&mut out, h.m);
            put_u32(&mut out, h.n);
            put_u64(&mut out, h.original_len);
            let payload = sf.block.payload().as_slice();
            put_u32(&mut out, payload.len() as u32);
            out.extend_from_slice(payload);
            if let Some(proof) = proof {
                out.push(proof.depth() as u8);
                for node in proof.path() {
                    out.extend_from_slice(node);
                }
            }
            seal_packet(out)
        }
        Frame::Control(cf) => {
            let version = match cf {
                ControlFrame::SubscribeAck { info, .. } => info.wire_version(),
                _ => VERSION,
            };
            let mut out = open_packet(version, KIND_CONTROL, 32);
            match cf {
                ControlFrame::Join => out.push(OP_JOIN),
                ControlFrame::Leave => out.push(OP_LEAVE),
                ControlFrame::Subscribe { file } => {
                    out.push(OP_SUBSCRIBE);
                    put_u32(&mut out, file.0);
                }
                ControlFrame::SubscribeAck { file, info } => {
                    out.push(OP_SUBSCRIBE_ACK);
                    put_u32(&mut out, file.0);
                    put_u16(&mut out, info.channel);
                    put_u64(&mut out, info.epoch);
                    put_u32(&mut out, info.m);
                    put_u32(&mut out, info.n);
                    if let Some(root) = &info.commitment_root {
                        out.push(1);
                        out.extend_from_slice(root);
                    }
                }
                ControlFrame::SubscribeNak { file, reason } => {
                    out.push(OP_SUBSCRIBE_NAK);
                    put_u32(&mut out, file.0);
                    put_str(&mut out, reason);
                }
                ControlFrame::Resync { epoch, next_slot } => {
                    out.push(OP_RESYNC);
                    put_u64(&mut out, *epoch);
                    put_u64(&mut out, *next_slot);
                }
                ControlFrame::ResyncRequest => out.push(OP_RESYNC_REQUEST),
                ControlFrame::MetricsRequest { format } => {
                    out.push(OP_METRICS_REQUEST);
                    out.push(*format as u8);
                }
                ControlFrame::Metrics { format, body } => {
                    out.push(OP_METRICS);
                    out.push(*format as u8);
                    // Expositions routinely exceed the u16 string cap, so
                    // the body travels with its own u32 length.
                    let bytes = body.as_bytes();
                    put_u32(&mut out, bytes.len() as u32);
                    out.extend_from_slice(bytes);
                }
            }
            seal_packet(out)
        }
    }
}

fn encode_fragment(seq: u64, index: u16, count: u16, chunk: &[u8]) -> Vec<u8> {
    let mut out = open_packet(VERSION, KIND_FRAG, FRAG_HEADER + chunk.len());
    put_u64(&mut out, seq);
    put_u16(&mut out, index);
    put_u16(&mut out, count);
    put_u32(&mut out, chunk.len() as u32);
    out.extend_from_slice(chunk);
    seal_packet(out)
}

/// Encodes `frame` as one or more datagrams of at most `mtu` bytes each.
///
/// A frame whose encoding fits in `mtu` yields exactly one datagram;
/// anything larger is split into fragment packets sharing the caller's
/// `seq`.  A frame that needs more than `MAX_FRAGMENTS` fragments, or more
/// bytes than a client reassembles ([`MAX_REASSEMBLY_BYTES`]), is a
/// configuration error and panics; a station refuses such a configuration
/// before serving ([`crate::check_mtu`]).
pub fn datagrams(frame: &Frame, mtu: usize, seq: u64) -> Vec<Vec<u8>> {
    let encoded = encode(frame);
    let max = max_frame_bytes(mtu);
    assert!(
        encoded.len() <= max,
        "a frame of {} bytes cannot cross the wire at mtu {mtu} (max {max})",
        encoded.len()
    );
    split(encoded, mtu, seq)
}

/// Cuts an encoded frame of at most [`max_frame_bytes`]`(mtu)` bytes into
/// datagrams of at most `mtu` bytes.
pub(crate) fn split(encoded: Vec<u8>, mtu: usize, seq: u64) -> Vec<Vec<u8>> {
    if encoded.len() <= mtu {
        return vec![encoded];
    }
    let chunk_size = mtu - PACKET_OVERHEAD - FRAG_HEADER;
    let count = encoded.len().div_ceil(chunk_size);
    encoded
        .chunks(chunk_size)
        .enumerate()
        .map(|(index, chunk)| encode_fragment(seq, index as u16, count as u16, chunk))
        .collect()
}

/// Bytes of a slot frame carrying no payload and no proof: the smallest
/// frame a station sends.
pub(crate) const MIN_SLOT_FRAME: usize = PACKET_OVERHEAD + 46;

/// Encoded length of the slot frame carrying `block`.
pub(crate) fn slot_frame_len(block: &DispersedBlock) -> usize {
    MIN_SLOT_FRAME + block.len() + block.proof().map_or(0, |p| 1 + 32 * p.depth())
}

/// Longest frame encoding that crosses the wire at `mtu`: one datagram, or
/// at most [`MAX_FRAGMENTS`] fragments whose chunks and slot table a
/// client's [`Reassembler`] holds within [`MAX_REASSEMBLY_BYTES`].  An
/// `mtu` with no room for a fragment's chunk carries single datagrams only.
pub(crate) fn max_frame_bytes(mtu: usize) -> usize {
    let chunk = mtu.saturating_sub(PACKET_OVERHEAD + FRAG_HEADER);
    if chunk == 0 {
        return mtu;
    }
    let per_fragment = chunk + std::mem::size_of::<Option<Vec<u8>>>();
    let fragments = (MAX_FRAGMENTS as usize).min(MAX_REASSEMBLY_BYTES / per_fragment);
    mtu.max(fragments * chunk)
}

// ---------------------------------------------------------------------------
// Decoding.

/// A bounds-checked cursor: every read is validated against the remaining
/// buffer, so no length field can cause an out-of-range access or an
/// attacker-sized allocation.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingGarbage)
        }
    }
}

/// Decodes one datagram into a [`Packet`].
///
/// Rejects wrong magic/version/kind, checksum mismatches, any length field
/// pointing past the buffer, and bodies with trailing bytes.  Never panics
/// on any input.  The owned form of the borrowing parser a client runs.
pub fn decode(buf: &[u8]) -> Result<Packet, WireError> {
    Ok(match parse(buf)? {
        PacketView::Slot(view) => Packet::Frame(Frame::Slot(view.to_frame())),
        PacketView::Control(cf) => Packet::Frame(Frame::Control(cf)),
        PacketView::Fragment(frag) => Packet::Fragment(Fragment {
            seq: frag.seq,
            index: frag.index,
            count: frag.count,
            chunk: frag.chunk.to_vec(),
        }),
    })
}

/// A packet as it lies in its datagram: what [`parse`] yields, borrowing
/// the payload, proof path or chunk instead of copying it.
pub(crate) enum PacketView<'a> {
    /// A complete slot frame.
    Slot(SlotView<'a>),
    /// A control frame (small; decoded owned).
    Control(ControlFrame),
    /// One fragment.
    Fragment(FragmentView<'a>),
}

/// A slot frame's fields ahead of its dispersal parameters: whose block it
/// carries, and where and when it was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotHead {
    pub(crate) epoch: u64,
    pub(crate) channel: u16,
    pub(crate) slot: u64,
    pub(crate) file: FileId,
    pub(crate) index: u32,
}

/// Bytes from a packet's start through its [`SlotHead`].
const SLOT_HEAD_END: usize = 6 + 8 + 2 + 8 + 4 + 4;

/// A slot frame with its payload and proof path borrowed.
pub(crate) struct SlotView<'a> {
    pub(crate) head: SlotHead,
    header: BlockHeader,
    payload: &'a [u8],
    /// The inclusion proof's path, `depth × 32` bytes (none when empty).
    path: &'a [u8],
}

impl SlotView<'_> {
    /// The owned frame, its payload copied out of the datagram.
    pub(crate) fn to_frame(&self) -> SlotFrame {
        slot_frame(
            self.head,
            self.header,
            Bytes::copy_from_slice(self.payload),
            self.proof(),
        )
    }

    fn proof(&self) -> Option<Arc<BlockProof>> {
        if self.path.is_empty() {
            return None;
        }
        let path = self
            .path
            .chunks_exact(32)
            .map(|node| node.try_into().expect("32-byte node"))
            .collect();
        let proof = BlockProof::from_path(path).expect("parse bounds the depth");
        Some(Arc::new(proof))
    }
}

fn slot_frame(
    head: SlotHead,
    header: BlockHeader,
    payload: Bytes,
    proof: Option<Arc<BlockProof>>,
) -> SlotFrame {
    let block = DispersedBlock::new(header, payload);
    SlotFrame {
        epoch: head.epoch,
        channel: head.channel,
        slot: head.slot,
        block: match proof {
            Some(proof) => block.with_proof(proof),
            None => block,
        },
    }
}

/// One fragment with its chunk borrowed.
pub(crate) struct FragmentView<'a> {
    pub(crate) seq: u64,
    pub(crate) index: u16,
    pub(crate) count: u16,
    pub(crate) chunk: &'a [u8],
}

/// The borrowing parser behind [`decode`]: the same checks, nothing copied.
pub(crate) fn parse(buf: &[u8]) -> Result<PacketView<'_>, WireError> {
    if buf.len() < PACKET_OVERHEAD {
        return Err(WireError::TooShort);
    }
    if buf[0..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = buf[4];
    if version != VERSION && version != VERSION_AUTH {
        return Err(WireError::BadVersion(version));
    }
    let (content, crc_bytes) = buf.split_at(buf.len() - 4);
    let expected = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(content) != expected {
        return Err(WireError::BadChecksum);
    }
    let kind = buf[5];
    let mut rd = Reader { buf: &content[6..] };
    let packet = match kind {
        KIND_SLOT => PacketView::Slot(parse_slot(&mut rd, version)?),
        KIND_FRAG => PacketView::Fragment(parse_fragment(&mut rd)?),
        KIND_CONTROL => PacketView::Control(decode_control(&mut rd, version)?),
        k => return Err(WireError::BadKind(k)),
    };
    rd.finish()?;
    Ok(packet)
}

/// Decodes a frame a [`Reassembler`] put together; a slot frame's payload
/// is a view of `frame`'s allocation, not a copy.
pub(crate) fn decode_reassembled(frame: Vec<u8>) -> Result<Frame, WireError> {
    let view = match parse(&frame)? {
        PacketView::Slot(view) => view,
        PacketView::Control(cf) => return Ok(Frame::Control(cf)),
        PacketView::Fragment(_) => return Err(WireError::Inconsistent("a fragment of fragments")),
    };
    let start = view.payload.as_ptr() as usize - frame.as_ptr() as usize;
    let payload = start..start + view.payload.len();
    let (head, header, proof) = (view.head, view.header, view.proof());
    let payload = Bytes::from(frame).slice(payload);
    Ok(Frame::Slot(slot_frame(head, header, payload, proof)))
}

/// A fragment datagram's `(seq, index, count)`, read before its checksum
/// is checked: enough to skip a fragment of a frame already dropped, whose
/// bytes are then never checked or copied.
pub(crate) fn peek_fragment(buf: &[u8]) -> Option<(u64, u16, u16)> {
    if buf.len() < PACKET_OVERHEAD + FRAG_HEADER || buf[0..4] != MAGIC || buf[5] != KIND_FRAG {
        return None;
    }
    let mut rd = Reader { buf: &buf[6..] };
    Some((rd.u64().ok()?, rd.u16().ok()?, rd.u16().ok()?))
}

/// The slot header at the start of a frame's encoding (fragment 0's
/// chunk), when the frame is a slot frame and the bytes reach that far.
/// Only the fragment's checksum covers them; the frame's is checked when
/// the frame is whole.
pub(crate) fn peek_slot(frame_start: &[u8]) -> Option<SlotHead> {
    if frame_start.len() < SLOT_HEAD_END
        || frame_start[0..4] != MAGIC
        || !matches!(frame_start[4], VERSION | VERSION_AUTH)
        || frame_start[5] != KIND_SLOT
    {
        return None;
    }
    read_slot_head(&mut Reader {
        buf: &frame_start[6..SLOT_HEAD_END],
    })
    .ok()
}

fn read_slot_head(rd: &mut Reader<'_>) -> Result<SlotHead, WireError> {
    Ok(SlotHead {
        epoch: rd.u64()?,
        channel: rd.u16()?,
        slot: rd.u64()?,
        file: FileId(rd.u32()?),
        index: rd.u32()?,
    })
}

fn parse_slot<'a>(rd: &mut Reader<'a>, version: u8) -> Result<SlotView<'a>, WireError> {
    let head = read_slot_head(rd)?;
    let m = rd.u32()?;
    let n = rd.u32()?;
    let original_len = rd.u64()?;
    if m == 0 || m > n {
        return Err(WireError::Inconsistent("dispersal requires 1 <= m <= n"));
    }
    if head.index >= n {
        return Err(WireError::Inconsistent("block index must be < n"));
    }
    let payload_len = rd.u32()? as usize;
    let payload = rd.take(payload_len)?;
    let mut path: &[u8] = &[];
    if version >= VERSION_AUTH {
        let depth = rd.u8()? as usize;
        if depth > bauth::MAX_DEPTH {
            return Err(WireError::Inconsistent("proof deeper than MAX_DEPTH"));
        }
        path = rd.take(32 * depth)?;
    }
    let header = BlockHeader {
        file: head.file,
        index: head.index,
        m,
        n,
        original_len,
    };
    Ok(SlotView {
        head,
        header,
        payload,
        path,
    })
}

fn parse_fragment<'a>(rd: &mut Reader<'a>) -> Result<FragmentView<'a>, WireError> {
    let seq = rd.u64()?;
    let index = rd.u16()?;
    let count = rd.u16()?;
    if count == 0 || count > MAX_FRAGMENTS {
        return Err(WireError::Inconsistent("fragment count out of range"));
    }
    if index >= count {
        return Err(WireError::Inconsistent("fragment index must be < count"));
    }
    let chunk_len = rd.u32()? as usize;
    let chunk = rd.take(chunk_len)?;
    Ok(FragmentView {
        seq,
        index,
        count,
        chunk,
    })
}

fn decode_control(rd: &mut Reader<'_>, version: u8) -> Result<ControlFrame, WireError> {
    let op = rd.u8()?;
    Ok(match op {
        OP_JOIN => ControlFrame::Join,
        OP_LEAVE => ControlFrame::Leave,
        OP_SUBSCRIBE => ControlFrame::Subscribe {
            file: FileId(rd.u32()?),
        },
        OP_SUBSCRIBE_ACK => {
            let file = FileId(rd.u32()?);
            let mut info = SubscriptionInfo::new(rd.u16()?, rd.u64()?, rd.u32()?, rd.u32()?);
            if version >= VERSION_AUTH {
                match rd.u8()? {
                    0 => {}
                    1 => {
                        info.commitment_root = Some(rd.take(32)?.try_into().expect("32-byte root"))
                    }
                    _ => return Err(WireError::Inconsistent("bad commitment-root flag")),
                }
            }
            ControlFrame::SubscribeAck { file, info }
        }
        OP_SUBSCRIBE_NAK => ControlFrame::SubscribeNak {
            file: FileId(rd.u32()?),
            reason: rd.string()?,
        },
        OP_RESYNC => ControlFrame::Resync {
            epoch: rd.u64()?,
            next_slot: rd.u64()?,
        },
        OP_RESYNC_REQUEST => ControlFrame::ResyncRequest,
        OP_METRICS_REQUEST => ControlFrame::MetricsRequest {
            format: MetricsFormat::from_wire(rd.u8()?)?,
        },
        OP_METRICS => {
            let format = MetricsFormat::from_wire(rd.u8()?)?;
            let len = rd.u32()? as usize;
            let bytes = rd.take(len)?;
            ControlFrame::Metrics {
                format,
                body: String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)?,
            }
        }
        other => return Err(WireError::BadOpcode(other)),
    })
}

// ---------------------------------------------------------------------------
// Reassembly.

/// One partial frame.
struct Group {
    seq: u64,
    count: u16,
    /// The length of every chunk but the last, once one of them arrived.
    chunk: Option<usize>,
    /// The frame's encoding, chunk `i` at `i × chunk`: `count × chunk`
    /// bytes, allocated once `chunk` is known.
    frame: Vec<u8>,
    /// The last chunk, set aside while `chunk` is not yet known.
    tail: Vec<u8>,
    /// The last chunk's length, once it arrived.
    last: Option<usize>,
    /// Which chunks arrived, one bit per index.
    have: [u64; MAX_FRAGMENTS as usize / 64],
    received: usize,
    /// Arrival stamp of the group's first fragment: the smallest is the
    /// oldest group, whatever sequence number a sender chose.
    started: u64,
}

/// What placing one chunk did to its group.
enum Placed {
    /// Written, or a duplicate of a chunk already in place.
    Kept,
    /// Its length contradicts the chunks already in place: ignored.
    Misfit,
    /// `count × chunk` exceeds [`MAX_REASSEMBLY_BYTES`]: the frame can
    /// never complete.
    Oversize,
}

impl Group {
    fn new(seq: u64, count: u16, started: u64) -> Self {
        Group {
            seq,
            count,
            chunk: None,
            frame: Vec::new(),
            tail: Vec::new(),
            last: None,
            have: [0; MAX_FRAGMENTS as usize / 64],
            received: 0,
            started,
        }
    }

    /// Bytes this group holds.
    fn bytes(&self) -> usize {
        self.frame.capacity() + self.tail.len()
    }

    fn place(&mut self, index: usize, chunk: &[u8]) -> Placed {
        let bit = 1u64 << (index % 64);
        if self.have[index / 64] & bit != 0 {
            return Placed::Kept;
        }
        let count = self.count as usize;
        if index + 1 == count {
            match self.chunk {
                Some(size) if chunk.len() > size => return Placed::Misfit,
                Some(size) => self.write(index * size, chunk),
                None => self.tail = chunk.to_vec(),
            }
            self.last = Some(chunk.len());
        } else {
            let size = chunk.len();
            match self.chunk {
                Some(known) if known != size => return Placed::Misfit,
                Some(_) => {}
                None if self.last.is_some_and(|last| last > size) => return Placed::Misfit,
                None if count * size > MAX_REASSEMBLY_BYTES => return Placed::Oversize,
                None => {
                    self.chunk = Some(size);
                    self.frame = Vec::with_capacity(count * size);
                    if self.last.is_some() {
                        let tail = std::mem::take(&mut self.tail);
                        self.write((count - 1) * size, &tail);
                    }
                }
            }
            self.write(index * size, chunk);
        }
        self.have[index / 64] |= bit;
        self.received += 1;
        Placed::Kept
    }

    /// Writes `chunk` at byte `at` of the frame buffer.  Chunks arriving in
    /// order append; one arriving early zero-fills the gap before it, which
    /// the missing chunks overwrite.
    fn write(&mut self, at: usize, chunk: &[u8]) {
        if self.frame.len() <= at {
            self.frame.resize(at, 0);
            self.frame.extend_from_slice(chunk);
        } else {
            self.frame[at..at + chunk.len()].copy_from_slice(chunk);
        }
    }

    /// The whole frame, once every chunk arrived.
    fn into_frame(self) -> Vec<u8> {
        match self.chunk {
            Some(_) => self.frame,
            // A one-fragment frame: its only chunk is the last.
            None => self.tail,
        }
    }
}

/// Most bytes one [`Reassembler`] holds across its partial frames.  A
/// partial frame holds its whole buffer, `count × chunk` bytes, from its
/// first chunk on, and a frame whose buffer alone exceeds the bound is
/// refused at once.  Without it a forger can park `max_groups ×
/// MAX_FRAGMENTS` chunks of up to ~64 KB each — about 4.3 GB for a
/// client's 16 groups — in frames that never complete.  16 MiB holds two of
/// the largest frames a default 1400-byte MTU can carry (4 096 × 1 374 B ≈
/// 5.6 MB), and a thousand of the 17 KB frames that carry a 16 KiB
/// authenticated block.
pub const MAX_REASSEMBLY_BYTES: usize = 16 << 20;

/// How many dropped groups a [`Reassembler`] remembers, to skip their
/// later fragments: as many as a client keeps partial groups.
const SKIPPED_GROUPS: usize = 16;

/// Glues [`Fragment`]s back into complete frame encodings, each chunk
/// written once, in place, into its frame's buffer.
///
/// Groups are keyed by sequence number and bounded twice: by count (more
/// than `max_groups` in flight) and by the bytes they hold (more than
/// [`MAX_REASSEMBLY_BYTES`]).  Over either bound the oldest group — the
/// one whose first fragment arrived earliest — is evicted.  On a lossy
/// medium an incomplete old group is a lost frame, and the eviction
/// counter lets the receiver account it as an erasure.  A frame larger
/// than the byte bound on its own can never complete; it is evicted on
/// arrival and its later fragments skipped.
///
/// The client's receive path may also drop a group itself, at its fragment
/// 0: its buffered chunks are released, not counted as an eviction, and its
/// later fragments are skipped for as long as the `(seq, count)` pair is
/// among the last few dropped.
pub struct Reassembler {
    groups: Vec<Group>,
    max_groups: usize,
    evicted: u64,
    /// Sum of every group's `bytes`.
    held: usize,
    /// The next group's arrival stamp.
    next_start: u64,
    /// The last dropped `(seq, count)` pairs, a ring; `count` 0 is empty.
    skipped: [(u64, u16); SKIPPED_GROUPS],
    next_skip: usize,
}

impl Reassembler {
    /// Creates a reassembler holding at most `max_groups` partial frames.
    pub fn new(max_groups: usize) -> Self {
        Reassembler {
            groups: Vec::new(),
            max_groups: max_groups.max(1),
            evicted: 0,
            held: 0,
            next_start: 0,
            skipped: [(0, 0); SKIPPED_GROUPS],
            next_skip: 0,
        }
    }

    /// Offers one fragment; returns the complete frame encoding when this
    /// fragment was the last missing piece of its group.
    ///
    /// A fragment whose `count` disagrees with its group's is treated as
    /// the start of a fresh frame under the same sequence number (the old
    /// group is evicted as corrupt).  Duplicate fragments, and chunks whose
    /// length contradicts the chunks already placed, are ignored.
    pub fn offer(&mut self, frag: Fragment) -> Option<Vec<u8>> {
        self.offer_view(&FragmentView {
            seq: frag.seq,
            index: frag.index,
            count: frag.count,
            chunk: &frag.chunk,
        })
    }

    /// [`Reassembler::offer`] for a fragment still in its datagram.
    pub(crate) fn offer_view(&mut self, frag: &FragmentView<'_>) -> Option<Vec<u8>> {
        let key = (frag.seq, frag.count);
        if self.skips(frag.seq, frag.index, frag.count) {
            return None;
        }
        if frag.index == 0 {
            // A fragment 0 opens its frame afresh, also one dropped before.
            for entry in self.skipped.iter_mut().filter(|entry| **entry == key) {
                *entry = (0, 0);
            }
        }
        let mut at = self.groups.iter().position(|group| group.seq == frag.seq);
        if let Some(i) = at.filter(|&i| self.groups[i].count != frag.count) {
            self.evict(i);
            at = None;
        }
        let i = at.unwrap_or_else(|| {
            self.next_start += 1;
            self.groups
                .push(Group::new(frag.seq, frag.count, self.next_start));
            self.groups.len() - 1
        });
        let group = &mut self.groups[i];
        let before = group.bytes();
        match group.place(frag.index as usize, frag.chunk) {
            Placed::Kept | Placed::Misfit => {}
            Placed::Oversize => {
                self.evict(i);
                self.remember(key);
                return None;
            }
        }
        self.held = self.held - before + group.bytes();
        if group.received == group.count as usize {
            let group = self.groups.swap_remove(i);
            self.held -= group.bytes();
            return Some(group.into_frame());
        }
        while self.groups.len() > self.max_groups || self.held > MAX_REASSEMBLY_BYTES {
            let oldest = (0..self.groups.len())
                .min_by_key(|&i| self.groups[i].started)
                .expect("over a bound means non-empty");
            self.evict(oldest);
        }
        None
    }

    /// Drops the frame `(seq, count)` as one its receiver will not keep:
    /// releases what is buffered of it, uncounted, and skips its later
    /// fragments.
    pub(crate) fn skip(&mut self, seq: u64, count: u16) {
        if let Some(i) = self
            .groups
            .iter()
            .position(|group| (group.seq, group.count) == (seq, count))
        {
            self.held -= self.groups.swap_remove(i).bytes();
        }
        self.remember((seq, count));
    }

    /// Whether the fragment `index` of `(seq, count)` belongs to a frame
    /// dropped before: any fragment but a fragment 0, which opens a frame.
    pub(crate) fn skips(&self, seq: u64, index: u16, count: u16) -> bool {
        index != 0 && self.skipped.contains(&(seq, count))
    }

    fn remember(&mut self, key: (u64, u16)) {
        if !self.skipped.contains(&key) {
            self.skipped[self.next_skip] = key;
            self.next_skip = (self.next_skip + 1) % SKIPPED_GROUPS;
        }
    }

    /// Drops the partial frame at `i` as a lost one.
    fn evict(&mut self, i: usize) {
        self.held -= self.groups.swap_remove(i).bytes();
        self.evicted += 1;
    }

    /// Bytes held in partial frames now, at most [`MAX_REASSEMBLY_BYTES`]
    /// between offers.
    pub fn held_bytes(&self) -> usize {
        self.held
    }

    /// Partial frames evicted so far (each is a frame that will never
    /// complete — account them as erasures).
    pub(crate) fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Partial frames currently buffered.
    pub fn pending(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn block(payload_len: usize) -> DispersedBlock {
        let header = BlockHeader {
            file: FileId(7),
            index: 3,
            m: 4,
            n: 9,
            original_len: 4096,
        };
        let payload: Vec<u8> = (0..payload_len).map(|i| (i % 251) as u8).collect();
        DispersedBlock::new(header, Bytes::from(payload))
    }

    fn slot_frame(payload_len: usize) -> Frame {
        Frame::Slot(SlotFrame {
            epoch: 11,
            channel: 2,
            slot: 12345,
            block: block(payload_len),
        })
    }

    fn all_control_frames() -> Vec<ControlFrame> {
        vec![
            ControlFrame::Join,
            ControlFrame::Leave,
            ControlFrame::Subscribe { file: FileId(1) },
            ControlFrame::SubscribeAck {
                file: FileId(1),
                info: SubscriptionInfo::new(3, 9, 4, 8),
            },
            ControlFrame::SubscribeAck {
                file: FileId(1),
                info: SubscriptionInfo::new(3, 9, 4, 8).with_root([0xA5; 32]),
            },
            ControlFrame::SubscribeNak {
                file: FileId(2),
                reason: "unknown file".to_string(),
            },
            ControlFrame::Resync {
                epoch: 2,
                next_slot: 777,
            },
            ControlFrame::ResyncRequest,
            ControlFrame::MetricsRequest {
                format: MetricsFormat::Text,
            },
            ControlFrame::MetricsRequest {
                format: MetricsFormat::Json,
            },
            ControlFrame::Metrics {
                format: MetricsFormat::Text,
                body: "# TYPE brt_slots_served counter\nbrt_slots_served 7\n".to_string(),
            },
            ControlFrame::Metrics {
                format: MetricsFormat::Json,
                body: "{\"counters\":{\"brt_slots_served\":7}}".to_string(),
            },
        ]
    }

    #[test]
    fn slot_frames_round_trip() {
        for len in [0, 1, 64, 1500] {
            let frame = slot_frame(len);
            let encoded = encode(&frame);
            assert_eq!(encoded[4], VERSION, "proof-free frames stay v1");
            let decoded = decode(&encoded).unwrap();
            assert_eq!(decoded, Packet::Frame(frame));
        }
    }

    fn authenticated_slot_frame() -> Frame {
        let d = ida::Dispersal::authenticated(4, 9).unwrap();
        let data: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        let df = d.disperse(FileId(7), &data).unwrap();
        Frame::Slot(SlotFrame {
            epoch: 11,
            channel: 2,
            slot: 12345,
            block: df.blocks()[3].clone(),
        })
    }

    #[test]
    fn proof_bearing_slot_frames_round_trip_as_v2() {
        let frame = authenticated_slot_frame();
        let encoded = encode(&frame);
        assert_eq!(encoded[4], VERSION_AUTH);
        let Packet::Frame(Frame::Slot(sf)) = decode(&encoded).unwrap() else {
            panic!("expected a slot frame");
        };
        let Frame::Slot(original) = &frame else {
            unreachable!()
        };
        assert_eq!(sf.block, original.block);
        let proof = sf.block.proof().expect("proof survives the wire");
        assert_eq!(
            proof.path(),
            original.block.proof().unwrap().path(),
            "the decoded path is byte-identical"
        );
    }

    #[test]
    fn proof_bearing_frames_fragment_and_reassemble() {
        let frame = authenticated_slot_frame();
        let dgrams = datagrams(&frame, 256, 31);
        assert!(dgrams.len() > 1);
        let mut reassembler = Reassembler::new(8);
        let mut complete = None;
        for d in &dgrams {
            let Packet::Fragment(frag) = decode(d).unwrap() else {
                panic!("expected fragment");
            };
            if let Some(bytes) = reassembler.offer(frag) {
                complete = Some(bytes);
            }
        }
        let decoded = decode(&complete.expect("all fragments offered")).unwrap();
        assert_eq!(decoded, Packet::Frame(frame));
    }

    #[test]
    fn rooted_subscribe_acks_are_v2_and_rootless_stay_v1() {
        let v1 = encode(&Frame::Control(ControlFrame::SubscribeAck {
            file: FileId(1),
            info: SubscriptionInfo::new(0, 1, 2, 4),
        }));
        assert_eq!(v1[4], VERSION);
        let v2 = encode(&Frame::Control(ControlFrame::SubscribeAck {
            file: FileId(1),
            info: SubscriptionInfo::new(0, 1, 2, 4).with_root([9; 32]),
        }));
        assert_eq!(v2[4], VERSION_AUTH);
        let Packet::Frame(Frame::Control(ControlFrame::SubscribeAck { info, .. })) =
            decode(&v2).unwrap()
        else {
            panic!("expected an ack");
        };
        assert_eq!(info.commitment_root, Some([9; 32]));
        assert_eq!(info.wire_version(), VERSION_AUTH);
    }

    #[test]
    fn v2_proofs_deeper_than_max_depth_are_rejected() {
        // Hand-build a v2 slot packet claiming a 17-level proof.
        let mut out = open_packet(VERSION_AUTH, KIND_SLOT, 64);
        put_u64(&mut out, 1);
        put_u16(&mut out, 0);
        put_u64(&mut out, 0);
        put_u32(&mut out, 1);
        put_u32(&mut out, 0);
        put_u32(&mut out, 2);
        put_u32(&mut out, 4);
        put_u64(&mut out, 8);
        put_u32(&mut out, 0);
        out.push((bauth::MAX_DEPTH + 1) as u8);
        for _ in 0..=bauth::MAX_DEPTH {
            out.extend_from_slice(&[0u8; 32]);
        }
        let packet = seal_packet(out);
        assert!(matches!(decode(&packet), Err(WireError::Inconsistent(_))));
    }

    #[test]
    fn every_control_frame_round_trips() {
        for cf in all_control_frames() {
            let frame = Frame::Control(cf);
            let decoded = decode(&encode(&frame)).unwrap();
            assert_eq!(decoded, Packet::Frame(frame));
        }
    }

    #[test]
    fn fragments_round_trip() {
        let frag = Fragment {
            seq: 42,
            index: 1,
            count: 3,
            chunk: vec![1, 2, 3, 4, 5],
        };
        let encoded = encode_fragment(frag.seq, frag.index, frag.count, &frag.chunk);
        assert_eq!(decode(&encoded).unwrap(), Packet::Fragment(frag));
    }

    #[test]
    fn small_frames_are_a_single_datagram() {
        let frame = slot_frame(100);
        let dgrams = datagrams(&frame, 1400, 0);
        assert_eq!(dgrams.len(), 1);
        assert_eq!(decode(&dgrams[0]).unwrap(), Packet::Frame(frame));
    }

    #[test]
    fn oversized_frames_fragment_and_reassemble() {
        let frame = slot_frame(5000);
        let dgrams = datagrams(&frame, 1400, 99);
        assert!(dgrams.len() > 1);
        assert!(dgrams.iter().all(|d| d.len() <= 1400));
        let mut reassembler = Reassembler::new(8);
        let mut complete = None;
        for d in &dgrams {
            let Packet::Fragment(frag) = decode(d).unwrap() else {
                panic!("expected fragment");
            };
            if let Some(bytes) = reassembler.offer(frag) {
                complete = Some(bytes);
            }
        }
        let bytes = complete.expect("all fragments offered");
        assert_eq!(decode(&bytes).unwrap(), Packet::Frame(frame));
    }

    #[test]
    fn out_of_order_and_duplicate_fragments_reassemble() {
        let frame = slot_frame(4000);
        let dgrams = datagrams(&frame, 1000, 7);
        let frags: Vec<Fragment> = dgrams
            .iter()
            .map(|d| match decode(d).unwrap() {
                Packet::Fragment(f) => f,
                other => panic!("expected fragment, got {other:?}"),
            })
            .collect();
        let mut reassembler = Reassembler::new(8);
        // Feed in reverse, with the first fragment duplicated mid-stream.
        let mut complete = None;
        for frag in frags.iter().rev().chain([&frags[frags.len() - 1]]) {
            if let Some(bytes) = reassembler.offer(frag.clone()) {
                complete = Some(bytes);
            }
        }
        assert_eq!(
            decode(&complete.expect("reassembled")).unwrap(),
            Packet::Frame(frame)
        );
    }

    #[test]
    fn reassembler_is_bounded_and_counts_evictions() {
        let mut reassembler = Reassembler::new(2);
        for seq in 0..10u64 {
            let done = reassembler.offer(Fragment {
                seq,
                index: 0,
                count: 2,
                chunk: vec![0],
            });
            assert!(done.is_none());
        }
        assert!(reassembler.pending() <= 2);
        assert_eq!(reassembler.evicted(), 8);
    }

    #[test]
    fn reassembly_bytes_are_capped_oldest_arrival_first() {
        let mut reassembler = Reassembler::new(16);
        let chunk = 60_000;
        // Never-completing groups under descending sequence numbers, each
        // buffer (255 × 60 KB) just under the cap: the byte cap, not the
        // group count, forces the evictions, and each takes the group that
        // arrived first, not the lowest `seq`.
        let per_group = 32;
        let groups = 6;
        for g in 0..groups {
            for index in 0..per_group {
                reassembler.offer(Fragment {
                    seq: u64::MAX - g,
                    index,
                    count: 255,
                    chunk: vec![0xEE; chunk],
                });
                assert!(reassembler.held_bytes() <= MAX_REASSEMBLY_BYTES);
            }
        }
        assert!(reassembler.pending() < 16, "the byte cap bound first");
        assert!(reassembler.evicted() > 0);
        let held: Vec<u64> = reassembler.groups.iter().map(|g| g.seq).collect();
        assert_eq!(held, [u64::MAX - (groups - 1)], "only the newest is left");
        // A genuine frame still reassembles, and completing it releases
        // its bytes.
        let frame = slot_frame(5000);
        let frags: Vec<Fragment> = datagrams(&frame, 1400, 7)
            .iter()
            .map(|d| match decode(d).unwrap() {
                Packet::Fragment(f) => f,
                other => panic!("expected a fragment, got {other:?}"),
            })
            .collect();
        let before = reassembler.held_bytes();
        let mut complete = None;
        for frag in frags {
            complete = complete.or(reassembler.offer(frag));
        }
        assert_eq!(decode(&complete.unwrap()).unwrap(), Packet::Frame(frame));
        assert!(reassembler.held_bytes() <= before);
    }

    #[test]
    fn a_frame_over_the_byte_cap_is_evicted_once_and_its_fragments_skipped() {
        let mut reassembler = Reassembler::new(16);
        for index in 0..8 {
            let done = reassembler.offer(Fragment {
                seq: 5,
                index,
                count: 4095,
                chunk: vec![0xEE; 60_000],
            });
            assert!(done.is_none());
        }
        assert_eq!((reassembler.evicted(), reassembler.pending()), (1, 0));
        assert_eq!(reassembler.held_bytes(), 0);
        // Another frame under the same sequence number is a fresh group.
        let frame = slot_frame(3000);
        let mut complete = None;
        for d in datagrams(&frame, 1400, 5) {
            let Packet::Fragment(frag) = decode(&d).unwrap() else {
                panic!("expected a fragment");
            };
            complete = complete.or(reassembler.offer(frag));
        }
        assert_eq!(decode(&complete.unwrap()).unwrap(), Packet::Frame(frame));
    }

    #[test]
    fn skipped_groups_release_their_bytes_and_skip_later_fragments() {
        let frame = slot_frame(5000);
        let frags: Vec<Fragment> = datagrams(&frame, 1400, 9)
            .iter()
            .map(|d| match decode(d).unwrap() {
                Packet::Fragment(f) => f,
                other => panic!("expected a fragment, got {other:?}"),
            })
            .collect();
        let count = frags[0].count;
        let mut reassembler = Reassembler::new(16);
        assert!(reassembler.offer(frags[2].clone()).is_none());
        assert!(reassembler.held_bytes() > 0);
        reassembler.skip(9, count);
        assert_eq!((reassembler.held_bytes(), reassembler.pending()), (0, 0));
        for frag in &frags[1..] {
            assert!(reassembler.offer(frag.clone()).is_none());
        }
        assert_eq!(reassembler.pending(), 0, "later fragments are skipped");
        assert_eq!(reassembler.evicted(), 0, "a dropped group is no loss");
        // A fragment 0 under the same (seq, count) opens the frame afresh.
        let mut complete = None;
        for frag in &frags {
            complete = complete.or(reassembler.offer(frag.clone()));
        }
        assert_eq!(decode(&complete.unwrap()).unwrap(), Packet::Frame(frame));
    }

    #[test]
    fn the_borrowing_parser_agrees_with_decode_and_peeks_the_slot_head() {
        let frame = authenticated_slot_frame();
        let whole = encode(&frame);
        let Ok(PacketView::Slot(view)) = parse(&whole) else {
            panic!("expected a slot view");
        };
        assert_eq!(Frame::Slot(view.to_frame()), frame);
        let Frame::Slot(sf) = &frame else {
            unreachable!()
        };
        let head = SlotHead {
            epoch: sf.epoch,
            channel: sf.channel,
            slot: sf.slot,
            file: sf.block.file(),
            index: sf.block.index(),
        };
        assert_eq!(view.head, head);
        assert_eq!(peek_slot(&whole), Some(head));
        assert_eq!(peek_slot(&whole[..SLOT_HEAD_END]), Some(head));
        assert_eq!(peek_slot(&whole[..SLOT_HEAD_END - 1]), None);
        let control = encode(&Frame::Control(ControlFrame::Join));
        assert_eq!(peek_slot(&control), None);
        // A reassembled frame decodes to the same frame, its payload a view
        // of the frame buffer.
        let buffer = whole.clone();
        let base = buffer.as_ptr() as usize;
        let Ok(Frame::Slot(shared)) = decode_reassembled(buffer) else {
            panic!("expected a slot frame");
        };
        let at = shared.block.payload().as_ptr() as usize;
        assert!((base..base + whole.len()).contains(&at), "no copy");
        assert_eq!(Frame::Slot(shared), frame);
    }

    #[test]
    fn rejects_bad_magic_version_kind_and_opcode() {
        let good = encode(&slot_frame(10));
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(decode(&bad), Err(WireError::BadMagic));

        let mut bad = good.clone();
        bad[4] = 9;
        assert_eq!(decode(&bad), Err(WireError::BadVersion(9)));

        // A wrong kind byte with a recomputed checksum must still fail.
        let mut bad = good.clone();
        bad[5] = 0x77;
        let crc_at = bad.len() - 4;
        let crc = crc32(&bad[..crc_at]);
        bad[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&bad), Err(WireError::BadKind(0x77)));

        let mut bad = encode(&Frame::Control(ControlFrame::Join));
        let body_at = 6;
        bad[body_at] = 0xEE;
        let crc_at = bad.len() - 4;
        let crc = crc32(&bad[..crc_at]);
        bad[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&bad), Err(WireError::BadOpcode(0xEE)));
    }

    #[test]
    fn rejects_corruption_truncation_and_garbage() {
        let good = encode(&slot_frame(32));
        // Any single flipped bit trips the checksum.
        let mut corrupt = good.clone();
        corrupt[20] ^= 0x40;
        assert_eq!(decode(&corrupt), Err(WireError::BadChecksum));
        // Truncation below the fixed framing.
        assert_eq!(decode(&good[..5]), Err(WireError::TooShort));
        // A length field pointing past the buffer (checksum recomputed so
        // the structural check is what rejects it).
        let mut oversized = good.clone();
        let payload_len_at = 6 + 8 + 2 + 8 + 4 + 4 + 4 + 4 + 8;
        oversized[payload_len_at..payload_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc_at = oversized.len() - 4;
        let crc = crc32(&oversized[..crc_at]);
        oversized[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&oversized), Err(WireError::Truncated));
        // Trailing garbage after a structurally complete body.
        let mut padded = good.clone();
        padded.truncate(padded.len() - 4);
        padded.extend_from_slice(&[0xAB, 0xCD]);
        let crc = crc32(&padded);
        padded.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&padded), Err(WireError::TrailingGarbage));
    }

    #[test]
    fn rejects_inconsistent_dispersal_headers() {
        // m = 0 and index >= n, with valid checksums.
        for (m, n, index) in [(0u32, 5u32, 0u32), (6, 5, 0), (4, 5, 5)] {
            let mut out = open_packet(VERSION, KIND_SLOT, 64);
            put_u64(&mut out, 1);
            put_u16(&mut out, 0);
            put_u64(&mut out, 0);
            put_u32(&mut out, 1);
            put_u32(&mut out, index);
            put_u32(&mut out, m);
            put_u32(&mut out, n);
            put_u64(&mut out, 100);
            put_u32(&mut out, 0);
            let packet = seal_packet(out);
            assert!(matches!(decode(&packet), Err(WireError::Inconsistent(_))));
        }
    }

    #[test]
    fn fuzzed_corruption_never_panics() {
        // Satellite: random byte flips / truncations / random buffers must
        // always return Err or a valid packet — never panic.
        let mut rng = StdRng::seed_from_u64(0xB4E7);
        let mut seeds: Vec<Vec<u8>> = vec![encode(&slot_frame(300))];
        seeds.extend(
            all_control_frames()
                .into_iter()
                .map(|cf| encode(&Frame::Control(cf))),
        );
        seeds.extend(datagrams(&slot_frame(5000), 1200, 5));
        let mut decoded_ok = 0u32;
        for _ in 0..4000 {
            let mut buf = seeds[rng.gen_range(0..seeds.len())].clone();
            match rng.gen_range(0u32..3) {
                0 => {
                    // Flip 1..8 random bits.
                    for _ in 0..rng.gen_range(1..8) {
                        let at = rng.gen_range(0..buf.len());
                        buf[at] ^= 1 << rng.gen_range(0u32..8);
                    }
                }
                1 => {
                    // Truncate to a random strict prefix.
                    buf.truncate(rng.gen_range(0..buf.len()));
                }
                _ => {
                    // Replace with random bytes of random length.
                    let len = rng.gen_range(0..128usize);
                    buf = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
                }
            }
            if decode(&buf).is_ok() {
                decoded_ok += 1;
            }
        }
        // Corruption is overwhelmingly caught; a rare CRC collision would
        // still be a *valid* packet, which is acceptable.
        assert!(decoded_ok < 40, "suspiciously many corrupt packets decoded");
    }

    #[test]
    fn retired_opcodes_decode_as_bad_opcode() {
        // The bodies the retired `Unsubscribe`, `Retune` and `Cancel` notes
        // carried: an old peer's note is undecodable, never misread.
        for (op, body) in [
            (0x06u8, vec![1, 0, 0, 0]),
            (0x07, vec![1, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0]),
            (0x08, vec![1, 0, 0, 0, 1, 0, b'x']),
        ] {
            let mut out = open_packet(VERSION, KIND_CONTROL, 16);
            out.push(op);
            out.extend_from_slice(&body);
            assert_eq!(decode(&seal_packet(out)), Err(WireError::BadOpcode(op)));
        }
    }

    #[test]
    fn rejects_unknown_metrics_format() {
        let mut out = open_packet(VERSION, KIND_CONTROL, 8);
        out.push(OP_METRICS_REQUEST);
        out.push(9); // no such format
        let packet = seal_packet(out);
        assert!(matches!(decode(&packet), Err(WireError::Inconsistent(_))));
    }

    /// Neither the checksum kernel nor the encoder may move a wire byte:
    /// SHA-256 digests of what the byte-at-a-time encoder produced (PR 16),
    /// one un-fragmented v1 frame and one fragmented v2 frame.
    #[test]
    fn encoded_bytes_are_pinned_to_the_bytewise_encoder() {
        let digest = |bytes: &[u8]| -> String {
            bauth::sha256(bytes)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect()
        };
        assert_eq!(
            digest(&encode(&slot_frame(1500))),
            "0bc6544070f2fcd84e8ef15c769f1e317b23dfc8038da7aa6703c43313b5ee31"
        );
        let fragments = datagrams(&authenticated_slot_frame(), 256, 31);
        assert_eq!(fragments.len(), 6);
        assert_eq!(
            digest(&fragments.concat()),
            "2078c0805fb1f49a4f011e85941f2a591332d18d659231593e590a813bde624c"
        );
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
