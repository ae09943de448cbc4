//! One system call per fragmented frame: UDP segmentation offload.
//!
//! A 16 KiB block is thirteen datagrams at the default `mtu`, and sent one
//! `send_to` at a time each of them walks the whole stack on its own
//! (route, IP out, device, softirq, IP in, socket enqueue, receiver
//! wake-up).  Linux ≥ 4.18 takes the lot in one `sendmsg` carrying a
//! `UDP_SEGMENT` control message: the kernel carries the fragments through
//! the stack as one buffer and cuts it every `segment` bytes on the far
//! side, so a plain `recv_from` listener still reads the same datagrams,
//! byte for byte and in order.  That is a *train*, and it fits the wire
//! format as it is: every fragment [`crate::wire::datagrams`] returns is
//! exactly `mtu` bytes long except the last, which is what the kernel
//! requires of one.
//!
//! A train is all or nothing at the sender — the call either queues every
//! segment or fails whole — and has two hard limits, [`MAX_SEGMENTS`] and
//! [`MAX_TRAIN_BYTES`]; [`train_len`] cuts a frame to them.  Errors come in
//! two kinds, told apart by [`not_here`]: the kernel, device or route does
//! not do this at all (fall back to the `send_to` loop and stop asking), or
//! this one train found the socket full (loss, by design).
//!
//! The foreign call lives in the private `sys` module, compiled for 64-bit
//! glibc Linux only; everywhere else [`send_train`] answers `Unsupported`,
//! which [`not_here`] classifies like a kernel that refused.

use std::io;
use std::net::{SocketAddr, UdpSocket};

/// Most segments one train may carry.  Linux before 6.9 stops at 64 (newer
/// kernels take 128); both answer `EINVAL` beyond their limit.
const MAX_SEGMENTS: usize = 64;

/// Most bytes one train may carry: the kernel builds it as a single UDP
/// payload first, so IPv4's 65 535 − 20 − 8 applies (`EMSGSIZE` beyond).
const MAX_TRAIN_BYTES: usize = 65_507;

// Linux errno values (asm-generic numbering: x86-64, aarch64).
const EIO: i32 = 5;
const EINVAL: i32 = 22;
const EMSGSIZE: i32 = 90;
const ENOPROTOOPT: i32 = 92;
const EOPNOTSUPP: i32 = 95;

/// How many of `packets` — the unsent fragments of one frame, every one as
/// long as the first except possibly the last — go into the next train.
///
/// Never fewer than two while two remain: a fragment too large for two to
/// share a train means no frame at this `mtu` can ever ride one, and the
/// kernel's `EMSGSIZE` for the attempt says so in the terms [`not_here`]
/// understands.
pub(crate) fn train_len(packets: &[Vec<u8>]) -> usize {
    let segment = packets.first().map_or(1, |p| p.len().max(1));
    (MAX_TRAIN_BYTES / segment)
        .clamp(2, MAX_SEGMENTS)
        .min(packets.len())
}

/// Whether `error` from [`send_train`] means segmentation offload is not
/// available on this path at all — an old kernel (`EINVAL`, `ENOPROTOOPT`),
/// a device without checksum offload (`EIO`, `EOPNOTSUPP`), a segment size
/// above the path MTU (`EINVAL`, `EMSGSIZE`), a platform without the call —
/// as opposed to one train refused for want of buffer space (`EAGAIN`,
/// `ENOBUFS`).  Nothing was sent either way.
pub(crate) fn not_here(error: &io::Error) -> bool {
    error.kind() == io::ErrorKind::Unsupported
        || matches!(
            error.raw_os_error(),
            Some(EIO | EINVAL | EMSGSIZE | ENOPROTOOPT | EOPNOTSUPP)
        )
}

/// Sends `packets` to `to` as one train: a single `sendmsg` gathering them
/// in order, cut by the kernel every `packets[0].len()` bytes.  Every
/// packet must be as long as the first except the last, which may be
/// shorter — otherwise the receiver's datagram boundaries are not the
/// caller's.  Returns the bytes queued (all of them); on any error nothing
/// was sent.
pub(crate) fn send_train(
    socket: &UdpSocket,
    packets: &[Vec<u8>],
    to: SocketAddr,
) -> io::Result<usize> {
    debug_assert!(
        packets
            .windows(2)
            .all(|w| w[0].len() == packets[0].len() && w[1].len() <= w[0].len()),
        "a train is equal-size segments and a last one no longer than them"
    );
    sys::send_train(socket, packets, to)
}

#[cfg(not(all(
    target_os = "linux",
    target_env = "gnu",
    target_pointer_width = "64",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use std::io;
    use std::net::{SocketAddr, UdpSocket};

    pub(crate) fn send_train(_: &UdpSocket, _: &[Vec<u8>], _: SocketAddr) -> io::Result<usize> {
        Err(io::ErrorKind::Unsupported.into())
    }
}

/// The foreign call, declared by hand: no `libc` crate is vendored, and
/// `std` already links the C library `sendmsg` comes from.  The structures
/// are the 64-bit glibc layouts (musl lays `msghdr` out differently, hence
/// the `target_env`); the architectures are the ones whose errno numbering
/// [`not_here`] was written against.
#[cfg(all(
    target_os = "linux",
    target_env = "gnu",
    target_pointer_width = "64",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)] // one foreign call; `send_train` is the one entry and is safe.
mod sys {
    use super::{EINVAL, EMSGSIZE, MAX_SEGMENTS};
    use core::ffi::{c_int, c_void};
    use std::io;
    use std::mem::size_of;
    use std::net::{SocketAddr, UdpSocket};
    use std::os::fd::AsRawFd;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOL_UDP: c_int = 17;
    const UDP_SEGMENT: c_int = 103;

    #[derive(Clone, Copy)]
    #[repr(C)]
    struct IoVec {
        base: *const c_void,
        len: usize,
    }

    #[repr(C)]
    struct MsgHdr {
        name: *const c_void,
        name_len: u32,
        iov: *const IoVec,
        iov_len: usize,
        control: *const c_void,
        control_len: usize,
        flags: c_int,
    }

    #[repr(C)]
    struct CmsgHdr {
        len: usize,
        level: c_int,
        kind: c_int,
    }

    /// `CMSG_SPACE(sizeof(u16))`: the header, then the segment size padded
    /// to the header's alignment.
    #[repr(C)]
    struct SegmentCmsg {
        header: CmsgHdr,
        segment: u16,
        pad: [u8; 6],
    }

    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port_be: [u8; 2],
        addr: [u8; 4],
        zero: [u8; 8],
    }

    #[repr(C)]
    struct SockAddrIn6 {
        family: u16,
        port_be: [u8; 2],
        flowinfo_be: [u8; 4],
        addr: [u8; 16],
        scope_id: u32,
    }

    const _: () = {
        assert!(size_of::<MsgHdr>() == 56);
        assert!(size_of::<IoVec>() == 16);
        assert!(size_of::<CmsgHdr>() == 16);
        assert!(size_of::<SegmentCmsg>() == 24);
        assert!(size_of::<SockAddrIn>() == 16);
        assert!(size_of::<SockAddrIn6>() == 28);
    };

    /// `CMSG_LEN(sizeof(u16))`: the header plus the payload, unpadded.
    const SEGMENT_CMSG_LEN: usize = size_of::<CmsgHdr>() + size_of::<u16>();

    extern "C" {
        fn sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;
    }

    enum Name {
        V4(SockAddrIn),
        V6(SockAddrIn6),
    }

    impl Name {
        fn of(to: SocketAddr) -> Name {
            match to {
                SocketAddr::V4(v4) => Name::V4(SockAddrIn {
                    family: AF_INET,
                    port_be: v4.port().to_be_bytes(),
                    addr: v4.ip().octets(),
                    zero: [0; 8],
                }),
                SocketAddr::V6(v6) => Name::V6(SockAddrIn6 {
                    family: AF_INET6,
                    port_be: v6.port().to_be_bytes(),
                    flowinfo_be: v6.flowinfo().to_be_bytes(),
                    addr: v6.ip().octets(),
                    scope_id: v6.scope_id(),
                }),
            }
        }

        fn raw(&self) -> (*const c_void, u32) {
            match self {
                Name::V4(a) => (a as *const SockAddrIn as _, size_of::<SockAddrIn>() as u32),
                Name::V6(a) => (
                    a as *const SockAddrIn6 as _,
                    size_of::<SockAddrIn6>() as u32,
                ),
            }
        }
    }

    pub(crate) fn send_train(
        socket: &UdpSocket,
        packets: &[Vec<u8>],
        to: SocketAddr,
    ) -> io::Result<usize> {
        // What the kernel would answer, for the two shapes that cannot be
        // put to it: more segments than the gather array holds, and a
        // segment size its 16-bit field cannot say.
        if packets.len() > MAX_SEGMENTS {
            return Err(io::Error::from_raw_os_error(EINVAL));
        }
        let segment = u16::try_from(packets.first().map_or(0, Vec::len))
            .map_err(|_| io::Error::from_raw_os_error(EMSGSIZE))?;

        let mut iov = [IoVec {
            base: core::ptr::null(),
            len: 0,
        }; MAX_SEGMENTS];
        for (slot, packet) in iov.iter_mut().zip(packets) {
            *slot = IoVec {
                base: packet.as_ptr().cast(),
                len: packet.len(),
            };
        }
        let control = SegmentCmsg {
            header: CmsgHdr {
                len: SEGMENT_CMSG_LEN,
                level: SOL_UDP,
                kind: UDP_SEGMENT,
            },
            segment,
            pad: [0; 6],
        };
        let name = Name::of(to);
        let (name_ptr, name_len) = name.raw();
        let msg = MsgHdr {
            name: name_ptr,
            name_len,
            iov: iov.as_ptr(),
            iov_len: packets.len(),
            control: (&control as *const SegmentCmsg).cast(),
            control_len: size_of::<SegmentCmsg>(),
            flags: 0,
        };
        // SAFETY: `sendmsg` only reads through the pointers it is given, and
        // every one of them points at memory that outlives the call and is
        // at least as long as the length passed beside it: `msg`, `iov`,
        // `control` and `name` are locals of this frame laid out as the C
        // library declares them (sizes asserted above); `name_len` is the
        // size of the variant `name_ptr` points at; the first
        // `packets.len()` (≤ `MAX_SEGMENTS`, checked above) entries of `iov`
        // each hold the pointer and length of one borrowed `Vec<u8>`;
        // `control` is one complete control message whose `len` covers its
        // header and two-byte payload within `control_len`.  The descriptor
        // is open for as long as `socket` is borrowed.  The call keeps none
        // of the pointers after it returns.
        let sent = unsafe { sendmsg(socket.as_raw_fd(), &msg, 0) };
        if sent < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(sent as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_is_cut_to_the_kernels_limits_on_fragment_boundaries() {
        let frame = |fragments: usize, mtu: usize| vec![vec![0u8; mtu]; fragments];
        // The default mtu: 46 × 1400 = 64 400 bytes fit, 47 do not.
        assert_eq!(train_len(&frame(13, 1400)), 13);
        assert_eq!(train_len(&frame(46, 1400)), 46);
        assert_eq!(train_len(&frame(95, 1400)), 46);
        // Small fragments: the segment count binds before the bytes do.
        assert_eq!(train_len(&frame(200, 100)), MAX_SEGMENTS);
        // Two fragments that cannot share a train are still put to the
        // kernel once, so its refusal settles the question for the fan-out.
        assert_eq!(train_len(&frame(3, 40_000)), 2);
        assert_eq!(train_len(&frame(1, 1400)), 1);
    }

    #[test]
    fn refusals_and_full_buffers_are_told_apart() {
        for errno in [EIO, EINVAL, EMSGSIZE, ENOPROTOOPT, EOPNOTSUPP] {
            assert!(not_here(&io::Error::from_raw_os_error(errno)), "{errno}");
        }
        assert!(not_here(&io::ErrorKind::Unsupported.into()));
        // EAGAIN, ENOBUFS, ECONNREFUSED: this train was lost, no more.
        for errno in [11, 105, 111] {
            assert!(!not_here(&io::Error::from_raw_os_error(errno)), "{errno}");
        }
    }

    /// More bytes than one UDP payload can hold is `EMSGSIZE` on every
    /// kernel with or without the offload — the one refusal a test can
    /// count on.  (A segment size of 0 is not one: the kernel then sends a
    /// single oversized datagram.)
    #[test]
    fn an_oversized_train_is_refused_whole_and_classified_not_here() {
        let listener = UdpSocket::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
        let packets = vec![vec![7u8; 1400]; 47];
        let error = send_train(&sender, &packets, listener.local_addr().unwrap())
            .expect_err("65 800 bytes cannot ride one train");
        assert!(not_here(&error), "{error}");
        let mut buf = [0u8; 2048];
        assert!(listener.recv_from(&mut buf).is_err(), "nothing was sent");
    }
}
