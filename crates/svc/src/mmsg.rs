//! Many datagrams per system call: the ingest socket's receive ring.
//!
//! [`Ring::recv`] blocks for one datagram and takes whatever else the
//! socket already holds in the same call (`recvmmsg` with
//! `MSG_WAITFORONE`); [`Ring::flush_acks`] sends every reply queued
//! since with one `sendmmsg`. Both calls are Linux's; elsewhere the
//! same `Ring` fills one slot with `recv_from` and replies with
//! `send_to`, so the caller has one shape.
//!
//! This is the only source file of any crate with `unsafe` in it (CI
//! checks `crates/*/src`). The kernel's headers are rebuilt on the stack from the
//! ring's owned buffers for each call, so no raw pointer outlives the
//! call it was made for.

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6};

/// Datagrams one receive takes at most.
pub(crate) const RING: usize = 16;
/// Bytes per slot: no UDP payload (at most 65 507 bytes) is truncated.
const SLOT: usize = 65_536;
/// Bytes of a `sockaddr_in6`, the longest peer name the socket yields.
const NAME: usize = 28;

/// Linux's address families, which is how a slot spells its peer on
/// every platform.
const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;

/// A reply to the sender of one slot's datagram.
pub(crate) type Ack = [u8; 4];

/// [`RING`] receive slots, the peer each was filled from, and the
/// replies queued for those peers.
pub(crate) struct Ring {
    /// `RING × SLOT` zeroed bytes; a page is resident only once a
    /// datagram reached it.
    slots: Vec<u8>,
    lens: [usize; RING],
    /// Each slot's peer as a Linux `sockaddr_in` / `sockaddr_in6`.
    names: [[u8; NAME]; RING],
    name_lens: [u32; RING],
    acks: Vec<(usize, Ack)>,
}

impl Ring {
    pub(crate) fn new() -> Ring {
        Ring {
            slots: vec![0; RING * SLOT],
            lens: [0; RING],
            names: [[0; NAME]; RING],
            name_lens: [0; RING],
            acks: Vec::with_capacity(RING),
        }
    }

    /// The datagram in slot `i` of the last [`Ring::recv`].
    pub(crate) fn datagram(&self, i: usize) -> &[u8] {
        &self.slots[i * SLOT..i * SLOT + self.lens[i]]
    }

    /// Who sent the datagram in slot `i`; `None` for a peer name that
    /// is neither IPv4 nor IPv6.
    pub(crate) fn peer(&self, i: usize) -> Option<SocketAddr> {
        decode_name(&self.names[i][..self.name_lens[i] as usize])
    }

    /// Queue `bytes` for the sender of slot `i`, to leave with the next
    /// [`Ring::flush_acks`].
    pub(crate) fn ack(&mut self, i: usize, bytes: Ack) {
        self.acks.push((i, bytes));
    }
}

/// The address in a Linux `sockaddr_in` / `sockaddr_in6`: family in
/// host order, port in network order, then the address (and for IPv6
/// flow info before it and scope id after).
fn decode_name(name: &[u8]) -> Option<SocketAddr> {
    let family = u16::from_ne_bytes(name.get(0..2)?.try_into().ok()?);
    let port = u16::from_be_bytes(name.get(2..4)?.try_into().ok()?);
    match family {
        AF_INET => {
            let ip: [u8; 4] = name.get(4..8)?.try_into().ok()?;
            Some(SocketAddrV4::new(Ipv4Addr::from(ip), port).into())
        }
        AF_INET6 => {
            let flow = u32::from_ne_bytes(name.get(4..8)?.try_into().ok()?);
            let ip: [u8; 16] = name.get(8..24)?.try_into().ok()?;
            let scope = u32::from_ne_bytes(name.get(24..28)?.try_into().ok()?);
            Some(SocketAddrV6::new(Ipv6Addr::from(ip), port, flow, scope).into())
        }
        _ => None,
    }
}

/// The same `Ring` without the two Linux calls: one datagram per
/// receive, one `send_to` per reply. Compiled into Linux test builds
/// too, where it is held to the same expectations as `sys`.
#[cfg(any(test, not(target_os = "linux")))]
mod portable {
    use super::{Ring, AF_INET, AF_INET6, NAME, SLOT};
    use std::io;
    use std::net::{SocketAddr, UdpSocket};

    impl Ring {
        /// Receive into one slot with `recv_from`.
        pub(super) fn recv_one(&mut self, socket: &UdpSocket) -> io::Result<usize> {
            self.acks.clear();
            let (len, peer) = socket.recv_from(&mut self.slots[..SLOT])?;
            self.lens[0] = len;
            self.name_lens[0] = encode_name(peer, &mut self.names[0]);
            Ok(1)
        }

        /// Send the queued replies, one `send_to` each.
        pub(super) fn flush_one_by_one(&mut self, socket: &UdpSocket) {
            for &(slot, bytes) in &self.acks {
                if let Some(peer) = self.peer(slot) {
                    let _ = socket.send_to(&bytes, peer);
                }
            }
            self.acks.clear();
        }

        /// Block until a datagram arrives (or the socket's read timeout
        /// passes: `WouldBlock` / `TimedOut`) and take it; returns the
        /// slots filled, one. Replies still queued for the previous
        /// slots are dropped.
        #[cfg(not(target_os = "linux"))]
        pub(crate) fn recv(&mut self, socket: &UdpSocket) -> io::Result<usize> {
            self.recv_one(socket)
        }

        /// Send every queued reply. A failed send is skipped: an ACK
        /// is best effort.
        #[cfg(not(target_os = "linux"))]
        pub(crate) fn flush_acks(&mut self, socket: &UdpSocket) {
            self.flush_one_by_one(socket)
        }
    }

    /// `peer` as a Linux `sockaddr_in` / `sockaddr_in6` in `name`;
    /// returns its length.
    pub(super) fn encode_name(peer: SocketAddr, name: &mut [u8; NAME]) -> u32 {
        name[2..4].copy_from_slice(&peer.port().to_be_bytes());
        match peer {
            SocketAddr::V4(v4) => {
                name[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                name[4..8].copy_from_slice(&v4.ip().octets());
                name[8..16].fill(0);
                16
            }
            SocketAddr::V6(v6) => {
                name[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                name[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                name[8..24].copy_from_slice(&v6.ip().octets());
                name[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                28
            }
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Ring, NAME, RING, SLOT};
    use std::ffi::{c_int, c_uint, c_void};
    use std::io;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;
    use std::ptr;

    /// `struct iovec`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct IoVec {
        base: *mut c_void,
        len: usize,
    }

    /// `struct msghdr`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct MsgHdr {
        name: *mut c_void,
        name_len: u32,
        iov: *mut IoVec,
        iov_len: usize,
        control: *mut c_void,
        control_len: usize,
        flags: c_int,
    }

    /// `struct mmsghdr`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct MMsgHdr {
        hdr: MsgHdr,
        /// Bytes received into, or sent from, this header.
        len: c_uint,
    }

    /// `recvmmsg` returns once one datagram is in, with whatever else
    /// is queued.
    const MSG_WAITFORONE: c_int = 0x10000;

    extern "C" {
        fn recvmmsg(
            fd: c_int,
            msgvec: *mut MMsgHdr,
            vlen: c_uint,
            flags: c_int,
            timeout: *mut c_void,
        ) -> c_int;
        fn sendmmsg(fd: c_int, msgvec: *mut MMsgHdr, vlen: c_uint, flags: c_int) -> c_int;
    }

    const NO_IOV: IoVec = IoVec {
        base: ptr::null_mut(),
        len: 0,
    };
    const NO_MSG: MMsgHdr = MMsgHdr {
        hdr: MsgHdr {
            name: ptr::null_mut(),
            name_len: 0,
            iov: ptr::null_mut(),
            iov_len: 0,
            control: ptr::null_mut(),
            control_len: 0,
            flags: 0,
        },
        len: 0,
    };

    impl Ring {
        /// Block until a datagram arrives (or the socket's read
        /// timeout passes: `WouldBlock` / `TimedOut`), take it and
        /// whatever else the socket holds, up to [`RING`], and return
        /// how many slots were filled. Replies still queued for the
        /// previous slots are dropped.
        pub(crate) fn recv(&mut self, socket: &UdpSocket) -> io::Result<usize> {
            self.acks.clear();
            let mut iovs = [NO_IOV; RING];
            let mut msgs = [NO_MSG; RING];
            let slots = self.slots.chunks_exact_mut(SLOT);
            for (((slot, name), iov), msg) in
                slots.zip(&mut self.names).zip(&mut iovs).zip(&mut msgs)
            {
                *iov = IoVec {
                    base: slot.as_mut_ptr().cast(),
                    len: SLOT,
                };
                msg.hdr.name = name.as_mut_ptr().cast();
                msg.hdr.name_len = NAME as u32;
                msg.hdr.iov = iov;
                msg.hdr.iov_len = 1;
            }
            // SAFETY: `msgs` holds RING headers, and RING is passed as
            // their count. Each points at one `IoVec` of `iovs`, which
            // spans one whole SLOT-byte chunk of `self.slots`, and at
            // one NAME-byte element of `self.names`, with those lengths
            // beside the pointers; no two headers share a chunk or an
            // element. `iovs`, `msgs` and the exclusive borrow of
            // `self` all outlive the call, and the kernel keeps none of
            // the pointers after it returns. A null timeout is allowed
            // (the socket's own read timeout applies).
            let filled = unsafe {
                recvmmsg(
                    socket.as_raw_fd(),
                    msgs.as_mut_ptr(),
                    RING as c_uint,
                    MSG_WAITFORONE,
                    ptr::null_mut(),
                )
            };
            if filled < 0 {
                return Err(io::Error::last_os_error());
            }
            let filled = filled as usize;
            for (i, msg) in msgs[..filled].iter().enumerate() {
                // The kernel reports what it wrote; the `min`s keep a
                // wrong report from reaching past a slot.
                self.lens[i] = (msg.len as usize).min(SLOT);
                self.name_lens[i] = msg.hdr.name_len.min(NAME as u32);
            }
            Ok(filled)
        }

        /// Send every queued reply. A reply the kernel refuses is
        /// skipped, as a failed `send_to` would be: an ACK is best
        /// effort.
        pub(crate) fn flush_acks(&mut self, socket: &UdpSocket) {
            let queued = self.acks.len().min(RING);
            if queued == 0 {
                return;
            }
            let mut iovs = [NO_IOV; RING];
            let mut msgs = [NO_MSG; RING];
            for (((slot, bytes), iov), msg) in self.acks.iter().zip(&mut iovs).zip(&mut msgs) {
                // `sendmmsg` reads the payload and the name, never
                // writes them: the `*mut` is the C signature's.
                *iov = IoVec {
                    base: bytes.as_ptr().cast_mut().cast(),
                    len: bytes.len(),
                };
                msg.hdr.name = self.names[*slot].as_ptr().cast_mut().cast();
                msg.hdr.name_len = self.name_lens[*slot];
                msg.hdr.iov = iov;
                msg.hdr.iov_len = 1;
            }
            let mut done = 0;
            while done < queued {
                let rest = &mut msgs[done..queued];
                // SAFETY: `rest` is a live slice of headers whose
                // length is passed as their count. Each points at one
                // `IoVec` of `iovs` spanning the four bytes of one
                // entry of `self.acks`, and at one element of
                // `self.names` with a length of at most NAME (`recv`
                // clamps it). `iovs`, `msgs` and the exclusive borrow
                // of `self` outlive the call; `sendmmsg` writes only
                // the headers' `len`, reads through every other
                // pointer, and keeps none.
                let sent = unsafe {
                    sendmmsg(
                        socket.as_raw_fd(),
                        rest.as_mut_ptr(),
                        rest.len() as c_uint,
                        0,
                    )
                };
                // An error is that of the first header of `rest`.
                done += if sent > 0 { sent as usize } else { 1 };
            }
            self.acks.clear();
        }
    }

    #[cfg(all(test, target_pointer_width = "64"))]
    mod tests {
        use super::{IoVec, MMsgHdr, MsgHdr};
        use std::mem::{align_of, offset_of, size_of};

        /// The 64-bit Linux ABI, x86-64 and aarch64 alike (`struct
        /// iovec`, `struct msghdr`, `struct mmsghdr` of
        /// `<sys/socket.h>`): where the kernel reads and writes every
        /// field the ring sets or reads back, not the sizes alone.
        #[test]
        fn headers_have_the_kernel_layout() {
            assert_eq!((size_of::<IoVec>(), align_of::<IoVec>()), (16, 8));
            assert_eq!((offset_of!(IoVec, base), offset_of!(IoVec, len)), (0, 8));
            assert_eq!((size_of::<MsgHdr>(), align_of::<MsgHdr>()), (56, 8));
            assert_eq!(offset_of!(MsgHdr, name), 0);
            assert_eq!(offset_of!(MsgHdr, name_len), 8);
            assert_eq!(offset_of!(MsgHdr, iov), 16);
            assert_eq!(offset_of!(MsgHdr, iov_len), 24);
            assert_eq!(offset_of!(MsgHdr, control), 32);
            assert_eq!(offset_of!(MsgHdr, control_len), 40);
            assert_eq!(offset_of!(MsgHdr, flags), 48);
            assert_eq!((size_of::<MMsgHdr>(), align_of::<MMsgHdr>()), (64, 8));
            assert_eq!(
                (offset_of!(MMsgHdr, hdr), offset_of!(MMsgHdr, len)),
                (0, 56)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::portable::encode_name;
    use super::*;
    use proptest::prelude::*;
    use std::io;
    use std::net::UdpSocket;
    use std::time::Duration;

    fn pair(bind: &str) -> Option<(UdpSocket, UdpSocket)> {
        let server = UdpSocket::bind(bind).ok()?;
        server
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("timeout");
        let client = UdpSocket::bind(bind).ok()?;
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        Some((server, client))
    }

    #[test]
    fn names_round_trip_both_families() {
        let peers: [SocketAddr; 3] = [
            "127.0.0.1:1700".parse().expect("v4"),
            "[::1]:65535".parse().expect("v6"),
            SocketAddrV6::new("fe80::1".parse().expect("ip"), 9, 0x1234, 7).into(),
        ];
        for peer in peers {
            let mut name = [0xFFu8; NAME];
            let len = encode_name(peer, &mut name) as usize;
            assert_eq!(decode_name(&name[..len]), Some(peer));
            // A name cut inside the address, or of another family, is
            // no address.
            assert_eq!(decode_name(&name[..len / 2 - 1]), None);
        }
        assert_eq!(decode_name(&[1, 0, 0, 0, 0, 0, 0, 0]), None);
        assert_eq!(decode_name(&[]), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4_096))]
        /// Whatever bytes a name holds, of any family and any length a
        /// `sockaddr` can have: no panic, an address only where every
        /// field of a `sockaddr_in` / `sockaddr_in6` is there, and that
        /// address spelled back is the raw name the ACK is sent to.
        fn decode_name_takes_any_bytes(
            family in any::<u16>(),
            pick in 0u8..4,
            mut name in collection::vec(any::<u8>(), 0..129),
        ) {
            // A random family is seldom one the socket yields: half the
            // cases get one.
            let family = [AF_INET, AF_INET6, family, family][pick as usize];
            if let Some(head) = name.get_mut(0..2) {
                head.copy_from_slice(&family.to_ne_bytes());
            }
            let fields = match family {
                _ if name.len() < 2 => usize::MAX,
                AF_INET => 8,
                AF_INET6 => 28,
                _ => usize::MAX,
            };
            match decode_name(&name) {
                None => prop_assert!(name.len() < fields, "refused: {name:?}"),
                Some(peer) => {
                    prop_assert!(name.len() >= fields, "made up: {name:?}");
                    prop_assert_eq!(peer.is_ipv4(), family == AF_INET);
                    let mut raw = [0xFFu8; NAME];
                    let len = encode_name(peer, &mut raw) as usize;
                    prop_assert_eq!(&raw[..fields], &name[..fields]);
                    prop_assert_eq!(decode_name(&raw[..len]), Some(peer));
                }
            }
        }
    }

    /// What one `recv` must yield for `wires` sent before it, and what
    /// `flush_acks` must send back.
    fn drains_and_acks(
        recv: fn(&mut Ring, &UdpSocket) -> io::Result<usize>,
        flush: fn(&mut Ring, &UdpSocket),
        at_once: usize,
    ) {
        let (server, client) = pair("127.0.0.1:0").expect("loopback");
        let to = server.local_addr().expect("addr");
        let mut ring = Ring::new();
        let timed_out = recv(&mut ring, &server).expect_err("nothing sent");
        assert!(matches!(
            timed_out.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ));
        // More than a ring, of every length class: empty, short, long,
        // and once the largest UDP payload.
        let wires: Vec<Vec<u8>> = (0..RING + 5)
            .map(|i| match i % 3 {
                _ if i == 4 => vec![0xEE; 65_507],
                0 => Vec::new(),
                1 => vec![i as u8; 1 + i],
                _ => vec![i as u8; 1_400],
            })
            .collect();
        for wire in &wires {
            client.send_to(wire, to).expect("send");
        }
        let mut seen = 0;
        while seen < wires.len() {
            let n = recv(&mut ring, &server).expect("datagrams queued");
            assert!((1..=at_once).contains(&n));
            if at_once > 1 {
                // Everything was queued before the call.
                assert_eq!(n, (wires.len() - seen).min(RING));
            }
            for i in 0..n {
                assert!(ring.datagram(i) == wires[seen + i], "datagram {}", seen + i);
                assert_eq!(ring.peer(i), Some(client.local_addr().expect("addr")));
                // Every other datagram is answered.
                if (seen + i) % 2 == 0 {
                    ring.ack(i, [(seen + i) as u8, 1, 2, 3]);
                }
            }
            flush(&mut ring, &server);
            flush(&mut ring, &server); // nothing queued: sends nothing
            seen += n;
        }
        let mut buf = [0u8; 16];
        for i in (0..wires.len()).step_by(2) {
            let (len, from) = client.recv_from(&mut buf).expect("ack");
            assert_eq!(&buf[..len], &[i as u8, 1, 2, 3]);
            assert_eq!(from, to);
        }
        client
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("timeout");
        assert!(client.recv_from(&mut buf).is_err(), "an ACK too many");
    }

    #[test]
    fn one_recv_drains_the_socket_and_one_flush_answers() {
        drains_and_acks(Ring::recv, Ring::flush_acks, RING);
    }

    #[test]
    fn the_portable_bodies_do_the_same_one_at_a_time() {
        drains_and_acks(Ring::recv_one, Ring::flush_one_by_one, 1);
    }

    #[test]
    fn a_refused_reply_does_not_hold_back_the_rest() {
        let (server, client) = pair("127.0.0.1:0").expect("loopback");
        let to = server.local_addr().expect("addr");
        let mut ring = Ring::new();
        for i in 0..3u8 {
            client.send_to(&[i], to).expect("send");
        }
        let mut seen = 0;
        while seen < 3 {
            let n = ring.recv(&server).expect("queued");
            for i in 0..n {
                ring.ack(i, [ring.datagram(i)[0]; 4]);
            }
            // Port 0 is no destination: the kernel refuses that reply.
            if seen == 0 {
                ring.names[0][2..4].fill(0);
            }
            ring.flush_acks(&server);
            seen += n;
        }
        let mut buf = [0u8; 16];
        for want in 1..3u8 {
            let (len, _) = client.recv_from(&mut buf).expect("ack");
            assert_eq!(&buf[..len], &[want; 4]);
        }
    }

    #[test]
    fn an_ipv6_peer_is_read_from_the_raw_name() {
        // No IPv6 loopback on this host: nothing to check.
        let Some((server, client)) = pair("[::1]:0") else {
            return;
        };
        let mut ring = Ring::new();
        client
            .send_to(b"six", server.local_addr().expect("addr"))
            .expect("send");
        assert_eq!(ring.recv(&server).expect("queued"), 1);
        assert_eq!(ring.datagram(0), b"six");
        assert_eq!(ring.peer(0), Some(client.local_addr().expect("addr")));
        ring.ack(0, *b"ack!");
        ring.flush_acks(&server);
        let mut buf = [0u8; 16];
        let (len, _) = client.recv_from(&mut buf).expect("ack");
        assert_eq!(&buf[..len], b"ack!");
    }
}
