//! What a logged decision costs `netserverd` in heap, counted by a
//! global allocator that tracks live bytes.
//!
//! The decision log is the daemon's only per-packet state. A live
//! daemon is sent three log blocks' worth of keyed uplinks; between the
//! first block filled and the third, the heap may grow by at most
//! [`BYTES_PER_DECISION`] a decision plus [`BLOCK_OVERHEAD`] a block.
//! A log that kept whole `Decision`s (24 bytes with their padding)
//! fails here.
//!
//! One test in this file: nothing else in the process allocates while
//! it counts.

use gateway::forwarder::codec::{Datagram, GatewayEui, RxPacket};
use lora_phy::channel::Channel;
use lora_phy::types::SpreadingFactor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::{Ipv4Addr, UdpSocket};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};
use svc::{NetServerConfig, NetServerDaemon};

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call goes to `System` with the caller's arguments
// unchanged; the counting is an atomic add beside it.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Decisions a log block holds.
const BLOCK: u64 = 1 << 16;
/// Keyed rxpk per PUSH_DATA: a block is 1 024 datagrams.
const RXPK: u64 = 64;
/// A 12-byte record and a 2-bit outcome code, with ¼ byte to spare.
const BYTES_PER_DECISION: f64 = 12.5;
/// Per block, the block's own header and whatever the ingest thread's
/// per-drain buffers still grow by (they hold at most one drain).
const BLOCK_OVERHEAD: i64 = 32 << 10;

/// PUSH_DATA number `i`: 64 uplinks from distinct devices, 50 ms
/// apart, so that every copy is new and the dedup window holds only a
/// few dozen (the dedup map is not what is measured).
fn push_data(i: u64) -> Vec<u8> {
    let rxpk = (0..RXPK)
        .map(|k| {
            let n = i * RXPK + k;
            let mut phy = vec![0x40];
            phy.extend_from_slice(&(0x2601_0000 + n as u32).to_le_bytes());
            phy.push(0);
            phy.extend_from_slice(&(n as u16).to_le_bytes());
            phy.extend_from_slice(&[0; 4]);
            RxPacket::new(
                50_000 * n,
                Channel::khz125(916_800_000),
                SpreadingFactor::SF7,
                -95.0,
                6.5,
                &phy,
            )
        })
        .collect();
    Datagram::PushData {
        token: i as u16,
        eui: GatewayEui(7),
        rxpk,
    }
    .encode()
}

/// Send PUSH_DATA `from..to` four at a time, waiting after each burst
/// until the daemon has decided it, so its socket never sheds.
fn send(daemon: &NetServerDaemon, socket: &UdpSocket, from: u64, to: u64) {
    for burst in (from..to).step_by(4) {
        let end = (burst + 4).min(to);
        for i in burst..end {
            socket.send_to(&push_data(i), daemon.addr()).expect("send");
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while daemon.counter("svc_datagrams_total") != end {
            assert!(Instant::now() < deadline, "datagram {end} never decided");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[test]
fn a_logged_decision_costs_at_most_twelve_and_a_half_bytes() {
    let daemon = NetServerDaemon::start(NetServerConfig::default(), None).expect("daemon starts");
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
    let per_block = BLOCK / RXPK;
    send(&daemon, &socket, 0, per_block);
    let one_block = LIVE.load(Ordering::Relaxed);
    send(&daemon, &socket, per_block, 3 * per_block);
    let three_blocks = LIVE.load(Ordering::Relaxed);
    assert_eq!(daemon.counter("svc_pkts_total"), 3 * BLOCK);
    assert_eq!(daemon.decisions_dropped(), 0);

    let grown = three_blocks - one_block;
    let bound = (BYTES_PER_DECISION * (2 * BLOCK) as f64) as i64 + 2 * BLOCK_OVERHEAD;
    eprintln!(
        "{grown} B, {:.3} B a decision",
        grown as f64 / (2 * BLOCK) as f64
    );
    assert!(
        grown <= bound,
        "two blocks of decisions took {grown} B, {:.2} B a decision (bound {bound} B)",
        grown as f64 / (2 * BLOCK) as f64
    );
    let logs = daemon.decisions();
    assert_eq!(logs[0].len() as u64, 3 * BLOCK, "every decision logged");
    daemon.shutdown();
}
