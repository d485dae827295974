//! Heap allocations on the device → gateway uplink path, counted by a
//! global allocator on the measuring thread only.
//!
//! Every uplink copy a gateway hears is a LoRaWAN frame, then an rxpk,
//! then part of a PUSH_DATA wire. For the 23-byte frame the
//! experiments send, deriving the session keys and building or cloning
//! the rxpk allocate nothing, encoding the frame allocates its one
//! buffer, and encoding a PUSH_DATA allocates its wire and at most one
//! scratch body.
//!
//! One test in this file, as in the other allocator audits.

use gateway::forwarder::codec::{Datagram, GatewayEui, RxPacket};
use lora_mac::device::{DevAddr, SessionKeys};
use lora_mac::frame::PhyPayload;
use lora_phy::channel::Channel;
use lora_phy::types::SpreadingFactor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while the measuring thread runs the code under audit.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call goes to `System` with the caller's arguments
// unchanged; the counting beside it reads a const-initialised
// thread-local and adds to an atomic, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` on this thread and return it with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn the_uplink_path_allocates_only_its_buffers() {
    let network_key = [0x5A; 16];
    let dev = DevAddr::new(1, 42);

    let (keys, n) = counted(|| SessionKeys::derive(black_box(&network_key), dev));
    assert_eq!(n, 0, "SessionKeys::derive allocated");

    let frame = PhyPayload::uplink(dev, 7, 1, &[0xA5; 10]);
    let (phy, n) = counted(|| frame.encode(black_box(&keys)).expect("frame encodes"));
    assert_eq!(phy.len(), 23, "the experiments' frame length");
    assert_eq!(n, 1, "PhyPayload::encode allocated other than its buffer");

    let ((rx, copy), n) = counted(|| {
        let rx = RxPacket::new(
            1_000_000,
            Channel::khz125(916_800_000),
            SpreadingFactor::SF12,
            -97.0,
            -3.5,
            black_box(&phy),
        )
        .with_trace(9);
        let copy = rx.clone();
        (rx, copy)
    });
    assert_eq!(n, 0, "RxPacket::new and clone allocated");
    assert_eq!(copy, rx);
    assert_eq!(rx.phy_payload().as_deref(), Some(&phy[..]));

    let push = Datagram::PushData {
        token: 1,
        eui: GatewayEui(7),
        rxpk: vec![rx; 64],
    };
    let (wire, n) = counted(|| push.encode());
    assert!(
        (1..=2).contains(&n),
        "Datagram::encode made {n} allocations, not its wire and at most one scratch body"
    );
    assert_eq!(Datagram::decode(&wire), Some(push));
}
