//! `netserver::dedup` driven through faulty backhauls from two
//! gateways: duplication and reordering must never cause a frame to be
//! delivered ("New") more than once, and heavily delayed copies must be
//! classified Late, not New.

use chaos::{FaultPlan, FaultSchedule, FaultSpec};
use lora_mac::device::DevAddr;
use netserver::dedup::{DedupOutcome, Deduplicator, UplinkCopy};
use std::collections::HashMap;

const WINDOW_US: u64 = 200_000;

/// Send `frames` uplinks through two per-gateway faulty backhauls (the
/// `fcnt`-th datagram of each takes its schedule's `datagram_fate`) and
/// feed the surviving copies to one deduplicator in arrival order.
/// Returns New-count per frame plus the deduplicator for inspection.
fn run(faults: Vec<FaultSpec>, frames: u16, period_us: u64) -> (HashMap<u16, u32>, Deduplicator) {
    let schedule = |seed| {
        FaultSchedule::compile(&FaultPlan {
            seed,
            faults: faults.clone(),
        })
        .unwrap()
    };
    // Independent fault decisions per gateway link (different seeds).
    let links = [schedule(1), schedule(2)];

    // (arrival_us, sent_us order tiebreak, gw, fcnt)
    let mut events: Vec<(u64, u64, usize, u16)> = Vec::new();
    for fcnt in 0..frames {
        let sent_us = u64::from(fcnt) * period_us;
        for (gw, link) in links.iter().enumerate() {
            let fate = link.datagram_fate(u64::from(fcnt), sent_us);
            for arrival_us in fate.arrivals(sent_us) {
                events.push((arrival_us, sent_us, gw, fcnt));
            }
        }
    }
    events.sort();

    let mut dedup = Deduplicator::new(WINDOW_US);
    let mut new_counts: HashMap<u16, u32> = HashMap::new();
    for (_arrival_us, sent_us, gw, fcnt) in events {
        let outcome = dedup.offer(UplinkCopy {
            dev_addr: DevAddr(7),
            fcnt,
            gw_id: gw,
            // Gateways timestamp at reception, before the backhaul.
            received_us: sent_us,
            snr_db: if gw == 0 { 3.0 } else { 6.0 },
            trace: 0,
        });
        if outcome == DedupOutcome::New {
            *new_counts.entry(fcnt).or_insert(0) += 1;
        }
    }
    (new_counts, dedup)
}

#[test]
fn duplicated_uplinks_from_two_gateways_deliver_once() {
    let (new_counts, dedup) = run(
        vec![FaultSpec::BackhaulDuplicate {
            probability: 1.0,
            lag_us: 5_000,
            start_us: 0,
            end_us: u64::MAX,
        }],
        200,
        50_000,
    );
    // 4 copies per frame (2 gateways × dup) — exactly one New each.
    for (fcnt, n) in &new_counts {
        assert_eq!(*n, 1, "frame {fcnt} delivered {n} times");
    }
    assert_eq!(new_counts.len(), 200);
    let stats = dedup.stats();
    assert_eq!(stats.offered, 800);
    assert_eq!(stats.new, 200);
    assert_eq!(stats.duplicate + stats.late, 600);
}

#[test]
fn reordered_uplinks_never_double_deliver() {
    // Holds shorter than the dedup window: every copy stays
    // classifiable, reordering alone must not create duplicates.
    let (new_counts, dedup) = run(
        vec![FaultSpec::BackhaulReorder {
            probability: 0.5,
            hold_us: 150_000,
            start_us: 0,
            end_us: u64::MAX,
        }],
        300,
        20_000,
    );
    for (fcnt, n) in &new_counts {
        assert_eq!(*n, 1, "frame {fcnt} delivered {n} times");
    }
    assert_eq!(new_counts.len(), 300);
    assert_eq!(
        dedup.stats().late,
        0,
        "holds within the window are never Late"
    );
}

#[test]
fn copies_delayed_past_the_window_classified_late_not_new() {
    // Reorder holds far beyond the dedup window: the held copy's frame
    // has expired by the time it lands. It must come out Late — the
    // pre-hardening deduplicator called it New (double delivery).
    let (new_counts, dedup) = run(
        vec![FaultSpec::BackhaulReorder {
            probability: 0.3,
            hold_us: 2_000_000,
            start_us: 0,
            end_us: u64::MAX,
        }],
        300,
        20_000,
    );
    for (fcnt, n) in &new_counts {
        assert!(*n <= 1, "frame {fcnt} delivered {n} times");
    }
    let stats = dedup.stats();
    assert!(stats.late > 0, "long-held copies must be classified Late");
    assert_eq!(stats.new + stats.duplicate + stats.late, stats.offered);
}

#[test]
fn loss_plus_duplication_still_at_most_once_per_frame() {
    let (new_counts, _) = run(
        vec![
            FaultSpec::BackhaulLoss {
                probability: 0.3,
                start_us: 0,
                end_us: u64::MAX,
            },
            FaultSpec::BackhaulDuplicate {
                probability: 0.5,
                lag_us: 40_000,
                start_us: 0,
                end_us: u64::MAX,
            },
            FaultSpec::BackhaulDelay {
                base_us: 10_000,
                jitter_us: 30_000,
                start_us: 0,
                end_us: u64::MAX,
            },
        ],
        400,
        30_000,
    );
    for (fcnt, n) in &new_counts {
        assert_eq!(*n, 1, "frame {fcnt} delivered {n} times");
    }
    // Two independent lossy links at p=0.3: losing all copies of a
    // frame is rare but possible; most frames must still get through.
    assert!(
        new_counts.len() > 350,
        "{} frames delivered",
        new_counts.len()
    );
}
