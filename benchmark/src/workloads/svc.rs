//! `svc-bulk` and `svc-single`: a pre-encoded gateway fleet sent over
//! loopback UDP to an in-process `svc::NetServerDaemon`, open loop at
//! two fixed rates and then closed loop at saturation (a row of short
//! slices), all from the calling thread over one connected socket.

use super::micro::{self, splitmix, unit};
use crate::harness::{
    best_high, best_low, median, peak_rss_mb, pin_to_current_cpu, quantile, setup_reps,
    slice_medians, timed, Outcome, RunCfg, SpanId, Tracer,
};
use gateway::forwarder::codec::{Datagram, GatewayEui, RxPacket};
use lora_mac::device::DevAddr;
use lora_phy::channel::ChannelGrid;
use lora_phy::types::SpreadingFactor;
use netserver::dedup::UplinkCopy;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};
use svc::{replay_divergence, LatencyQuantiles, NetServerConfig, NetServerDaemon};

/// Virtual-time anchor of rxpk `tmst`: every patched value stays in
/// `[10^9, 10^10)`, ten ASCII digits, so patching never resizes a wire.
const TMST_BASE_US: u64 = 1_000_000_000;
const TMST_MAX_US: u64 = 9_999_999_999;
const GATEWAY_EUI_BASE: u64 = 0x00AA_0000_0000_0000;
/// PUSH_DATA datagrams in flight without a PUSH_ACK, at most.
const WINDOW: u64 = 8;
/// A window slot whose ACK has not come after this long is given up.
/// Long enough that a descheduled receiver thread is not taken for a
/// lost datagram: every slot given up puts one more datagram into the
/// daemon's socket buffer, and a full buffer drops.
const STALL: Duration = Duration::from_millis(50);
/// The saturation phase is a row of closed loops this long, each
/// drained and counted on its own: one throughput sample per slice.
const SAT_SLICE_S: f64 = 0.2;
/// Slices a fixed-rate phase's round trips are cut into, one median
/// each.
const RTT_SLICES: usize = 10;
/// No decision-log cap in practice: every decision is replayed.
const DECISION_LOG_CAP: usize = 64_000_000;

/// Frozen sizes of one svc workload.
pub struct SvcSizes {
    pub gateways: usize,
    pub devices: usize,
    /// Uplink frames per epoch (one replay of the fleet's schedule).
    pub frames: usize,
    /// rxpk per PUSH_DATA.
    pub batch: usize,
    /// Open-loop rates, datagrams per second.
    pub rate_lo: f64,
    pub rate_hi: f64,
}

pub fn sizes(workload: &str, smoke: bool) -> SvcSizes {
    let (batch, rate_lo, rate_hi) = match workload {
        // 250 000 and 600 000 packets per second.
        "svc-bulk" => (64, 250_000.0 / 64.0, 600_000.0 / 64.0),
        "svc-single" => (1, 20_000.0, 50_000.0),
        _ => panic!("not a svc workload: {workload}"),
    };
    SvcSizes {
        gateways: 4,
        devices: if smoke { 256 } else { 4_096 },
        frames: if smoke { 1_024 } else { 16_384 },
        batch,
        rate_lo,
        rate_hi,
    }
}

/// One pre-encoded PUSH_DATA and where its patchable fields are.
pub struct Template {
    pub wire: Vec<u8>,
    /// `(byte offset, epoch-0 value)` of each ten-digit tmst field.
    tmst: Vec<(usize, u64)>,
    pub pkts: u32,
}

/// The fleet's datagram stream for one epoch, replayed with shifted
/// timestamps.
pub struct Fleet {
    pub datagrams: Vec<Template>,
    pub pkts_per_epoch: u64,
    pub frames_per_epoch: u64,
    /// Virtual time per epoch; exceeds the dedup window so FCnt reuse
    /// across epochs classifies `New`.
    pub epoch_span_us: u64,
    /// The epoch-0 copy stream in send order, for the in-process dedup
    /// timing.
    pub copies: Vec<UplinkCopy>,
    /// One decoded datagram, for the codec timings.
    pub sample: Datagram,
}

/// Locate every `"tmst":<10 digits>` value of an encoded PUSH_DATA.
fn tmst_fields(wire: &[u8]) -> Vec<(usize, u64)> {
    const KEY: &[u8] = b"\"tmst\":";
    let mut out = Vec::new();
    let mut i = 0;
    while i + KEY.len() + 10 <= wire.len() {
        if &wire[i..i + KEY.len()] == KEY {
            let at = i + KEY.len();
            let digits = std::str::from_utf8(&wire[at..at + 10]).expect("ascii digits");
            out.push((at, digits.parse().expect("ten-digit tmst")));
            i = at + 10;
        } else {
            i += 1;
        }
    }
    out
}

fn patch_tmst(wire: &mut [u8], at: usize, value: u64) {
    debug_assert!((TMST_BASE_US..=TMST_MAX_US).contains(&value));
    let mut v = value;
    for k in (0..10).rev() {
        wire[at + k] = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

/// Encode one PUSH_DATA per `batch` receptions of each gateway.
pub fn encode_datagrams(per_gw: Vec<Vec<RxPacket>>, batch: usize) -> (Vec<Template>, Datagram) {
    let mut keyed: Vec<(u64, Template)> = Vec::new();
    let mut sample = None;
    for (gw, rxs) in per_gw.into_iter().enumerate() {
        for chunk in rxs.chunks(batch.max(1)) {
            let datagram = Datagram::PushData {
                token: 0,
                eui: GatewayEui(GATEWAY_EUI_BASE + gw as u64),
                rxpk: chunk.to_vec(),
            };
            let wire = datagram.encode();
            let tmst = tmst_fields(&wire);
            assert_eq!(tmst.len(), chunk.len(), "one tmst field per rxpk");
            keyed.push((
                chunk[0].tmst,
                Template {
                    wire,
                    tmst,
                    pkts: chunk.len() as u32,
                },
            ));
            sample.get_or_insert(datagram);
        }
    }
    // Interleave the gateways chronologically.
    keyed.sort_by_key(|(t, _)| *t);
    (
        keyed.into_iter().map(|(_, d)| d).collect(),
        sample.expect("the fleet received something"),
    )
}

/// Generate the fleet: `frames` uplinks round-robin over `devices`,
/// each heard by 2 to 4 of the gateways (3.5 copies per frame).
pub fn build_fleet(sz: &SvcSizes, seed: u64, window_us: u64) -> Fleet {
    let chans = ChannelGrid::standard(916_800_000, 1_600_000).channels();
    let mut rng = seed ^ 0x5FC1;
    let gap_us = 100;
    let mut per_gw: Vec<Vec<RxPacket>> = vec![Vec::new(); sz.gateways];
    let mut timeline: Vec<(u64, usize, UplinkCopy)> = Vec::new();
    for f in 0..sz.frames {
        let dev = DevAddr::new(1, (f % sz.devices) as u32);
        let fcnt = (f / sz.devices) as u16;
        let phy = micro::uplink_frame(dev, fcnt);
        let heard = match unit(&mut rng) {
            u if u < 0.6 => 4,
            u if u < 0.9 => 3,
            _ => 2,
        };
        let first = (splitmix(&mut rng) % sz.gateways as u64) as usize;
        for k in 0..heard.min(sz.gateways) {
            let gw = (first + k) % sz.gateways;
            let tmst = TMST_BASE_US + f as u64 * gap_us + k as u64;
            let snr = -2.0 - ((f * 7 + gw * 13) % 16) as f64;
            per_gw[gw].push(
                RxPacket::new(
                    tmst,
                    chans[f % chans.len()],
                    SpreadingFactor::ALL[f % 6],
                    -90.0 - ((f * 5 + gw * 3) % 30) as f64,
                    snr,
                    &phy,
                )
                .with_trace(f as u64 + 1),
            );
            timeline.push((
                tmst,
                gw,
                UplinkCopy {
                    dev_addr: dev,
                    fcnt,
                    gw_id: gw,
                    snr_db: snr,
                    received_us: tmst,
                    trace: 0,
                },
            ));
        }
    }
    let pkts_per_epoch = timeline.len() as u64;
    let (datagrams, sample) = encode_datagrams(per_gw, sz.batch);
    Fleet {
        datagrams,
        pkts_per_epoch,
        frames_per_epoch: sz.frames as u64,
        epoch_span_us: (sz.frames as u64 * gap_us).max(window_us) + 1_000_000,
        copies: timeline.into_iter().map(|(_, _, c)| c).collect(),
        sample,
    }
}

/// Where a loop takes its datagrams from.
pub trait WireSource {
    /// The next wire to send (token bytes are overwritten), `None`
    /// when there is nothing more.
    fn next_wire(&mut self) -> Option<&mut [u8]>;
}

/// Each template once, in order.
pub struct Once<'a> {
    templates: std::slice::IterMut<'a, Template>,
}

impl<'a> Once<'a> {
    pub fn new(templates: &'a mut [Template]) -> Once<'a> {
        Once {
            templates: templates.iter_mut(),
        }
    }
}

impl WireSource for Once<'_> {
    fn next_wire(&mut self) -> Option<&mut [u8]> {
        self.templates.next().map(|t| t.wire.as_mut_slice())
    }
}

/// What an open-loop phase observed.
#[derive(Default)]
pub struct OpenLoop {
    /// Per datagram: how long after its due time it left, ns.
    pub late_ns: Vec<f64>,
    /// Per PUSH_ACK: due time → ACK read, µs.
    pub rtt_us: Vec<f64>,
    /// Window slots given up after `STALL`.
    pub stalls: u64,
}

/// One connected UDP socket driven by the calling thread alone: the
/// benchmark's gateway side. At most `WINDOW` datagrams wait for their
/// PUSH_ACK at any time, so the daemon's socket buffer cannot overflow.
pub struct AckedSocket {
    socket: UdpSocket,
    origin: Instant,
    seq: u64,
    /// (token, RTT clock start in ns) of datagrams waiting for their
    /// ACK, oldest first.
    waiting: VecDeque<(u16, u64)>,
    /// When the window last made progress.
    progress: Instant,
}

impl AckedSocket {
    pub fn connect(server: SocketAddr) -> io::Result<AckedSocket> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.connect(server)?;
        socket.set_read_timeout(Some(Duration::from_millis(10)))?;
        Ok(AckedSocket {
            socket,
            origin: Instant::now(),
            seq: 0,
            waiting: VecDeque::new(),
            progress: Instant::now(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Stamp the next token and send; the RTT clock starts at `clock_ns`.
    fn send(&mut self, wire: &mut [u8], clock_ns: u64) -> io::Result<()> {
        let token = (self.seq & 0xFFFF) as u16;
        wire[1..3].copy_from_slice(&token.to_be_bytes());
        self.socket.send(wire)?;
        self.seq += 1;
        self.waiting.push_back((token, clock_ns));
        Ok(())
    }

    /// Read one datagram; if it is the PUSH_ACK of a waiting datagram,
    /// free its slot and return its clock start.
    fn read_ack(&mut self) -> Option<u64> {
        let mut buf = [0u8; 64];
        match self.socket.recv(&mut buf) {
            Ok(len) if len >= 4 && buf[3] == 0x01 => {
                let token = u16::from_be_bytes([buf[1], buf[2]]);
                let at = self.waiting.iter().position(|&(t, _)| t == token)?;
                self.progress = Instant::now();
                self.waiting.remove(at).map(|(_, clock)| clock)
            }
            _ => None,
        }
    }

    /// No ACK for `STALL`: give up the oldest slot (its late ACK is
    /// then ignored), so a lost datagram costs one stall, not a wedged
    /// sender. Returns whether a slot was given up.
    fn give_up_stalled(&mut self) -> bool {
        if self.progress.elapsed() <= STALL {
            return false;
        }
        self.progress = Instant::now();
        self.waiting.pop_front().is_some()
    }

    /// Closed loop: keep `WINDOW` datagrams in flight, sending the next
    /// one when a PUSH_ACK comes back, until `wires` runs dry or
    /// `deadline` passes; then wait for the ACKs still due. Returns
    /// (datagrams sent, slots given up).
    pub fn closed_loop(
        &mut self,
        wires: &mut dyn WireSource,
        deadline: Option<Instant>,
    ) -> io::Result<(u64, u64)> {
        let (mut sent, mut stalls) = (0u64, 0u64);
        let mut done = false;
        self.progress = Instant::now();
        loop {
            while !done && (self.waiting.len() as u64) < WINDOW {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    done = true;
                    break;
                }
                match wires.next_wire() {
                    Some(wire) => {
                        let now = self.now_ns();
                        self.send(wire, now)?;
                        sent += 1;
                    }
                    None => done = true,
                }
            }
            if self.waiting.is_empty() {
                return Ok((sent, stalls));
            }
            self.read_ack();
            stalls += self.give_up_stalled() as u64;
        }
    }

    /// Open loop: datagram `i` of `n` is due `i / rate` seconds after
    /// the start and leaves no earlier, nor before a window slot is
    /// free. Between sends the thread polls for ACKs, so each RTT runs
    /// from the due time (waiting for a slot counts) to within a
    /// microsecond of the ACK's arrival.
    pub fn open_loop(
        &mut self,
        wires: &mut dyn WireSource,
        rate: f64,
        n: u64,
    ) -> io::Result<OpenLoop> {
        let mut seen = OpenLoop::default();
        seen.late_ns.reserve(n as usize);
        seen.rtt_us.reserve(n as usize);
        self.socket.set_nonblocking(true)?;
        let gap_ns = 1e9 / rate;
        let t0 = self.now_ns() + 1_000_000;
        self.progress = Instant::now();
        let mut i = 0u64;
        while i < n || !self.waiting.is_empty() {
            while let Some(clock) = self.read_ack() {
                seen.rtt_us
                    .push(self.now_ns().saturating_sub(clock) as f64 / 1e3);
            }
            if (self.waiting.len() as u64) >= WINDOW || i == n {
                seen.stalls += self.give_up_stalled() as u64;
            }
            let due = t0 + (i as f64 * gap_ns) as u64;
            let now = self.now_ns();
            if i < n && now >= due && (self.waiting.len() as u64) < WINDOW {
                let Some(wire) = wires.next_wire() else { break };
                self.send(wire, due)?;
                seen.late_ns.push((now - due) as f64);
                i += 1;
            } else {
                // Yield, not spin: the daemon's threads share this
                // processor (see `run`) and run the moment they have
                // work only if the poller gives it up.
                std::thread::yield_now();
            }
        }
        self.socket.set_nonblocking(false)?;
        Ok(seen)
    }
}

/// Replays the fleet: hands out the next datagram with token-free
/// wire and timestamps shifted to the current epoch.
struct Replay {
    fleet: Fleet,
    cursor: usize,
    epoch: u64,
    /// Packets handed out so far.
    pkts_out: u64,
}

impl Replay {
    fn new(fleet: Fleet) -> Replay {
        Replay {
            fleet,
            cursor: 0,
            epoch: 0,
            pkts_out: 0,
        }
    }
}

impl WireSource for Replay {
    fn next_wire(&mut self) -> Option<&mut [u8]> {
        if self.cursor == self.fleet.datagrams.len() {
            self.cursor = 0;
            self.epoch += 1;
        }
        let shift = self.epoch * self.fleet.epoch_span_us;
        let d = &mut self.fleet.datagrams[self.cursor];
        self.cursor += 1;
        self.pkts_out += d.pkts as u64;
        for &(at, base) in &d.tmst {
            patch_tmst(&mut d.wire, at, base + shift);
        }
        Some(&mut d.wire)
    }
}

pub fn start_daemon() -> NetServerDaemon {
    NetServerDaemon::start(
        NetServerConfig {
            decision_log_cap: DECISION_LOG_CAP,
            ..NetServerConfig::default()
        },
        None,
    )
    .expect("netserverd binds an ephemeral loopback port")
}

/// Wait until the daemon has decided `target` packets or `patience`
/// has passed since the last progress; returns the decided count.
pub fn drain(daemon: &NetServerDaemon, target: u64, patience: Duration) -> u64 {
    let mut last = daemon.dedup_stats().offered;
    let mut since = Instant::now();
    while last < target {
        std::thread::sleep(Duration::from_micros(200));
        let now = daemon.dedup_stats().offered;
        if now != last {
            last = now;
            since = Instant::now();
        } else if since.elapsed() > patience {
            break;
        }
    }
    last
}

/// One phase's accounting.
#[derive(Default)]
struct Phase {
    datagrams: u64,
    sent_pkts: u64,
    decided_pkts: u64,
    /// First send → last send.
    send_s: f64,
    /// Last send → every packet decided.
    drain_s: f64,
    stalls: u64,
    late_ns: Vec<f64>,
    rtt_us: Vec<f64>,
}

impl Phase {
    fn lost(&self) -> u64 {
        self.sent_pkts.saturating_sub(self.decided_pkts)
    }

    /// First send → last decision visible.
    fn wall_s(&self) -> f64 {
        self.send_s + self.drain_s
    }
}

struct Bench<'a> {
    daemon: &'a NetServerDaemon,
    sock: AckedSocket,
    replay: Replay,
    /// Packets the daemon had decided before the current phase.
    decided_before: u64,
}

impl Bench<'_> {
    /// Run one phase: closed loop for `seconds` when `rate` is `None`,
    /// else open loop at `rate` datagrams per second.
    fn phase(
        &mut self,
        cycle: u32,
        name: &'static str,
        seconds: f64,
        rate: Option<f64>,
        tracer: &mut Tracer,
    ) -> Phase {
        let mut p = Phase::default();
        let root = tracer.open(name, SpanId::NONE, cycle);
        let send_span = tracer.open("svc.send", root, cycle);
        let started = Instant::now();
        let pkts_before = self.replay.pkts_out;
        match rate {
            None => {
                let deadline = started + Duration::from_secs_f64(seconds);
                let (sent, stalls) = self
                    .sock
                    .closed_loop(&mut self.replay, Some(deadline))
                    .expect("loopback send");
                p.datagrams = sent;
                p.stalls = stalls;
            }
            Some(rate) => {
                let n = (rate * seconds) as u64;
                let seen = self
                    .sock
                    .open_loop(&mut self.replay, rate, n)
                    .expect("loopback send");
                p.datagrams = n;
                p.stalls = seen.stalls;
                p.late_ns = seen.late_ns;
                p.rtt_us = seen.rtt_us;
            }
        }
        p.sent_pkts = self.replay.pkts_out - pkts_before;
        p.send_s = started.elapsed().as_secs_f64();
        tracer.close(send_span);
        let (decided, drain_s) = tracer.scope("svc.drain", root, cycle, || {
            timed(|| {
                drain(
                    self.daemon,
                    self.decided_before + p.sent_pkts,
                    Duration::from_millis(500),
                )
            })
        });
        tracer.close(root);
        p.drain_s = drain_s;
        p.decided_pkts = decided - self.decided_before;
        self.decided_before = decided;
        p
    }
}

/// What one daemon's life measured: set-up, then the three phases.
struct Cycle {
    setup_s: f64,
    fleet_s: f64,
    lo: Phase,
    hi: Phase,
    /// The saturation phase, slice by slice.
    sat: Vec<Phase>,
    ingest: LatencyQuantiles,
    malformed: u64,
    dropped: u64,
    divergence: u64,
    /// Peak RSS after the fixed-rate phases, when the daemon has
    /// decided the same number of packets on every run.
    rss_mb: f64,
    fleet: Fleet,
}

/// Start a daemon, set up the fleet, warm up with one epoch, run the
/// low-rate, high-rate and saturation phases (30 %, 30 % and 40 % of
/// `seconds`), check the daemon's output and shut it down.
fn cycle(
    sz: &SvcSizes,
    cfg: &RunCfg,
    c: u8,
    seconds: f64,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Cycle {
    let t0 = Instant::now();
    let daemon = start_daemon();
    let (fleet, fleet_s) = timed(|| build_fleet(sz, cfg.seed, daemon.window_us()));
    let mut sock = AckedSocket::connect(daemon.addr()).expect("loopback socket");
    let mut replay = Replay::new(fleet);
    // Epoch 0 goes out as encoded.
    sock.closed_loop(&mut Once::new(&mut replay.fleet.datagrams), None)
        .expect("loopback send");
    replay.cursor = replay.fleet.datagrams.len();
    let warm_pkts = replay.fleet.pkts_per_epoch;
    let decided_before = drain(&daemon, warm_pkts, Duration::from_millis(500));
    let setup_s = t0.elapsed().as_secs_f64();
    out.check(decided_before == warm_pkts, || {
        format!("warm-up: {decided_before} of {warm_pkts} packets decided")
    });

    let mut bench = Bench {
        daemon: &daemon,
        sock,
        replay,
        decided_before,
    };
    let run = c as u32 + 1;
    let lo = bench.phase(run, "svc.open_lo", seconds * 0.3, Some(sz.rate_lo), tracer);
    let hi = bench.phase(run, "svc.open_hi", seconds * 0.3, Some(sz.rate_hi), tracer);
    let rss_mb = peak_rss_mb();
    let sat_slices = (seconds * 0.4 / SAT_SLICE_S).round().max(1.0) as usize;
    let sat: Vec<Phase> = (0..sat_slices)
        .map(|_| bench.phase(run, "svc.saturation", SAT_SLICE_S, None, tracer))
        .collect();
    let replay = bench.replay;

    // Output checks: every packet decided, and the daemon's merged
    // decision stream identical to an in-process replay.
    let malformed = daemon.counter("svc_malformed_total");
    let dropped = daemon.decisions_dropped();
    let (divergence, _) = tracer.scope("svc.verify", SpanId::NONE, run, || {
        timed(|| replay_divergence(&daemon.decisions(), daemon.window_us()))
    });
    let stats = daemon.dedup_stats();
    let ingest = LatencyQuantiles::of(&daemon.ingest_latency());
    daemon.shutdown();
    let phases = [("low rate", &lo), ("high rate", &hi)]
        .into_iter()
        .chain(sat.iter().map(|p| ("saturation", p)));
    for (name, p) in phases {
        out.attempted += p.sent_pkts;
        out.failed += p.lost();
        out.check(p.lost() == 0, || {
            format!(
                "{name}, cycle {c}: {} of {} packets never decided",
                p.lost(),
                p.sent_pkts
            )
        });
    }
    out.failed += malformed;
    out.check(malformed == 0, || {
        format!("{malformed} datagrams malformed")
    });
    out.check(divergence == 0, || {
        format!("{divergence} decisions diverge from the in-process replay")
    });
    out.check(dropped == 0, || format!("{dropped} decisions not logged"));
    let fleet = replay.fleet;
    let expect_dup = 1.0 - fleet.frames_per_epoch as f64 / fleet.pkts_per_epoch as f64;
    let dup = stats.duplicate as f64 / stats.offered.max(1) as f64;
    out.check((dup - expect_dup).abs() < 0.02 && stats.late == 0, || {
        format!(
            "duplicate share {dup:.4} (expected {expect_dup:.4}), {} late",
            stats.late
        )
    });
    out.check(!lo.rtt_us.is_empty() && !hi.rtt_us.is_empty(), || {
        "no PUSH_ACK matched at a fixed rate".to_string()
    });
    Cycle {
        setup_s,
        fleet_s,
        lo,
        hi,
        sat,
        ingest,
        malformed,
        dropped,
        divergence,
        rss_mb,
        fleet,
    }
}

pub fn run(workload: &str, cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let sz = sizes(workload, cfg.smoke);
    let mut out = Outcome::new();

    // Generator and daemon on one processor. On two they are no faster
    // (114 k against 125 k packets/s on `svc-single`): the second one
    // buys wake-ups across virtual CPUs, 21 us a round trip and moving
    // with the host, where one processor gives 11 us.
    if !pin_to_current_cpu() {
        eprintln!("note: could not pin to one processor; round trips will read higher");
    }

    // Five daemons one after another, each set up, measured for a
    // fifth of the run and shut down, so one unlucky thread placement
    // does not decide a run: the end-to-end timings are the best slice
    // of all five, the per-layer ones the median over the five.
    let n = setup_reps(cfg, 5) as u8;
    let cycles: Vec<Cycle> = (0..n)
        .map(|c| cycle(&sz, cfg, c, cfg.seconds / n as f64, &mut out, tracer))
        .collect();

    let over =
        |f: &dyn Fn(&Cycle) -> f64| -> f64 { median(&cycles.iter().map(f).collect::<Vec<_>>()) };
    let sat = |f: fn(&Phase) -> f64| move |c: &Cycle| c.sat.iter().map(f).sum::<f64>();
    let sat_wall = sat(Phase::wall_s);
    let sat_datagrams = sat(|p| p.datagrams as f64);
    // Throughput per saturation slice and median round trip per slice
    // of both fixed rates, over all five daemons. Neither rate is steady
    // on a shared host by itself: at the lower one the daemon's receiver
    // sleeps between datagrams, and how fast it wakes is the host's
    // doing; the higher one is more than half of what the daemon can
    // take, and when a neighbour takes the processor for a whole phase
    // the backlog never clears and every slice reads milliseconds. The best
    // slices of the two together are the round trip of a daemon that is
    // awake and keeps up; each rate by itself is a per-layer metric.
    let slice_rates: Vec<f64> = cycles
        .iter()
        .flat_map(|c| &c.sat)
        .map(|p| p.decided_pkts as f64 / p.wall_s())
        .collect();
    let slice_rtts: Vec<f64> = cycles
        .iter()
        .flat_map(|c| [&c.lo, &c.hi])
        .flat_map(|p| slice_medians(&p.rtt_us, RTT_SLICES))
        .collect();
    out.set("work_per_s", best_high(&slice_rates));
    out.set("op_us", best_low(&slice_rtts));
    out.set("setup_s", over(&|c| c.setup_s));
    out.set("peak_rss_mb", cycles[0].rss_mb);
    out.sample_count("work_per_s", slice_rates.len() as u64);
    out.sample_count("op_us", slice_rtts.len() as u64);
    out.sample_count(
        "svc.ack_rtt_p50_us",
        cycles.iter().map(|c| c.lo.rtt_us.len() as u64).sum(),
    );
    out.sample_count("setup_s", n as u64);
    out.sample_count(
        "svc.ack_rtt_hi_p50_us",
        cycles.iter().map(|c| c.hi.rtt_us.len() as u64).sum(),
    );
    out.sample_count("timed_reps", n as u64);
    out.set("bench.timed_reps", n as f64);

    if cfg.trace {
        let phases = || {
            cycles
                .iter()
                .flat_map(|c| [&c.lo, &c.hi].into_iter().chain(&c.sat))
        };
        let late_all: Vec<f64> = cycles
            .iter()
            .flat_map(|c| c.lo.late_ns.iter().chain(&c.hi.late_ns).cloned())
            .collect();
        out.set(
            "svc.datagrams_per_s",
            over(&|c| sat_datagrams(c) / sat_wall(c)),
        );
        out.set(
            "svc.syscall_us_per_datagram",
            over(&|c| sat_wall(c) * 1e6 / sat_datagrams(c).max(1.0)),
        );
        out.set(
            "svc.window_stalls",
            phases().map(|p| p.stalls).sum::<u64>() as f64,
        );
        out.set(
            "svc.lost_pkts",
            phases().map(Phase::lost).sum::<u64>() as f64,
        );
        out.set("svc.ack_rtt_p50_us", over(&|c| median(&c.lo.rtt_us)));
        out.set(
            "svc.ack_rtt_p99_us",
            over(&|c| quantile(&c.lo.rtt_us, 0.99)),
        );
        out.set("svc.ack_rtt_hi_p50_us", over(&|c| median(&c.hi.rtt_us)));
        out.set(
            "svc.ack_rtt_hi_p99_us",
            over(&|c| quantile(&c.hi.rtt_us, 0.99)),
        );
        out.set("svc.sender_late_p50_us", median(&late_all) / 1e3);
        out.set("svc.sender_late_p99_us", quantile(&late_all, 0.99) / 1e3);
        out.set("svc.ingest_latency_p50_us", over(&|c| c.ingest.p50 as f64));
        out.set("svc.ingest_latency_p99_us", over(&|c| c.ingest.p99 as f64));
        out.set("svc.drain_s", over(&sat(|p| p.drain_s)));
        out.set(
            "svc.decisions_dropped",
            cycles.iter().map(|c| c.dropped).sum::<u64>() as f64,
        );
        out.set(
            "svc.malformed",
            cycles.iter().map(|c| c.malformed).sum::<u64>() as f64,
        );
        out.set(
            "svc.decision_divergence",
            cycles.iter().map(|c| c.divergence).sum::<u64>() as f64,
        );
        out.set("bench.scenario_build_s", over(&|c| c.fleet_s));

        let fleet = &cycles[0].fleet;
        let window_us = NetServerConfig::default().dedup_window_us;
        let iters = if cfg.smoke { 2_000 } else { 100_000 };
        let (enc, dec) = micro::frame(iters);
        out.set("lora-mac.frame_encode_ns", enc);
        out.set("lora-mac.frame_decode_ns", dec);
        let codec_iters = (iters / 50 / sz.batch as u64).max(50);
        let (enc, dec, fast, bytes) = micro::codec(&fleet.sample, codec_iters);
        out.set("gateway.codec_encode_ns_per_pkt", enc);
        out.set("gateway.codec_decode_ns_per_pkt", dec);
        out.set("gateway.fast_parse_ns_per_pkt", fast);
        out.set("gateway.wire_bytes_per_pkt", bytes);
        let epochs = if cfg.smoke { 2 } else { 8 };
        let copies: Vec<UplinkCopy> = (0..epochs)
            .flat_map(|e| {
                let shift = e * fleet.epoch_span_us;
                fleet.copies.iter().map(move |c| UplinkCopy {
                    received_us: c.received_us + shift,
                    ..*c
                })
            })
            .collect();
        let (offer_ns, dup_ratio, tracked) = micro::dedup(&copies, window_us);
        out.set("netserver.dedup_offer_ns", offer_ns);
        out.set("netserver.dedup_dup_ratio", dup_ratio);
        out.set("netserver.dedup_tracked_peak", tracked);
    }
    out
}
