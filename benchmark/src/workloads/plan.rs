//! `plan-loop`: the paper's control loop closed once per round across
//! every crate — simulate on standard plans, forward the receptions
//! over UDP into `netserverd`, parse the logs, estimate traffic, fetch
//! each operator's spectrum from `masterd` over TCP, solve the channel
//! plan, apply it and simulate again.

use super::micro;
use super::svc::{drain, encode_datagrams, start_daemon, AckedSocket, Once};
use crate::harness::{
    best_low, median, ns_per_call, peak_rss_mb, setup_reps, timed, Outcome, RunCfg, SpanId, Tracer,
};
use alphawan::cp::eval::{pack_gene, EvalContext, Genome, IncrementalEval};
use alphawan::cp::CpProblem;
use alphawan::master::{BackoffPolicy, PlanSource, RegionSpec, ResilientMasterClient};
use alphawan::{GaSolver, IntraNetworkPlanner};
use baselines::standard::{standard_assignments, standard_gateway_configs};
use bench::experiments::{band_channels, set_gateway_channels, BAND_LOW_HZ};
use bench::scenario::{adr_data_rate, PAYLOAD_LEN};
use gateway::config::GatewayConfig;
use gateway::forwarder::codec::RxPacket;
use gateway::profile::GatewayProfile;
use gateway::radio::Gateway;
use lora_mac::device::DevAddr;
use lora_phy::channel::Channel;
use lora_phy::pathloss::PathLossModel;
use lora_phy::types::{DataRate, TxPowerDbm};
use netserver::dedup::DedupOutcome;
use netserver::estimator::TrafficEstimator;
use netserver::logparser::{LogParser, UplinkLog};
use sim::metrics::RunMetrics;
use sim::traffic::duty_cycled;
use sim::{PacketRecord, SimWorld, Topology, TxPlan};
use std::hint::black_box;
use std::time::{Duration, Instant};
use svc::{replay_divergence, MasterConfig, MasterDaemon, NetServerDaemon};

/// One operator's deployment.
#[derive(Clone, Copy)]
pub struct Operator {
    pub network: u32,
    pub nodes: usize,
    pub gateways: usize,
}

/// Frozen sizes: Fig-21 week 43.
pub struct PlanSizes {
    pub ops: [Operator; 2],
    pub spectrum_hz: u32,
    pub window_us: u64,
    pub duty: f64,
    /// Log-parser and traffic-estimator window.
    pub estimator_window_us: u64,
}

pub fn sizes(smoke: bool) -> PlanSizes {
    let ops = if smoke {
        [(600, 5), (200, 2)]
    } else {
        [(12_000, 15), (3_400, 5)]
    };
    PlanSizes {
        ops: [
            Operator {
                network: 1,
                nodes: ops[0].0,
                gateways: ops[0].1,
            },
            Operator {
                network: 2,
                nodes: ops[1].0,
                gateways: ops[1].1,
            },
        ],
        spectrum_hz: 4_800_000,
        window_us: 30_000_000,
        duty: 0.01,
        estimator_window_us: 10_000_000,
    }
}

const TX_POWER: TxPowerDbm = TxPowerDbm(14.0);
const TMST_BASE_US: u64 = 1_000_000_000;

/// Everything a round needs that outlives it.
struct Deployment {
    sz: PlanSizes,
    world: SimWorld,
    /// First global node / gateway index of each operator.
    node_base: [usize; 2],
    gw_base: [usize; 2],
    /// Standard provisioning.
    std_gw_channels: Vec<Vec<Channel>>,
    std_assigns: Vec<(usize, Channel, DataRate)>,
    /// Per-node uplink frame counter, kept across rounds.
    fcnt: Vec<u16>,
    netserver: NetServerDaemon,
    master: MasterDaemon,
    clients: Vec<ResilientMasterClient>,
    sock: AckedSocket,
    /// Copies the daemon had decided before the current round.
    decided: u64,
    /// Per shard: decisions logged before the current round.
    log_offsets: Vec<usize>,
    /// Virtual time (rxpk `tmst`) at which the next window starts.
    clock_us: u64,
    /// Per operator, as long-lived as a network server's.
    parsers: Vec<LogParser>,
    estimators: Vec<TrafficEstimator>,
    scenario_build_s: f64,
}

fn deploy(sz: PlanSizes, seed: u64) -> Deployment {
    let n_nodes: usize = sz.ops.iter().map(|o| o.nodes).sum();
    let n_gws: usize = sz.ops.iter().map(|o| o.gateways).sum();
    let node_base = [0, sz.ops[0].nodes];
    let gw_base = [0, sz.ops[0].gateways];
    let t0 = Instant::now();
    let mut topo = Topology::new(
        (2_100.0, 1_600.0),
        n_nodes,
        n_gws,
        PathLossModel::default(),
        seed,
    );
    for row in &mut topo.loss_db {
        for loss in row.iter_mut() {
            *loss = loss.max(108.0);
        }
    }
    // Standard LoRaWAN: every operator spreads its fleet over the
    // standard plans of the whole band; nodes pick a random channel
    // and the data rate ADR would settle on.
    let channels = band_channels(sz.spectrum_hz);
    let profile = GatewayProfile::rak7268cv2();
    let mut std_gw_channels = Vec::new();
    let mut gateways = Vec::new();
    let mut std_assigns = Vec::new();
    let mut node_network = Vec::new();
    for (o, op) in sz.ops.iter().enumerate() {
        for chans in standard_gateway_configs(BAND_LOW_HZ, sz.spectrum_hz, op.gateways) {
            let cfg = GatewayConfig::new(profile, chans.clone()).expect("standard plan valid");
            gateways.push(Gateway::new(gateways.len(), op.network, profile, cfg));
            std_gw_channels.push(chans);
        }
        let nodes: Vec<usize> = (node_base[o]..node_base[o] + op.nodes).collect();
        let adr = |n: usize| adr_data_rate(&topo, n, TX_POWER);
        std_assigns.extend(standard_assignments(
            &nodes,
            &channels,
            Some(&adr),
            seed ^ (0x57D + o as u64),
        ));
        node_network.extend(std::iter::repeat_n(op.network, op.nodes));
    }
    let scenario_build_s = t0.elapsed().as_secs_f64();
    let world = SimWorld::new(topo, node_network, gateways);

    let netserver = start_daemon();
    let master = MasterDaemon::start(
        MasterConfig {
            region: RegionSpec {
                band_low_hz: BAND_LOW_HZ,
                spectrum_hz: sz.spectrum_hz,
                expected_networks: sz.ops.len(),
            },
            ..MasterConfig::default()
        },
        None,
    )
    .expect("masterd binds an ephemeral loopback port");
    let clients = sz
        .ops
        .iter()
        .map(|op| {
            ResilientMasterClient::new(
                master.addr(),
                &format!("operator-{}", op.network),
                BackoffPolicy::default(),
            )
        })
        .collect();
    let sock = AckedSocket::connect(netserver.addr()).expect("loopback socket");
    Deployment {
        world,
        node_base,
        gw_base,
        std_gw_channels,
        std_assigns,
        fcnt: vec![0; n_nodes],
        netserver,
        master,
        clients,
        sock,
        decided: 0,
        log_offsets: Vec::new(),
        clock_us: TMST_BASE_US,
        parsers: (0..2)
            .map(|_| LogParser::new(sz.estimator_window_us))
            .collect(),
        estimators: (0..2)
            .map(|_| TrafficEstimator::new(sz.estimator_window_us))
            .collect(),
        scenario_build_s,
        sz,
    }
}

impl Deployment {
    fn operator_of(&self, node: usize) -> usize {
        usize::from(node >= self.node_base[1])
    }

    fn dev_addr(&self, node: usize) -> DevAddr {
        let o = self.operator_of(node);
        DevAddr::new(
            self.sz.ops[o].network as u8,
            (node - self.node_base[o]) as u32,
        )
    }

    fn shutdown(self) {
        for c in self.clients {
            c.shutdown();
        }
        self.master.shutdown();
        self.netserver.shutdown();
    }
}

/// One round's measurements.
#[derive(Default)]
struct Round {
    loop_s: f64,
    replan_s: f64,
    sim_before_s: f64,
    sim_after_s: f64,
    sim_events: u64,
    wire_s: f64,
    frame_s: f64,
    udp_s: f64,
    log_s: f64,
    logparse_s: f64,
    estimator_s: f64,
    copies: u64,
    uplinks: u64,
    estimator_windows: u64,
    divergence: u64,
    plan_fetch_us: Vec<f64>,
    problem_s: f64,
    solve_s: f64,
    evals: u64,
    materialize_s: f64,
    commands_s: f64,
    objective: f64,
    planned_nodes: u64,
    prr_before: f64,
    prr_after: f64,
    /// End of stage 1: the logs leave the gateways.
    replan_start: Option<Instant>,
    /// Why the round failed, if it did.
    failure: Option<String>,
    /// The larger operator's problem, kept for the evaluator timings.
    problem: Option<CpProblem>,
}

fn prr_of(records: &[PacketRecord], network: u32) -> f64 {
    RunMetrics::from_records(records, Some(network)).prr()
}

/// A copy as the network server's log line would carry it.
struct Copy {
    log: UplinkLog,
    operator: usize,
}

/// Stages 1 to 4 over `plans`: simulate, forward every reception over
/// UDP into `netserverd`, and feed the operators' log parsers and
/// traffic estimators (which, like a network server's, live across
/// rounds). Returns the simulation's records.
fn observe(
    d: &mut Deployment,
    plans: &[TxPlan],
    m: &mut Round,
    r: u32,
    root: SpanId,
    tracer: &mut Tracer,
) -> Vec<PacketRecord> {
    // (1) Simulate.
    d.world.reset();
    let (records, sim_s) = tracer.scope("sim.run", root, r, || timed(|| d.world.run(plans)));
    m.sim_before_s = sim_s;
    m.sim_events = d.world.last_run_stats().map_or(0, |s| s.events);
    m.replan_start = Some(Instant::now());

    // (2) Logs leave the gateways: records × receiving gateways → rxpk
    // → PUSH_DATA wires.
    let wire_span = tracer.open("gateway.codec_encode", root, r);
    let wire_start = Instant::now();
    let n_gws = d.world.gateways.len();
    let mut per_gw: Vec<Vec<RxPacket>> = vec![Vec::new(); n_gws];
    let mut copies: Vec<Copy> = Vec::new();
    let t_base = d.clock_us;
    let frame_span = tracer.open("lora-mac.frame_encode", wire_span, r);
    let frame_start = Instant::now();
    let frames: Vec<Option<Vec<u8>>> = records
        .iter()
        .map(|rec| {
            (!rec.receiving_gateways.is_empty()).then(|| {
                let fcnt = d.fcnt[rec.node];
                d.fcnt[rec.node] = fcnt.wrapping_add(1);
                micro::uplink_frame(d.dev_addr(rec.node), fcnt)
            })
        })
        .collect();
    m.frame_s = frame_start.elapsed().as_secs_f64();
    tracer.close(frame_span);
    for (rec, phy) in records.iter().zip(&frames) {
        let Some(phy) = phy else { continue };
        let o = d.operator_of(rec.node);
        d.clock_us = d.clock_us.max(t_base + rec.end_us);
        for &gw in &rec.receiving_gateways {
            let snr = d.world.topo.snr_db(rec.node, gw, TX_POWER);
            let tmst = t_base + rec.end_us;
            per_gw[gw].push(RxPacket::new(
                tmst,
                rec.channel,
                rec.dr.spreading_factor(),
                d.world.topo.rssi_dbm(rec.node, gw, TX_POWER),
                snr,
                phy,
            ));
            copies.push(Copy {
                log: UplinkLog {
                    dev_addr: d.dev_addr(rec.node),
                    gw_id: gw - d.gw_base[o],
                    channel: rec.channel,
                    dr: rec.dr,
                    snr_db: snr,
                    timestamp_us: tmst,
                },
                operator: o,
            });
        }
    }
    // The next window starts past this one and the dedup window.
    d.clock_us += 5_000_000;
    let (mut datagrams, _) = encode_datagrams(per_gw, 64);
    m.wire_s = wire_start.elapsed().as_secs_f64();
    m.copies = copies.len() as u64;
    tracer.close(wire_span);

    // (3) UDP into netserverd, drain, fetch the decisions.
    let udp_span = tracer.open("svc.udp_stage", root, r);
    let udp_start = Instant::now();
    d.sock
        .closed_loop(&mut Once::new(&mut datagrams), None)
        .expect("loopback send");
    let decided = drain(
        &d.netserver,
        d.decided + m.copies,
        Duration::from_millis(500),
    );
    let logs = d.netserver.decisions();
    let divergence = replay_divergence(&logs, d.netserver.window_us());
    m.udp_s = udp_start.elapsed().as_secs_f64();
    m.divergence = divergence;
    tracer.close(udp_span);
    if decided - d.decided != m.copies {
        m.failure = Some(format!(
            "{} of {} copies decided",
            decided - d.decided,
            m.copies
        ));
    } else if divergence != 0 {
        m.failure = Some(format!("{divergence} decisions diverge from the replay"));
    }
    d.decided = decided;

    // (4) Every copy → log parser, every New → traffic estimator.
    let log_start = Instant::now();
    m.logparse_s = tracer.scope("netserver.logparse", root, r, || {
        timed(|| {
            for c in &copies {
                d.parsers[c.operator].ingest(&c.log);
            }
        })
        .1
    });
    d.log_offsets.resize(logs.len(), 0);
    let second_network = d.sz.ops[1].network;
    m.estimator_s = tracer.scope("netserver.estimator", root, r, || {
        timed(|| {
            for (log, from) in logs.iter().zip(&d.log_offsets) {
                for dec in &log[*from..] {
                    if dec.outcome == DedupOutcome::New {
                        let dev = DevAddr(dec.dev);
                        let o = usize::from(dev.nwk_id() as u32 == second_network);
                        d.estimators[o].record(dev, dec.t_us);
                        m.uplinks += 1;
                    }
                }
            }
        })
        .1
    });
    for (off, log) in d.log_offsets.iter_mut().zip(&logs) {
        *off = log.len();
    }
    m.estimator_windows = d.estimators.iter().map(|e| e.window_count() as u64).sum();
    m.log_s = log_start.elapsed().as_secs_f64();
    records
}

/// Commissioning: every node is heard once, one uplink every 40 ms on
/// its standard settings, so the operators' link profiles cover the
/// fleet before the first plan — as they would after installation.
fn commission(d: &mut Deployment) -> Option<String> {
    let plans: Vec<TxPlan> = d
        .std_assigns
        .iter()
        .enumerate()
        .map(|(i, &(node, channel, dr))| TxPlan {
            node,
            channel,
            dr,
            start_us: i as u64 * 40_000,
            payload_len: PAYLOAD_LEN,
        })
        .collect();
    let mut m = Round::default();
    observe(d, &plans, &mut m, 0, SpanId::NONE, &mut Tracer::new(false));
    m.failure
}

fn round(d: &mut Deployment, r: u32, seed: u64, tracer: &mut Tracer) -> Round {
    let mut m = Round::default();
    let traffic_seed = seed ^ (0x7AFF_1C00 + r as u64);
    let root = tracer.open("plan.round", SpanId::NONE, r);
    let loop_start = Instant::now();

    // (1)–(4) on the standard plans: PRR before.
    for gw in 0..d.std_gw_channels.len() {
        let chans = d.std_gw_channels[gw].clone();
        set_gateway_channels(&mut d.world, gw, chans);
    }
    let plans = duty_cycled(
        &d.std_assigns,
        PAYLOAD_LEN,
        d.sz.duty,
        d.sz.window_us,
        traffic_seed,
    );
    let records = observe(d, &plans, &mut m, r, root, tracer);
    m.prr_before = prr_of(&records, d.sz.ops[0].network);

    // (5) Per operator: spectrum from the Master over TCP, then the
    // intra-network plan and every node's MAC commands.
    let profile = GatewayProfile::rak7268cv2();
    let mut after_assigns = d.std_assigns.clone();
    let mut gw_plans: Vec<(usize, Vec<Channel>)> = Vec::new();
    for o in 0..2 {
        let op = d.sz.ops[o];
        let (fetched, fetch_s) = tracer.scope("svc.plan_fetch", root, r, || {
            timed(|| d.clients[o].channel_plan())
        });
        m.plan_fetch_us.push(fetch_s * 1e6);
        let channels = match fetched {
            Ok((channels, PlanSource::Fresh)) => channels,
            other => {
                m.failure = Some(format!("operator {}: no fresh plan: {other:?}", op.network));
                continue;
            }
        };
        let mut planner = IntraNetworkPlanner::new(channels, op.gateways);
        planner.ga.seed = seed ^ 0x6A;
        let ((problem, devices), problem_s) =
            tracer.scope("alphawan.problem_build", root, r, || {
                timed(|| planner.problem_from_logs(&d.parsers[o], &d.estimators[o], op.gateways, 2))
            });
        let ((solution, objective, stats), solve_s) =
            tracer.scope("alphawan.solve", root, r, || {
                timed(|| GaSolver::new(planner.ga).solve_stats(&problem))
            });
        let feasible = problem.feasible(&solution);
        let (outcome, materialize_s) = tracer.scope("alphawan.materialize", root, r, || {
            timed(|| planner.materialize(&problem, solution, objective))
        });
        m.commands_s += tracer.scope("alphawan.commands", root, r, || {
            timed(|| {
                for i in 0..devices.len() {
                    black_box(outcome.commands_for_node(i));
                }
            })
            .1
        });
        m.problem_s += problem_s;
        m.solve_s += solve_s;
        m.materialize_s += materialize_s;
        m.evals += stats.evaluations;
        m.objective += objective;
        m.planned_nodes += devices.len() as u64;
        let valid = outcome
            .gateway_channels
            .iter()
            .all(|chs| GatewayConfig::new(profile, chs.clone()).is_ok());
        if !feasible || !valid {
            m.failure = Some(format!("operator {}: infeasible plan", op.network));
            continue;
        }
        for (slot, chs) in outcome.gateway_channels.iter().enumerate() {
            gw_plans.push((d.gw_base[o] + slot, chs.clone()));
        }
        for (dev, &(ch, dr, _)) in devices.iter().zip(&outcome.node_settings) {
            let node = d.node_base[o] + (dev.0 & 0x01FF_FFFF) as usize;
            after_assigns[node] = (node, ch, dr);
        }
        if o == 0 {
            m.problem = Some(problem);
        }
    }
    m.replan_s = m.replan_start.map_or(0.0, |t| t.elapsed().as_secs_f64());

    // (6) Plan applied: the same traffic process again, PRR after.
    // Nodes the logs never showed keep their standard settings.
    for (gw, chs) in gw_plans {
        set_gateway_channels(&mut d.world, gw, chs);
    }
    let plans = duty_cycled(
        &after_assigns,
        PAYLOAD_LEN,
        d.sz.duty,
        d.sz.window_us,
        traffic_seed,
    );
    d.world.reset();
    let (records, sim_s) = tracer.scope("sim.run", root, r, || timed(|| d.world.run(&plans)));
    m.sim_after_s = sim_s;
    m.sim_events += d.world.last_run_stats().map_or(0, |s| s.events);
    m.prr_after = prr_of(&records, d.sz.ops[0].network);
    m.loop_s = loop_start.elapsed().as_secs_f64();
    tracer.close(root);
    if m.failure.is_none() && m.prr_after <= m.prr_before {
        m.failure = Some(format!(
            "no PRR gain: {:.4} before, {:.4} after",
            m.prr_before, m.prr_after
        ));
    }
    m
}

/// `alphawan.score_ns` (`EvalContext::score`) and
/// `alphawan.incremental_move_ns` (`IncrementalEval::set_node_gene`
/// plus its undo) on the greedy plan of `problem`.
fn evaluator_timings(problem: &CpProblem, smoke: bool) -> (f64, f64) {
    let ctx = EvalContext::new(problem);
    let genome = Genome::from_solution(&alphawan::greedy_plan(problem));
    let mut scratch = ctx.scratch();
    let score_ns = ns_per_call(if smoke { 20 } else { 200 }, |_| {
        black_box(ctx.score(black_box(&genome), &mut scratch));
    });
    let n = problem.n_nodes() as u64;
    let channels = problem.n_channels() as u64;
    let mut inc = IncrementalEval::new(&ctx, genome);
    let move_ns = ns_per_call(if smoke { 2_000 } else { 20_000 }, |i| {
        let node = (i.wrapping_mul(7919) % n) as usize;
        let gene = pack_gene((i % channels) as usize, (i % 6) as usize);
        let old = inc.set_node_gene(node, gene);
        inc.set_node_gene(node, old);
        black_box(inc.score());
    });
    (score_ns, move_ns)
}

pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::new();

    // Set-up, twice: topology, standard provisioning, both daemons,
    // commissioning and one warm-up round.
    let mut setups = Vec::new();
    let mut scenario_builds = Vec::new();
    let mut state: Option<Deployment> = None;
    let mut untraced = Tracer::new(false);
    for _ in 0..setup_reps(cfg, 2) {
        if let Some(d) = state.take() {
            d.shutdown();
        }
        let t0 = Instant::now();
        let mut d = deploy(sizes(cfg.smoke), cfg.seed);
        if let Some(why) = commission(&mut d) {
            out.problems.push(format!("commissioning: {why}"));
        }
        let warm = round(&mut d, 0, cfg.seed, &mut untraced);
        setups.push(t0.elapsed().as_secs_f64());
        scenario_builds.push(d.scenario_build_s);
        if let Some(why) = warm.failure {
            out.problems.push(format!("warm-up round: {why}"));
        }
        state = Some(d);
    }
    let mut d = state.expect("at least one set-up");

    // Memory to stand the system up and close the loop once; the logs
    // the timed rounds add on top grow with their number.
    let rss = peak_rss_mb();

    // Timed rounds, two at least, while one more as long as the last
    // still ends within `--seconds`.
    let mut rounds: Vec<Round> = Vec::new();
    let started = Instant::now();
    while rounds.last().is_none_or(|last| {
        rounds.len() < 2 || started.elapsed().as_secs_f64() + last.loop_s < cfg.seconds
    }) {
        let r = rounds.len() as u32 + 1;
        let m = round(&mut d, r, cfg.seed, tracer);
        out.attempted += 1;
        if let Some(why) = &m.failure {
            out.failed += 1;
            out.problems.push(format!("round {r}: {why}"));
        }
        rounds.push(m);
    }

    let nodes: usize = d.sz.ops.iter().map(|o| o.nodes).sum();
    let column = |f: fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let col = |f: fn(&Round) -> f64| -> f64 { median(&column(f)) };
    out.set("work_per_s", nodes as f64 / best_low(&column(|m| m.loop_s)));
    out.set("op_us", best_low(&column(|m| m.replan_s)) * 1e6);
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", rss);
    out.sample_count("timed_reps", rounds.len() as u64);
    out.sample_count("work_per_s", rounds.len() as u64);
    out.sample_count("op_us", rounds.len() as u64);
    out.sample_count("setup_s", setups.len() as u64);
    out.set("bench.timed_reps", rounds.len() as f64);

    if cfg.trace {
        let fetches: Vec<f64> = rounds
            .iter()
            .flat_map(|m| m.plan_fetch_us.iter().copied())
            .collect();
        out.set("plan.loop_s", col(|m| m.loop_s));
        out.set("plan.replan_s", col(|m| m.replan_s));
        out.set("plan.prr_before", col(|m| m.prr_before));
        out.set("plan.prr_after", col(|m| m.prr_after));
        out.set("plan.planned_nodes", col(|m| m.planned_nodes as f64));
        out.set("plan.wire_stage_s", col(|m| m.wire_s));
        out.set("plan.log_stage_s", col(|m| m.log_s));
        out.set("plan.sim_before_s", col(|m| m.sim_before_s));
        out.set("plan.sim_after_s", col(|m| m.sim_after_s));
        out.set(
            "sim.run_small_ns_per_event",
            col(|m| (m.sim_before_s + m.sim_after_s) * 1e9 / m.sim_events.max(1) as f64),
        );
        out.set(
            "gateway.codec_encode_ns_per_pkt",
            col(|m| (m.wire_s - m.frame_s) * 1e9 / m.copies.max(1) as f64),
        );
        out.set(
            "lora-mac.frame_encode_ns",
            col(|m| m.frame_s * 1e9 / m.uplinks.max(1) as f64),
        );
        out.set("svc.udp_stage_s", col(|m| m.udp_s));
        out.set("svc.plan_fetch_p50_us", median(&fetches));
        out.set("svc.plan_fetches", fetches.len() as f64);
        out.set(
            "svc.decision_divergence",
            rounds.iter().map(|m| m.divergence).sum::<u64>() as f64,
        );
        out.set(
            "netserver.logparse_ns_per_copy",
            col(|m| m.logparse_s * 1e9 / m.copies.max(1) as f64),
        );
        out.set(
            "netserver.estimator_ns_per_uplink",
            col(|m| m.estimator_s * 1e9 / m.uplinks.max(1) as f64),
        );
        out.set(
            "netserver.estimator_windows",
            col(|m| m.estimator_windows as f64),
        );
        out.set("alphawan.problem_build_s", col(|m| m.problem_s));
        out.set("alphawan.solve_s", col(|m| m.solve_s));
        out.set("alphawan.evals", col(|m| m.evals as f64));
        out.set(
            "alphawan.evals_per_s",
            col(|m| m.evals as f64 / m.solve_s.max(1e-12)),
        );
        out.set("alphawan.materialize_s", col(|m| m.materialize_s));
        out.set("alphawan.commands_s", col(|m| m.commands_s));
        out.set("alphawan.objective", col(|m| m.objective));
        out.set("bench.scenario_build_s", median(&scenario_builds));
        out.sample_count("svc.plan_fetch_p50_us", fetches.len() as u64);
        if let Some(problem) = rounds.iter().rev().find_map(|m| m.problem.as_ref()) {
            let (score_ns, move_ns) = evaluator_timings(problem, cfg.smoke);
            out.set("alphawan.score_ns", score_ns);
            out.set("alphawan.incremental_move_ns", move_ns);
        }
    }
    d.shutdown();
    out
}
