//! The packet-engine workloads: `paper_isp` and `dc_churn`.

use std::time::Instant;

use eventsim::{SimDuration, SimRng, SimTime};
use mpsim_core::Algorithm;
use netsim::Simulation;
use tcpsim::{Connection, TcpConfig};
use topo::{FatTree, FatTreeConfig, ScenarioB, ScenarioBParams};
use trace::{DigestSink, Tracer};
use workload::{
    heavytail_churn_plan, long_short_split, permutation_traffic, HeavyTailMix,
    SHORT_FLOW_MEAN_GAP_S,
};

use crate::check::{fold_engine, fold_flow, ResultDigest};
use crate::probe::{wrap_endpoint, Probe};
use crate::{Counts, Outcome, RunOpts, Scale, SharedDigest, Stepping};

/// `paper_isp`: Scenario B (Tables I/II) under each of four
/// configurations, one simulation each.
#[derive(Debug, Clone, Copy)]
pub struct IspParams {
    /// Simulated seconds per configuration (the paper's 120 s).
    pub horizon_s: u64,
    /// Simulated length of one stepped slice.
    pub slice: SimDuration,
    /// Start jitter window: connections start uniformly within it.
    pub jitter_s: f64,
}

/// The four configurations of one `paper_isp` iteration: (multipath
/// algorithm, red users upgraded to two paths).
pub const ISP_CONFIGS: [(Algorithm, bool); 4] = [
    (Algorithm::Lia, false),
    (Algorithm::Lia, true),
    (Algorithm::Olia, false),
    (Algorithm::Olia, true),
];

impl IspParams {
    /// The parameters at `scale`.
    pub fn at(scale: Scale) -> IspParams {
        IspParams {
            horizon_s: match scale {
                Scale::Full => 120,
                Scale::Reduced => 3,
            },
            slice: match scale {
                Scale::Full => SimDuration::from_secs(1),
                Scale::Reduced => SimDuration::from_millis(250),
            },
            jitter_s: 0.5,
        }
    }

    /// `key=value` description for the report.
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "topology",
                "topo::ScenarioB::paper (15 blue + 15 red users, CX=27, CT=36 Mb/s, RED)".into(),
            ),
            (
                "configs",
                "LIA single-path red, LIA upgraded red, OLIA single-path red, OLIA upgraded red"
                    .into(),
            ),
            ("horizon_s", self.horizon_s.to_string()),
            ("slice_s", self.slice.as_secs_f64().to_string()),
            ("start_jitter_s", self.jitter_s.to_string()),
            ("sim_seed", "4 * seed + config index".into()),
        ]
    }
}

/// The simulation seed of configuration `i` of the workload seed `seed`.
pub fn isp_sim_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(4).wrapping_add(i as u64)
}

/// Step `sim` from `from` to `to` in `slice`-long `run_until` calls (the
/// last one may be shorter), or in one call.
fn advance(
    sim: &mut Simulation,
    from: SimTime,
    to: SimTime,
    slice: SimDuration,
    stepping: Stepping,
    probe: &mut Probe,
) {
    match stepping {
        Stepping::OneShot => probe.slice("netsim.run_until", || sim.run_until(to)),
        Stepping::Slices => {
            let mut t = from;
            while t < to {
                t = SimTime::from_nanos((t.as_nanos() + slice.as_nanos()).min(to.as_nanos()));
                probe.slice("netsim.run_until", || sim.run_until(t));
            }
        }
    }
}

/// Attach a digest sink when the options ask for one.
fn attach_digest(sim: &mut Simulation, opts: &RunOpts) -> Option<SharedDigest> {
    opts.trace_digest.then(|| {
        let (tracer, sink) = Tracer::to_sink(DigestSink::new());
        sim.set_tracer(tracer);
        sink
    })
}

/// Build and start one Scenario B configuration (the set-up phase).
fn isp_setup(
    sim: &mut Simulation,
    alg: Algorithm,
    upgraded: bool,
    sim_seed: u64,
    p: &IspParams,
    probe: &mut Probe,
) -> Vec<Connection> {
    let (s, dt) = probe.time("topo.build", || {
        ScenarioB::build(sim, &ScenarioBParams::paper(upgraded, alg))
    });
    probe.layers.topo_build_s += dt;
    let conns: Vec<Connection> = s.blue.into_iter().chain(s.red).collect();
    let ((), dt) = probe.time("workload.plan", || {
        let mut rng = SimRng::seed_from_u64(sim_seed ^ 0xB4B4);
        for c in &conns {
            let jitter = SimDuration::from_secs_f64(rng.f64() * p.jitter_s);
            sim.start_endpoint_at(c.source, SimTime::ZERO + jitter);
        }
    });
    probe.layers.plan_s += dt;
    conns
}

/// Run one Scenario B configuration and fold its outputs.
#[allow(clippy::too_many_arguments)]
pub fn run_isp_config(
    alg: Algorithm,
    upgraded: bool,
    sim_seed: u64,
    p: &IspParams,
    opts: &RunOpts,
    probe: &mut Probe,
    digest: &mut ResultDigest,
    out: &mut Outcome,
) {
    probe.open("setup");
    let t0 = Instant::now();
    let mut sim = Simulation::new(sim_seed);
    let sink = attach_digest(&mut sim, opts);
    let conns = isp_setup(&mut sim, alg, upgraded, sim_seed, p, probe);
    probe.setups_s.push(t0.elapsed().as_secs_f64());
    probe.close();
    if opts.wrap_endpoints {
        for c in &conns {
            wrap_endpoint(&mut sim, c.source, &probe.clock);
            wrap_endpoint(&mut sim, c.sink, &probe.clock);
        }
    }

    probe.begin_run();
    let end = SimTime::ZERO + SimDuration::from_secs(p.horizon_s);
    advance(&mut sim, SimTime::ZERO, end, p.slice, opts.stepping, probe);
    probe.end_run();

    if let Err(e) = sim.check_packet_conservation() {
        out.failures.push(format!("seed {sim_seed}: {e}"));
    }
    let unstarted = conns
        .iter()
        .filter(|c| c.handle.read(|s| s.started_at.is_none()))
        .count();
    if unstarted > 0 {
        out.failures.push(format!(
            "seed {sim_seed}: {unstarted} planned connections never started"
        ));
    }
    let mut counts = Counts::default();
    for c in &conns {
        fold_flow(digest, &mut counts, &c.handle);
    }
    fold_engine(digest, &mut counts, &sim);
    out.counts.absorb(&counts);
    out.sim_s += p.horizon_s as f64;
    if let Some(sink) = sink {
        let prev = out.trace_digest.unwrap_or(0);
        out.trace_digest = Some(prev.rotate_left(1) ^ sink.borrow().digest());
    }
}

/// One `paper_isp` iteration: the four configurations back to back.
pub fn run_isp(seed: u64, opts: &RunOpts, probe: &mut Probe) -> Outcome {
    let p = IspParams::at(opts.scale);
    let mut out = Outcome::default();
    let mut digest = ResultDigest::default();
    for (i, &(alg, upgraded)) in ISP_CONFIGS.iter().enumerate() {
        run_isp_config(
            alg,
            upgraded,
            isp_sim_seed(seed, i),
            &p,
            opts,
            probe,
            &mut digest,
            &mut out,
        );
    }
    out.digest = digest.finish();
    out
}

/// Set up (and drop) every `paper_isp` configuration, recording each
/// set-up's wall time.
pub fn isp_setup_only(seed: u64, scale: Scale, probe: &mut Probe) {
    let p = IspParams::at(scale);
    for (i, &(alg, upgraded)) in ISP_CONFIGS.iter().enumerate() {
        let sim_seed = isp_sim_seed(seed, i);
        let t0 = Instant::now();
        let mut sim = Simulation::new(sim_seed);
        let conns = isp_setup(&mut sim, alg, upgraded, sim_seed, &p, probe);
        probe.setups_s.push(t0.elapsed().as_secs_f64());
        std::hint::black_box((&sim, &conns));
    }
}

/// `dc_churn`: the `bench::fattree::heavytail_churn_in` protocol on a
/// 4:1 oversubscribed FatTree with OLIA×8 long flows.
#[derive(Debug, Clone, Copy)]
pub struct ChurnParams {
    /// FatTree arity.
    pub k: usize,
    /// Subflows of each long-lived OLIA connection.
    pub long_subflows: usize,
    /// Warm-up before churn arrivals start, seconds.
    pub warmup_s: f64,
    /// Window of churn arrivals, seconds.
    pub arrivals_s: f64,
    /// Grace period for stragglers after the last arrival, seconds.
    pub grace_s: f64,
    /// Install/retire cadence, seconds.
    pub epoch_s: f64,
    /// Simulated length of one stepped slice.
    pub slice: SimDuration,
}

impl ChurnParams {
    /// The parameters at `scale`.
    pub fn at(scale: Scale) -> ChurnParams {
        ChurnParams {
            k: match scale {
                Scale::Full => 8,
                Scale::Reduced => 4,
            },
            long_subflows: 8,
            warmup_s: 2.0,
            arrivals_s: match scale {
                Scale::Full => 3.0,
                Scale::Reduced => 0.5,
            },
            grace_s: 3.0,
            epoch_s: 0.25,
            slice: SimDuration::from_millis(25),
        }
    }

    /// `key=value` description for the report.
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "topology",
                format!("topo::FatTree k={} (4:1 oversubscribed)", self.k),
            ),
            (
                "long_flows",
                format!("one third of the hosts, OLIA x{}", self.long_subflows),
            ),
            (
                "churn_flows",
                "the other hosts, Reno x1, HeavyTailMix::default sizes, Poisson mean gap 0.2 s"
                    .into(),
            ),
            ("warmup_s", self.warmup_s.to_string()),
            ("arrivals_s", self.arrivals_s.to_string()),
            ("grace_s", self.grace_s.to_string()),
            ("epoch_s", self.epoch_s.to_string()),
            ("slice_s", self.slice.as_secs_f64().to_string()),
        ]
    }
}

/// TCP parameters of the data-center runs (`bench::fattree::dc_config`):
/// a data-center RTO floor.
pub fn dc_config() -> TcpConfig {
    TcpConfig {
        min_rto: SimDuration::from_millis(200),
        initial_rto: SimDuration::from_millis(250),
        initial_rtt: 0.002,
        ..TcpConfig::default()
    }
}

/// A `dc_churn` simulation after set-up.
struct ChurnSetup {
    ft: FatTree,
    rng: SimRng,
    long: Vec<Connection>,
    plan: Vec<workload::ShortFlowSpec>,
}

fn churn_setup(
    sim: &mut Simulation,
    seed: u64,
    p: &ChurnParams,
    opts: &RunOpts,
    probe: &mut Probe,
) -> ChurnSetup {
    let ftcfg = FatTreeConfig {
        oversubscription: 4.0,
        ..FatTreeConfig::default()
    };
    let (ft, dt) = probe.time("topo.build", || FatTree::build(sim, p.k, &ftcfg));
    probe.layers.topo_build_s += dt;
    let n = ft.num_hosts();
    let mut rng = SimRng::seed_from_u64(seed ^ 0xC4A2);
    let ((perm, (long_hosts, short_hosts)), dt) = probe.time("workload.plan", || {
        (permutation_traffic(&mut rng, n), long_short_split(n))
    });
    probe.layers.plan_s += dt;
    let cfg = dc_config();
    let (long, dt) = probe.time("tcpsim.install", || {
        // Each churn sender keeps about one flow in flight; a source and a
        // sink hold two rings.
        tcpsim::pool::prewarm(2 * short_hosts.len(), 64);
        long_hosts
            .iter()
            .enumerate()
            .map(|(i, &h)| {
                ft.connect(
                    sim,
                    h,
                    perm[h],
                    Algorithm::Olia,
                    p.long_subflows,
                    None,
                    cfg,
                    &mut rng,
                    i as u64,
                )
            })
            .collect::<Vec<_>>()
    });
    probe.layers.tcp_install_s += dt;
    if opts.wrap_endpoints {
        for c in &long {
            wrap_endpoint(sim, c.source, &probe.clock);
            wrap_endpoint(sim, c.sink, &probe.clock);
        }
    }
    let (plan, dt) = probe.time("workload.plan", || {
        for c in &long {
            let jitter = SimDuration::from_secs_f64(rng.f64() * 0.5);
            sim.start_endpoint_at(c.source, SimTime::ZERO + jitter);
        }
        let dests: Vec<usize> = short_hosts.iter().map(|&h| perm[h]).collect();
        heavytail_churn_plan(
            &mut rng,
            &short_hosts,
            &dests,
            &HeavyTailMix::default(),
            SHORT_FLOW_MEAN_GAP_S,
            p.arrivals_s,
        )
    });
    probe.layers.plan_s += dt;
    ChurnSetup {
        ft,
        rng,
        long,
        plan,
    }
}

/// Set up (and drop) one `dc_churn` simulation, recording the wall time.
pub fn churn_setup_only(seed: u64, scale: Scale, probe: &mut Probe) {
    let p = ChurnParams::at(scale);
    let t0 = Instant::now();
    let mut sim = Simulation::new(seed);
    let s = churn_setup(&mut sim, seed, &p, &RunOpts::untraced(), probe);
    probe.setups_s.push(t0.elapsed().as_secs_f64());
    std::hint::black_box((&sim, &s.long));
}

/// One `dc_churn` run: warm-up, then epochs that install the flows
/// starting within them and retire the ones complete for a grace period.
pub fn run_churn(seed: u64, opts: &RunOpts, probe: &mut Probe) -> Outcome {
    let p = ChurnParams::at(opts.scale);
    let mut out = Outcome::default();
    let mut digest = ResultDigest::default();
    let mut counts = Counts::default();

    probe.open("setup");
    let t0 = Instant::now();
    let mut sim = Simulation::new(seed);
    let sink = attach_digest(&mut sim, opts);
    let ChurnSetup {
        ft,
        mut rng,
        long,
        plan,
    } = churn_setup(&mut sim, seed, &p, opts, probe);
    probe.setups_s.push(t0.elapsed().as_secs_f64());
    probe.close();

    probe.begin_run();
    let cfg = dc_config();
    let warmup = SimTime::from_secs_f64(p.warmup_s);
    advance(
        &mut sim,
        SimTime::ZERO,
        warmup,
        p.slice,
        opts.stepping,
        probe,
    );
    let mut next = 0; // first plan entry not yet installed (the plan is start-sorted)
    let mut live: Vec<Connection> = Vec::new();
    let mut unstarted = 0usize;
    let end_s = p.warmup_s + p.arrivals_s + p.grace_s;
    let mut t = p.warmup_s;
    while t < end_s {
        let epoch_start = SimTime::from_secs_f64(t);
        t = (t + p.epoch_s).min(end_s);
        let first_new = live.len();
        let ((), dt) = probe.time("tcpsim.install", || {
            while next < plan.len() && p.warmup_s + plan[next].start_s < t {
                let f = &plan[next];
                let conn = ft.connect(
                    &mut sim,
                    f.src,
                    f.dst,
                    Algorithm::Reno,
                    1,
                    Some(f.size_packets),
                    cfg,
                    &mut rng,
                    10_000 + next as u64,
                );
                sim.start_endpoint_at(conn.source, SimTime::from_secs_f64(p.warmup_s + f.start_s));
                live.push(conn);
                next += 1;
            }
        });
        probe.layers.tcp_install_s += dt;
        if opts.wrap_endpoints {
            for c in &live[first_new..] {
                wrap_endpoint(&mut sim, c.source, &probe.clock);
                wrap_endpoint(&mut sim, c.sink, &probe.clock);
            }
        }
        advance(
            &mut sim,
            epoch_start,
            SimTime::from_secs_f64(t),
            p.slice,
            opts.stepping,
            probe,
        );
        let now = sim.now();
        let ((), dt) = probe.time("tcpsim.retire", || {
            let mut keep = Vec::with_capacity(live.len());
            for c in live.drain(..) {
                let quiescent = c
                    .handle
                    .read(|s| s.completed_at)
                    .is_some_and(|at| now.saturating_since(at).as_secs_f64() >= p.epoch_s);
                if quiescent {
                    fold_flow(&mut digest, &mut counts, &c.handle);
                    drop(sim.retire_endpoint(c.source));
                    drop(sim.retire_endpoint(c.sink));
                } else {
                    keep.push(c);
                }
            }
            live = keep;
        });
        probe.layers.tcp_retire_s += dt;
    }
    probe.end_run();

    if next != plan.len() {
        out.failures.push(format!(
            "{} of {} planned flows never installed",
            plan.len() - next,
            plan.len()
        ));
    }
    for c in long.iter().chain(&live) {
        unstarted += usize::from(c.handle.read(|s| s.started_at.is_none()));
        fold_flow(&mut digest, &mut counts, &c.handle);
    }
    if unstarted > 0 {
        out.failures
            .push(format!("{unstarted} installed connections never started"));
    }
    let expect_live = 2 * (long.len() + live.len());
    if sim.live_endpoints() != expect_live {
        out.failures.push(format!(
            "{} live endpoints, expected {expect_live}",
            sim.live_endpoints()
        ));
    }
    if let Err(e) = sim.check_packet_conservation() {
        out.failures.push(e);
    }
    fold_engine(&mut digest, &mut counts, &sim);
    let pool = tcpsim::pool::stats();
    counts.pool_recycled = pool.recycled;
    counts.pool_fresh = pool.fresh;
    out.counts = counts;
    out.sim_s = end_s;
    out.digest = digest.finish();
    out.trace_digest = sink.map(|s| s.borrow().digest());
    out
}
