//! The flow-engine workloads: `flow_churn` and `flow_steady`, the
//! `flowsim::fattree::heavytail_churn` protocol stepped slice by slice.

use std::time::Instant;

use eventsim::{SimDuration, SimRng, SimTime};
use flowsim::{FlowFatTree, FlowFatTreeConfig, FlowId, FlowNet, FlowSim, FlowSimConfig, LinkId};
use mpsim_core::Algorithm;
use trace::{DigestSink, Tracer};
use workload::{heavytail_churn_plan, permutation_traffic, HeavyTailMix};

use crate::check::ResultDigest;
use crate::probe::{FlowStep, Probe};
use crate::{alloc, Outcome, RunOpts, Scale, SharedDigest, Stepping, Workload};

/// Parameters of a flow workload.
#[derive(Debug, Clone, Copy)]
pub struct FlowParams {
    /// FatTree arity.
    pub k: usize,
    /// Long-lived resident connections.
    pub resident: usize,
    /// Subflows per connection (every connection is OLIA).
    pub subflows: usize,
    /// Mean per-host gap between churn arrivals.
    pub mean_gap: SimDuration,
    /// Simulated horizon; churn arrivals stop here.
    pub horizon: SimDuration,
    /// Simulated length of one stepped slice.
    pub slice: SimDuration,
}

impl FlowParams {
    /// The parameters of `w` (a flow workload) at `scale`.
    pub fn at(w: Workload, scale: Scale) -> FlowParams {
        let (k, resident, horizon) = match scale {
            Scale::Full => (16, 10_000, SimDuration::from_secs(3)),
            Scale::Reduced => (8, 1_000, SimDuration::from_millis(1250)),
        };
        // The two flow workloads differ only in their churn rate.
        let mean_gap = match w {
            Workload::FlowChurn => SimDuration::from_millis(50),
            Workload::FlowSteady => SimDuration::from_secs(1),
            _ => panic!("{} is not a flow workload", w.name()),
        };
        FlowParams {
            k,
            resident,
            subflows: 2,
            mean_gap,
            horizon,
            slice: SimDuration::from_millis(25),
        }
    }

    /// `key=value` description for the report.
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "topology",
                format!("flowsim::FlowFatTree k={} (default config)", self.k),
            ),
            (
                "resident",
                format!(
                    "{} OLIA x{} flows over repeated permutations",
                    self.resident, self.subflows
                ),
            ),
            (
                "churn",
                format!(
                    "HeavyTailMix::default sizes, Poisson mean gap {} s per host",
                    self.mean_gap.as_secs_f64()
                ),
            ),
            (
                "config",
                "FlowSimConfig::large_scale (25 ms recompute gap)".into(),
            ),
            ("horizon_s", self.horizon.as_secs_f64().to_string()),
            ("slice_s", self.slice.as_secs_f64().to_string()),
        ]
    }
}

/// A flow simulation after set-up.
struct FlowSetup {
    sim: FlowSim,
    residents: Vec<FlowId>,
    planned: usize,
    links: usize,
    sink: Option<SharedDigest>,
}

fn setup(
    seed: u64,
    p: &FlowParams,
    opts: &RunOpts,
    probe: &mut Probe,
    out: &mut Outcome,
) -> FlowSetup {
    let mut net = FlowNet::new();
    let (ft, dt) = probe.time("topo.build", || {
        FlowFatTree::build(&mut net, p.k, &FlowFatTreeConfig::default())
    });
    probe.layers.topo_build_s += dt;
    let hosts = ft.num_hosts();
    let links = net.len();
    let mut sim = FlowSim::new(net, FlowSimConfig::large_scale());
    let sink = opts.trace_digest.then(|| {
        let (tracer, sink) = Tracer::to_sink(DigestSink::new());
        sim.set_tracer(tracer);
        sink
    });
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5CA1E);
    let bytes0 = alloc::live();

    // Resident population: repeated random permutations, starts jittered
    // across the first simulated second.
    let mut conn = 0u64;
    let mut residents = Vec::with_capacity(p.resident);
    while residents.len() < p.resident {
        let (perm, dt) = probe.time("workload.plan", || permutation_traffic(&mut rng, hosts));
        probe.layers.plan_s += dt;
        let ((), dt) = probe.time("flowsim.install", || {
            for (h, &dst) in perm.iter().enumerate() {
                if residents.len() >= p.resident {
                    break;
                }
                let f = ft.connect(
                    &mut sim,
                    h,
                    dst,
                    Algorithm::Olia,
                    p.subflows,
                    None,
                    &mut rng,
                    conn,
                );
                let jitter = SimDuration::from_secs_f64(rng.f64());
                sim.start_at(f, SimTime::ZERO + jitter);
                residents.push(f);
                conn += 1;
            }
        });
        probe.layers.flow_install_s += dt;
    }

    // Churn overlay: every host sends heavy-tailed finite flows to a fixed
    // far-away destination at Poisson instants.
    let (plan, dt) = probe.time("workload.plan", || {
        let senders: Vec<usize> = (0..hosts).collect();
        let dests: Vec<usize> = (0..hosts).map(|h| (h + hosts / 2) % hosts).collect();
        heavytail_churn_plan(
            &mut rng,
            &senders,
            &dests,
            &HeavyTailMix::default(),
            p.mean_gap.as_secs_f64(),
            p.horizon.as_secs_f64(),
        )
    });
    probe.layers.plan_s += dt;
    let ((), dt) = probe.time("flowsim.install", || {
        for spec in &plan {
            let f = ft.connect(
                &mut sim,
                spec.src,
                spec.dst,
                Algorithm::Olia,
                p.subflows,
                Some(spec.size_packets),
                &mut rng,
                conn,
            );
            sim.start_at(f, SimTime::ZERO + SimDuration::from_secs_f64(spec.start_s));
            conn += 1;
        }
    });
    probe.layers.flow_install_s += dt;
    out.counts.flows_installed = conn;
    out.counts.flow_install_bytes = alloc::live().saturating_sub(bytes0) as u64;
    FlowSetup {
        sim,
        residents,
        planned: plan.len(),
        links,
        sink,
    }
}

/// Set up (and drop) one flow workload, recording the wall time.
pub fn setup_only(w: Workload, seed: u64, scale: Scale, probe: &mut Probe) {
    let p = FlowParams::at(w, scale);
    let t0 = Instant::now();
    let s = setup(
        seed,
        &p,
        &RunOpts::untraced(),
        probe,
        &mut Outcome::default(),
    );
    probe.setups_s.push(t0.elapsed().as_secs_f64());
    std::hint::black_box(&s.sim);
}

/// Every link id of a network with `n` links. `LinkId` offers no
/// constructor, and ids are dense indices from zero, so they are taken from
/// a throwaway network of the same size.
fn link_ids(n: usize) -> Vec<LinkId> {
    let mut net = FlowNet::new();
    (0..n).map(|_| net.add_link_pps(0.0)).collect()
}

/// One run of a flow workload.
pub fn run(w: Workload, seed: u64, opts: &RunOpts, probe: &mut Probe) -> Outcome {
    let p = FlowParams::at(w, opts.scale);
    let mut out = Outcome::default();

    probe.open("setup");
    let t0 = Instant::now();
    let mut s = setup(seed, &p, opts, probe, &mut out);
    probe.setups_s.push(t0.elapsed().as_secs_f64());
    probe.close();

    probe.begin_run();
    let end = SimTime::ZERO + p.horizon;
    let step = match opts.stepping {
        Stepping::Slices => p.slice,
        Stepping::OneShot => p.horizon,
    };
    let mut t = SimTime::ZERO;
    while t < end {
        t = SimTime::from_nanos((t.as_nanos() + step.as_nanos()).min(end.as_nanos()));
        let before = s.sim.recomputes();
        let entities = (s.sim.active_flows() * p.subflows) as u64;
        probe.slice("flowsim.run_until", || s.sim.run_until(t));
        probe.flow_steps.push(FlowStep {
            wall_ms: *probe.slices_ms.last().expect("a slice was just recorded"),
            recomputes: s.sim.recomputes() - before,
            entities,
        });
    }
    probe.end_run();

    let sim = &s.sim;
    let expect_started = (s.residents.len() + s.planned) as u64;
    if sim.started_flows() != expect_started {
        out.failures.push(format!(
            "{} flows started, {expect_started} planned",
            sim.started_flows()
        ));
    }
    let mut d = ResultDigest::default();
    for v in [
        sim.started_flows(),
        sim.completed_flows(),
        sim.peak_active() as u64,
        sim.events_processed(),
        sim.recomputes(),
    ] {
        d.u64(v);
    }
    for &f in &s.residents {
        d.f64(sim.delivered_pkts(f));
    }
    for l in link_ids(s.links) {
        d.f64(sim.link_loss(l));
    }
    out.digest = d.finish();
    out.trace_digest = s.sink.as_ref().map(|d| d.borrow().digest());
    out.sim_s = p.horizon.as_secs_f64();
    out.counts.recomputes = sim.recomputes();
    out.counts.peak_active = sim.peak_active() as u64;
    out.counts.completed = sim.completed_flows();
    out
}
