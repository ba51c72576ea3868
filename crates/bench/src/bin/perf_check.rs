//! Timing-free perf gate: behaviour goldens and memory budgets for the
//! simulators' perf-relevant scenarios.
//!
//! Two kinds of checks, both machine-independent:
//!
//! * **Trace digests.** Eight pinned-seed recipes run with their full JSONL
//!   trace folded into an FNV-1a digest (`trace::DigestSink`). Each must
//!   match its golden byte for byte, so an "optimization" that changes
//!   behaviour fails here:
//!   * `scenario_b` — the paper's Scenario B (Tables I/II) at quick scale;
//!   * `fattree` — a Fig. 13 FatTree slice (k = 4, OLIA ×4, permutation);
//!   * `flap` — a two-path OLIA dumbbell whose first path flaps three
//!     times (RTO/backoff, path-manager and re-probe machinery);
//!   * `k16_perm` — a k = 16 FatTree (1024 hosts) permutation, OLIA ×4;
//!   * `flow_check` — the flow engine's heavy-tailed churn at k = 8,
//!     2 000 resident OLIA ×2 flows plus Poisson arrivals;
//!   * `flow_olia`, `flow_lia`, `flow_reno` — the flow engine's exact
//!     validation path: a k = 8 permutation (OLIA ×4, LIA ×4, Reno ×1)
//!     with 50 sweeps per recompute, a recompute on every state change and
//!     a `Cwnd` event per subflow per recompute, so every allocated rate is
//!     hashed bit for bit.
//! * **Memory budgets.** A live-bytes counting allocator snapshots the
//!   heap around the connection-install step of `k16_perm` (bytes per
//!   connection) and of `flow_check` (bytes per flow). Each must stay
//!   within [`SLACK`] × its recorded value. Allocation sizes are
//!   deterministic; the slack only absorbs std-library differences across
//!   toolchains.
//!
//! Takes no arguments, writes no files and exits non-zero on any failure.
//! Wall-clock performance is measured by the `perfbench` benchmark, never
//! here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use bench::fattree::dc_config;
use eventsim::{SimDuration, SimRng, SimTime};
use flowsim::fattree::{
    heavytail_churn, install_heavytail_churn, permutation, ChurnParams, FlowFatTree,
};
use flowsim::{FlowFatTreeConfig, FlowNet, FlowSim, FlowSimConfig};
use mpsim_core::Algorithm;
use netsim::{route, FaultPlan, QueueConfig, QueueId, Simulation};
use tcpsim::{ConnectionSpec, PathSpec, TcpConfig};
use topo::{FatTree, FatTreeConfig, ScenarioB, ScenarioBParams};
use trace::{DigestSink, Tracer};
use workload::permutation_traffic;

/// Live-bytes counting allocator: alloc adds the layout size, dealloc
/// subtracts it, so the difference of two snapshots is what a phase left
/// resident.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic
// with no effect on allocation behavior.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: same pointer/layout contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: same pointer/layout contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Growth allowed over a recorded memory figure before the gate fails.
const SLACK: f64 = 1.25;

/// Recorded `k16_perm` connection-install bytes per connection.
const K16_BYTES_PER_CONN: f64 = 2184.0;

/// Recorded `flow_check` flow-install bytes per flow: 1 953 640 bytes for
/// 2 000 resident plus 5 038 churn flows.
const FLOW_CHECK_BYTES_PER_FLOW: f64 = 1_953_640.0 / 7_038.0;

/// A packet-engine recipe: build, run to its horizon with `tracer` attached.
type Recipe = fn(&Tracer);

/// The packet-engine recipes and their golden trace digests.
const PACKET_DIGESTS: &[(&str, Recipe, &str)] = &[
    ("scenario_b", scenario_b, "492c2da3930f8004"),
    ("fattree", fattree, "537b12d5c53f109b"),
    ("flap", flap, "28e42df578b80456"),
    ("k16_perm", |t| _ = k16_perm(t), "cf1f78818b592b5d"),
];

/// Golden trace digest of [`FLOW_CHECK`].
const FLOW_CHECK_DIGEST: &str = "7fd33a38d2d8706f";

/// The flow-engine exact-validation recipes (`flowsim::fattree::permutation`
/// at k = 8 for 3 simulated seconds, seed 1, default fabric and
/// `FlowSimConfig::default()`): algorithm, subflows and golden trace digest.
const FLOW_PERM_DIGESTS: &[(&str, Algorithm, usize, &str)] = &[
    ("flow_olia", Algorithm::Olia, 4, "744e13e9d99cbcd7"),
    ("flow_lia", Algorithm::Lia, 4, "39d2e5f25b9ddebb"),
    ("flow_reno", Algorithm::Reno, 1, "61b8b4b54ab2ffee"),
];

/// The flow-engine churn recipe, run with `FlowSimConfig::large_scale()`
/// on the default flow FatTree.
const FLOW_CHECK: ChurnParams = ChurnParams {
    k: 8,
    resident: 2_000,
    algorithm: Algorithm::Olia,
    subflows: 2,
    mean_gap: SimDuration::from_millis(50),
    horizon: SimDuration::from_secs(2),
    seed: 7,
};

/// Scenario B, quick scale: the paper's 15+15-user ISP topology, 10
/// simulated seconds, seed 1.
fn scenario_b(tracer: &Tracer) {
    let seed = 1;
    let mut sim = Simulation::new(seed);
    sim.set_tracer(tracer.clone());
    let s = ScenarioB::build(&mut sim, &ScenarioBParams::paper(false, Algorithm::Lia));
    let all: Vec<_> = s.blue.iter().chain(s.red.iter()).cloned().collect();
    let mut rng = SimRng::seed_from_u64(seed ^ 0xB4B4);
    topo::stagger_starts(&mut sim, &all, SimDuration::from_secs(2), &mut rng);
    sim.run_until(SimTime::from_secs_f64(10.0));
}

/// Fig. 13 FatTree slice: k = 4, OLIA with 4 subflows, permutation traffic,
/// 2 simulated seconds, seed 5.
fn fattree(tracer: &Tracer) {
    let seed = 5;
    let mut sim = Simulation::new(seed);
    sim.set_tracer(tracer.clone());
    let ft = FatTree::build(&mut sim, 4, &FatTreeConfig::default());
    let mut rng = SimRng::seed_from_u64(seed);
    let perm = permutation_traffic(&mut rng, ft.num_hosts());
    let conns: Vec<_> = (0..ft.num_hosts())
        .map(|h| {
            let cfg = TcpConfig::default();
            ft.connect(
                &mut sim,
                h,
                perm[h],
                Algorithm::Olia,
                4,
                None,
                cfg,
                &mut rng,
                h as u64,
            )
        })
        .collect();
    for c in &conns {
        sim.start_endpoint_at(c.source, SimTime::ZERO);
    }
    sim.run_until(SimTime::from_secs_f64(2.0));
}

/// One direction of a 10 Mb/s, 40 ms access link (RED forward queue, fat
/// reverse queue), as in `dc_robustness`.
fn flap_link(sim: &mut Simulation) -> (QueueId, QueueId) {
    let delay = SimDuration::from_millis(40);
    (
        sim.add_queue(QueueConfig::red_paper(10e6, delay)),
        sim.add_queue(QueueConfig::drop_tail(10e9, delay, 100_000)),
    )
}

/// dc_robustness flap: a two-path OLIA dumbbell where path 0 flaps three
/// times (4 s down / 2 s up), 46 simulated seconds, seed 21.
fn flap(tracer: &Tracer) {
    let mut sim = Simulation::new(21);
    sim.set_tracer(tracer.clone());
    let (f1, r1) = flap_link(&mut sim);
    let (f2, r2) = flap_link(&mut sim);
    let conn = ConnectionSpec::new(Algorithm::Olia)
        .with_path(PathSpec::new(route(&[f1]), route(&[r1])))
        .with_path(PathSpec::new(route(&[f2]), route(&[r2])))
        .install(&mut sim, 0);
    sim.start_endpoint_at(conn.source, SimTime::ZERO);
    sim.install_fault_plan(FaultPlan::new().flap(
        f1,
        SimTime::from_secs_f64(15.0),
        SimDuration::from_secs(4),
        SimDuration::from_secs(2),
        3,
    ));
    sim.run_until(SimTime::from_secs_f64(46.0));
}

/// k = 16 FatTree permutation: every host sends one long-lived OLIA ×4 flow
/// to a distinct host, starts jittered over the first quarter of a 0.2 s
/// horizon, seed 16. Returns the bytes per connection the install step
/// left resident.
fn k16_perm(tracer: &Tracer) -> f64 {
    let (seed, secs) = (16, 0.2);
    // Thread-local arenas must not carry an earlier recipe's routes or
    // recycled rings into this run's byte accounting.
    netsim::routes::clear();
    tcpsim::pool::clear();
    let mut sim = Simulation::new(seed);
    sim.set_tracer(tracer.clone());
    let ft = FatTree::build(&mut sim, 16, &FatTreeConfig::default());
    let before = live_bytes();
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5CA1E);
    let perm = permutation_traffic(&mut rng, ft.num_hosts());
    let cfg = dc_config();
    let conns: Vec<_> = (0..ft.num_hosts())
        .map(|h| {
            ft.connect(
                &mut sim,
                h,
                perm[h],
                Algorithm::Olia,
                4,
                None,
                cfg,
                &mut rng,
                h as u64,
            )
        })
        .collect();
    for c in &conns {
        let jitter = SimDuration::from_secs_f64(rng.f64() * secs * 0.25);
        sim.start_endpoint_at(c.source, SimTime::ZERO + jitter);
    }
    let per_conn = (live_bytes() - before) as f64 / conns.len() as f64;
    sim.run_until(SimTime::from_secs_f64(secs));
    per_conn
}

/// Bytes per flow [`install_heavytail_churn`] leaves resident for
/// [`FLOW_CHECK`] (untraced; the run itself is not needed).
fn flow_check_bytes_per_flow() -> f64 {
    let mut net = FlowNet::new();
    let ft = FlowFatTree::build(&mut net, FLOW_CHECK.k, &FlowFatTreeConfig::default());
    let mut sim = FlowSim::new(net, FlowSimConfig::large_scale());
    let before = live_bytes();
    let churn = install_heavytail_churn(&mut sim, &ft, &FLOW_CHECK);
    let flows = FLOW_CHECK.resident + churn;
    (live_bytes() - before) as f64 / flows as f64
}

/// Digest of one packet recipe's full JSONL trace.
fn packet_digest(run: Recipe) -> u64 {
    let (tracer, sink) = Tracer::to_sink(DigestSink::new());
    run(&tracer);
    drop(tracer);
    let digest = sink.borrow().digest();
    digest
}

/// Report one digest comparison; true when it matches.
fn digest_ok(name: &str, digest: u64, golden: &str) -> bool {
    let hex = format!("{digest:016x}");
    let ok = hex == golden;
    if ok {
        println!("digest {name}: {hex} OK");
    } else {
        eprintln!("digest {name}: computed {hex} != golden {golden}: behaviour changed");
    }
    ok
}

/// Report one memory-budget comparison; true when within budget.
fn budget_ok(name: &str, measured: f64, recorded: f64) -> bool {
    let limit = recorded * SLACK;
    let ok = measured <= limit;
    if ok {
        println!("{name}: {measured:.1} <= {limit:.1} OK");
    } else {
        eprintln!(
            "{name}: {measured:.1} exceeds budget {limit:.1} (recorded {recorded:.1} x {SLACK}): \
             memory regression"
        );
    }
    ok
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("perf_check takes no arguments");
        std::process::exit(2);
    }
    // Memory first, on an otherwise untouched heap, then behaviour.
    let mut ok = budget_ok(
        "k16_perm bytes/conn",
        k16_perm(&Tracer::disabled()),
        K16_BYTES_PER_CONN,
    );
    ok &= budget_ok(
        "flow_check bytes/flow",
        flow_check_bytes_per_flow(),
        FLOW_CHECK_BYTES_PER_FLOW,
    );
    for &(name, run, golden) in PACKET_DIGESTS {
        ok &= digest_ok(name, packet_digest(run), golden);
    }
    let flow = heavytail_churn(
        &FLOW_CHECK,
        &FlowFatTreeConfig::default(),
        FlowSimConfig::large_scale(),
    );
    ok &= digest_ok("flow_check", flow.digest, FLOW_CHECK_DIGEST);
    for &(name, algorithm, subflows, golden) in FLOW_PERM_DIGESTS {
        let perm = permutation(
            8,
            algorithm,
            subflows,
            SimDuration::from_secs(3),
            1,
            &FlowFatTreeConfig::default(),
            FlowSimConfig::default(),
        );
        ok &= digest_ok(name, perm.digest, golden);
    }
    if !ok {
        std::process::exit(1);
    }
    println!("perf_check: all digests and memory budgets pass");
}
