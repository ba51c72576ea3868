//! End-to-end and per-layer benchmark of the packet and flow engines.
//!
//! One binary (`src/main.rs`) runs one named workload per process on one
//! simulation thread:
//!
//! | workload | engine | what it is |
//! |---|---|---|
//! | `paper_isp` | packet | the paper's Scenario B (15+15 users, RED bottlenecks), LIA and OLIA, red users single-path and upgraded: four 120 s runs |
//! | `dc_churn` | packet | k=8 FatTree, 4:1 oversubscribed; a third of the hosts run OLIA×8 long flows, the rest heavy-tailed Reno flows installed and retired epoch by epoch |
//! | `flow_churn` | flow | `flowsim` k=16, 10⁴ resident OLIA×2 flows, heavy churn (mean gap 50 ms per host) |
//! | `flow_steady` | flow | the same fabric and residents, light churn (mean gap 1 s per host) |
//!
//! [`Workload::params`] spells out every size. The workload seed is the
//! only input, and every unit's outputs are checked (see [`check`]).
//!
//! # Runs and units
//!
//! One invocation is a *run*. It first sets the workload up (and drops it)
//! at least seven times, for `setup_s`. It then repeats the workload in
//! *units* while another unit still fits in `--seconds`. Unit `u` of seed
//! `n` uses the seed [`unit_seed`]`(n, u)`, so a run averages over several
//! draws of the workload. A `paper_isp` unit is all four configurations.
//! Units are open loop in simulated time: arrivals follow the seeded plan
//! whatever the wall clock does.
//!
//! The timings are medians over units: of each unit's `sim_wall_ratio` and
//! slice p50 and p90 (every unit steps at least 120 slices, so its p90 has
//! at least 12 samples beyond it), so a burst of load on the machine that
//! slows one unit does not move the result. `setup_s` is the median over
//! every set-up, and `peak_mb` the highest unit's high-water mark.
//!
//! Every timing is reported at the reference speed of [`reference`]: a
//! fixed kernel, independent of the repository's code, is timed before the
//! set-ups and after every unit, and each wall time is scaled by the
//! kernel's nominal over its measured duration around it. On a shared host
//! whose speed drifts by up to 2× within minutes this halved the spread
//! between runs; the raw wall-clock medians are printed next to the
//! result.
//!
//! # End-to-end metrics (untraced runs)
//!
//! * `sim_wall_ratio` — simulated seconds per wall second of the run
//!   phase: what a user of the repository waits on.
//! * `slice_p50_ms`, `slice_p90_ms` — wall time of one stepped
//!   `run_until` over a fixed simulated slice (1 s on `paper_isp`, 25 ms
//!   elsewhere; every unit steps at least 120 slices), so stalls a mean
//!   would hide show up.
//! * `setup_s` — topology build, workload generation and connection/flow
//!   install before the first `run_until`; the median of several set-ups.
//! * `peak_mb` — high-water live heap of the counting allocator
//!   ([`alloc`]) over set-up and run.
//! * failed runs — units whose output check failed, reported as `failed`
//!   out of `attempted` in the result line (an end-to-end metric must never
//!   be zero, so it is not one of them).
//!
//! # Per-layer metrics (traced run) and what each should move
//!
//! The layers are the repository's crates. Counts come from public
//! counters after an untraced run; times come from a separate traced run
//! that times the calls into each layer from this benchmark's own files
//! ([`probe`]).
//!
//! | layer | metrics | moves → on |
//! |---|---|---|
//! | `topo`, `workload` | `topo.build_s`, `workload.plan_s` | `setup_s` on all four |
//! | `tcpsim` | `tcpsim.install_s`, `tcpsim.retire_s`, `tcpsim.calls`, `tcpsim.busy_s`, `tcpsim.ns_per_call`, `tcpsim.acked_pkts`, `tcpsim.timeouts`, `tcpsim.pool_reuse` | `sim_wall_ratio` on `paper_isp` and `dc_churn`; install/retire/pool also `slice_p90_ms` and `peak_mb` on `dc_churn` |
//! | `mpsim-core` | `core.on_ack_ns` (`MultipathCc::on_ack` on the workload's own path shapes) | `sim_wall_ratio`, more on `dc_churn` (OLIA's α set grows with subflows) |
//! | `netsim` + `eventsim` | `netsim.self_s`, `netsim.ns_per_event`, `netsim.pkts`, `netsim.drops`, `netsim.marks`, `netsim.drop_ratio`, `eventsim.events`, `eventsim.peak_heap`, `eventsim.peak_timers`, `eventsim.stale_drain_ratio` | `sim_wall_ratio`, more on `dc_churn` (large heap) than on `paper_isp`; RED counters on `paper_isp` |
//! | `flowsim` | `flowsim.install_s`, `flowsim.recomputes`, `flowsim.recompute_ms_p50`, `flowsim.recompute_ms_p90`, `flowsim.ns_per_entity`, `flowsim.peak_active`, `flowsim.completed`, `flowsim.bytes_per_flow` | `sim_wall_ratio` and `slice_p50_ms` on both flow workloads; `recompute_ms_p90` → `slice_p90_ms` on `flow_churn` |
//!
//! Predicted "no change" pairings — the workload that bypasses each
//! mechanism:
//!
//! * `tcpsim` install/retire/pool work: zero on `paper_isp` (Scenario B
//!   installs its 30 connections inside `topo::ScenarioB::build` and never
//!   retires one), so a change there must leave `paper_isp` unchanged.
//! * `flowsim`: no change on `paper_isp` or `dc_churn`; the packet layers
//!   (`tcpsim`, `mpsim-core`, `netsim`, `eventsim`): no change on
//!   `flow_churn` or `flow_steady`.
//! * Dirty-link tracking in the allocator should help `flow_steady` (few
//!   links change per recompute); if it costs time under heavy churn,
//!   `flow_churn` shows it.
//!
//! `netsim` and `eventsim` share one call boundary (`Simulation::run_until`),
//! so from outside they are measured together: `netsim.self_s` is the
//! traced `run_until` wall time minus the time spent inside `tcpsim`
//! endpoint callbacks (`tcpsim.busy_s`, which includes the two clock reads
//! per callback). `tcpsim.install_s` and `tcpsim.retire_s` cover the
//! installs and retirements the benchmark itself makes, so they are zero on
//! `paper_isp`, whose connections `topo::ScenarioB::build` installs (inside
//! `topo.build_s`). `flowsim.recompute_ms_*` time the 25 ms steps that ran
//! exactly one allocator recompute, and `flowsim.ns_per_entity` divides
//! such a step by the active subflows it started with. A layer a workload
//! does not run reports 0. `trace.overhead` is the traced unit's run phase
//! over the untraced one's; no trace sink is attached in either. Per-layer
//! times are raw wall clock; `machine.reference_ms` is the reference
//! kernel's duration next to them.
//!
//! # Set-up time
//!
//! `setup_s` on `paper_isp` is tens of microseconds per configuration
//! (about 0.1 ms at most): Scenario B is a dozen queues and 30 connections,
//! and starting them schedules 30 events. `dc_churn` builds its FatTree
//! lazily and installs only the long flows before the first `run_until`
//! (under a millisecond). The flow workloads install 7×10⁴ (`flow_churn`)
//! or 1.3×10⁴ (`flow_steady`) flows up front, and single set-ups vary by
//! tens of percent with allocator and cache state. Each run therefore sets
//! up at least seven times (more while set-ups stay under 1.5 s in total)
//! and reports the median.

#![deny(rust_2018_idioms)]

pub mod alloc;
pub mod check;
pub mod flow;
pub mod packet;
pub mod probe;
pub mod reference;

use probe::Probe;

/// A trace digest sink shared with the simulation it is attached to.
type SharedDigest = std::rc::Rc<std::cell::RefCell<trace::DigestSink>>;

/// The seed of unit `unit` of a run with workload seed `seed`.
pub fn unit_seed(seed: u64, unit: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(unit)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scenario B, the paper's ISP topology.
    PaperIsp,
    /// k=8 FatTree with long OLIA×8 flows and heavy-tailed Reno churn.
    DcChurn,
    /// `flowsim` k=16 with 10⁴ resident flows and heavy churn.
    FlowChurn,
    /// `flowsim` k=16 with 10⁴ resident flows and light churn.
    FlowSteady,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperIsp,
        Workload::DcChurn,
        Workload::FlowChurn,
        Workload::FlowSteady,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperIsp => "paper_isp",
            Workload::DcChurn => "dc_churn",
            Workload::FlowChurn => "flow_churn",
            Workload::FlowSteady => "flow_steady",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the packet engine.
    pub fn is_packet(self) -> bool {
        matches!(self, Workload::PaperIsp | Workload::DcChurn)
    }

    /// The workload's parameters at `scale`, one `key=value` per entry.
    pub fn params(self, scale: Scale) -> Vec<(&'static str, String)> {
        match self {
            Workload::PaperIsp => packet::IspParams::at(scale).describe(),
            Workload::DcChurn => packet::ChurnParams::at(scale).describe(),
            Workload::FlowChurn | Workload::FlowSteady => {
                flow::FlowParams::at(self, scale).describe()
            }
        }
    }

    /// Set up the workload without running it (topology, workload plan and
    /// install), for the `setup_s` repetitions; each simulation set up
    /// adds one entry to `probe.setups_s`.
    pub fn setup_only(self, seed: u64, scale: Scale, probe: &mut Probe) {
        netsim::routes::clear();
        tcpsim::pool::clear();
        match self {
            Workload::PaperIsp => packet::isp_setup_only(seed, scale, probe),
            Workload::DcChurn => packet::churn_setup_only(seed, scale, probe),
            Workload::FlowChurn | Workload::FlowSteady => {
                flow::setup_only(self, seed, scale, probe)
            }
        }
    }

    /// Run the workload once: set up, step through every slice, check.
    pub fn run(self, seed: u64, opts: &RunOpts, probe: &mut Probe) -> Outcome {
        // Thread-local interning and recycling state from an earlier run
        // would make this run's memory and pool counts depend on history.
        netsim::routes::clear();
        tcpsim::pool::clear();
        match self {
            Workload::PaperIsp => packet::run_isp(seed, opts, probe),
            Workload::DcChurn => packet::run_churn(seed, opts, probe),
            Workload::FlowChurn | Workload::FlowSteady => flow::run(self, seed, opts, probe),
        }
    }
}

/// Workload size: the benchmark's own, or a reduced copy for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// A small copy of each workload with the same structure (tests).
    Reduced,
}

/// How a run advances simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepping {
    /// One `run_until` per fixed slice (the measured runs).
    Slices,
    /// As few `run_until` calls as the workload's protocol allows: one per
    /// run on `paper_isp` and the flow workloads, one per install/retire
    /// epoch on `dc_churn`.
    OneShot,
}

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Workload size.
    pub scale: Scale,
    /// How simulated time is advanced.
    pub stepping: Stepping,
    /// Wrap every `tcpsim` endpoint in a callback timer (traced run).
    pub wrap_endpoints: bool,
    /// Attach a `trace::DigestSink` and report the trace digest
    /// (equivalence tests only: a sink slows the packet engine several-fold).
    pub trace_digest: bool,
}

impl RunOpts {
    /// An untraced measured run at full scale.
    pub fn untraced() -> RunOpts {
        RunOpts {
            scale: Scale::Full,
            stepping: Stepping::Slices,
            wrap_endpoints: false,
            trace_digest: false,
        }
    }

    /// The traced run: endpoint timers on, no trace sink.
    pub fn traced() -> RunOpts {
        RunOpts {
            wrap_endpoints: true,
            ..RunOpts::untraced()
        }
    }
}

/// What one run leaves behind.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// FNV-1a digest over the run's public outputs ([`check`]).
    pub digest: u64,
    /// Trace digest, when [`RunOpts::trace_digest`] was set.
    pub trace_digest: Option<u64>,
    /// Simulated seconds covered.
    pub sim_s: f64,
    /// Output checks that failed (empty when the run is correct).
    pub failures: Vec<String>,
    /// Public counters read after the run.
    pub counts: Counts,
}

/// Per-layer counters read from the engines' public accessors after a run
/// (summed over the runs a workload iteration makes).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Events dispatched by the packet engine (`eventsim.events`).
    pub events: u64,
    /// Highest event-heap occupancy.
    pub peak_heap: u64,
    /// Highest number of armed timers.
    pub peak_timers: u64,
    /// Cancelled timers drained from the heap.
    pub stale_drains: u64,
    /// Packets admitted to the packet arena.
    pub pkts: u64,
    /// Packets offered to queues.
    pub arrived: u64,
    /// Packets dropped by queues.
    pub drops: u64,
    /// RED early drops (marks).
    pub marks: u64,
    /// Packets ACKed, over every subflow of every connection.
    pub acked_pkts: u64,
    /// Retransmission timeouts, over every subflow.
    pub timeouts: u64,
    /// Ring requests served from the `tcpsim` pool.
    pub pool_recycled: u64,
    /// Ring requests that allocated a fresh ring.
    pub pool_fresh: u64,
    /// `flowsim` allocator recomputes.
    pub recomputes: u64,
    /// Highest number of concurrently active flows.
    pub peak_active: u64,
    /// Finite flows completed.
    pub completed: u64,
    /// Flows installed in `flowsim`.
    pub flows_installed: u64,
    /// Heap bytes the flow installs added.
    pub flow_install_bytes: u64,
}

impl Counts {
    /// Add another run's counters (peaks take the maximum).
    pub fn absorb(&mut self, o: &Counts) {
        self.events += o.events;
        self.peak_heap = self.peak_heap.max(o.peak_heap);
        self.peak_timers = self.peak_timers.max(o.peak_timers);
        self.stale_drains += o.stale_drains;
        self.pkts += o.pkts;
        self.arrived += o.arrived;
        self.drops += o.drops;
        self.marks += o.marks;
        self.acked_pkts += o.acked_pkts;
        self.timeouts += o.timeouts;
        self.pool_recycled += o.pool_recycled;
        self.pool_fresh += o.pool_fresh;
        self.recomputes += o.recomputes;
        self.peak_active = self.peak_active.max(o.peak_active);
        self.completed += o.completed;
        self.flows_installed += o.flows_installed;
        self.flow_install_bytes += o.flow_install_bytes;
    }
}
