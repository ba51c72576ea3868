//! The benchmark's instruments must not change what they measure. On a
//! reduced copy of every workload, a one-shot bare run, the stepped run and
//! the stepped run with every `tcpsim` endpoint wrapped in the callback
//! timer give byte-identical trace digests and identical result digests.
//! Each workload also reproduces the repository's own protocol for it,
//! digest for digest.

use eventsim::SimDuration;
use flowsim::fattree::{heavytail_churn, ChurnParams};
use flowsim::{FlowFatTreeConfig, FlowSimConfig};
use mpsim_core::Algorithm;
use netsim::Simulation;
use perfbench::check::ResultDigest;
use perfbench::flow::FlowParams;
use perfbench::packet::{run_isp_config, ChurnParams as PacketChurnParams, IspParams};
use perfbench::probe::Probe;
use perfbench::{Outcome, RunOpts, Scale, Stepping, Workload};
use trace::{DigestSink, Tracer};

fn opts(stepping: Stepping, wrap_endpoints: bool) -> RunOpts {
    RunOpts {
        scale: Scale::Reduced,
        stepping,
        wrap_endpoints,
        trace_digest: true,
    }
}

/// Bare one-shot, stepped, and stepped + wrapped runs of `w`.
fn three_ways(w: Workload, seed: u64) -> [Outcome; 3] {
    [
        opts(Stepping::OneShot, false),
        opts(Stepping::Slices, false),
        opts(Stepping::Slices, true),
    ]
    .map(|o| w.run(seed, &o, &mut Probe::new(true)))
}

fn assert_equivalent(w: Workload, seed: u64) -> Outcome {
    let [bare, stepped, wrapped] = three_ways(w, seed);
    for (label, o) in [
        ("bare", &bare),
        ("stepped", &stepped),
        ("wrapped", &wrapped),
    ] {
        assert!(
            o.failures.is_empty(),
            "{} {label}: {:?}",
            w.name(),
            o.failures
        );
    }
    let td = bare.trace_digest.expect("trace digest requested");
    assert_eq!(
        stepped.trace_digest,
        Some(td),
        "{}: stepping changed the trace",
        w.name()
    );
    assert_eq!(
        wrapped.trace_digest,
        Some(td),
        "{}: endpoint timing changed the trace",
        w.name()
    );
    assert_eq!(
        stepped.digest,
        bare.digest,
        "{}: stepping changed the outputs",
        w.name()
    );
    assert_eq!(
        wrapped.digest,
        bare.digest,
        "{}: endpoint timing changed the outputs",
        w.name()
    );
    bare
}

#[test]
fn paper_isp_instruments_are_transparent() {
    assert_equivalent(Workload::PaperIsp, 3);
}

#[test]
fn dc_churn_instruments_are_transparent() {
    let o = assert_equivalent(Workload::DcChurn, 3);
    assert!(o.counts.pool_recycled > 0, "churn must recycle rings");
}

#[test]
fn flow_churn_instruments_are_transparent() {
    assert_equivalent(Workload::FlowChurn, 3);
}

#[test]
fn flow_steady_instruments_are_transparent() {
    assert_equivalent(Workload::FlowSteady, 3);
}

#[test]
fn stepped_workloads_give_at_least_100_slices_at_full_scale() {
    let isp = IspParams::at(Scale::Full);
    assert!(isp.horizon_s * SimDuration::from_secs(1).as_nanos() / isp.slice.as_nanos() >= 100);
    let churn = PacketChurnParams::at(Scale::Full);
    let churn_s = churn.warmup_s + churn.arrivals_s + churn.grace_s;
    assert!(churn_s / churn.slice.as_secs_f64() >= 100.0);
    for w in [Workload::FlowChurn, Workload::FlowSteady] {
        let p = FlowParams::at(w, Scale::Full);
        assert!(
            p.horizon.as_nanos() / p.slice.as_nanos() >= 100,
            "{}",
            w.name()
        );
    }
}

/// The stepped, wrapped Scenario B run reproduces the trace digest
/// pinned by the repository's `tests/collection_order.rs` (seed 42, OLIA,
/// red users upgraded, 0.5 s start jitter, 3 simulated seconds).
#[test]
fn paper_isp_matches_the_pinned_scenario_b_digest() {
    let p = IspParams::at(Scale::Reduced);
    assert_eq!(p.horizon_s, 3);
    let mut out = Outcome::default();
    run_isp_config(
        Algorithm::Olia,
        true,
        42,
        &p,
        &opts(Stepping::Slices, true),
        &mut Probe::new(false),
        &mut ResultDigest::default(),
        &mut out,
    );
    assert_eq!(out.trace_digest, Some(0xf6ec_d1d6_158f_14df));
}

/// The `dc_churn` workload reproduces `bench::fattree::heavytail_churn_in`
/// (OLIA×8 long flows) on a small FatTree.
#[test]
fn dc_churn_matches_the_repository_protocol() {
    let seed = 5;
    let p = PacketChurnParams::at(Scale::Reduced);
    let mut sim = Simulation::new(seed);
    let (tracer, sink) = Tracer::to_sink(DigestSink::new());
    sim.set_tracer(tracer);
    let r = bench::fattree::heavytail_churn_in(
        &mut sim,
        p.k,
        bench::fattree::LongFlows::Mptcp(Algorithm::Olia, p.long_subflows),
        p.arrivals_s,
        seed,
    );
    assert!(r.completed > 0, "the reduced churn must retire flows");
    let ours = Workload::DcChurn.run(seed, &opts(Stepping::Slices, true), &mut Probe::new(false));
    assert_eq!(ours.trace_digest, Some(sink.borrow().digest()));
}

/// The flow workloads reproduce `flowsim::fattree::heavytail_churn`.
#[test]
fn flow_workloads_match_the_repository_protocol() {
    for w in [Workload::FlowChurn, Workload::FlowSteady] {
        let seed = 9;
        let p = FlowParams::at(w, Scale::Reduced);
        let theirs = heavytail_churn(
            &ChurnParams {
                k: p.k,
                resident: p.resident,
                algorithm: Algorithm::Olia,
                subflows: p.subflows,
                mean_gap: p.mean_gap,
                horizon: p.horizon,
                seed,
            },
            &FlowFatTreeConfig::default(),
            FlowSimConfig::large_scale(),
        );
        let ours = w.run(seed, &opts(Stepping::Slices, false), &mut Probe::new(false));
        assert_eq!(ours.trace_digest, Some(theirs.digest), "{}", w.name());
        assert_eq!(ours.counts.completed, theirs.completed, "{}", w.name());
        assert_eq!(ours.counts.recomputes, theirs.recomputes, "{}", w.name());
    }
}
