//! Benchmark runner.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_isp|dc_churn|flow_churn|flow_steady> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up several times (for `setup_s`), then
//! runs units of it untraced while another unit still fits in `--seconds`
//! (always at least one), checking each, and reports the end-to-end
//! metrics at the reference speed of `perfbench::reference`. `--trace 1`
//! runs each unit twice, untraced (for the counts) and traced (for the
//! times), for about `--seconds`, and reports the per-layer metrics as
//! medians over units. Its spans go to
//! `perfbench/spans/<workload>-<seed>.jsonl`.
//!
//! The last line of standard output is the JSON result; the lines before it
//! give the machine context, the workload's parameters, and every metric by
//! name with its unit. Standard error carries one `digest <workload> <seed>
//! <unit> <hex>` line per unit, the form `goldens.txt` records.

use std::process::ExitCode;
use std::time::Instant;

use mpsim_core::{Algorithm, PathView};
use perfbench::probe::Probe;
use perfbench::reference::{self, REFERENCE_S};
use perfbench::{alloc, check, unit_seed, Outcome, RunOpts, Scale, Workload};

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Median of `v` (0 for an empty slice).
fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile of `v` (0 for an empty slice).
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Set-ups per process: at least this many, more while they stay cheap.
const MIN_SETUPS: usize = 7;
/// Set-up repetitions stop once they have taken this long (or
/// [`MAX_SETUPS`] samples were taken).
const SETUP_BUDGET_S: f64 = 1.5;
const MAX_SETUPS: usize = 401;

/// One checked unit and what it measured.
struct Measured {
    out: Outcome,
    probe: Probe,
    peak_bytes: usize,
}

/// Run unit `unit` of workload seed `seed` and record its heap high-water
/// mark.
fn measure(w: Workload, seed: u64, unit: u64, opts: &RunOpts, spans: bool) -> Measured {
    alloc::reset_peak();
    let mut probe = Probe::new(spans);
    let out = w.run(unit_seed(seed, unit), opts, &mut probe);
    Measured {
        peak_bytes: alloc::peak(),
        out,
        probe,
    }
}

/// The reasons unit `unit` of `seed` is not correct (empty when it is),
/// and a `digest` line for recording goldens on standard error.
fn check_unit(w: Workload, seed: u64, unit: u64, m: &Measured) -> Vec<String> {
    eprintln!("digest {} {seed} {unit} {:016x}", w.name(), m.out.digest);
    let mut why = m.out.failures.clone();
    if let Some(g) = check::golden(w.name(), seed, unit) {
        if m.out.digest != g {
            why.push(format!("digest {:016x} != golden {g:016x}", m.out.digest));
        }
    }
    why
}

/// Whether another unit as long as the last one (`last_s`) still ends
/// within `budget_s` of `started`. A run therefore never measures for much
/// longer than asked, only shorter by less than one unit.
fn another(started: Instant, last_s: f64, budget_s: f64) -> bool {
    started.elapsed().as_secs_f64() + last_s <= budget_s
}

/// A metric in the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn report(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<28} {:>18} {}", m.name, m.value, m.unit);
    }
    println!("{:<28} {:>18} of {attempted} units", "failed_runs", failed);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// End-to-end metrics from untraced runs. Timings are normalized to the
/// reference speed measured around each group of set-ups and each unit
/// (see [`reference`]); the raw medians are printed alongside.
fn end_to_end(w: Workload, seed: u64, seconds: f64) {
    let ref_before = reference::measure_s();
    let mut setups = Probe::new(false);
    let t = Instant::now();
    while setups.setups_s.len() < MIN_SETUPS
        || (t.elapsed().as_secs_f64() < SETUP_BUDGET_S && setups.setups_s.len() < MAX_SETUPS)
    {
        w.setup_only(unit_seed(seed, 0), Scale::Full, &mut setups);
    }
    let mut ref_before_unit = reference::measure_s();
    let scale = REFERENCE_S / ((ref_before + ref_before_unit) / 2.0);
    let mut raw = Columns::default();
    let mut norm = Columns::default();
    raw.setup_s = setups.setups_s.clone();
    norm.setup_s = setups.setups_s.iter().map(|s| s * scale).collect();

    let started = Instant::now();
    let mut slices = 0;
    let mut peak_mb: f64 = 0.0;
    let mut refs_ms = vec![ref_before * 1e3, ref_before_unit * 1e3];
    let (mut attempted, mut failed) = (0, 0);
    for unit in 0.. {
        let t = Instant::now();
        let m = measure(w, seed, unit, &RunOpts::untraced(), false);
        let ref_after_unit = reference::measure_s();
        let last_s = t.elapsed().as_secs_f64();
        refs_ms.push(ref_after_unit * 1e3);
        attempted += 1;
        let why = check_unit(w, seed, unit, &m);
        if !why.is_empty() {
            failed += 1;
            eprintln!("unit {unit} failed its output check: {}", why.join("; "));
        }
        let scale = REFERENCE_S / ((ref_before_unit + ref_after_unit) / 2.0);
        raw.push(&m, 1.0);
        norm.push(&m, scale);
        slices += m.probe.slices_ms.len();
        peak_mb = peak_mb.max(m.peak_bytes as f64 / 1e6);
        ref_before_unit = ref_after_unit;
        if !another(started, last_s, seconds) {
            break;
        }
    }
    println!(
        "{slices} slices, {} set-ups, {attempted} units; reference kernel median {} ms",
        raw.setup_s.len(),
        median(&refs_ms)
    );
    println!(
        "raw wall clock: sim_wall_ratio {} s/s, slice_p50_ms {} ms, slice_p90_ms {} ms, setup_s {} s",
        median(&raw.ratio),
        median(&raw.p50_ms),
        median(&raw.p90_ms),
        median(&raw.setup_s)
    );
    report(
        failed == 0,
        attempted,
        failed,
        &[
            metric("sim_wall_ratio", median(&norm.ratio), "s/s"),
            metric("slice_p50_ms", median(&norm.p50_ms), "ms"),
            metric("slice_p90_ms", median(&norm.p90_ms), "ms"),
            metric("setup_s", median(&norm.setup_s), "s"),
            metric("peak_mb", peak_mb, "MB"),
        ],
    );
}

/// Per-unit timings, each multiplied by a time scale (1 for raw wall
/// clock, `REFERENCE_S / reference` for normalized).
#[derive(Default)]
struct Columns {
    ratio: Vec<f64>,
    p50_ms: Vec<f64>,
    p90_ms: Vec<f64>,
    setup_s: Vec<f64>,
}

impl Columns {
    fn push(&mut self, m: &Measured, scale: f64) {
        self.ratio.push(m.out.sim_s / (m.probe.run_s * scale));
        self.p50_ms
            .push(percentile(&m.probe.slices_ms, 50.0) * scale);
        self.p90_ms
            .push(percentile(&m.probe.slices_ms, 90.0) * scale);
        self.setup_s
            .extend(m.probe.setups_s.iter().map(|s| s * scale));
    }
}

/// The path shapes whose `MultipathCc::on_ack` a workload exercises:
/// (algorithm, subflows, round-trip time in seconds).
fn cc_shapes(w: Workload) -> &'static [(Algorithm, usize, f64)] {
    match w {
        Workload::PaperIsp => &[(Algorithm::Lia, 2, 0.08), (Algorithm::Olia, 2, 0.08)],
        Workload::DcChurn => &[(Algorithm::Olia, 8, 0.002)],
        Workload::FlowChurn | Workload::FlowSteady => &[],
    }
}

/// Mean nanoseconds per `MultipathCc::on_ack` over the workload's path
/// shapes (0 when the workload runs no packet-level congestion control).
fn on_ack_ns(w: Workload, seed: u64) -> f64 {
    const CALLS: usize = 400_000;
    let shapes = cc_shapes(w);
    let mut rng = eventsim::SimRng::seed_from_u64(seed ^ 0xACC);
    let mut total = 0.0;
    for &(alg, n, rtt) in shapes {
        let mut cc = alg.build();
        let mut paths: Vec<PathView> = (0..n)
            .map(|_| PathView {
                cwnd: 2.0 + 30.0 * rng.f64(),
                rtt: rtt * (1.0 + rng.f64()),
                ell: 10.0 + 1000.0 * rng.f64(),
                established: true,
            })
            .collect();
        let t = Instant::now();
        for i in 0..CALLS {
            let idx = i % n;
            let inc = cc.on_ack(std::hint::black_box(&paths), idx);
            let w = &mut paths[idx];
            w.cwnd = (w.cwnd + inc).clamp(1.0, 64.0);
            w.ell += 1.0;
        }
        total += t.elapsed().as_nanos() as f64 / CALLS as f64;
        std::hint::black_box(&paths);
    }
    if shapes.is_empty() {
        0.0
    } else {
        total / shapes.len() as f64
    }
}

/// `x / y`, or 0 when `y` is 0.
fn ratio(x: f64, y: f64) -> f64 {
    if y == 0.0 {
        0.0
    } else {
        x / y
    }
}

/// Per-layer metrics from one untraced/traced pair of runs.
fn layer_metrics(w: Workload, seed: u64, plain: &Measured, traced: &Measured) -> Vec<Metric> {
    let c = &plain.out.counts;
    let l = &traced.probe.layers;
    let clock = &traced.probe.clock;
    let busy_s = clock.busy_s();
    let packet = w.is_packet();
    let netsim_self_s = if packet { l.run_until_s - busy_s } else { 0.0 };
    let steps: Vec<_> = traced
        .probe
        .flow_steps
        .iter()
        .filter(|s| s.recomputes == 1)
        .collect();
    let recompute_ms: Vec<f64> = steps.iter().map(|s| s.wall_ms).collect();
    let ns_per_entity: Vec<f64> = steps
        .iter()
        .filter(|s| s.entities > 0)
        .map(|s| s.wall_ms * 1e6 / s.entities as f64)
        .collect();
    vec![
        metric("topo.build_s", l.topo_build_s, "s"),
        metric("workload.plan_s", l.plan_s, "s"),
        metric("tcpsim.install_s", l.tcp_install_s, "s"),
        metric("tcpsim.retire_s", l.tcp_retire_s, "s"),
        metric("tcpsim.calls", clock.calls() as f64, "count"),
        metric("tcpsim.busy_s", busy_s, "s"),
        metric(
            "tcpsim.ns_per_call",
            ratio(busy_s * 1e9, clock.calls() as f64),
            "ns",
        ),
        metric("tcpsim.acked_pkts", c.acked_pkts as f64, "count"),
        metric("tcpsim.timeouts", c.timeouts as f64, "count"),
        metric(
            "tcpsim.pool_reuse",
            ratio(
                c.pool_recycled as f64,
                (c.pool_recycled + c.pool_fresh) as f64,
            ),
            "ratio",
        ),
        metric("core.on_ack_ns", on_ack_ns(w, seed), "ns"),
        metric("netsim.self_s", netsim_self_s, "s"),
        metric(
            "netsim.ns_per_event",
            ratio(netsim_self_s * 1e9, c.events as f64),
            "ns",
        ),
        metric("netsim.pkts", c.pkts as f64, "count"),
        metric("netsim.drops", c.drops as f64, "count"),
        metric("netsim.marks", c.marks as f64, "count"),
        metric(
            "netsim.drop_ratio",
            ratio(c.drops as f64, c.arrived as f64),
            "ratio",
        ),
        metric("eventsim.events", c.events as f64, "count"),
        metric("eventsim.peak_heap", c.peak_heap as f64, "count"),
        metric("eventsim.peak_timers", c.peak_timers as f64, "count"),
        metric(
            "eventsim.stale_drain_ratio",
            ratio(c.stale_drains as f64, c.events as f64),
            "ratio",
        ),
        metric("flowsim.install_s", l.flow_install_s, "s"),
        metric("flowsim.recomputes", c.recomputes as f64, "count"),
        metric(
            "flowsim.recompute_ms_p50",
            percentile(&recompute_ms, 50.0),
            "ms",
        ),
        metric(
            "flowsim.recompute_ms_p90",
            percentile(&recompute_ms, 90.0),
            "ms",
        ),
        metric("flowsim.ns_per_entity", median(&ns_per_entity), "ns"),
        metric("flowsim.peak_active", c.peak_active as f64, "count"),
        metric("flowsim.completed", c.completed as f64, "count"),
        metric(
            "flowsim.bytes_per_flow",
            ratio(c.flow_install_bytes as f64, c.flows_installed as f64),
            "B",
        ),
        metric(
            "trace.overhead",
            traced.probe.run_s / plain.probe.run_s,
            "ratio",
        ),
    ]
}

/// Per-layer metrics: untraced/traced pairs for about `seconds`; every
/// value is the median over the pairs.
fn per_layer(w: Workload, seed: u64, seconds: f64) -> std::io::Result<()> {
    let started = Instant::now();
    let mut rows: Vec<Vec<Metric>> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut spans = None;
    for unit in 0.. {
        let t = Instant::now();
        let reference_ms = reference::measure_s() * 1e3;
        let plain = measure(w, seed, unit, &RunOpts::untraced(), false);
        let traced = measure(w, seed, unit, &RunOpts::traced(), true);
        let last_s = t.elapsed().as_secs_f64();
        for m in [&plain, &traced] {
            attempted += 1;
            let mut why = check_unit(w, seed, unit, m);
            if m.out.digest != plain.out.digest {
                why.push("the traced run's outputs differ from the untraced run's".into());
            }
            if !why.is_empty() {
                failed += 1;
                eprintln!("unit {unit} failed its output check: {}", why.join("; "));
            }
        }
        let mut row = layer_metrics(w, seed, &plain, &traced);
        row.push(metric("machine.reference_ms", reference_ms, "ms"));
        rows.push(row);
        spans = Some(traced.probe.spans_jsonl());
        if !another(started, last_s, seconds) {
            break;
        }
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/spans");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{}-{seed}.jsonl", w.name());
    std::fs::write(&path, spans.unwrap_or_default())?;
    eprintln!("spans of the last traced run: {path}");
    let metrics: Vec<Metric> = (0..rows[0].len())
        .map(|i| {
            let values: Vec<f64> = rows.iter().map(|r| r[i].value).collect();
            metric(rows[0][i].name, median(&values), rows[0][i].unit)
        })
        .collect();
    report(failed == 0, attempted, failed, &metrics);
    Ok(())
}

/// Machine context printed next to the numbers: measurements are
/// same-machine A/B readings, not baselines for other machines.
fn context(w: Workload) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("machine: available_parallelism={cores}, simulation threads=1");
    println!(
        "build: {}, profile release (lto=thin, codegen-units=1)",
        env!("PERFBENCH_RUSTC")
    );
    println!("workload {}:", w.name());
    for (k, v) in w.params(Scale::Full) {
        println!("  {k} = {v}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    context(args.workload);
    if args.trace {
        if let Err(e) = per_layer(args.workload, args.seed, args.seconds) {
            eprintln!("perfbench: writing spans: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        end_to_end(args.workload, args.seed, args.seconds);
    }
    ExitCode::SUCCESS
}
