//! Timing from outside the layers: spans around the calls this benchmark
//! makes into each crate, per-slice wall times, and a delegating endpoint
//! that times every `tcpsim` callback.
//!
//! Spans (name, start, end, parent) are kept in memory only when the probe
//! was created with spans on, and written out as JSON lines when the
//! benchmark ends. Layer sums and slice times are always kept: they cost two
//! clock reads per call, and the calls are coarse (a topology build, a
//! connection install, a whole slice).

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use netsim::{Endpoint, EndpointId, NetCtx, Packet, Simulation};

/// One timed call: `[start_ns, end_ns)` from the probe's origin; `parent`
/// indexes the enclosing span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `topo.build` or `slice`.
    pub name: &'static str,
    /// Start, nanoseconds after the probe was created.
    pub start_ns: u64,
    /// End, nanoseconds after the probe was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Wall seconds spent in each layer's calls, summed over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Topology construction (`topo`, `flowsim::fattree`).
    pub topo_build_s: f64,
    /// Workload generation (`workload` plans, start jitter).
    pub plan_s: f64,
    /// `tcpsim` connection installs.
    pub tcp_install_s: f64,
    /// `tcpsim` endpoint retirements (including returning rings).
    pub tcp_retire_s: f64,
    /// `flowsim` flow installs.
    pub flow_install_s: f64,
    /// `Simulation::run_until` / `FlowSim::run_until`.
    pub run_until_s: f64,
}

/// One `FlowSim::run_until` step of a flow workload.
#[derive(Debug, Clone, Copy)]
pub struct FlowStep {
    /// Wall milliseconds of the step.
    pub wall_ms: f64,
    /// Allocator recomputes the step performed.
    pub recomputes: u64,
    /// Active subflows when the step began (the allocator's entities).
    pub entities: u64,
}

/// Calls and busy time of every timed endpoint of a run.
#[derive(Debug, Default)]
pub struct EndpointClock {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl EndpointClock {
    fn record(&self, since: Instant) {
        self.calls.set(self.calls.get() + 1);
        self.nanos
            .set(self.nanos.get() + since.elapsed().as_nanos() as u64);
    }

    /// Endpoint callbacks timed.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Wall seconds spent inside endpoint callbacks.
    pub fn busy_s(&self) -> f64 {
        self.nanos.get() as f64 * 1e-9
    }
}

/// Recorder for one run (or one set-up).
pub struct Probe {
    origin: Instant,
    spans: Option<Vec<Span>>,
    open: Vec<u32>,
    /// Per-layer wall-time sums.
    pub layers: LayerTimes,
    /// Wall milliseconds of every stepped slice, in order.
    pub slices_ms: Vec<f64>,
    /// Flow-engine steps, in order.
    pub flow_steps: Vec<FlowStep>,
    /// Wall seconds of every set-up phase.
    pub setups_s: Vec<f64>,
    /// Wall seconds of the run phases.
    pub run_s: f64,
    run_started: Option<Instant>,
    /// Shared by every endpoint wrapped during the run.
    pub clock: Rc<EndpointClock>,
}

impl Probe {
    /// A recorder; `spans` keeps every span in memory.
    pub fn new(spans: bool) -> Probe {
        Probe {
            origin: Instant::now(),
            spans: spans.then(Vec::new),
            open: Vec::new(),
            layers: LayerTimes::default(),
            slices_ms: Vec::new(),
            flow_steps: Vec::new(),
            setups_s: Vec::new(),
            run_s: 0.0,
            run_started: None,
            clock: Rc::new(EndpointClock::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span (a no-op without span recording).
    pub fn open(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        if let Some(spans) = &mut self.spans {
            let parent = self.open.last().copied();
            self.open.push(spans.len() as u32);
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
        }
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let end_ns = self.now_ns();
        if let (Some(spans), Some(i)) = (&mut self.spans, self.open.pop()) {
            spans[i as usize].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span named `name`; returns its result and wall
    /// seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.open(name);
        let t = Instant::now();
        let r = f();
        let dt = t.elapsed().as_secs_f64();
        self.close();
        (r, dt)
    }

    /// Run one stepped slice (`f` calls the engine's `run_until`, named by
    /// `name`), recording its wall time.
    pub fn slice(&mut self, name: &'static str, f: impl FnOnce()) {
        let ((), dt) = self.time(name, f);
        self.layers.run_until_s += dt;
        self.slices_ms.push(dt * 1e3);
    }

    /// Open the run phase (everything after set-up).
    pub fn begin_run(&mut self) {
        self.open("run");
        self.run_started = Some(Instant::now());
    }

    /// Close the run phase, adding its wall time to `run_s`.
    pub fn end_run(&mut self) {
        if let Some(t) = self.run_started.take() {
            self.run_s += t.elapsed().as_secs_f64();
        }
        self.close();
    }

    /// Recorded spans (empty without span recording).
    fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// The spans as JSON lines: `{"name","start_ns","end_ns","parent"}`.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.start_ns, s.end_ns, parent
            );
        }
        out
    }
}

/// A delegating endpoint that times every callback of the endpoint it
/// wraps into a shared [`EndpointClock`].
pub struct TimedEndpoint {
    inner: Box<dyn Endpoint>,
    clock: Rc<EndpointClock>,
}

impl Endpoint for TimedEndpoint {
    fn start(&mut self, ctx: &mut NetCtx<'_>) {
        let t = Instant::now();
        self.inner.start(ctx);
        self.clock.record(t);
    }

    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, pkt: Packet) {
        let t = Instant::now();
        self.inner.on_packet(ctx, pkt);
        self.clock.record(t);
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, token);
        self.clock.record(t);
    }
}

/// Re-install the endpoint in slot `id` wrapped in a [`TimedEndpoint`],
/// through the public retire → reserve → install calls. Retired slots are
/// reused last-in first-out, so the wrapper lands in the endpoint's own
/// slot and every route and peer reference stays valid.
pub fn wrap_endpoint(sim: &mut Simulation, id: EndpointId, clock: &Rc<EndpointClock>) {
    let inner = sim.retire_endpoint(id);
    let slot = sim.reserve_endpoint();
    assert_eq!(slot, id, "the retired slot must be the next one reserved");
    sim.install_endpoint(
        id,
        Box::new(TimedEndpoint {
            inner,
            clock: Rc::clone(clock),
        }),
    );
}
