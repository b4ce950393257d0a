//! Shared harness: build a HyperTester from DSL source, wire it to sinks,
//! run with a warm-up window, and collect per-port measurements.

use ht_asic::time::{ms, SimTime};
use ht_asic::{DeviceId, LinkSpec, SimThreads, Switch, World};
use ht_core::{build, BuiltTester, TesterConfig};
use ht_cpu::SwitchCpu;
use ht_dut::Sink;
use ht_ntapi::{compile, parse};

/// Result of one throughput/rate run, per port.
#[derive(Debug, Clone)]
pub struct PortMeasurement {
    /// Packets per second over the measurement window.
    pub pps: f64,
    /// Layer-1 throughput (frame + preamble + IFG bits).
    pub l1_gbps: f64,
    /// Layer-2 throughput (frame bits).
    pub l2_gbps: f64,
    /// Inter-arrival gaps in nanoseconds (when arrival logging was on).
    pub gaps_ns: Vec<f64>,
}

/// A complete testbed run: tester → sink on `ports` ports.
pub struct HtRun {
    /// Per-port measurements, indexed by port.
    pub ports: Vec<PortMeasurement>,
    /// The world after the run (for further inspection).
    pub world: World,
    /// Tester device id.
    pub tester: DeviceId,
    /// Sink device id.
    pub sink: DeviceId,
    /// The built tester handles.
    pub built: BuiltTester,
}

/// Configuration of a harness run.
pub struct RunSpec<'a> {
    /// NTAPI DSL source.
    pub src: &'a str,
    /// Frame length (for copy sizing).
    pub frame_len: usize,
    /// Ports used (wired to the sink).
    pub ports: u16,
    /// Port speed, bits/s.
    pub speed_bps: u64,
    /// Template copies per trigger; `None` = enough for line rate.
    pub copies: Option<usize>,
    /// Warm-up before measurement starts.
    pub warmup: SimTime,
    /// Measurement window length.
    pub window: SimTime,
    /// Log arrivals (needed for rate-control error metrics).
    pub log_arrivals: bool,
}

impl Default for RunSpec<'_> {
    fn default() -> Self {
        RunSpec {
            src: "",
            frame_len: 64,
            ports: 1,
            speed_bps: ht_packet::wire::gbps(100),
            copies: None,
            warmup: ms(1),
            window: ms(1),
            log_arrivals: false,
        }
    }
}

/// The tester config for a spec's port layout.
fn config(ports: u16, speed_bps: u64) -> TesterConfig {
    TesterConfig::builder().ports(ports).speed_bps(speed_bps).build().expect("tester config")
}

/// Runs a spec and returns the measurements.
pub fn run(spec: RunSpec<'_>) -> HtRun {
    let task = compile(&parse(spec.src).expect("parse")).expect("compile");
    let mut built = build(&task, &config(spec.ports, spec.speed_bps)).expect("build");
    let mut templates = Vec::new();
    for i in 0..built.templates.len() {
        let copies = spec.copies.unwrap_or_else(|| built.copies_for_line_rate(i, spec.speed_bps));
        templates.extend(built.template_copies(i, copies));
    }

    let mut world = World::builder().partitions(SimThreads::Auto).build().expect("static config");
    let mut sink = Sink::new("sink");
    if spec.log_arrivals {
        sink = sink.logging_arrivals();
    }
    let tester = world.add_device(Box::new(built.switch));
    let sink_id = world.add_device(Box::new(sink));
    for p in 0..spec.ports {
        world.link((tester, p), (sink_id, p), LinkSpec::new());
    }
    SwitchCpu::new().inject_templates(&mut world, tester, templates, 0);

    world.run_until(spec.warmup);
    world.device_mut::<Sink>(sink_id).reset();
    world.run_until(spec.warmup + spec.window);

    let ports = (0..spec.ports)
        .map(|p| {
            let s: &Sink = world.device(sink_id);
            let stats = s.ports.get(&p).cloned().unwrap_or_default();
            let pps = stats.pps();
            PortMeasurement {
                pps,
                l1_gbps: ht_packet::wire::l1_rate_bps(spec.frame_len, pps) / 1e9,
                l2_gbps: ht_packet::wire::l2_rate_bps(spec.frame_len, pps) / 1e9,
                gaps_ns: s.inter_arrivals_ns(p),
            }
        })
        .collect();

    // `built.switch` moved into the world; retain a handle-only clone by
    // rebuilding the metadata part.  (Handles reference registers by id,
    // valid against the in-world switch.)
    let built_handles =
        build(&task, &config(spec.ports, spec.speed_bps)).expect("rebuild for handles");
    HtRun { ports, world, tester, sink: sink_id, built: built_handles }
}

/// Access to the in-world tester switch after a run.
pub fn tester_switch(run: &HtRun) -> &Switch {
    run.world.device(run.tester)
}
