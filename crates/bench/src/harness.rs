//! Shared harness: build a HyperTester from DSL source, wire it to sinks,
//! run with a warm-up window, and collect per-port measurements.

use ht_asic::time::{ms, SimTime};
use ht_asic::{LinkSpec, World};
use ht_core::{build, TesterConfig};
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

/// Configuration of a harness run.
pub struct RunSpec<'a> {
    /// NTAPI DSL source.
    pub src: &'a str,
    /// Pipeline executor of the built tester.
    pub exec: ht_asic::ExecMode,
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
            exec: ht_asic::ExecMode::default(),
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

/// Runs a spec (tester → sink on `spec.ports` ports) and returns the
/// per-port measurements, indexed by port.
pub fn run(spec: RunSpec<'_>) -> Vec<PortMeasurement> {
    let task = compile(&parse(spec.src).expect("parse")).expect("compile");
    let config = TesterConfig::builder()
        .ports(spec.ports)
        .speed_bps(spec.speed_bps)
        .exec(spec.exec)
        .build()
        .expect("tester config");
    let mut built = build(&task, &config).expect("build");
    let mut templates = Vec::new();
    for i in 0..built.templates.len() {
        let copies = spec.copies.unwrap_or_else(|| built.copies_for_line_rate(i, spec.speed_bps));
        templates.extend(built.template_copies(i, copies));
    }

    let mut world = World::builder().build().expect("static config");
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

    (0..spec.ports)
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
        .collect()
}
