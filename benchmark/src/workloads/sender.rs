//! One tester → sink measurement point, shared by the two workloads that
//! use the switch pipeline as a *sender* (`linerate_64b`, `ratectl_timer`):
//! task text → compiled → built → injected → `run_until` → read back.

use super::Rep;
use crate::front::{must_build, FrontCounts, Source};
use crate::trace::Tracer;
use hypertester::asic::time::SimTime;
use hypertester::asic::{DeviceId, LinkSpec, Switch, World};
use hypertester::cpu::SwitchCpu;
use hypertester::dut::Sink;
use hypertester::ht::{global_value, TaskHandles, TesterConfig};
use std::time::Instant;

/// What to run.
pub struct Point {
    pub src: Source,
    pub cfg: TesterConfig,
    pub world_seed: u64,
    /// Template copies to circulate; `None` = enough for line rate.
    pub copies: Option<usize>,
    pub warmup: SimTime,
    pub window: SimTime,
    pub log_arrivals: bool,
}

/// One port, as the sink and the port's MAC saw it.
pub struct PortOut {
    /// Frames and bytes the sink received over the measurement window.
    pub frames: u64,
    pub bytes: u64,
    /// Packet rate over the window.
    pub pps: f64,
    /// Frames the sink received over warm-up + window.
    pub sink_frames: u64,
    /// Frames and bytes the MAC accepted, and when its wire is next free.
    pub mac_frames: u64,
    pub mac_bytes: u64,
    pub mac_next_free: SimTime,
}

/// What the sink and the switch saw.
pub struct PointOut {
    pub ports: Vec<PortOut>,
    /// Inter-arrival gaps on port 0, ns (when arrivals were logged).
    pub gaps_ns: Vec<f64>,
    /// The `Q1` global reduce, when the task has one.
    pub q1: Option<u64>,
    pub events: u64,
}

/// A point ready to measure: task compiled, switch built, world wired,
/// templates injected.
pub struct Prepared {
    world: World,
    tester: DeviceId,
    sink: DeviceId,
    handles: TaskHandles,
}

/// Everything before the first simulated event.
pub fn prepare(tr: &mut Tracer, front: &mut FrontCounts, p: &Point) -> Prepared {
    let mut built = must_build(tr, &p.src, &p.cfg, front);
    let speed = p.cfg.ports[0].1;
    let templates = tr.span("core.template_copies", |_| {
        let mut all = Vec::new();
        for i in 0..built.templates.len() {
            let copies = p.copies.unwrap_or_else(|| built.copies_for_line_rate(i, speed));
            all.extend(built.template_copies(i, copies));
        }
        all
    });
    let handles = built.handles;
    let (mut world, tester, sink) = tr.span("asic.sim.wire", |tr| {
        let mut world = World::builder().seed(p.world_seed).build().expect("static world config");
        let sink =
            if p.log_arrivals { Sink::new("sink").logging_arrivals() } else { Sink::new("sink") };
        let tester = world.add_device(tr.wrap("asic.switch", built.switch));
        let sink = world.add_device(tr.wrap("dut.sink", sink));
        for &(port, _) in &p.cfg.ports {
            world.link((tester, port), (sink, port), LinkSpec::new());
        }
        (world, tester, sink)
    });
    tr.span("cpu.inject", |_| SwitchCpu::new().inject_templates(&mut world, tester, templates, 0));
    Prepared { world, tester, sink, handles }
}

/// Runs a prepared point, adding its measured time, work and counts to
/// `rep`.
pub fn measure(tr: &mut Tracer, rep: &mut Rep, p: &Point, ready: Prepared) -> PointOut {
    let Prepared { mut world, tester, sink: sink_id, handles } = ready;
    // The measured section: warm-up (the injection ramp), then the window.
    let run = Instant::now();
    let (events, warm_frames) = tr.span("asic.sim.run", |_| {
        let warm = world.run_until(p.warmup);
        let sink: &mut Sink = world.device_mut(sink_id);
        let warm_frames: Vec<u64> = p
            .cfg
            .ports
            .iter()
            .map(|(port, _)| sink.ports.get(port).map_or(0, |s| s.frames))
            .collect();
        sink.reset();
        (warm + world.run_until(p.warmup + p.window), warm_frames)
    });
    rep.core_s += run.elapsed().as_secs_f64();
    rep.work += events;
    rep.sim_us += (p.warmup + p.window) as f64 / 1e6;
    rep.peak_queue = rep.peak_queue.max(world.peak_queue_depth());

    let sw: &Switch = world.device(tester);
    rep.add_switch(sw.counters);
    let q1 = tr.span("core.results", |_| handles.queries.get("Q1").map(|h| global_value(sw, h)));
    let sink: &Sink = world.device(sink_id);
    PointOut {
        ports: p
            .cfg
            .ports
            .iter()
            .zip(warm_frames)
            .map(|(&(port, _), warm)| {
                let st = sink.ports.get(&port).cloned().unwrap_or_default();
                let mac = sw.mac(port);
                PortOut {
                    frames: st.frames,
                    bytes: st.bytes,
                    pps: st.pps(),
                    sink_frames: warm + st.frames,
                    mac_frames: mac.tx_frames,
                    mac_bytes: mac.tx_bytes,
                    mac_next_free: mac.next_free,
                }
            })
            .collect(),
        gaps_ns: sink.inter_arrivals_ns(0),
        q1,
        events,
    }
}
