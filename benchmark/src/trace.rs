//! Benchmark-side tracing: spans around calls into each layer's public
//! functions, and [`Spanned`], the device wrapper that times
//! `rx`/`rx_batch`/`wake`.
//!
//! Nothing here touches product code.  With the tracer off, `span` runs its
//! closure directly and `wrap` boxes the bare device, so an untraced rep
//! pays nothing.

use crate::util::Json;
use hypertester::asic::sim::{BatchItem, Device, DeviceKind, Outbox};
use hypertester::asic::{SimPacket, SimTime};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every `SAMPLE_EVERY`-th device call keeps its own span; the rest only
/// feed the busy-time counters.
const SAMPLE_EVERY: u64 = 1024;

/// One recorded span: a call into a layer, or a phase of the rep.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for the rep's root.
    pub parent: Option<usize>,
}

/// Busy-time counters of one wrapped device.  Atomics because a partitioned
/// world drives its devices from engine threads; they are statistics and
/// publish no other data, hence `Relaxed`.
#[derive(Debug)]
pub struct DeviceStats {
    /// Layer the device belongs to (`asic.switch`, `dut.sink`, …).
    pub layer: &'static str,
    /// Which world of the rep the device ran in (the ring builds two).
    pub world: usize,
    epoch: Instant,
    busy_ns: AtomicU64,
    calls: AtomicU64,
    items: AtomicU64,
    single_calls: AtomicU64,
    samples: Mutex<Vec<(u64, u64, u64)>>,
}

impl DeviceStats {
    fn record(&self, start: Instant, items: u64) {
        let end = Instant::now();
        self.busy_ns.fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
        if items == 1 {
            self.single_calls.fetch_add(1, Ordering::Relaxed);
        }
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(SAMPLE_EVERY) {
            let s = (start - self.epoch).as_nanos() as u64;
            let e = (end - self.epoch).as_nanos() as u64;
            self.samples.lock().expect("sample log poisoned by a device panic").push((s, e, items));
        }
    }

    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    pub fn single_calls(&self) -> u64 {
        self.single_calls.load(Ordering::Relaxed)
    }
}

/// A device boxed for a traced rep.  Forwards everything the world asks a
/// device (name, lookahead, kind, the `Any` upcasts) to the inner device,
/// so `World::device::<Sink>` and windowed batching behave as without it.
struct Spanned<D: Device> {
    inner: D,
    stats: Arc<DeviceStats>,
}

impl<D: Device> Device for Spanned<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox) {
        let t = Instant::now();
        self.inner.rx(port, pkt, now, out);
        self.stats.record(t, 1);
    }

    fn wake(&mut self, token: u64, now: SimTime, out: &mut Outbox) {
        let t = Instant::now();
        self.inner.wake(token, now, out);
        self.stats.record(t, 1);
    }

    fn rx_batch(&mut self, items: &mut Vec<BatchItem>, now: SimTime, out: &mut Outbox) {
        let n = items.len() as u64;
        let t = Instant::now();
        self.inner.rx_batch(items, now, out);
        self.stats.record(t, n);
    }

    fn lookahead(&self) -> SimTime {
        self.inner.lookahead()
    }

    fn device_kind(&self) -> DeviceKind {
        self.inner.device_kind()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// The span recorder of one rep.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<SpanRec>,
    stack: Vec<usize>,
    pub devices: Vec<Arc<DeviceStats>>,
    world: usize,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            devices: Vec::new(),
            world: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// A call made only to time a layer the product reaches internally
    /// (`lex` inside `resolve`, `lint_switch` inside `build`); skipped
    /// entirely when the tracer is off, so untraced reps do no extra work.
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> Option<T> {
        self.on.then(|| self.span(name, |_| f()))
    }

    /// Devices wrapped from now on belong to the next world of the rep.
    pub fn next_world(&mut self) {
        self.world += 1;
    }

    /// Boxes a device for `World::add_device`, timed when tracing.
    pub fn wrap<D: Device>(&mut self, layer: &'static str, dev: D) -> Box<dyn Device> {
        if !self.on {
            return Box::new(dev);
        }
        let stats = Arc::new(DeviceStats {
            layer,
            world: self.world,
            epoch: self.epoch,
            busy_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            items: AtomicU64::new(0),
            single_calls: AtomicU64::new(0),
            samples: Mutex::new(Vec::new()),
        });
        self.devices.push(stats.clone());
        Box::new(Spanned { inner: dev, stats })
    }

    /// Total duration of every span named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum::<u64>()
            as f64
            / 1e9
    }

    /// Self time of the spans named `name`: their duration minus the part
    /// their direct child spans cover.  (Device busy time is a counter, not a
    /// span; `asic.sim.engine_s` subtracts it explicitly.)
    pub fn self_s(&self, name: &str) -> f64 {
        let dur = |s: &SpanRec| (s.end_ns - s.start_ns) as f64 / 1e9;
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(dur)
            .sum();
        self.total_s(name) - children
    }

    /// Devices of one layer in one world.
    pub fn layer_devices<'a>(
        &'a self,
        layer: &'a str,
        world: usize,
    ) -> impl Iterator<Item = &'a Arc<DeviceStats>> {
        self.devices.iter().filter(move |d| d.layer == layer && d.world == world)
    }

    /// The whole trace as JSON: every span (name, start, end, parent,
    /// workload id) plus per-device busy counters and their sampled spans.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Int(p as u64))),
                    ("workload", Json::Str(workload.into())),
                ])
            })
            .collect();
        let devices = self
            .devices
            .iter()
            .map(|d| {
                let samples = d.samples.lock().expect("sample log poisoned by a device panic");
                Json::obj([
                    ("layer", Json::Str(d.layer.into())),
                    ("world", Json::Int(d.world as u64)),
                    ("busy_ns", Json::Int(d.busy_ns.load(Ordering::Relaxed))),
                    ("calls", Json::Int(d.calls())),
                    ("items", Json::Int(d.items())),
                    ("sample_every", Json::Int(SAMPLE_EVERY)),
                    (
                        "samples",
                        Json::Arr(
                            samples
                                .iter()
                                .map(|&(s, e, n)| {
                                    Json::Arr(vec![Json::Int(s), Json::Int(e), Json::Int(n)])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(workload.into())),
            ("spans", Json::Arr(spans)),
            ("devices", Json::Arr(devices)),
        ])
    }
}
