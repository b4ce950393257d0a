//! Isolated kernels: each replays ≥200 k operations through one layer's
//! public entry point, with the workload's own parameters (its built
//! switch, frame size, queue depth), and reports ns per operation.

use crate::front::{must_build, FrontCounts, Source};
use crate::trace::Tracer;
use crate::workloads::{linerate, ratectl, web, Rep, Scale, Workload};
use hypertester::asic::hash::{crc32_words_x4, crc32_words_x8, Crc32Fold};
use hypertester::asic::sim::{BatchItem, Device, Outbox};
use hypertester::asic::switch::CPU_PORT;
use hypertester::asic::{fields, parser, ExecMode, FieldTable, SimPacket, TimerWheel};
use hypertester::bench::experiments::random_flow_space;
use hypertester::dut::Sink;
use hypertester::ht::TesterConfig;
use hypertester::ntapi::fp::HashConfig;
use hypertester::packet::{Ipv4Address, PacketBuilder};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Operations per kernel at full scale.
const OPS: u64 = 200_000;
/// Items per `rx_batch` call of the switch kernel.
const BATCH: usize = 64;

fn ns_per(total: Duration, ops: u64) -> f64 {
    total.as_nanos() as f64 / ops.max(1) as f64
}

/// 64-item `Device::rx_batch` on the workload's built switch under `mode`:
/// 64 template copies enter over the CPU port, and every recirculation the
/// switch schedules comes back as the next batch's wake — the recirculating
/// accelerator loop without the event queue around it.
fn switch_batch64(src: &Source, cfg: &TesterConfig, mode: ExecMode, ops: u64) -> f64 {
    let mut built = must_build(&mut Tracer::new(false), src, cfg, &mut FrontCounts::default());
    built.switch.set_exec_mode(mode);
    let n_templates = built.templates.len();
    let mut items: Vec<BatchItem> = Vec::with_capacity(BATCH);
    for i in 0..BATCH {
        let pkt = built.template_copies(i % n_templates, 1).remove(0);
        items.push(BatchItem::Deliver { port: CPU_PORT, pkt, at: i as u64 * 10_000 });
    }
    let sw = &mut built.switch;
    let mut out = Outbox::default();
    let (mut done, mut busy) = (0u64, Duration::ZERO);
    while done < ops && !items.is_empty() {
        let n = items.len() as u64;
        let now = items[0].at();
        let t = Instant::now();
        sw.rx_batch(&mut items, now, &mut out);
        busy += t.elapsed();
        done += n;
        out.emits.clear();
        out.wakes.sort_by_key(|&(_, at)| at);
        items.extend(out.wakes.drain(..).map(|(token, at)| BatchItem::Wake { token, at }));
    }
    ns_per(busy, done)
}

fn frame(len: usize) -> Vec<u8> {
    PacketBuilder::new()
        .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
        .udp(1, 1)
        .frame_len(len)
        .build()
}

fn parser_kernels(frame_len: usize, ops: u64) -> [(&'static str, f64); 2] {
    let ft = FieldTable::new();
    let mut bytes = frame(frame_len);
    let t = Instant::now();
    for _ in 0..ops {
        black_box(parser::parse(&ft, black_box(&bytes)).expect("self-built frame parses"));
    }
    let parse = t.elapsed();
    let phv = parser::parse(&ft, &bytes).expect("self-built frame parses");
    let t = Instant::now();
    for _ in 0..ops {
        parser::deparse(&ft, black_box(&phv), black_box(&mut bytes));
    }
    [
        ("asic.parser.parse_ns", ns_per(parse, ops)),
        ("asic.parser.deparse_ns", ns_per(t.elapsed(), ops)),
    ]
}

/// The hold model at the workload's peak queue depth: pop the minimum, push
/// it back a pseudo-random 0–1.2 µs later (about two accelerator loops).
fn timerwheel_hold(depth: u64, ops: u64) -> f64 {
    let mut wheel: TimerWheel<u32, u64> = TimerWheel::new();
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut delta = move || {
        lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (lcg >> 33) % 1_200_000
    };
    let mut key = 0u64;
    for _ in 0..depth.max(1) {
        wheel.push(delta(), key, 0);
        key += 1;
    }
    let t = Instant::now();
    for _ in 0..ops {
        let (at, _, item) = wheel.pop().expect("the wheel stays at depth");
        wheel.push(at + delta(), key, item);
        key += 1;
    }
    black_box(wheel.len());
    ns_per(t.elapsed(), ops)
}

fn sink_rx(frame_len: usize, ops: u64) -> f64 {
    const CHUNK: u64 = 4096;
    let ft = FieldTable::new();
    let mut sink = Sink::new("sink");
    let mut out = Outbox::default();
    let (mut done, mut busy) = (0u64, Duration::ZERO);
    while done < ops {
        // Packets are built outside the timed loop; `rx` consumes them.
        let pkts: Vec<SimPacket> = (0..CHUNK)
            .map(|i| {
                let mut phv = ft.new_phv();
                phv.set(&ft, fields::PKT_LEN, frame_len as u64);
                SimPacket { phv, body: None, uid: done + i }
            })
            .collect();
        let t = Instant::now();
        for (i, pkt) in pkts.into_iter().enumerate() {
            sink.rx((i % 4) as u16, pkt, (done + i as u64) * 6_720, &mut out);
        }
        busy += t.elapsed();
        done += CHUNK;
    }
    black_box(sink.total_frames());
    ns_per(busy, done)
}

fn hash_kernels(seed: u64, ops: u64) -> [(&'static str, f64); 4] {
    let n = (ops as usize).next_multiple_of(8);
    let space = random_flow_space(n, seed);
    let t = Instant::now();
    for key in space.iter() {
        let mut crc = Crc32Fold::ieee();
        for w in key {
            crc.fold8(w.to_be_bytes());
        }
        black_box(crc.finish());
    }
    let x1 = t.elapsed();
    let t = Instant::now();
    for i in (0..n).step_by(4) {
        black_box(crc32_words_x4(std::array::from_fn(|l| space.key(i + l))));
    }
    let x4 = t.elapsed();
    let t = Instant::now();
    for i in (0..n).step_by(8) {
        black_box(crc32_words_x8(std::array::from_fn(|l| space.key(i + l))));
    }
    let x8 = t.elapsed();
    let t = Instant::now();
    black_box(HashConfig::default().triple_batch(&space));
    let triple = t.elapsed();
    [
        ("asic.hash.crc_x1_ns_per_key", ns_per(x1, n as u64)),
        ("asic.hash.crc_x4_ns_per_key", ns_per(x4, n as u64)),
        ("asic.hash.crc_x8_ns_per_key", ns_per(x8, n as u64)),
        ("ir.triple_batch_ns_per_key", ns_per(triple, n as u64)),
    ]
}

fn packet_build(ops: u64) -> f64 {
    let t = Instant::now();
    for i in 0..ops {
        black_box(frame(64 + (i % 8) as usize * 64));
    }
    ns_per(t.elapsed(), ops)
}

/// The kernels that belong to `w`, as `(metric, ns per operation)`.  `rep`
/// is the workload's traced rep (for its peak queue depth).
pub fn run(w: Workload, seed: u64, scale: Scale, rep: &Rep) -> Vec<(&'static str, f64)> {
    let ops = scale.of(OPS);
    let mut out = Vec::new();
    let switch_task = match w {
        Workload::Linerate64b => {
            let (src, cfg, _) = linerate::inputs(seed, 0);
            Some((src, cfg, linerate::FRAME_LEN))
        }
        Workload::RatectlTimer => {
            let (src, cfg, _) = ratectl::inputs(seed, 0);
            Some((src, cfg, ratectl::POINTS[0].1))
        }
        Workload::WebStateless => {
            let (src, cfg, _) = web::inputs(seed);
            Some((src, cfg, 64))
        }
        _ => None,
    };
    if let Some((src, cfg, frame_len)) = switch_task {
        for (name, mode) in [
            ("asic.switch.batch64_ns_per_pkt.interp", ExecMode::Interp),
            ("asic.switch.batch64_ns_per_pkt.compiled", ExecMode::Compiled),
            ("asic.switch.batch64_ns_per_pkt.vector", ExecMode::Vector),
        ] {
            out.push((name, switch_batch64(&src, &cfg, mode, ops)));
        }
        out.extend(parser_kernels(frame_len, ops));
        if w != Workload::WebStateless {
            out.push(("dut.sink.rx_ns", sink_rx(frame_len, ops)));
        }
    }
    match w {
        Workload::FrontendMix => out.push(("packet.build_ns", packet_build(ops))),
        Workload::FpPrecompute => out.extend(hash_kernels(seed, ops)),
        _ => out.push(("asic.timerwheel.hold_ns", timerwheel_hold(rep.peak_queue, ops))),
    }
    out
}
