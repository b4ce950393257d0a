//! `web_stateless` — the §5.4 / Table 4 task (stateless connections)
//! against a `TcpResponder` over a 1 µs link, then result collection.
//!
//! Why: it uses the same switch pipeline as a *receiver* — filters, hash
//! units, cuckoo + exact match, the KV and trigger FIFOs — where the first
//! two workloads use it as a sender; it adds a second device and a delay
//! link; and it ends in the switch CPU's and the core's result collection.

use super::{first_failure, timed_rep, Rep, Scale};
use crate::front::{must_build, FrontCounts, Source};
use crate::trace::Tracer;
use crate::util::{Fnv, Rng};
use hypertester::asic::time::us;
use hypertester::asic::{DeviceId, LinkSpec, Switch, World};
use hypertester::cpu::{PullMode, SwitchCpu};
use hypertester::dut::TcpResponder;
use hypertester::ht::{global_value, keyed_results, Gbps, TaskHandles, TesterConfig};
use hypertester::ntapi::headerspace::global_space;
use hypertester::ntapi::{CompiledTask, HeaderField};
use std::time::Instant;

/// Simulated run length at full scale, µs.
const RUN_US: u64 = 150_000;
/// SYN interval: 100 k connections/s.
const SYN_INTERVAL_US: u64 = 10;
/// Copies of each template in the accelerator.
const COPIES: usize = 4;
/// Client ports the opener sweeps.
const SPORTS: u64 = 1024;

/// The seeded task and configuration.  `Q5` (global) and `Q6` (keyed by the
/// client port the SYN+ACK returns to) count the same packets two ways.
pub fn inputs(seed: u64) -> (Source, TesterConfig, u64) {
    let mut rng = Rng::new(seed, 3);
    let lo = rng.range(1024, 60_000);
    let hi = lo + SPORTS - 1;
    let server = format!("9.9.{}.{}", rng.range(0, 255), rng.range(1, 254));
    let text = format!(
        "# web_stateless, seed {seed}\n\
         T1 = trigger().set([dip, dport, proto, flag, seq_no], [{server}, 80, tcp, SYN, 1])\n    \
             .set(sport, range({lo}, {hi}, 1)).set(interval, {SYN_INTERVAL_US}us)\n\
         Q1 = query().filter(tcp_flag == SYN+ACK)\n\
         T2 = trigger(Q1).set([dip, sip], [Q1.sip, Q1.dip])\n    \
             .set([dport, sport], [Q1.sport, Q1.dport])\n    \
             .set([flag, seq_no, ack_no], [ACK, Q1.ack_no, Q1.seq_no + 1])\n\
         T3 = trigger(Q1).set([dip, sip], [Q1.sip, Q1.dip])\n    \
             .set([dport, sport], [Q1.sport, Q1.dport])\n    \
             .set([flag, seq_no, ack_no], [PSH+ACK, Q1.ack_no, Q1.seq_no + 1])\n    \
             .set(payload, \"GET index.html\")\n\
         Q4 = query().filter(tcp_flag == FIN)\n\
         T6 = trigger(Q4).set([dip, sip], [Q4.sip, Q4.dip])\n    \
             .set([dport, sport], [Q4.sport, Q4.dport])\n    \
             .set([flag, ack_no], [FIN+ACK, Q4.seq_no + 1])\n\
         Q5 = query().filter(tcp_flag == SYN+ACK).reduce(func=count)\n\
         Q6 = query().filter(tcp_flag == SYN+ACK).reduce(keys=[dport], func=count)\n"
    );
    let cfg = TesterConfig::builder()
        .ports(1)
        .speed(Gbps(100))
        .seed(rng.next())
        .build()
        .expect("static tester config");
    (Source::plain("web_stateless.nt", text), cfg, rng.next())
}

/// The world ready to run: switch built, responder linked, templates
/// injected.
struct Ready {
    world: World,
    sw_id: DeviceId,
    server: DeviceId,
    handles: TaskHandles,
    task: CompiledTask,
}

fn prepare(tr: &mut Tracer, front: &mut FrontCounts, seed: u64) -> Ready {
    let (src, cfg, world_seed) = inputs(seed);
    let mut built = must_build(tr, &src, &cfg, front);
    let templates = tr.span("core.template_copies", |_| {
        let mut all = Vec::new();
        for i in 0..built.templates.len() {
            all.extend(built.template_copies(i, COPIES));
        }
        all
    });
    let (handles, task) = (built.handles, built.task);
    let (mut world, sw_id, server) = tr.span("asic.sim.wire", |tr| {
        let mut world = World::builder().seed(world_seed).build().expect("static world config");
        let sw_id = world.add_device(tr.wrap("asic.switch", built.switch));
        let server =
            world.add_device(tr.wrap("dut.responder", TcpResponder::new("http-server", us(2))));
        world.link((sw_id, 0), (server, 0), LinkSpec::new().delay(us(1)));
        (world, sw_id, server)
    });
    tr.span("cpu.inject", |_| SwitchCpu::new().inject_templates(&mut world, sw_id, templates, 0));
    Ready { world, sw_id, server, handles, task }
}

pub fn setup_only(seed: u64, _scale: Scale) {
    prepare(&mut Tracer::new(false), &mut FrontCounts::default(), seed);
}

pub fn rep(seed: u64, scale: Scale, tr: &mut Tracer) -> Rep {
    timed_rep(tr, |tr, rep, start| {
        let Ready { mut world, sw_id, server, handles, task } = prepare(tr, &mut rep.front, seed);
        let cpu = SwitchCpu::new();
        rep.setup_s = start.elapsed().as_secs_f64();

        let t_end = us(scale.of(RUN_US));
        let run = Instant::now();
        let events = tr.span("asic.sim.run", |_| world.run_until(t_end));
        rep.core_s = run.elapsed().as_secs_f64();
        rep.work = events;
        rep.sim_us = t_end as f64 / 1e6;
        rep.peak_queue = world.peak_queue_depth();

        // Collection: pull the keyed query's counter arrays and drain the
        // digest queue as the switch CPU would, then merge into results.
        let stats = world.device::<TcpResponder>(server).stats;
        let q6 = &handles.queries["Q6"];
        let (pulled, drained) = tr.span("cpu.collect", |_| {
            let sw: &mut Switch = world.device_mut(sw_id);
            let engine = q6.engine.as_ref().expect("keyed query has an engine");
            let regs = engine.lock().expect("engine lock").arr_cnt;
            let pulled: u64 = regs
                .iter()
                .map(|&reg| {
                    let depth = sw.regs.array(reg).depth();
                    cpu.pull_counters(sw, reg, depth, PullMode::Batch).values.iter().sum::<u64>()
                })
                .sum();
            // The results below read evictions from `sw.digests`, so hand
            // the drained records back.
            let drain = cpu.drain_digests(sw);
            let drained = drain.records.len() as u64;
            sw.digests = drain.records;
            (pulled, drained)
        });
        let sw: &Switch = world.device(sw_id);
        rep.add_switch(sw.counters);
        let (q5, keyed) = tr.span("core.results", |_| {
            let space = global_space(&task.templates, &[HeaderField::Dport], true)
                .expect("1024 client ports enumerate");
            let mut keyed: Vec<(Vec<u64>, u64)> =
                keyed_results(sw, q6, &space).into_iter().collect();
            keyed.sort();
            (global_value(sw, &handles.queries["Q5"]), keyed)
        });

        tr.span("bench.verify", |_| {
            let expected_syns = t_end / us(SYN_INTERVAL_US);
            let rate_err = (stats.syns as f64 - expected_syns as f64).abs() / expected_syns as f64;
            let keyed_sum: u64 = keyed.iter().map(|(_, v)| v).sum();
            rep.op(first_failure(&[
                // Each SYN waits for a template to pass the timer, so the
                // opener runs late by up to one quantum (RTT / copies) per
                // interval: a few percent at 4 copies and 10 µs.
                (
                    stats.syns > 0 && rate_err < 0.03,
                    format!("{} SYNs vs {expected_syns}", stats.syns),
                ),
                (
                    stats.acks as f64 >= 0.85 * stats.syns as f64
                        && stats.requests as f64 >= 0.85 * stats.syns as f64,
                    format!(
                        "{} ACKs / {} requests for {} SYNs",
                        stats.acks, stats.requests, stats.syns
                    ),
                ),
                // The last SYN+ACKs may still be in flight at the cutoff.
                (
                    stats.syns >= q5 && stats.syns - q5 <= 2,
                    format!("Q5 {q5} vs {} SYNs", stats.syns),
                ),
                (keyed_sum == q5, format!("Q6 keys sum to {keyed_sum}, Q5 counts {q5}")),
                (keyed.len() as u64 <= SPORTS, format!("{} keys reported", keyed.len())),
            ]));
            rep.exact.push(("model_err_pct", rate_err * 100.0));

            let mut d = Fnv::default();
            d.words([stats.syns, stats.acks, stats.requests, stats.fins, stats.data_sent]);
            d.words([q5, pulled, drained, events, sw.counters.rx_frames, sw.counters.tx_frames]);
            d.words(keyed.iter().flat_map(|(k, v)| [k[0], *v]));
            rep.digest = d.0;
        });
    })
}
