//! `ring_partitioned` — `sim_scaling`'s ring of 8 forwarders (1 µs
//! pipeline, 2 µs links, 1024 packets), run once serial and once on two
//! engines.
//!
//! Why: the only workload whose time is in the partitioned engine (horizon
//! protocol, channels) and in sparse, distinct-timestamp queue traffic.
//! The switch pipeline is absent, so executor work must not move it.
//!
//! `wall_s`, `work_per_s` and `sim_us` describe the 2-engine run; the serial
//! run is timed for `speedup_e2` and supplies the deterministic counts (an
//! engine-local queue depth depends on thread interleaving).

use super::{first_failure, timed_rep, Rep, Scale};
use crate::trace::Tracer;
use crate::util::{Fnv, Rng};
use hypertester::asic::time::us;
use hypertester::asic::{DeviceId, FieldTable, LinkSpec, SimPacket, SimThreads, World};
use hypertester::dut::Forwarder;
use std::time::Instant;

const HOPS: usize = 8;
const PACKETS: u64 = 1024;
/// Simulated run length at full scale, µs.
const RUN_US: u64 = 10_000;
/// Engines of the partitioned run (= `nproc` on the reference box).
pub const ENGINES: usize = 2;

/// The seeded injection plan: `(forwarder, time ps)` per packet.
pub fn inputs(seed: u64) -> Vec<(usize, u64)> {
    let mut rng = Rng::new(seed, 4);
    (0..PACKETS).map(|_| (rng.range(0, HOPS as u64 - 1) as usize, rng.range(0, 63) * 100)).collect()
}

struct RingRun {
    forwarded: Vec<u64>,
    events: u64,
    run_s: f64,
    peak_queue: u64,
}

/// The ring, wired and loaded with the injection plan.
fn build_ring(tr: &mut Tracer, plan: &[(usize, u64)], engines: usize) -> (World, Vec<DeviceId>) {
    let mut w = World::builder()
        .partitions(SimThreads::Fixed(engines))
        .build()
        .expect("static world config");
    let ids: Vec<_> = (0..HOPS)
        .map(|i| {
            let fwd = Forwarder::new(&format!("fwd{i}"), us(1)).route(0, 1, 100_000_000_000);
            w.add_device(tr.wrap("dut.forwarder", fwd))
        })
        .collect();
    for i in 0..HOPS {
        w.link((ids[i], 1), (ids[(i + 1) % HOPS], 0), LinkSpec::new().delay(us(2)));
    }
    let ft = FieldTable::new();
    for (uid, &(hop, at)) in plan.iter().enumerate() {
        let pkt = SimPacket { phv: ft.new_phv(), body: None, uid: uid as u64 };
        w.schedule_rx(ids[hop], 0, pkt, at);
    }
    (w, ids)
}

fn run_ring(
    tr: &mut Tracer,
    (mut w, ids): (World, Vec<DeviceId>),
    engines: usize,
    t_end: u64,
) -> RingRun {
    let run = Instant::now();
    let span = if engines == 1 { "asic.parallel.e1_run" } else { "asic.parallel.e2_run" };
    let events = tr.span(span, |_| w.run_until(t_end));
    let run_s = run.elapsed().as_secs_f64();
    RingRun {
        forwarded: ids.iter().map(|&id| w.device::<Forwarder>(id).forwarded).collect(),
        events,
        run_s,
        peak_queue: w.peak_queue_depth(),
    }
}

pub fn setup_only(seed: u64, _scale: Scale) {
    build_ring(&mut Tracer::new(false), &inputs(seed), ENGINES);
}

pub fn rep(seed: u64, scale: Scale, tr: &mut Tracer) -> Rep {
    // The serial reference runs first and outside the timed rep, so that
    // `wall_s` is the 2-engine run's alone.
    let t_end = us(scale.of(RUN_US));
    let ring = build_ring(tr, &inputs(seed), 1);
    let serial = run_ring(tr, ring, 1, t_end);
    tr.next_world();

    timed_rep(tr, |tr, rep, start| {
        let ring = tr.span("asic.sim.wire", |tr| build_ring(tr, &inputs(seed), ENGINES));
        rep.setup_s = start.elapsed().as_secs_f64();
        let par = run_ring(tr, ring, ENGINES, t_end);
        rep.core_s = par.run_s;
        rep.work = par.events;
        rep.sim_us = t_end as f64 / 1e6;
        rep.peak_queue = serial.peak_queue;
        rep.timed.push(("e1_run_s", serial.run_s));
        rep.timed.push(("e2_run_s", par.run_s));

        tr.span("bench.verify", |_| {
            let total: u64 = par.forwarded.iter().sum();
            rep.op(first_failure(&[
                (
                    par.forwarded == serial.forwarded && par.events == serial.events,
                    format!("{} events on 2 engines vs {} serial", par.events, serial.events),
                ),
                (total > PACKETS, format!("{total} forwards from {PACKETS} packets")),
            ]));
            let mut d = Fnv::default();
            d.words(par.forwarded.iter().copied());
            d.word(par.events);
            rep.digest = d.0;
        });
    })
}
