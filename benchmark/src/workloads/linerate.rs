//! `linerate_64b` — one trigger replicated to 4×100 G ports, 64 B frames,
//! `reduce(sum pkt_len)`, into a sink; five points of 1 ms warm-up + 1 ms
//! window, the windows the repository's own line-rate experiments use.
//!
//! Why: the smallest frame at line rate makes per-event cost dominate —
//! the simulator's queue and flush, the switch's TM/multicast/MAC, and the
//! sink.  The front end and the stateful ALUs do almost nothing.
//!
//! Why five short points and not one long window: the accelerator loop
//! outruns the line by design, so frames queue on the MACs and the event
//! queue deepens with simulated time (≈9 k events after 2 ms, 28 k after
//! 6 ms).  A 28 k-event queue is a 17 MB working set, and on the shared
//! reference box its speed then follows the neighbours' cache use: the same
//! binary read 4.0 or 4.7 M events/s for minutes at a time.

use super::sender::{measure, prepare, Point};
use super::{first_failure, timed_rep, Rep, Scale};
use crate::front::{FrontCounts, Source};
use crate::trace::Tracer;
use crate::util::{Fnv, Rng};
use hypertester::asic::time::ms;
use hypertester::ht::{Gbps, TesterConfig};
use hypertester::packet::wire::{gbps, line_rate_pps, wire_time_ps};

pub const PORTS: u16 = 4;
pub const FRAME_LEN: usize = 64;
/// Points per rep at full scale.
const POINTS: u64 = 5;

/// The seeded task and tester configuration of one point.
pub fn inputs(seed: u64, point: u64) -> (Source, TesterConfig, u64) {
    let mut rng = Rng::new(seed, 1 + point * 16);
    let text = format!(
        "# linerate_64b point {point}, seed {seed}\n\
         T1 = trigger()\n    \
             .set([dip, sip, proto], [10.0.{}.2, 10.0.{}.1, udp])\n    \
             .set([dport, sport], [{}, {}])\n    \
             .set([loop, pkt_len], [0, {FRAME_LEN}])\n    \
             .set(port, [0, 1, 2, 3])\n\
         Q1 = query(T1)\n    \
             .map(p -> (pkt_len))\n    \
             .reduce(func=sum)\n",
        rng.range(0, 255),
        rng.range(0, 255),
        rng.range(1, 65535),
        rng.range(1, 65535),
    );
    let cfg = TesterConfig::builder()
        .ports(PORTS)
        .speed(Gbps(100))
        .seed(rng.next())
        .build()
        .expect("static tester config");
    (Source::plain("linerate_64b.nt", text), cfg, rng.next())
}

fn point(seed: u64, i: u64) -> Point {
    let (src, cfg, world_seed) = inputs(seed, i);
    Point { src, cfg, world_seed, copies: None, warmup: ms(1), window: ms(1), log_arrivals: false }
}

pub fn setup_only(seed: u64, scale: Scale) {
    for i in 0..scale.of(POINTS) {
        prepare(&mut Tracer::new(false), &mut FrontCounts::default(), &point(seed, i));
    }
}

pub fn rep(seed: u64, scale: Scale, tr: &mut Tracer) -> Rep {
    timed_rep(tr, |tr, rep, start| {
        let mut digest = Fnv::default();
        let mut worst = 0.0f64;
        let mut since = start;
        for i in 0..scale.of(POINTS) {
            let point = point(seed, i);
            let ready = prepare(tr, &mut rep.front, &point);
            rep.setup_s += since.elapsed().as_secs_f64();
            let out = measure(tr, rep, &point, ready);

            tr.span("bench.verify", |_| {
                let line = line_rate_pps(FRAME_LEN, gbps(100));
                let off =
                    out.ports.iter().map(|p| (p.pps - line).abs() / line).fold(0.0f64, f64::max);
                worst = worst.max(off);
                let q1 = out.q1.unwrap_or(0);
                // Sink bytes = Q1 sum ± in flight: the egress query sums
                // exactly what the MACs accept, and what a MAC accepted but
                // the sink has not seen is still queued on the wire.
                let t_end = point.warmup + point.window;
                let wire = wire_time_ps(FRAME_LEN, gbps(100));
                let in_flight_ok = out.ports.iter().all(|p| {
                    let queued = p.mac_next_free.saturating_sub(t_end).div_ceil(wire);
                    (p.mac_frames - p.sink_frames).abs_diff(queued) <= 1
                });
                rep.op(first_failure(&[
                    (off < 0.02, format!("point {i}: a port is {:.2}% off line rate", off * 100.0)),
                    (
                        q1 == out.ports.iter().map(|p| p.mac_bytes).sum::<u64>(),
                        format!("point {i}: Q1 sums {q1} B, the MACs sent otherwise"),
                    ),
                    (
                        in_flight_ok,
                        format!(
                            "point {i}: sink frames + frames on the wire != frames the MAC sent"
                        ),
                    ),
                ]));
                digest.words(
                    out.ports.iter().flat_map(|p| [p.frames, p.bytes, p.sink_frames, p.mac_frames]),
                );
                digest.words([q1, out.events]);
            });
            since = std::time::Instant::now();
        }
        rep.exact.push(("model_err_pct", worst * 100.0));
        digest.words([rep.switch.tx_frames, rep.switch.recirculations]);
        rep.digest = digest.0;
    })
}
