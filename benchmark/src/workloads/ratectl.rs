//! `ratectl_timer` — four timer-gated points with the accelerator filled to
//! capacity and arrival logging on.
//!
//! Why: almost every event is a recirculation through the SALU timer and
//! its gateway (the executor and the switch ingress); the sink and the
//! multicast engine are nearly idle.  Frame size changes how many template
//! copies circulate and so the batch occupancy — the Fig. 11 vs Fig. 12
//! split that decides what the vector executor is worth.

use super::sender::{measure, prepare, Point};
use super::{first_failure, timed_rep, Rep, Scale};
use crate::front::{FrontCounts, Source};
use crate::trace::Tracer;
use crate::util::{Fnv, Rng};
use hypertester::asic::time::{ms, PS_PER_SEC};
use hypertester::asic::timing::{accelerator_capacity, recirc_rtt};
use hypertester::ht::TesterConfig;
use hypertester::packet::wire::gbps;
use hypertester::stats::ErrorMetrics;

/// `(port speed Gb/s, frame length, rate pps)`.
pub const POINTS: [(u64, usize, u64); 4] =
    [(40, 64, 1_000_000), (100, 64, 10_000_000), (100, 512, 1_000_000), (100, 1500, 1_000_000)];
/// Inter-departure samples per point at full scale.
const SAMPLES: u64 = 20_000;

/// The seeded task text and tester configuration of one point.
pub fn inputs(seed: u64, point: usize) -> (Source, TesterConfig, u64) {
    let (speed, frame_len, rate) = POINTS[point];
    let mut rng = Rng::new(seed, 2 + point as u64 * 16);
    let interval_ns = PS_PER_SEC / rate / 1000;
    let text = format!(
        "# ratectl_timer point {point}, seed {seed}\n\
         T1 = trigger()\n    \
             .set([dip, sip, proto], [10.1.{}.2, 10.1.{}.1, udp])\n    \
             .set(pkt_len, {frame_len})\n    \
             .set(interval, {interval_ns}ns)\n",
        rng.range(0, 255),
        rng.range(0, 255),
    );
    let cfg = TesterConfig::builder()
        .ports(1)
        .speed_bps(gbps(speed))
        .seed(rng.next())
        .build()
        .expect("static tester config");
    (Source::plain("ratectl_timer.nt", text), cfg, rng.next())
}

fn point(seed: u64, scale: Scale, i: usize) -> (Point, usize) {
    let (_, frame_len, rate) = POINTS[i];
    let (src, cfg, world_seed) = inputs(seed, i);
    let copies = accelerator_capacity(frame_len);
    let point = Point {
        src,
        cfg,
        world_seed,
        copies: Some(copies),
        warmup: ms(1),
        window: PS_PER_SEC / rate * scale.of(SAMPLES),
        log_arrivals: true,
    };
    (point, copies)
}

pub fn setup_only(seed: u64, scale: Scale) {
    for i in 0..POINTS.len() {
        prepare(&mut Tracer::new(false), &mut FrontCounts::default(), &point(seed, scale, i).0);
    }
}

pub fn rep(seed: u64, scale: Scale, tr: &mut Tracer) -> Rep {
    timed_rep(tr, |tr, rep, start| {
        let mut digest = Fnv::default();
        let mut worst_gap_err = 0.0f64;
        let mut worst_mae = 0.0f64;
        let mut since = start;
        for (i, &(_, frame_len, rate)) in POINTS.iter().enumerate() {
            let (point, copies) = point(seed, scale, i);
            let ready = prepare(tr, &mut rep.front, &point);
            rep.setup_s += since.elapsed().as_secs_f64();
            let out = measure(tr, rep, &point, ready);

            let interval_ps = PS_PER_SEC / rate;
            let target_ns = interval_ps as f64 / 1000.0;
            let metrics = tr
                .span("stats.error_metrics", |_| {
                    ErrorMetrics::against_target(&out.gaps_ns, target_ns)
                })
                .unwrap_or(ErrorMetrics {
                    mae: f64::INFINITY,
                    mad: f64::INFINITY,
                    rmse: f64::INFINITY,
                    mean: 0.0,
                    max_abs: f64::INFINITY,
                    n: 0,
                });
            tr.span("bench.verify", |_| {
                // A template can only fire when it passes the timer, so a
                // departure is late by up to one quantum = RTT / copies
                // (6.4 ns for 64 B at capacity) and never early.
                let quantum_ns = recirc_rtt(frame_len) as f64 / copies as f64 / 1000.0;
                let late_ns = metrics.mean - target_ns;
                worst_gap_err = worst_gap_err.max(late_ns.abs() / target_ns);
                worst_mae = worst_mae.max(metrics.mae);
                let least = (point.window as f64 / 1000.0 / (target_ns + quantum_ns)) as usize;
                rep.op(first_failure(&[
                    (
                        metrics.n + 2 >= least,
                        format!("point {i}: {} departures, at least {least} due", metrics.n),
                    ),
                    (
                        (0.0..=quantum_ns).contains(&late_ns),
                        format!(
                            "point {i}: mean gap {:.2} ns vs {target_ns} ns (quantum {quantum_ns:.1})",
                            metrics.mean
                        ),
                    ),
                    (
                        metrics.mae <= quantum_ns,
                        format!("point {i}: MAE {:.2} ns (quantum {quantum_ns:.1})", metrics.mae),
                    ),
                ]));
                digest.words([out.events, out.ports[0].frames, out.ports[0].bytes]);
                digest.words(out.gaps_ns.iter().map(|g| g.to_bits()));
            });
            since = std::time::Instant::now();
        }
        rep.exact.push(("model_err_pct", worst_gap_err * 100.0));
        rep.exact.push(("ratectl_mae_ns", worst_mae));
        digest.words([rep.switch.tx_frames, rep.switch.recirculations]);
        rep.digest = digest.0;
    })
}
