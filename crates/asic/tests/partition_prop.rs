//! Partitioned runs must be bit-for-bit equal to the serial loop.
//!
//! The conservative-lookahead engine (`ht_asic::parallel`) promises that
//! device state, `WorldStats`, and event counts are identical at any
//! engine count.  These tests drive two fixtures — a multi-switch ring
//! with zero-delay tap branches (exercising group contraction), and a
//! recirculating timer-driven generator chain — at 1, 2, 4 and 8 engines,
//! plus a repeated-stress smoke test of the horizon protocol on a 3-hop
//! ring (the portable stand-in for a thread-sanitizer run: many
//! iterations, tiny lookahead, dense cross-engine traffic).  A third
//! fixture declares device lookaheads, so the engines' own lookahead
//! windows run inside the horizon protocol.

use ht_asic::phv::FieldTable;
use ht_asic::sim::{metrics, Device, LinkSpec, Outbox, SimThreads, World, WorldStats};
use ht_asic::time::SimTime;
use ht_asic::SimPacket;
use proptest::prelude::*;
use std::any::Any;

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100000001b3)
}

/// Forwards every packet out port 1 after a fixed processing delay,
/// diverting every `taps_every`-th packet to port 2 instead.
struct Hop {
    name: String,
    proc: SimTime,
    taps_every: u64,
    /// Declare `proc` as the device lookahead (it is one: nothing leaves
    /// earlier than `now + proc`), opting into windowed batching.
    declares_lookahead: bool,
    count: u64,
    log: u64,
}

impl Hop {
    fn new(name: &str, proc: SimTime, taps_every: u64) -> Self {
        Hop {
            name: name.to_string(),
            proc,
            taps_every,
            declares_lookahead: false,
            count: 0,
            log: 0xcbf29ce484222325,
        }
    }

    fn declaring_lookahead(mut self) -> Self {
        self.declares_lookahead = true;
        self
    }
}

impl Device for Hop {
    fn name(&self) -> &str {
        &self.name
    }

    fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox) {
        self.count += 1;
        self.log = fnv(self.log, now ^ u64::from(port) ^ pkt.uid);
        let dest =
            if self.taps_every > 0 && self.count.is_multiple_of(self.taps_every) { 2 } else { 1 };
        out.emit(dest, pkt, now + self.proc);
    }

    fn lookahead(&self) -> SimTime {
        if self.declares_lookahead {
            self.proc
        } else {
            0
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Terminal counter.
struct Tap {
    name: String,
    count: u64,
    log: u64,
}

impl Tap {
    fn new(name: &str) -> Self {
        Tap { name: name.to_string(), count: 0, log: 0xcbf29ce484222325 }
    }
}

impl Device for Tap {
    fn name(&self) -> &str {
        &self.name
    }

    fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, _out: &mut Outbox) {
        self.count += 1;
        self.log = fnv(self.log, now ^ u64::from(port) ^ pkt.uid);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Timer-driven generator: every wake emits one packet out port 0 and
/// reschedules itself until `left` runs out — the recirculating fixture
/// (its own state loops through the event queue).
struct Pulser {
    name: String,
    table: FieldTable,
    period: SimTime,
    left: u64,
    sent: u64,
}

impl Pulser {
    fn new(name: &str, period: SimTime, count: u64) -> Self {
        Pulser { name: name.to_string(), table: FieldTable::new(), period, left: count, sent: 0 }
    }
}

impl Device for Pulser {
    fn name(&self) -> &str {
        &self.name
    }

    fn rx(&mut self, _port: u16, _pkt: SimPacket, _now: SimTime, _out: &mut Outbox) {}

    fn wake(&mut self, token: u64, now: SimTime, out: &mut Outbox) {
        if self.left == 0 {
            return;
        }
        self.left -= 1;
        self.sent += 1;
        let pkt = SimPacket { phv: self.table.new_phv(), body: None, uid: self.sent };
        out.emit(0, pkt, now);
        if self.left > 0 {
            out.wake_at(token, now + self.period);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Everything a run can influence, for exact comparison.
#[derive(Debug, PartialEq, Eq)]
struct Summary {
    per_device: Vec<(u64, u64)>, // (count, log) or (sent, left)
    stats: WorldStats,
    now: SimTime,
    processed: Vec<u64>,
}

fn blank(table: &FieldTable, uid: u64) -> SimPacket {
    SimPacket { phv: table.new_phv(), body: None, uid }
}

/// A ring of `hops` forwarding devices with positive inter-hop delays,
/// each with a zero-delay tap branch (tap + hop contract into one group).
/// Runs twice (to `t_mid`, then `t_end`) so leftover events and channel
/// residue cross the run boundary.
fn run_ring(
    engines: usize,
    hops: usize,
    packets: u64,
    base_delay: SimTime,
    taps_every: u64,
    t_mid: SimTime,
    t_end: SimTime,
) -> Summary {
    let mut w = World::builder().partitions(SimThreads::Fixed(engines)).build().unwrap();
    let hop_ids: Vec<_> = (0..hops)
        .map(|i| {
            w.add_device(Box::new(Hop::new(&format!("h{i}"), 500 + i as u64 * 37, taps_every)))
        })
        .collect();
    let tap_ids: Vec<_> =
        (0..hops).map(|i| w.add_device(Box::new(Tap::new(&format!("t{i}"))))).collect();
    for i in 0..hops {
        let delay = base_delay + i as u64 * 111;
        w.link((hop_ids[i], 1), (hop_ids[(i + 1) % hops], 0), LinkSpec::new().delay(delay));
        w.link((hop_ids[i], 2), (tap_ids[i], 0), LinkSpec::new()); // zero-delay: same group
    }
    let table = FieldTable::new();
    for p in 0..packets {
        w.schedule_rx(hop_ids[(p % hops as u64) as usize], 0, blank(&table, p), p * 777);
    }
    let n1 = w.run_until(t_mid);
    let n2 = w.run_until(t_end);
    Summary {
        per_device: hop_ids
            .iter()
            .map(|&h| {
                let d = w.device::<Hop>(h);
                (d.count, d.log)
            })
            .chain(tap_ids.iter().map(|&t| {
                let d = w.device::<Tap>(t);
                (d.count, d.log)
            }))
            .collect(),
        stats: w.stats,
        now: w.now(),
        processed: vec![n1, n2],
    }
}

/// Pulser → hop chain → tap, all separated by positive-delay links: the
/// recirculating fixture (the pulser's own wake loop keeps the engine
/// busy between cross-engine packets).
fn run_chain(
    engines: usize,
    links: usize,
    pulses: u64,
    period: SimTime,
    t_end: SimTime,
) -> Summary {
    let mut w = World::builder().partitions(SimThreads::Fixed(engines)).build().unwrap();
    let p = w.add_device(Box::new(Pulser::new("gen", period, pulses)));
    let hops: Vec<_> =
        (0..links).map(|i| w.add_device(Box::new(Hop::new(&format!("h{i}"), 250, 0)))).collect();
    let t = w.add_device(Box::new(Tap::new("end")));
    let mut prev = (p, 0u16);
    for (i, &h) in hops.iter().enumerate() {
        w.link(prev, (h, 0), LinkSpec::new().delay(900 + i as u64 * 53));
        prev = (h, 1);
    }
    w.link(prev, (t, 0), LinkSpec::new().delay(1_200));
    w.schedule_wake(p, 7, 100);
    let n = w.run_until(t_end);
    let gen = w.device::<Pulser>(p);
    let mut per_device = vec![(gen.sent, gen.left)];
    per_device.extend(hops.iter().map(|&h| {
        let d = w.device::<Hop>(h);
        (d.count, d.log)
    }));
    let d = w.device::<Tap>(t);
    per_device.push((d.count, d.log));
    Summary { per_device, stats: w.stats, now: w.now(), processed: vec![n] }
}

/// A tap-less ring of lookahead-declaring hops under dense traffic (many
/// packets per lookahead span).  Returns the run's summary and its profile
/// delta on this thread.
fn run_lookahead_ring(engines: usize) -> (Summary, metrics::ProfileSnapshot) {
    const HOPS: usize = 4;
    let before = metrics::profile_snapshot();
    let mut w = World::builder().partitions(SimThreads::Fixed(engines)).build().unwrap();
    let ids: Vec<_> = (0..HOPS)
        .map(|i| {
            let hop = Hop::new(&format!("h{i}"), 4_000 + i as u64 * 37, 0).declaring_lookahead();
            w.add_device(Box::new(hop))
        })
        .collect();
    for i in 0..HOPS {
        let delay = 3_000 + i as u64 * 111;
        w.link((ids[i], 1), (ids[(i + 1) % HOPS], 0), LinkSpec::new().delay(delay));
    }
    let table = FieldTable::new();
    for p in 0..96u64 {
        w.schedule_rx(ids[(p % HOPS as u64) as usize], 0, blank(&table, p), p * 97);
    }
    let n1 = w.run_until(150_000);
    let n2 = w.run_until(400_000);
    let summary = Summary {
        per_device: ids
            .iter()
            .map(|&h| {
                let d = w.device::<Hop>(h);
                (d.count, d.log)
            })
            .collect(),
        stats: w.stats,
        now: w.now(),
        processed: vec![n1, n2],
    };
    drop(w); // folds the world's histograms into this thread's counters
    (summary, metrics::profile_snapshot().delta_since(&before))
}

/// The engines run the same loop as the serial world, so a partitioned run
/// batches: results stay identical at every engine count, every event is
/// accounted for in the profile, and lookahead windows do form.
#[test]
fn lookahead_ring_batches_on_every_engine_count() {
    let (serial, _) = run_lookahead_ring(1);
    assert!(serial.stats.events > 0);
    for engines in [1, 2, 4, 8] {
        let (run, profile) = run_lookahead_ring(engines);
        assert_eq!(run, serial, "{engines} engines diverged from serial");
        assert_eq!(profile.events, serial.stats.events);
        assert_eq!(profile.by_kind.iter().sum::<u64>(), profile.events, "{engines} engines");
        // Every dispatch is in the histogram, and there are fewer
        // dispatches than events (so `batch_hist[0] < events` too).
        let dispatches: u64 = profile.batch_hist.iter().sum();
        assert!(
            0 < dispatches && dispatches < profile.events,
            "{engines} engines never formed a multi-event batch: {:?} over {} events",
            profile.batch_hist,
            profile.events
        );
    }
}

#[test]
fn ring_fixture_is_engine_count_invariant() {
    let serial = run_ring(1, 4, 64, 2_000, 3, 60_000, 200_000);
    for engines in [2, 4, 8] {
        let par = run_ring(engines, 4, 64, 2_000, 3, 60_000, 200_000);
        assert_eq!(par, serial, "{engines} engines diverged from serial");
    }
    assert!(serial.stats.events > 0);
}

#[test]
fn chain_fixture_is_engine_count_invariant() {
    let serial = run_chain(1, 3, 200, 650, 400_000);
    for engines in [2, 4, 8] {
        let par = run_chain(engines, 3, 200, 650, 400_000);
        assert_eq!(par, serial, "{engines} engines diverged from serial");
    }
    // The whole pulse train made it through the chain.
    assert_eq!(serial.per_device[0], (200, 0));
    assert_eq!(serial.per_device.last().unwrap().0, 200);
}

/// Horizon-protocol smoke test: a 3-hop ring with tiny lookahead and
/// dense traffic, repeated many times at 3 engines.  Any unsafe horizon
/// advance or lost in-flight message shows up as a divergence from the
/// serial result in some iteration.
#[test]
fn horizon_protocol_stress_on_three_hop_ring() {
    let serial = run_ring(1, 3, 120, 1_000, 2, 30_000, 150_000);
    for rep in 0..30 {
        let par = run_ring(3, 3, 120, 1_000, 2, 30_000, 150_000);
        assert_eq!(par, serial, "iteration {rep} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary ring shapes: partitioned == serial for every engine count.
    #[test]
    fn partitioned_ring_matches_serial(
        hops in 2usize..6,
        packets in 1u64..48,
        base_delay in 800u64..40_000,
        taps_every in 0u64..4,
        t_mid in 10_000u64..80_000,
    ) {
        let t_end = t_mid + 120_000;
        let serial = run_ring(1, hops, packets, base_delay, taps_every, t_mid, t_end);
        for engines in [2, 4, 8] {
            let par = run_ring(engines, hops, packets, base_delay, taps_every, t_mid, t_end);
            prop_assert_eq!(&par, &serial, "{} engines diverged", engines);
        }
    }

    /// Arbitrary chains with a recirculating generator.
    #[test]
    fn partitioned_chain_matches_serial(
        links in 1usize..5,
        pulses in 1u64..120,
        period in 200u64..3_000,
    ) {
        let t_end = 100 + period * pulses + 50_000;
        let serial = run_chain(1, links, pulses, period, t_end);
        for engines in [2, 4, 8] {
            let par = run_chain(engines, links, pulses, period, t_end);
            prop_assert_eq!(&par, &serial, "{} engines diverged", engines);
        }
    }
}
