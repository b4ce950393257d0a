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
//! windows run inside the horizon protocol.  A fourth mixes lookaheads
//! (zero included) and link delays of a few picoseconds, so arrivals land
//! exactly on horizons, and is compared with the `World::step` reference.
//! The partitioner's decisions are checked through
//! `World::last_partition`.
//!
//! CI runs this file in debug (the event loop's "event queue went
//! backwards" assertion is live) and again with `--release`.

use ht_asic::arena;
use ht_asic::parallel::{PartitionReport, SerialFallback};
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
    /// Packets still forwarded before the hop starts absorbing them
    /// (a finite budget lets a run be stepped to idle).
    budget: u64,
    /// Also wake at `now + proc` and log it: an event of the hop's own
    /// making that ties with arrivals, so a remote arrival processed one
    /// instant late shows in the log.
    echoes: bool,
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
            budget: u64::MAX,
            echoes: false,
            count: 0,
            log: 0xcbf29ce484222325,
        }
    }

    fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
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
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        if self.echoes {
            out.wake_at(u64::from(port), now + self.proc);
        }
        let dest =
            if self.taps_every > 0 && self.count.is_multiple_of(self.taps_every) { 2 } else { 1 };
        out.emit(dest, pkt, now + self.proc);
    }

    fn wake(&mut self, token: u64, now: SimTime, _out: &mut Outbox) {
        self.log = fnv(self.log, !(now ^ token));
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

/// Links hop `i`'s port 1 to hop `i + 1`'s port 0 over `delays[i]`
/// (cycled), closing the last onto the first when `ring`.
fn wire_hops(w: &mut World, ids: &[usize], ring: bool, delays: &[SimTime]) {
    let n = ids.len();
    for i in 0..if ring { n } else { n - 1 } {
        let delay = delays[i % delays.len()];
        w.link((ids[i], 1), (ids[(i + 1) % n], 0), LinkSpec::new().delay(delay));
    }
}

/// Hops over links of a few picoseconds, each hop with its own processing
/// time and either declaring it as its lookahead or declaring none: the
/// cross-engine horizon is `lookahead + delay` per link, and with values
/// this small arrivals land exactly on it.  Every hop forwards at most
/// `budget` packets, so the run ends and `World::step` can serve as the
/// reference: `run = None` steps to idle, `Some((engines, t_end))` runs
/// partitioned to `t_end`.  Returns the hops' logs, the statistics and the
/// final time.
fn run_mixed(
    run: Option<(usize, SimTime)>,
    ring: bool,
    hops: &[(SimTime, bool)],
    delays: &[SimTime],
    packets: u64,
    spacing: SimTime,
    budget: u64,
) -> (Vec<(u64, u64)>, WorldStats, SimTime) {
    let threads = SimThreads::Fixed(run.map_or(1, |(engines, _)| engines));
    let mut w = World::builder().partitions(threads).build().unwrap();
    let ids: Vec<_> = hops
        .iter()
        .enumerate()
        .map(|(i, &(proc, declares))| {
            let mut hop = Hop::new(&format!("h{i}"), proc, 0).with_budget(budget);
            hop.declares_lookahead = declares;
            hop.echoes = true;
            w.add_device(Box::new(hop))
        })
        .collect();
    let n = ids.len();
    wire_hops(&mut w, &ids, ring, delays);
    let table = FieldTable::new();
    for p in 0..packets {
        w.schedule_rx(ids[(p % n as u64) as usize], 0, blank(&table, p), p * spacing);
    }
    match run {
        None => while w.step() {},
        Some((_, t_end)) => assert_eq!(w.run_until(t_end), w.stats.events),
    }
    let per_device = ids
        .iter()
        .map(|&h| {
            let d = w.device::<Hop>(h);
            (d.count, d.log)
        })
        .collect();
    (per_device, w.stats, w.now())
}

/// `hops` hops, each with a zero-delay tap when `taps`, in a ring or a
/// line over 1 ns links, with one packet due: the partitioner's input.
fn partition_report(engines: SimThreads, hops: usize, ring: bool, taps: bool) -> PartitionReport {
    let mut w = World::builder().partitions(engines).build().unwrap();
    let ids: Vec<_> =
        (0..hops).map(|i| w.add_device(Box::new(Hop::new(&format!("h{i}"), 500, 2)))).collect();
    wire_hops(&mut w, &ids, ring, &[1_000]);
    if taps {
        for (i, &h) in ids.iter().enumerate() {
            let t = w.add_device(Box::new(Tap::new(&format!("t{i}"))));
            w.link((h, 2), (t, 0), LinkSpec::new());
        }
    }
    w.schedule_rx(ids[0], 0, blank(&FieldTable::new(), 0), 0);
    let n = w.run_until(20_000);
    let report = w.last_partition().expect("run_until records its decision").clone();
    if let PartitionReport::Partitioned { engines, .. } = &report {
        assert_eq!(engines.iter().map(|e| e.events).sum::<u64>(), n);
        assert_eq!(engines.iter().map(|e| e.devices).sum::<usize>(), hops * (1 + taps as usize));
    }
    report
}

fn cut_and_spread(report: &PartitionReport) -> (usize, usize, usize) {
    let PartitionReport::Partitioned { engines, cut_links } = report else {
        panic!("expected a partitioned run, got {report:?}");
    };
    let sizes = engines.iter().map(|e| e.devices);
    (*cut_links, engines.len(), sizes.clone().max().unwrap() - sizes.min().unwrap())
}

/// Engines get neighbors: a chunk boundary costs one link of a line and
/// two of a ring, whatever the engine count, and chunks are balanced to
/// within one group.
#[test]
fn partition_cuts_few_links_and_balances() {
    for (engines, cut) in [(2, 2), (4, 4), (8, 8)] {
        let r = partition_report(SimThreads::Fixed(engines), 8, true, false);
        assert_eq!(cut_and_spread(&r), (cut, engines, 0), "ring of 8 on {engines}: {r:?}");
    }
    let r = partition_report(SimThreads::Fixed(3), 6, false, false);
    assert_eq!(cut_and_spread(&r), (2, 3, 0), "line of 6 on 3: {r:?}");
    // Hop + tap groups of two: 8 groups on 3 engines split 3/3/2.
    let r = partition_report(SimThreads::Fixed(3), 8, true, true);
    assert_eq!(cut_and_spread(&r), (3, 3, 2), "tapped ring of 8 on 3: {r:?}");
    // The one packet crossed engines on its way round.
    let PartitionReport::Partitioned { engines, .. } = r else { unreachable!() };
    assert!(engines.iter().map(|e| e.sends).sum::<u64>() > 0);
}

#[test]
fn serial_fallback_names_its_reason() {
    let reason = |engines, hops, taps| match partition_report(engines, hops, false, taps) {
        PartitionReport::Serial(why) => why,
        r => panic!("expected a serial run, got {r:?}"),
    };
    assert_eq!(reason(SimThreads::Fixed(1), 4, false), SerialFallback::OneEngine);
    assert_eq!(reason(SimThreads::Fixed(2), 1, true), SerialFallback::OneGroup);

    let mut w = World::builder().partitions(SimThreads::Fixed(2)).build().unwrap();
    assert!(w.last_partition().is_none());
    let a = w.add_device(Box::new(Tap::new("a")));
    let b = w.add_device(Box::new(Tap::new("b")));
    w.link((a, 0), (b, 0), LinkSpec::new().delay(1_000));
    w.run_until(10_000);
    assert_eq!(w.last_partition(), Some(&PartitionReport::Serial(SerialFallback::NothingDue)));
    w.link((a, 1), (b, 1), LinkSpec::new().delay(1_000).loss(0.5));
    w.schedule_rx(a, 0, blank(&FieldTable::new(), 0), 11_000);
    w.run_until(20_000);
    assert_eq!(w.last_partition(), Some(&PartitionReport::Serial(SerialFallback::FaultyLinks)));
}

/// Logs `(is_wake, now)` per event; a wake with a nonzero token schedules
/// one more wake (token 0) at the time the token names.
struct Recorder {
    seen: Vec<(bool, SimTime)>,
}

impl Device for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }

    fn rx(&mut self, _port: u16, _pkt: SimPacket, now: SimTime, _out: &mut Outbox) {
        self.seen.push((false, now));
    }

    fn wake(&mut self, token: u64, now: SimTime, out: &mut Outbox) {
        self.seen.push((true, now));
        if token > 0 {
            out.wake_at(0, token);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An event at the very start of a run (time 0, `now` still 0) is not yet
/// processed, so the initial commit must not cover it: the pulser's packet,
/// sent at 0 over a 1 ns link, reaches the recorder at 1 000 with a key
/// born at 0 and sorts before the recorder's own wake for 1 000, born at 1.
/// An engine that took its neighbor's start for "everything up to 0 is
/// done" would run that wake first whenever it got there early — and the
/// recorder's engine is spawned first.
#[test]
fn initial_commit_does_not_cover_events_at_the_start_time() {
    for _ in 0..50 {
        let mut w = World::builder().partitions(SimThreads::Fixed(2)).build().unwrap();
        let rec = w.add_device(Box::new(Recorder { seen: Vec::new() }));
        let gen = w.add_device(Box::new(Pulser::new("gen", 1, 1)));
        w.link((gen, 0), (rec, 0), LinkSpec::new().delay(1_000));
        w.schedule_wake(gen, 7, 0);
        w.schedule_wake(rec, 1_000, 1);
        assert_eq!(w.run_until(5_000), 4);
        assert!(matches!(w.last_partition(), Some(PartitionReport::Partitioned { .. })));
        assert_eq!(w.device::<Recorder>(rec).seen, [(true, 1), (false, 1_000), (true, 1_000)]);
    }
}

/// Buffers drawn by devices on engine threads are counted: the pulser
/// allocates one PHV per pulse inside the run, on whichever thread owns
/// it.  (Which of them are pool hits depends on the thread; their sum does
/// not.)
#[test]
fn engine_threads_arena_counters_reach_the_owner() {
    let acquisitions = |engines| {
        let before = arena::stats();
        run_chain(engines, 3, 200, 650, 400_000);
        let after = arena::stats();
        (after.allocs + after.reuses) - (before.allocs + before.reuses)
    };
    let serial = acquisitions(1);
    assert!(serial >= 200, "{serial} acquisitions for 200 pulses");
    assert_eq!(acquisitions(2), serial);
    assert_eq!(acquisitions(4), serial);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rings and chains whose hops declare different lookaheads (zero
    /// included) over links of different nonzero delays: every engine
    /// count equals the one-event-at-a-time reference.
    #[test]
    fn mixed_lookaheads_match_the_step_reference(
        ring in any::<bool>(),
        hops in proptest::collection::vec((0u64..5, any::<bool>()), 2..8),
        delays in proptest::collection::vec(1u64..6, 1..8),
        packets in 1u64..40,
        spacing in 0u64..4,
        budget in 5u64..40,
    ) {
        // The reference stops at its last event, so running to that time
        // must process exactly the same events.
        let reference = run_mixed(None, ring, &hops, &delays, packets, spacing, budget);
        for engines in [1, 2, 3, 4, 8] {
            let run = Some((engines, reference.2));
            let run = run_mixed(run, ring, &hops, &delays, packets, spacing, budget);
            prop_assert_eq!(&run, &reference, "{} engines diverged", engines);
        }
    }
}
