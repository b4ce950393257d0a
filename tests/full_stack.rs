//! Cross-crate integration tests: the full HyperTester stack over
//! multi-device testbeds, including the paper's two-switch topology
//! (Fig. 8), fault injection, and task-rejection paths.

use ht_packet::wire::gbps;
use hypertester::asic::action::{ActionSet, PrimitiveOp};
use hypertester::asic::parallel::PartitionReport;
use hypertester::asic::phv::fields;
use hypertester::asic::sim::metrics::{self, ProfileSnapshot};
use hypertester::asic::table::{MatchKind, Table};
use hypertester::asic::time::{ms, us};
use hypertester::asic::{FieldTable, LinkSpec, SimPacket, SimThreads, Switch, World};
use hypertester::cpu::SwitchCpu;
use hypertester::dut::{Forwarder, Sink};
use hypertester::ht::{build, distinct_count, global_value, Gbps, TesterConfig};
use hypertester::ntapi::{compile, compile_with, parse, CompileOptions, NtapiError};

/// Tester → second (Tofino-like) switch under test → back to the tester:
/// the Fig. 8 topology, with the DUT being another `ht-asic` switch
/// programmed as a plain forwarder.  Returns `(sent, received)` bytes as
/// the tester's queries saw them, the DUT's `(rx, tx)` frame counters, and
/// the run's profile counters.
fn run_fig8(engines: usize) -> ((u64, u64), (u64, u64), ProfileSnapshot) {
    let src = r#"
T1 = trigger().set([dip, sip, proto, dport, sport], [10.0.0.2, 10.0.0.1, udp, 9, 9])
    .set([pkt_len, interval], [256, 1us])
Q1 = query(T1).map(p -> (pkt_len)).reduce(func=sum)
Q2 = query().map(p -> (pkt_len)).reduce(func=sum)
"#;
    let task = compile(&parse(src).unwrap()).unwrap();
    let mut tester =
        build(&task, &TesterConfig::builder().ports(2).speed(Gbps(100)).build().expect("config"))
            .unwrap();
    let templates = tester.template_copies(0, 8);

    // The DUT: a second programmable switch forwarding port 0 → port 1.
    let mut dut = Switch::new("tofino-dut", 2);
    dut.add_port(0, gbps(100));
    dut.add_port(1, gbps(100));
    let fwd = Table::new(
        "l2_fwd",
        MatchKind::Exact,
        vec![fields::IG_PORT],
        4,
        ActionSet::new("to1", vec![PrimitiveOp::SetEgressPort(1)]),
    );
    dut.ingress.push_table(fwd);

    let before = metrics::profile_snapshot();
    let mut w = World::builder().seed(1).partitions(SimThreads::Fixed(engines)).build().unwrap();
    let t = w.add_device(Box::new(tester.switch));
    let d = w.add_device(Box::new(dut));
    w.link((t, 0), (d, 0), LinkSpec::new().delay(1_000_000)); // 1 µs cable
    w.link((d, 1), (t, 1), LinkSpec::new().delay(1_000_000));
    SwitchCpu::new().inject_templates(&mut w, t, templates, 0);
    w.run_until(ms(5));

    let tester_sw: &Switch = w.device(t);
    let sent = global_value(tester_sw, &tester.handles.queries["Q1"]);
    let received = global_value(tester_sw, &tester.handles.queries["Q2"]);
    let dut_sw: &Switch = w.device(d);
    let dut_frames = (dut_sw.counters.rx_frames, dut_sw.counters.tx_frames);
    drop(w); // folds the world's event counters into this thread's profile
    ((sent, received), dut_frames, metrics::profile_snapshot().delta_since(&before))
}

#[test]
fn two_switch_testbed_fig8() {
    let ((sent, received), (dut_rx, dut_tx), profile) = run_fig8(1);
    assert!(sent > 0);
    // Everything sent comes back through the DUT (minus in-flight).
    assert!(received > 0 && sent - received < 10 * 256, "sent {sent} received {received}");
    assert_eq!(dut_tx, dut_rx);

    // The two switches sit across 1 µs cables, so the run partitions: one
    // engine each gives the same results and — the engines' counters being
    // folded back into the owning world and thread — the same profile.
    let (queries2, dut2, profile2) = run_fig8(2);
    assert_eq!((queries2, dut2), ((sent, received), (dut_rx, dut_tx)));
    for p in [&profile, &profile2] {
        assert!(p.events > 0 && p.ops_retired > 0, "{p:?}");
        assert_eq!(p.by_kind.iter().sum::<u64>(), p.events, "{p:?}");
    }
    assert_eq!(profile2.events, profile.events);
    assert_eq!(profile2.by_kind, profile.by_kind);
    assert_eq!(profile2.ops_retired, profile.ops_retired);
}

/// A ring of 8 store-and-forward devices (1 µs processing) over 2 µs
/// links with 256 packets circulating for 1 ms, run on `engines` event
/// engines.  Returns per-forwarder forwarded counts, the events
/// simulated, and the links the partitioner cut (0 when serial).
fn run_ring(engines: usize) -> (Vec<u64>, u64, usize) {
    const HOPS: usize = 8;
    let mut w = World::builder().partitions(SimThreads::Fixed(engines)).build().unwrap();
    let ids: Vec<_> = (0..HOPS)
        .map(|i| {
            let fwd = Forwarder::new(&format!("fwd{i}"), us(1)).route(0, 1, gbps(100));
            w.add_device(Box::new(fwd))
        })
        .collect();
    for i in 0..HOPS {
        w.link((ids[i], 1), (ids[(i + 1) % HOPS], 0), LinkSpec::new().delay(us(2)));
    }
    let ft = FieldTable::new();
    for p in 0..256u64 {
        let pkt = SimPacket { phv: ft.new_phv(), body: None, uid: p };
        w.schedule_rx(ids[p as usize % HOPS], 0, pkt, (p % 64) * 100);
    }
    let events = w.run_until(ms(1));
    let counts = ids.iter().map(|&id| w.device::<Forwarder>(id).forwarded).collect();
    let cut_links = match w.last_partition() {
        Some(PartitionReport::Partitioned { cut_links, .. }) => *cut_links,
        _ => 0,
    };
    (counts, events, cut_links)
}

#[test]
fn forwarder_ring_is_identical_at_every_engine_count() {
    let (serial, events, cut) = run_ring(1);
    assert_eq!((events, cut), (85_504, 0));
    assert!(serial.iter().sum::<u64>() > 256, "ring never saturated: {serial:?}");
    for engines in [2, 4, 8] {
        // One contiguous chunk of the ring per engine: each boundary cuts
        // one link, and the ring closes on itself.
        assert_eq!(run_ring(engines), (serial.clone(), events, engines), "{engines} engines");
    }
}

/// Fault injection: on a lossy link, the receive-side query counts exactly
/// the packets that survived — the query engine never under- or
/// over-counts what it actually saw.
#[test]
fn lossy_link_counts_survivors_exactly() {
    let src = r#"
T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64)
    .set(sport, range(7000, 7031, 1)).set(interval, 5us)
Q1 = query().distinct(keys=[sport])
Q2 = query().reduce(func=count)
"#;
    let task = compile(&parse(src).unwrap()).unwrap();
    let mut tester =
        build(&task, &TesterConfig::builder().ports(2).speed(Gbps(100)).build().expect("config"))
            .unwrap();
    let templates = tester.template_copies(0, 8);

    let mut w = World::builder().seed(99).build().unwrap();
    let t = w.add_device(Box::new(tester.switch));
    // Port 0 loops back into port 1 over a 30%-lossy link.
    w.link((t, 0), (t, 1), LinkSpec::new().loss(0.3));
    SwitchCpu::new().inject_templates(&mut w, t, templates, 0);
    w.run_until(ms(20));

    let sw: &Switch = w.device(t);
    let received = global_value(sw, &tester.handles.queries["Q2"]);
    let tx = sw.counters.tx_frames;
    let drops = w.stats.link_drops;
    // Conservation: transmitted = received + dropped (± in flight).
    assert!(drops > 0, "lossy link dropped nothing");
    assert!(tx - (received + drops) < 5, "tx {tx} rx {received} drops {drops}");
    // All 32 flows still observed (loss is random, rate is ample).
    assert_eq!(distinct_count(sw, &tester.handles.queries["Q1"]), 32);
}

/// §6.1's loopback-port capacity extension: a task with more templates
/// than one recirculation loop holds compiles only with extra loops, and
/// actually runs with the extra port in loopback mode.
#[test]
fn loopback_ports_extend_accelerator_capacity() {
    let mut prog = hypertester::ntapi::Program::default();
    for i in 0..120 {
        prog.triggers.push(
            hypertester::ntapi::prelude::trigger(&format!("T{i}"))
                .dip("10.0.0.2")
                .proto_udp()
                .dport(1)
                .interval_us(100)
                .build(),
        );
    }
    // One loop: rejected.
    assert!(matches!(compile(&prog), Err(NtapiError::AcceleratorOverflow { .. })));
    // Two loops (one loopback port): accepted and runnable.
    let opts = CompileOptions { recirc_loops: 2, stage_budget: 1000, ..Default::default() };
    let task = compile_with(&prog, opts).unwrap();
    let cfg = TesterConfig::builder()
        .ports(4)
        .speed(Gbps(100))
        .loopback_ports([3])
        .build()
        .expect("config");
    let mut tester = build(&task, &cfg).unwrap();
    let templates: Vec<_> =
        (0..task.templates.len()).flat_map(|i| tester.template_copies(i, 1)).collect();

    let mut w = World::builder().seed(1).build().unwrap();
    let t = w.add_device(Box::new(tester.switch));
    let sk = w.add_device(Box::new(Sink::new("sink")));
    w.link((t, 0), (sk, 0), LinkSpec::new());
    SwitchCpu::new().inject_templates(&mut w, t, templates, 0);
    w.run_until(ms(3));
    // All 120 triggers generate (100 µs interval → ≥1 packet each).
    let frames = w.device::<Sink>(sk).total_frames();
    assert!(frames >= 120, "only {frames} frames from 120 triggers");
}

/// The generated P4 and the DSL LoC relation holds across all four
/// Table 5 applications end to end.
#[test]
fn ntapi_vs_p4_loc_for_all_apps() {
    let apps: [(&str, &str); 4] = [
        (
            "throughput",
            r#"
T1 = trigger().set([dip, sip, proto, dport, sport], [10.0.0.2, 10.0.0.1, udp, 1, 1])
    .set([loop, pkt_len], [0, 64])
Q1 = query(T1).map(p -> (pkt_len)).reduce(func=sum)
Q2 = query().map(p -> (pkt_len)).reduce(func=sum)
"#,
        ),
        (
            "delay",
            r#"
T1 = trigger().set([dip, sip, proto, dport, sport], [10.9.0.2, 10.9.0.1, udp, 7, 7])
    .set([pkt_len, interval], [128, 10us])
Q1 = query(T1).reduce(func=count)
Q2 = query().reduce(func=count)
"#,
        ),
        (
            "ip_scan",
            r#"
T1 = trigger().set([sip, dport, proto, flag, seq_no], [10.0.0.1, 80, tcp, SYN, 1])
    .set(dip, range(10.1.0.1, 10.1.15.254, 1)).set([loop, interval], [1, 1us])
Q1 = query().filter(tcp_flag == SYN+ACK).distinct(keys=[sip])
"#,
        ),
        (
            "syn_flood",
            r#"
T1 = trigger().set([dip, dport, proto, flag], [10.0.0.80, 80, tcp, SYN])
    .set(sip, random(uniform, 16777216, 33554432, 24))
    .set(sport, range(1024, 65535, 1)).set(port, [0, 1, 2, 3])
"#,
        ),
    ];
    for (name, src) in apps {
        let prog = parse(src).unwrap();
        let task = compile(&prog).unwrap();
        let p4 = hypertester::ntapi::codegen::generate_p4(&task);
        let ntapi_loc = prog.loc().unwrap();
        let p4_loc = hypertester::ntapi::loc::count_loc(&p4);
        assert!(ntapi_loc <= 12, "{name}: NTAPI {ntapi_loc} LoC");
        // §7.1: "the LoC of NTAPI is over one order of magnitude lower".
        assert!(p4_loc >= 10 * ntapi_loc, "{name}: P4 {p4_loc} vs NTAPI {ntapi_loc}");
        // And the code-size reduction vs MoonGen Lua is at least 74.4 %.
        let lua_loc = match name {
            "throughput" => {
                hypertester::baseline::lua::lua_loc(hypertester::baseline::lua::THROUGHPUT)
            }
            "delay" => hypertester::baseline::lua::lua_loc(hypertester::baseline::lua::DELAY),
            "ip_scan" => hypertester::baseline::lua::lua_loc(hypertester::baseline::lua::IP_SCAN),
            _ => hypertester::baseline::lua::lua_loc(hypertester::baseline::lua::SYN_FLOOD),
        };
        let reduction = 1.0 - ntapi_loc as f64 / lua_loc as f64;
        assert!(reduction > 0.744, "{name}: reduction {:.1}%", reduction * 100.0);
    }
}

/// Task rejection (§6.1): all documented error classes reach the user as
/// typed errors, end to end from DSL text.
#[test]
fn rejection_paths() {
    type ErrCheck = fn(&NtapiError) -> bool;
    let cases: [(&str, ErrCheck); 4] = [
        ("T1 = trigger().set(dport, 70000)", |e| matches!(e, NtapiError::ValueOutOfRange { .. })),
        ("T1 = trigger().set(sport, range(9, 1, 1))", |e| matches!(e, NtapiError::BadRange { .. })),
        ("T1 = trigger(Qx).set(dport, 80)", |e| matches!(e, NtapiError::UnknownQuery(_))),
        ("Q1 = query(Tx).reduce(func=sum)", |e| matches!(e, NtapiError::UnknownTrigger(_))),
    ];
    for (src, check) in cases {
        let err = compile(&parse(src).unwrap()).unwrap_err();
        assert!(check(&err), "{src} → {err}");
    }
}
