//! End-to-end tests: NTAPI source → compiler → programmed switch →
//! discrete-event run → query results, over simulated testbeds.

use ht_asic::phv::fields;
use ht_asic::time::{ms, us, PS_PER_SEC};
use ht_asic::{LinkSpec, Switch, World};
use ht_core::{build, distinct_count, global_value, keyed_results, Gbps, TesterConfig};
use ht_cpu::{PullMode, SwitchCpu};
use ht_dut::{Sink, TcpResponder};
use ht_ntapi::{compile, parse};
use ht_packet::wire::{gbps, line_rate_pps};

/// Builds, installs and starts a task; returns `(world, switch id, sink id)`
/// with the tester's port 0 wired to the sink's port 0.
fn testbed(src: &str, copies: usize, sink: Sink) -> (World, usize, usize) {
    let task = compile(&parse(src).unwrap()).unwrap();
    let mut bt =
        build(&task, &TesterConfig::builder().ports(4).speed(Gbps(100)).build().unwrap()).unwrap();
    let mut all = Vec::new();
    for i in 0..bt.templates.len() {
        all.extend(bt.template_copies(i, copies));
    }
    let mut w = World::builder().seed(1).build().unwrap();
    let sw = w.add_device(Box::new(bt.switch));
    let sk = w.add_device(Box::new(sink));
    w.link((sw, 0), (sk, 0), LinkSpec::new());
    let cpu = SwitchCpu::new();
    cpu.inject_templates(&mut w, sw, all, 0);
    (w, sw, sk)
}

fn handles(src: &str) -> ht_core::BuiltTester {
    let task = compile(&parse(src).unwrap()).unwrap();
    build(&task, &TesterConfig::builder().ports(4).speed(Gbps(100)).build().unwrap()).unwrap()
}

const THROUGHPUT_SRC: &str = r#"
T1 = trigger()
    .set([dip, sip, proto, dport, sport], [10.0.0.2, 10.0.0.1, udp, 1, 1])
    .set([loop, pkt_len], [0, 64])
Q1 = query(T1).map(p -> (pkt_len)).reduce(func=sum)
Q2 = query().map(p -> (pkt_len)).reduce(func=sum)
"#;

#[test]
fn throughput_task_reaches_line_rate() {
    // 89 64-byte templates saturate a 100G port (Fig. 9a).  Injection over
    // PCIe takes ~890 µs; measure a clean window after the ramp.
    let (mut w, sw, sk) = testbed(THROUGHPUT_SRC, 89, Sink::new("sink"));
    w.run_until(ms(1));
    w.device_mut::<Sink>(sk).reset();
    w.run_until(ms(2));

    let sink: &Sink = w.device(sk);
    let pps = sink.ports[&0].pps();
    let line = line_rate_pps(64, gbps(100));
    assert!((pps - line).abs() / line < 0.01, "measured {pps:.0} pps, line rate {line:.0} pps");

    // Q1 (sent bytes) agrees with what the sink saw, modulo in-flight
    // packets.
    let sw_ref: &Switch = w.device(sw);
    let bt = handles(THROUGHPUT_SRC);
    // Rebuild handles against the same program layout: register ids are
    // deterministic, so reading through a fresh build's handles is valid.
    let q1 = &bt.handles.queries["Q1"];
    let sent_bytes = global_value(sw_ref, q1);
    // Every transmitted frame is a 64-byte replica, so the sent-traffic
    // query must agree exactly with the MAC counter.
    assert_eq!(sent_bytes, sw_ref.counters.tx_frames * 64);
    assert!(sent_bytes > 0);

    // Q2 (received) saw nothing — no traffic returns to the tester.
    let q2 = &bt.handles.queries["Q2"];
    assert_eq!(global_value(sw_ref, q2), 0);
}

#[test]
fn rate_control_spacing_matches_interval() {
    let src = r#"
T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64).set(interval, 1us)
"#;
    let (mut w, _sw, sk) = testbed(src, 64, Sink::new("sink").logging_arrivals());
    w.run_until(ms(2));

    let sink: &Sink = w.device(sk);
    let gaps = sink.inter_arrivals_ns(0);
    assert!(gaps.len() > 1500, "only {} packets", gaps.len());
    let metrics = ht_stats::ErrorMetrics::against_target(&gaps, 1000.0).unwrap();
    // Quantization is bounded by the template arrival spacing (≈ RTT/64 ≈
    // 9 ns) plus mcast jitter.
    assert!((metrics.mean - 1000.0).abs() < 20.0, "mean gap {} ns", metrics.mean);
    assert!(metrics.mae < 20.0, "MAE {} ns", metrics.mae);
}

#[test]
fn keyed_reduce_on_sent_traffic_matches_oracle() {
    let src = r#"
T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64)
    .set(sport, range(1000, 1019, 1)).set(interval, 1us)
Q1 = query(T1).reduce(keys=[sport], func=count)
"#;
    let task = compile(&parse(src).unwrap()).unwrap();
    let mut bt =
        build(&task, &TesterConfig::builder().ports(2).speed(Gbps(100)).build().unwrap()).unwrap();
    let copies = bt.template_copies(0, 8);

    let mut w = World::builder().seed(1).build().unwrap();
    let sink = Sink::new("sink").capturing(vec![fields::UDP_SPORT]);
    let sw = w.add_device(Box::new(bt.switch));
    let sk = w.add_device(Box::new(sink));
    w.link((sw, 0), (sk, 0), LinkSpec::new());
    SwitchCpu::new().inject_templates(&mut w, sw, copies, 0);
    w.run_until(ms(2));

    // Oracle: the sink's captured sport values.
    let mut oracle = std::collections::HashMap::new();
    for (_, _, vals) in &w.device::<Sink>(sk).captured {
        *oracle.entry(vec![vals[0]]).or_insert(0u64) += 1;
    }
    assert!(!oracle.is_empty());
    // The editor must have cycled through all 20 sports.
    assert_eq!(oracle.len(), 20, "sports seen: {}", oracle.len());

    let sw_ref: &Switch = w.device(sw);
    let q = &bt.handles.queries["Q1"];
    let space = ht_ntapi::headerspace::global_space(
        &task.templates,
        &[ht_ntapi::ast::HeaderField::Sport],
        false,
    )
    .unwrap();
    let measured = keyed_results(sw_ref, q, &space);
    // Query counts include in-flight packets; allow the last few.
    for (key, &n) in &oracle {
        let m = measured.get(key).copied().unwrap_or(0);
        assert!(m >= n && m <= n + 5, "key {key:?}: query {m} vs oracle {n}");
    }
}

#[test]
fn distinct_counts_received_flows() {
    // The tester talks to itself: port 0 → port 1 via a wire; Q1 counts
    // distinct received source ports.
    let src = r#"
T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64)
    .set(sport, range(5000, 5099, 1)).set(interval, 1us)
Q1 = query().distinct(keys=[sport])
"#;
    let task = compile(&parse(src).unwrap()).unwrap();
    let mut bt =
        build(&task, &TesterConfig::builder().ports(2).speed(Gbps(100)).build().unwrap()).unwrap();
    let copies = bt.template_copies(0, 8);

    let mut w = World::builder().seed(1).build().unwrap();
    let sw = w.add_device(Box::new(bt.switch));
    // Loop port 0 back into port 1 of the same device.
    w.link((sw, 0), (sw, 1), LinkSpec::new());
    SwitchCpu::new().inject_templates(&mut w, sw, copies, 0);
    w.run_until(ms(2));

    let sw_ref: &Switch = w.device(sw);
    let q = &bt.handles.queries["Q1"];
    assert_eq!(distinct_count(sw_ref, q), 100);
}

#[test]
fn web_testing_walkthrough_completes_handshakes() {
    // §5.4, trimmed to the handshake+request+release core.
    let src = r#"
T1 = trigger().set([dip, dport, proto, flag, seq_no], [9.9.9.9, 80, tcp, SYN, 1])
    .set(sport, range(1024, 1087, 1)).set(interval, 10us)
Q1 = query().filter(tcp_flag == SYN+ACK)
T2 = trigger(Q1).set([dip, sip], [Q1.sip, Q1.dip])
    .set([dport, sport], [Q1.sport, Q1.dport])
    .set([flag, seq_no, ack_no], [ACK, Q1.ack_no, Q1.seq_no + 1])
T3 = trigger(Q1).set([dip, sip], [Q1.sip, Q1.dip])
    .set([dport, sport], [Q1.sport, Q1.dport])
    .set([flag, seq_no, ack_no], [PSH+ACK, Q1.ack_no, Q1.seq_no + 1])
    .set(payload, "GET index.html")
Q5 = query().filter(tcp_flag == SYN+ACK).reduce(func=count)
"#;
    let task = compile(&parse(src).unwrap()).unwrap();
    let mut bt =
        build(&task, &TesterConfig::builder().ports(2).speed(Gbps(100)).build().unwrap()).unwrap();
    // T1 needs copies for rate; T2/T3 fire from captures, one copy each.
    let mut all = bt.template_copies(0, 4);
    all.extend(bt.template_copies(1, 4));
    all.extend(bt.template_copies(2, 4));

    let mut w = World::builder().seed(1).build().unwrap();
    let sw = w.add_device(Box::new(bt.switch));
    let srv = w.add_device(Box::new(TcpResponder::new("server", us(1))));
    w.link((sw, 0), (srv, 0), LinkSpec::new().delay(us(1)));
    SwitchCpu::new().inject_templates(&mut w, sw, all, 0);
    w.run_until(ms(5));

    let server: &TcpResponder = w.device(srv);
    assert!(server.stats.syns > 100, "syns {}", server.stats.syns);
    // Every SYN+ACK triggers an ACK (T2) and a request (T3).
    assert!(
        server.stats.acks as f64 > server.stats.syns as f64 * 0.8,
        "acks {} vs syns {}",
        server.stats.acks,
        server.stats.syns
    );
    assert!(
        server.stats.requests as f64 > server.stats.syns as f64 * 0.8,
        "requests {} vs syns {}",
        server.stats.requests,
        server.stats.syns
    );
    assert!(server.stats.data_sent >= 5 * server.stats.requests);

    // Q5 counted the SYN+ACKs.
    let sw_ref: &Switch = w.device(sw);
    let q5 = &bt.handles.queries["Q5"];
    assert_eq!(global_value(sw_ref, q5), server.stats.syns);
}

#[test]
fn loop_count_caps_generated_packets() {
    let src = r#"
T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64)
    .set(sport, range(1, 10, 1)).set([loop, interval], [3, 1us])
"#;
    let (mut w, _sw, sk) = testbed(src, 8, Sink::new("sink"));
    w.run_until(ms(5));
    // 3 loops × 10 list values = 30 packets.
    assert_eq!(w.device::<Sink>(sk).total_frames(), 30);
}

#[test]
fn editor_value_list_cycles_in_order() {
    let src = r#"
T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64)
    .set(dport, [80, 81, 82]).set(interval, 10us)
"#;
    let (mut w, _sw, sk) = testbed(src, 4, Sink::new("sink").capturing(vec![fields::UDP_DPORT]));
    w.run_until(ms(1));
    let sink: &Sink = w.device(sk);
    assert!(sink.captured.len() > 50);
    for (i, (_, _, vals)) in sink.captured.iter().enumerate() {
        assert_eq!(vals[0], 80 + (i as u64 % 3), "packet {i}");
    }
}

#[test]
fn random_normal_editor_matches_distribution() {
    let src = r#"
T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64)
    .set(dport, random(normal, 30000, 2000, 12))
"#;
    let (mut w, _sw, sk) = testbed(src, 16, Sink::new("sink").capturing(vec![fields::UDP_DPORT]));
    w.run_until(ms(1));
    let sink: &Sink = w.device(sk);
    let samples: Vec<f64> = sink.captured.iter().map(|(_, _, v)| v[0] as f64).collect();
    assert!(samples.len() > 10_000, "{} samples", samples.len());
    let s = ht_stats::Summary::new(&samples).unwrap();
    assert!((s.mean() - 30000.0).abs() < 100.0, "mean {}", s.mean());
    assert!((s.stddev() - 2000.0).abs() < 150.0, "stddev {}", s.stddev());
}

#[test]
fn sent_counter_rate_is_stable_under_interval() {
    // 100 kpps for 2 ms ≈ 200 packets.
    let src = r#"
T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64).set(interval, 10us)
Q1 = query(T1).reduce(func=count)
"#;
    let task = compile(&parse(src).unwrap()).unwrap();
    let mut bt =
        build(&task, &TesterConfig::builder().ports(1).speed(Gbps(100)).build().unwrap()).unwrap();
    let copies = bt.template_copies(0, 8);
    let mut w = World::builder().seed(1).build().unwrap();
    let sw = w.add_device(Box::new(bt.switch));
    let sk = w.add_device(Box::new(Sink::new("sink")));
    w.link((sw, 0), (sk, 0), LinkSpec::new());
    SwitchCpu::new().inject_templates(&mut w, sw, copies, 0);
    let horizon = ms(2);
    w.run_until(horizon);
    let sw_ref: &Switch = w.device(sw);
    let sent = global_value(sw_ref, &bt.handles.queries["Q1"]);
    let expected = (horizon as f64 / us(10) as f64) as u64;
    assert!(
        (sent as i64 - expected as i64).unsigned_abs() <= expected / 50 + 2,
        "sent {sent}, expected ≈{expected}"
    );
    let _ = PS_PER_SEC;
}

#[test]
fn random_interval_produces_exponential_gaps() {
    // §3.1: "random inter-departure time" — the interval is drawn from an
    // exponential distribution per fire, via the deadline register.
    let src = r#"
T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64)
    .set(interval, random(exp, 20us, 12))
"#;
    let (mut w, _sw, sk) = testbed(src, 16, Sink::new("sink").logging_arrivals());
    w.run_until(ms(60));

    let gaps = w.device::<Sink>(sk).inter_arrivals_ns(0);
    assert!(gaps.len() > 2000, "only {} gaps", gaps.len());
    let s = ht_stats::Summary::new(&gaps).unwrap();
    // Exponential(mean 20 µs): mean ≈ stddev ≈ 20000 ns.
    assert!((s.mean() - 20_000.0).abs() < 1_500.0, "mean gap {} ns", s.mean());
    assert!((s.stddev() - 20_000.0).abs() < 2_500.0, "stddev {} ns", s.stddev());
    // KS check against the analytic distribution.
    let dist = ht_stats::Distribution::Exponential { rate: 1.0 / s.mean() };
    let ks = ht_stats::Ecdf::new(&gaps).unwrap().ks_statistic(&dist);
    assert!(ks < 0.05, "KS {ks}");
}

#[test]
fn random_interval_uniform_gaps() {
    // Uniform on [2^23, 2^24) ps = [8.39 µs, 16.78 µs) — an exact
    // power-of-two span, so §6.1's scope limiting leaves it unchanged.
    let src = r#"
T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64)
    .set(interval, random(uniform, 8388608, 16777216, 23))
"#;
    let (mut w, _sw, sk) = testbed(src, 16, Sink::new("sink").logging_arrivals());
    w.run_until(ms(40));
    let gaps = w.device::<Sink>(sk).inter_arrivals_ns(0);
    assert!(gaps.len() > 1500, "only {} gaps", gaps.len());
    let s = ht_stats::Summary::new(&gaps).unwrap();
    let expected_mean = (8_388_608.0 + 16_777_216.0) / 2.0 / 1000.0;
    assert!((s.mean() - expected_mean).abs() < 300.0, "mean {} vs {expected_mean}", s.mean());
    assert!(s.min() >= 8_388.0, "min gap {} below lower bound", s.min());
}

#[test]
fn global_max_reduce_tracks_largest_frame() {
    // Two templates of different sizes; Q1 keeps the largest sent frame.
    let src = r#"
T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set([pkt_len, interval], [64, 10us])
T2 = trigger().set([dip, proto], [10.0.0.2, udp]).set([pkt_len, interval], [512, 40us])
Q1 = query().map(p -> (pkt_len)).reduce(func=max)
"#;
    let task = compile(&parse(src).unwrap()).unwrap();
    let mut bt =
        build(&task, &TesterConfig::builder().ports(2).speed(Gbps(100)).build().unwrap()).unwrap();
    let mut all = bt.template_copies(0, 1);
    all.extend(bt.template_copies(1, 1));
    let mut w = World::builder().seed(1).build().unwrap();
    let sw = w.add_device(Box::new(bt.switch));
    // Self-wire so the received-traffic query sees the generated frames.
    w.link((sw, 0), (sw, 1), LinkSpec::new());
    SwitchCpu::new().inject_templates(&mut w, sw, all, 0);

    // After only small frames returned, the max is 64…
    w.run_until(us(35));
    let sw_ref: &Switch = w.device(sw);
    assert_eq!(global_value(sw_ref, &bt.handles.queries["Q1"]), 64);
    // …and once a 512-byte frame arrives it sticks.
    w.run_until(ms(1));
    let sw_ref: &Switch = w.device(sw);
    assert_eq!(global_value(sw_ref, &bt.handles.queries["Q1"]), 512);
}

#[test]
fn register_state_stays_unallocated_until_written() {
    // The stateless-connections task: a keyed query plus three triggers
    // fed from captures, declaring ~3 MiB of cuckoo and FIFO arrays.
    let src = r#"
T1 = trigger().set([dip, dport, proto, flag, seq_no], [9.9.9.9, 80, tcp, SYN, 1])
    .set(sport, range(1024, 2047, 1)).set(interval, 10us)
Q1 = query().filter(tcp_flag == SYN+ACK)
T2 = trigger(Q1).set([dip, sip], [Q1.sip, Q1.dip])
    .set([dport, sport], [Q1.sport, Q1.dport])
    .set([flag, seq_no, ack_no], [ACK, Q1.ack_no, Q1.seq_no + 1])
T3 = trigger(Q1).set([dip, sip], [Q1.sip, Q1.dip])
    .set([dport, sport], [Q1.sport, Q1.dport])
    .set([flag, seq_no, ack_no], [PSH+ACK, Q1.ack_no, Q1.seq_no + 1])
    .set(payload, "GET index.html")
Q4 = query().filter(tcp_flag == FIN)
T6 = trigger(Q4).set([dip, sip], [Q4.sip, Q4.dip])
    .set([dport, sport], [Q4.sport, Q4.dport])
    .set([flag, ack_no], [FIN+ACK, Q4.seq_no + 1])
Q5 = query().filter(tcp_flag == SYN+ACK).reduce(func=count)
Q6 = query().filter(tcp_flag == SYN+ACK).reduce(keys=[dport], func=count)
"#;
    let task = compile(&parse(src).unwrap()).unwrap();
    let mut bt =
        build(&task, &TesterConfig::builder().ports(1).speed(Gbps(100)).build().unwrap()).unwrap();
    let regs = &bt.switch.regs;
    let declared: usize = regs.iter().map(|a| a.depth() * 8).sum();
    assert!(declared > 2 << 20, "declared {declared} B");
    assert!(regs.resident_bytes() < 4096, "resident {} B after build", regs.resident_bytes());
    let fin_fifo: Vec<_> = (0..regs.len())
        .map(|i| ht_asic::register::RegId(i as u16))
        .filter(|&r| regs.array(r).name().starts_with("trig_q4_t6_data"))
        .collect();
    assert!(!fin_fifo.is_empty());

    let mut all = Vec::new();
    for i in 0..bt.templates.len() {
        all.extend(bt.template_copies(i, 4));
    }
    let mut w = World::builder().seed(1).build().unwrap();
    let sw = w.add_device(Box::new(bt.switch));
    let srv = w.add_device(Box::new(TcpResponder::new("server", us(2))));
    w.link((sw, 0), (srv, 0), LinkSpec::new().delay(us(1)));
    SwitchCpu::new().inject_templates(&mut w, sw, all, 0);
    w.run_until(ms(1));

    let sw_ref: &Switch = w.device(sw);
    assert!(global_value(sw_ref, &bt.handles.queries["Q5"]) > 0);
    let resident = sw_ref.regs.resident_bytes();
    assert!(resident > 0 && resident < declared, "resident {resident} of {declared} B");
    // No FIN was ever captured: its FIFO's record storage was never
    // written, pulling it reads zeros without allocating it, and a first
    // write makes exactly its declared slots resident.
    for &r in &fin_fifo {
        let depth = sw_ref.regs.array(r).depth();
        let pulled = SwitchCpu::new().pull_counters(sw_ref, r, depth, PullMode::Batch);
        assert!(pulled.values.iter().all(|&v| v == 0));
    }
    assert_eq!(sw_ref.regs.resident_bytes(), resident);
    let sw_mut: &mut Switch = w.device_mut(sw);
    let mut fifo_bytes = 0;
    for &r in &fin_fifo {
        fifo_bytes += sw_mut.regs.array(r).depth() * 8;
        sw_mut.regs.array_mut(r).cp_write(0, 1);
    }
    assert_eq!(sw_mut.regs.resident_bytes(), resident + fifo_bytes);
}

#[test]
fn two_executors_run_side_by_side_in_one_process() {
    use ht_asic::sim::metrics;
    use ht_asic::ExecMode;

    // The default every caller that names no executor relies on.
    assert_eq!(TesterConfig::builder().build().unwrap().exec, ExecMode::Compiled);

    // Stateful: SALU counters and a keyed (cuckoo) reduce over 60 k keys.
    let src = r#"
T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64)
    .set(sport, range(1, 3000, 1)).set(dport, range(1, 20, 1))
Q1 = query(T1).reduce(keys=[sport, dport], func=count)
Q2 = query(T1).map(p -> (pkt_len)).reduce(func=sum)
"#;
    let task = compile(&parse(src).unwrap()).unwrap();
    // Both worlds run at once, each on its own thread: the executor is a
    // per-build value, not a process-wide setting.
    let run = |exec: ExecMode| {
        let cfg = TesterConfig::builder().ports(2).speed(Gbps(100)).exec(exec).build().unwrap();
        let mut bt = build(&task, &cfg).unwrap();
        assert_eq!(bt.switch.exec_mode(), exec);
        let copies = bt.template_copies(0, 16);
        let mut w = World::builder().seed(1).build().unwrap();
        let sw = w.add_device(Box::new(bt.switch));
        let sk = w.add_device(Box::new(Sink::new("sink")));
        w.link((sw, 0), (sk, 0), LinkSpec::new());
        SwitchCpu::new().inject_templates(&mut w, sw, copies, 0);
        let ops0 = metrics::profile_snapshot().ops_retired;
        w.run_until(ms(1));
        let ops = metrics::profile_snapshot().ops_retired - ops0;
        let s: &Switch = w.device(sw);
        assert_eq!(s.exec_mode(), exec);
        let mut state = ht_asic::fingerprint::Fnv1a::new();
        for r in s.regs.iter() {
            (0..r.depth()).for_each(|i| state.write(&r.cp_read(i).to_le_bytes()));
        }
        (s.counters, s.digests.clone(), state.finish(), ops)
    };
    let (interp, compiled) = std::thread::scope(|s| {
        let interp = s.spawn(|| run(ExecMode::Interp));
        let compiled = s.spawn(|| run(ExecMode::Compiled));
        (interp.join().unwrap(), compiled.join().unwrap())
    });
    assert!(interp.0.tx_frames > 0);
    assert_eq!(interp.0, compiled.0, "switch counters");
    assert_eq!(interp.1, compiled.1, "digest records");
    assert_eq!(interp.2, compiled.2, "register-state digest");
    // Only the compiled switch retires threaded-code ops.
    assert_eq!(interp.3, 0);
    assert!(compiled.3 > 0);
}
