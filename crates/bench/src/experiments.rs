//! Experiment runners — one function per table/figure of the paper's §7.
//!
//! Each function returns the data series the corresponding plot/table
//! shows; the [`crate::suite`] jobs print them next to the paper's reported
//! values and check them, and `htctl bench --md` writes the run ledger
//! into EXPERIMENTS.md.

use crate::apps;
use crate::harness::{run, RunSpec};
use ht_asic::time::{ms, us, SimTime, PS_PER_SEC};
use ht_asic::LinkSpec;
use ht_baseline::ratectl::{timestamp_error, RateControlMode, TimestampMode};
use ht_baseline::tester::{aggregate_l2_bps, core_pps, departures, MoonGenConfig};
use ht_ntapi::fp::{compute_fp_indices, HashConfig, KeySpace};
use ht_ntapi::{compile, parse};
use ht_packet::wire::{gbps, l1_rate_bps, line_rate_pps};
use ht_stats::{ErrorMetrics, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A 100G tester config with `ports` ports (the standard shape for the
/// direct-switch experiments below).
fn cfg(ports: u16) -> ht_core::TesterConfig {
    ht_core::TesterConfig::builder().ports(ports).speed_bps(gbps(100)).build().expect("config")
}

// ---------------------------------------------------------------- Table 5

/// One row of Table 5.
#[derive(Debug, Clone)]
pub struct LocRow {
    /// Application name.
    pub app: &'static str,
    /// NTAPI lines of code.
    pub ntapi: usize,
    /// Generated P4 lines of code.
    pub p4: usize,
    /// MoonGen Lua lines of code.
    pub lua: usize,
}

/// Table 5: lines of code per application.
pub fn table5_loc() -> Vec<LocRow> {
    apps::table5_apps()
        .into_iter()
        .map(|(app, ntapi_src, lua_src)| {
            let prog = parse(ntapi_src).expect("parse");
            let task = compile(&prog).expect("compile");
            let p4 = ht_ntapi::codegen::generate_p4(&task);
            LocRow {
                app,
                ntapi: prog.loc().expect("dsl source"),
                p4: ht_ntapi::loc::count_loc(&p4),
                lua: ht_baseline::lua::lua_loc(lua_src),
            }
        })
        .collect()
}

// ------------------------------------------------------------- Figs 9, 10

/// The Fig. 9 task: one UDP flow of `len`-byte frames.
pub(crate) fn throughput_src(len: usize) -> String {
    format!(
        "T1 = trigger().set([dip, sip, proto, dport, sport], [10.0.0.2, 10.0.0.1, udp, 1, 1])\n\
         .set(pkt_len, {len})"
    )
}

/// The Fig. 10 task: [`throughput_src`] replicated to ports `0..ports`.
pub(crate) fn multiport_src(len: usize, ports: u16) -> String {
    let list: Vec<String> = (0..ports).map(|p| p.to_string()).collect();
    format!(
        "T1 = trigger().set([dip, sip, proto, dport, sport], [10.0.0.2, 10.0.0.1, udp, 1, 1])\n\
         .set(pkt_len, {len}).set(port, [{}])",
        list.join(", ")
    )
}

/// One point of the single-port throughput sweep.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// Frame length.
    pub frame_len: usize,
    /// Measured packet rate.
    pub mpps: f64,
    /// Measured L1 throughput.
    pub l1_gbps: f64,
    /// The port's theoretical line rate (Mpps).
    pub line_mpps: f64,
}

/// Fig. 9: HyperTester single-port throughput vs frame size at `speed`.
pub fn fig9_ht_single_port(speed_bps: u64, sizes: &[usize]) -> Vec<ThroughputPoint> {
    sizes
        .iter()
        .map(|&len| {
            let src = throughput_src(len);
            let ports = run(RunSpec {
                src: &src,
                frame_len: len,
                speed_bps,
                warmup: ms(1),
                window: ms(1),
                ..Default::default()
            });
            ThroughputPoint {
                frame_len: len,
                mpps: ports[0].pps / 1e6,
                l1_gbps: ports[0].l1_gbps,
                line_mpps: line_rate_pps(len, speed_bps) / 1e6,
            }
        })
        .collect()
}

/// Fig. 9(b): the MoonGen model's single-port rate (one core) vs size.
pub fn fig9_mg_single_port(speed_bps: u64, sizes: &[usize]) -> Vec<ThroughputPoint> {
    sizes
        .iter()
        .map(|&len| {
            let cfg =
                MoonGenConfig { frame_len: len, port_speed_bps: speed_bps, ..Default::default() };
            let pps = core_pps(&cfg);
            ThroughputPoint {
                frame_len: len,
                mpps: pps / 1e6,
                l1_gbps: l1_rate_bps(len, pps) / 1e9,
                line_mpps: line_rate_pps(len, speed_bps) / 1e6,
            }
        })
        .collect()
}

/// Fig. 10(a): HyperTester aggregate throughput over 1..=max_ports 100G
/// ports (64-byte frames).  Returns `(ports, l1_gbps)`.
pub fn fig10_ht_multi_port(max_ports: u16) -> Vec<(u16, f64)> {
    (1..=max_ports)
        .map(|ports| {
            let src = multiport_src(64, ports);
            let measured = run(RunSpec {
                src: &src,
                ports,
                warmup: ms(1),
                window: ms(1),
                ..Default::default()
            });
            let total: f64 = measured.iter().map(|p| p.l1_gbps).sum();
            (ports, total)
        })
        .collect()
}

/// Fig. 10(b): MoonGen aggregate L1 throughput over 1..=8 cores (one 10G
/// port each, 64-byte frames).  Returns `(cores, l1_gbps)`.
pub fn fig10_mg_multi_core() -> Vec<(usize, f64)> {
    (1..=8)
        .map(|cores| {
            let cfg = MoonGenConfig { cores, ..Default::default() };
            let l1 = cores as f64 * l1_rate_bps(64, core_pps(&cfg)) / 1e9;
            let _ = aggregate_l2_bps(&cfg);
            (cores, l1)
        })
        .collect()
}

// ------------------------------------------------------------ Figs 11, 12

/// One rate-control accuracy measurement.
#[derive(Debug, Clone)]
pub struct RateControlPoint {
    /// Configured packet rate (packets/s).
    pub rate_pps: f64,
    /// Frame length.
    pub frame_len: usize,
    /// The error metrics over inter-departure gaps (ns).
    pub metrics: ErrorMetrics,
}

/// HyperTester rate-control accuracy at a given rate/size/port speed,
/// with the accelerator filled to capacity (the paper's configuration).
pub fn ht_rate_control(rate_pps: u64, frame_len: usize, speed_bps: u64) -> RateControlPoint {
    ht_rate_control_with_copies(
        rate_pps,
        frame_len,
        speed_bps,
        ht_asic::timing::accelerator_capacity(frame_len),
    )
}

/// The Figs. 11/12 task: one UDP flow of `len`-byte frames, one every
/// `interval_ns`.
pub(crate) fn rate_src(interval_ns: u64, len: usize) -> String {
    format!(
        "T1 = trigger().set([dip, sip, proto], [10.0.0.2, 10.0.0.1, udp])\n\
         .set(pkt_len, {len}).set(interval, {interval_ns}ns)"
    )
}

/// Rate-control accuracy with an explicit number of circulating template
/// copies — the precision ↔ capacity ablation: the timer quantum is
/// `RTT / copies`.
pub fn ht_rate_control_with_copies(
    rate_pps: u64,
    frame_len: usize,
    speed_bps: u64,
    copies: usize,
) -> RateControlPoint {
    let interval_ps = PS_PER_SEC / rate_pps;
    let src = rate_src(interval_ps / 1000, frame_len);
    // Window sized for ≈30k samples, capped to keep big sweeps fast.
    let window = (interval_ps * 30_000).clamp(ms(1), ms(50));
    let ports = run(RunSpec {
        src: &src,
        frame_len,
        speed_bps,
        copies: Some(copies),
        warmup: ms(1),
        window,
        log_arrivals: true,
        ..Default::default()
    });
    let target_ns = interval_ps as f64 / 1000.0;
    let metrics =
        ErrorMetrics::against_target(&ports[0].gaps_ns, target_ns).expect("no packets arrived");
    RateControlPoint { rate_pps: rate_pps as f64, frame_len, metrics }
}

/// The MoonGen model's rate-control accuracy for the same configuration.
pub fn mg_rate_control(
    rate_pps: u64,
    frame_len: usize,
    speed_bps: u64,
    mode: RateControlMode,
) -> RateControlPoint {
    let interval_ps = PS_PER_SEC / rate_pps;
    let cfg = MoonGenConfig {
        frame_len,
        port_speed_bps: speed_bps,
        interval: Some(interval_ps),
        rate_control: mode,
        ..Default::default()
    };
    let d: Vec<f64> = departures(&cfg, 30_000).iter().map(|&t| t as f64).collect();
    let gaps: Vec<f64> = d.windows(2).map(|w| (w[1] - w[0]) / 1000.0).collect();
    let metrics = ErrorMetrics::against_target(&gaps, interval_ps as f64 / 1000.0).expect("gaps");
    RateControlPoint { rate_pps: rate_pps as f64, frame_len, metrics }
}

// ---------------------------------------------------------------- Fig 13

/// The Fig. 13 task: 64-byte frames whose `dport` is drawn from `dist`.
pub(crate) fn random_src(dist: &str) -> String {
    format!(
        "T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64)\n\
         .set(dport, {dist})"
    )
}

/// Q-Q validation of on-ASIC random generation: returns
/// `(samples, deciles of (theoretical, empirical))` for the distribution.
pub fn fig13_random(dist_src: &str, dist: ht_stats::Distribution) -> (usize, Vec<(f64, f64)>, f64) {
    let src = random_src(dist_src);
    let task = compile(&parse(&src).unwrap()).unwrap();
    let mut built = ht_core::build(&task, &cfg(1)).unwrap();
    let templates = built.template_copies(0, 32);
    let mut world = ht_asic::World::builder().seed(1).build().unwrap();
    let sw = world.add_device(Box::new(built.switch));
    let sink = world.add_device(Box::new(
        ht_dut::Sink::new("sink").capturing(vec![ht_asic::fields::UDP_DPORT]),
    ));
    world.link((sw, 0), (sink, 0), LinkSpec::new());
    ht_cpu::SwitchCpu::new().inject_templates(&mut world, sw, templates, 0);
    world.run_until(ms(2));
    let samples: Vec<f64> =
        world.device::<ht_dut::Sink>(sink).captured.iter().map(|(_, _, v)| v[0] as f64).collect();
    let qq = ht_stats::qq_points(&samples, &dist);
    let n = qq.len();
    let deciles: Vec<(f64, f64)> = (1..10)
        .map(|d| {
            let p = &qq[n * d / 10];
            (p.theoretical, p.empirical)
        })
        .collect();
    let ks = ht_stats::Ecdf::new(&samples).unwrap().ks_statistic(&dist);
    (n, deciles, ks)
}

// ---------------------------------------------------------------- Fig 14

/// One accelerator measurement: RTT mean/RMSE and capacity for a size.
#[derive(Debug, Clone)]
pub struct AcceleratorPoint {
    /// Frame length.
    pub frame_len: usize,
    /// Mean measured loop RTT, ns.
    pub rtt_ns: f64,
    /// RMSE of the loop RTT around its mean, ns.
    pub rtt_rmse_ns: f64,
    /// Accelerator capacity (templates) at this size.
    pub capacity: usize,
}

/// Fig. 14: recirculate one template `loops` times per size and measure.
pub fn fig14_accelerator(sizes: &[usize], loops: usize) -> Vec<AcceleratorPoint> {
    sizes
        .iter()
        .map(|&len| {
            let src = format!(
                "T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, {len})\n\
                 .set(interval, 1s)" // effectively never fire; just loop
            );
            let task = compile(&parse(&src).unwrap()).unwrap();
            let mut built = ht_core::build(&task, &cfg(1)).unwrap();
            built.switch.trace.recirc = true;
            let template = built.template_copies(0, 1);
            let mut world = ht_asic::World::builder().seed(1).build().unwrap();
            let sw = world.add_device(Box::new(built.switch));
            ht_cpu::SwitchCpu::new().inject_templates(&mut world, sw, template, 0);
            world.run_until(loops as u64 * ht_asic::timing::recirc_rtt(len) + ms(1));
            let swr: &ht_asic::Switch = world.device(sw);
            let times: Vec<f64> = swr.log.recirc.iter().map(|&(_, t)| t as f64).collect();
            let rtts: Vec<f64> = times.windows(2).map(|w| (w[1] - w[0]) / 1000.0).collect();
            let s = Summary::new(&rtts).expect("loops recorded");
            AcceleratorPoint {
                frame_len: len,
                rtt_ns: s.mean(),
                rtt_rmse_ns: ht_stats::error::rmse_around_mean(&rtts).unwrap(),
                capacity: ht_asic::timing::accelerator_capacity(len),
            }
        })
        .collect()
}

/// Empirical capacity check: the mean per-template loop time with `n`
/// templates of `len` bytes circulating.  At or below capacity this equals
/// the unloaded RTT; past capacity the recirculation path serializes and
/// the loop time inflates to `n × occupancy` (the loop is closed, so the
/// backlog stabilizes — the symptom of oversubscription is RTT inflation,
/// not queue growth).
pub fn accelerator_loop_time_ns(len: usize, n: usize) -> f64 {
    let src = format!(
        "T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, {len}).set(interval, 1s)"
    );
    let task = compile(&parse(&src).unwrap()).unwrap();
    let mut built = ht_core::build(&task, &cfg(1)).unwrap();
    built.switch.trace.recirc = true;
    let templates = built.template_copies(0, n);
    let mut world = ht_asic::World::builder().seed(1).build().unwrap();
    let sw = world.add_device(Box::new(built.switch));
    // Inject all at once (no PCIe pacing) to load the loop directly.
    for t in templates {
        world.schedule_rx(sw, ht_asic::switch::CPU_PORT, t, 0);
    }
    world.run_until(ms(2));
    // Mean re-entry interval per template uid over the second half.
    let swr: &ht_asic::Switch = world.device(sw);
    let mut per_uid: std::collections::HashMap<u64, Vec<u64>> = Default::default();
    for &(uid, t) in &swr.log.recirc {
        if t > ms(1) {
            per_uid.entry(uid).or_default().push(t);
        }
    }
    let mut gaps = Vec::new();
    for times in per_uid.values() {
        gaps.extend(times.windows(2).map(|w| (w[1] - w[0]) as f64 / 1000.0));
    }
    let _ = us(1);
    gaps.iter().sum::<f64>() / gaps.len() as f64
}

// ---------------------------------------------------------------- Fig 15

/// One replicator (mcast engine) measurement.
#[derive(Debug, Clone)]
pub struct ReplicatorPoint {
    /// Frame length.
    pub frame_len: usize,
    /// Ports replicated to.
    pub ports: u16,
    /// Mean engine delay, ns.
    pub delay_ns: f64,
    /// RMSE of the engine delay around its mean, ns — the jitter Fig. 15
    /// cites as "indicating small inter-arrival time jitters".
    pub delay_rmse_ns: f64,
}

/// Fig. 15: multicast-engine delay vs frame size and port count.
pub fn fig15_replicator(sizes: &[usize], ports: u16, rate_pps: u64) -> Vec<ReplicatorPoint> {
    sizes
        .iter()
        .map(|&len| {
            let src = format!(
                "T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, {len})\n\
                 .set(interval, {}ns).set(port, [{}])",
                PS_PER_SEC / rate_pps / 1000,
                (0..ports).map(|p| p.to_string()).collect::<Vec<_>>().join(", ")
            );
            let task = compile(&parse(&src).unwrap()).unwrap();
            let mut built = ht_core::build(&task, &cfg(ports.max(1))).unwrap();
            built.switch.trace.mcast = true;
            let templates = built.template_copies(0, 32);
            let mut world = ht_asic::World::builder().seed(1).build().unwrap();
            let mut sink = ht_dut::Sink::new("sink").logging_arrivals();
            sink.log_arrivals = true;
            let sw = world.add_device(Box::new(built.switch));
            let sk = world.add_device(Box::new(sink));
            for p in 0..ports {
                world.link((sw, p), (sk, p), LinkSpec::new());
            }
            ht_cpu::SwitchCpu::new().inject_templates(&mut world, sw, templates, 0);
            world.run_until(ms(5));

            let swr: &ht_asic::Switch = world.device(sw);
            let delays: Vec<f64> = swr
                .log
                .mcast
                .iter()
                .map(|&(_, t_tm, t_eg)| (t_eg - t_tm) as f64 / 1000.0)
                .collect();
            let s = Summary::new(&delays).expect("replicas");
            let _ = world.device::<ht_dut::Sink>(sk).inter_arrivals_ns(0);
            ReplicatorPoint {
                frame_len: len,
                ports,
                delay_ns: s.mean(),
                delay_rmse_ns: ht_stats::error::rmse_around_mean(&delays).unwrap(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig 16

/// Fig. 16(a): digest goodput (Mbps) vs message size (bytes).
pub fn fig16_digest_goodput(sizes_bytes: &[usize]) -> Vec<(usize, f64)> {
    let cpu = ht_cpu::SwitchCpu::new();
    // One reusable record batch: the drain hands the records back, so each
    // size point resizes the value buffers in place instead of allocating
    // 2,000 fresh vectors.
    let mut records: Vec<ht_asic::digest::DigestRecord> = (0..2_000)
        .map(|_| ht_asic::digest::DigestRecord {
            id: ht_asic::digest::DigestId(0),
            values: Vec::new(),
            at: 0,
        })
        .collect();
    sizes_bytes
        .iter()
        .map(|&size| {
            let fields = size / 8;
            for (i, r) in records.iter_mut().enumerate() {
                r.values.clear();
                r.values.resize(fields, i as u64);
            }
            let d = cpu.drain_records(std::mem::take(&mut records));
            records = d.records;
            (size, d.goodput_bps / 1e6)
        })
        .collect()
}

/// Fig. 16(b): counter-pull latency (seconds) vs counter count, for
/// one-by-one and batch modes.  Returns `(count, t_single, t_batch)`.
pub fn fig16_counter_pull(counts: &[usize]) -> Vec<(usize, f64, f64)> {
    let cpu = ht_cpu::SwitchCpu::new();
    let mut sw = ht_asic::Switch::new("sw", 1);
    let reg = sw.regs.alloc("ctrs", 64, 65536);
    counts
        .iter()
        .map(|&n| {
            let single = cpu.pull_counters(&sw, reg, n, ht_cpu::PullMode::OneByOne);
            let batch = cpu.pull_counters(&sw, reg, n, ht_cpu::PullMode::Batch);
            (
                n,
                ht_asic::time::to_secs_f64(single.elapsed),
                ht_asic::time::to_secs_f64(batch.elapsed),
            )
        })
        .collect()
}

// ---------------------------------------------------------------- Fig 17

/// One trial's random flow key space for Fig. 17: `n` `(u64, 80)` keys
/// drawn from the trial's seeded RNG.
///
/// Random keys (not sequential) because sequential keys interact with the
/// CRC bucket hashes' linearity and would bias the collision counts.  The
/// draws are used as-is without a distinctness filter: a duplicate among
/// `n ≤ 2M` draws from a 2^64 domain has probability ≈ n²/2^65 < 10⁻⁷,
/// and the seeds are fixed, so the generated spaces are identical to the
/// old `HashSet`-deduplicated ones (pinned by the committed digests and
/// by a test in `suite.rs`).
pub fn random_flow_space(n: usize, seed: u64) -> KeySpace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut space = KeySpace::with_capacity(2, n);
    for _ in 0..n {
        space.push(&[rand::Rng::gen::<u64>(&mut rng), 80]);
    }
    space
}

/// Fig. 17 inner loop for one `(flows, config)` point: `(total, max)`
/// diverted-entry counts over `trials` seeded random key sets.
pub fn fig17_totals(n: usize, digest_bits: u32, array_bits: u32, trials: u64) -> (usize, usize) {
    let cfg = HashConfig { array_bits, digest_bits };
    let mut total = 0usize;
    let mut max = 0usize;
    for t in 0..trials {
        let space = random_flow_space(n, 1000 + t);
        let e = compute_fp_indices(&space, &cfg).len();
        total += e;
        max = max.max(e);
    }
    (total, max)
}

/// Fig. 17: exact-key-matching entries needed vs flow count, over
/// `trials` random key sets.  Returns `(flows, mean entries, max entries,
/// memory KB)` for the given digest width and array size.
pub fn fig17_exact_match(
    flow_counts: &[usize],
    digest_bits: u32,
    array_bits: u32,
    trials: u64,
) -> Vec<(usize, f64, usize, f64)> {
    let cfg = HashConfig { array_bits, digest_bits };
    flow_counts
        .iter()
        .map(|&n| {
            let (total, max) = fig17_totals(n, digest_bits, array_bits, trials);
            let mean = total as f64 / trials as f64;
            // Entry memory: full key (2×32 bit here ≈ 5-tuple digest cost
            // scaled) + counter pointer.
            let kb = mean * cfg.exact_entry_bits(2) as f64 / 8.0 / 1024.0;
            (n, mean, max, kb)
        })
        .collect()
}

// ---------------------------------------------------------------- Fig 18

/// One delay-testing series (Fig. 18): measured delay stats per method.
#[derive(Debug, Clone)]
pub struct DelayPoint {
    /// Method label.
    pub method: &'static str,
    /// Mean measured delay, ns.
    pub mean_ns: f64,
    /// Median, ns.
    pub p50_ns: f64,
    /// Standard deviation, ns.
    pub stddev_ns: f64,
}

/// Fig. 18(a): timestamp-based delay testing through a DUT with the given
/// pipeline delay.  Returns the truth mean plus one point per method.
pub fn fig18_delay(dut_delay: SimTime, probes: usize) -> (f64, Vec<DelayPoint>) {
    let src = apps::DELAY;
    let task = compile(&parse(src).unwrap()).unwrap();
    let mut built = ht_core::build(&task, &cfg(2)).unwrap();
    built.switch.trace.tx = true;
    let templates = built.template_copies(0, 8);

    let mut world = ht_asic::World::builder().seed(1).build().unwrap();
    let sw = world.add_device(Box::new(built.switch));
    let dut =
        world.add_device(Box::new(ht_dut::Forwarder::new("dut", dut_delay).route(0, 1, gbps(100))));
    let sink = world.add_device(Box::new(ht_dut::Sink::new("rx").logging_arrivals()));
    world.link((sw, 0), (dut, 0), LinkSpec::new());
    world.link((dut, 1), (sink, 0), LinkSpec::new());
    ht_cpu::SwitchCpu::new().inject_templates(&mut world, sw, templates, 0);
    world.run_until(us(10) * probes as u64 + ms(1));

    let swr: &ht_asic::Switch = world.device(sw);
    let tx: Vec<u64> = swr.log.tx.iter().map(|r| r.at).collect();
    let rx = &world.device::<ht_dut::Sink>(sink).arrivals[&0];
    let n = tx.len().min(rx.len());
    let truth: Vec<f64> = (0..n).map(|i| (rx[i] - tx[i]) as f64 / 1000.0).collect();
    let truth_mean = Summary::new(&truth).unwrap().mean();

    let mut rng = StdRng::seed_from_u64(42);
    let methods: [(&'static str, TimestampMode); 3] = [
        ("HW (HT-HW / MG-HW)", TimestampMode::Hardware),
        ("HyperTester-SW", TimestampMode::HyperTesterPipeline),
        ("MoonGen-SW", TimestampMode::MoonGenCpu),
    ];
    let points = methods
        .into_iter()
        .map(|(label, mode)| {
            let samples: Vec<f64> = (0..n)
                .map(|i| {
                    let d = (rx[i] - tx[i])
                        + timestamp_error(mode, &mut rng)
                        + timestamp_error(mode, &mut rng);
                    d as f64 / 1000.0
                })
                .collect();
            let s = Summary::new(&samples).unwrap();
            DelayPoint {
                method: label,
                mean_ns: s.mean(),
                p50_ns: s.median(),
                stddev_ns: s.stddev(),
            }
        })
        .collect();
    (truth_mean, points)
}

/// Fig. 18(b): *state-based* delay testing — the send timestamp is stored
/// in a data-plane register keyed by the probe id at egress; when the probe
/// returns, the ingress pipeline computes `now − stored` and reports it via
/// `generate_digest`.  The whole measurement happens on the ASIC.
///
/// Returns `(measured mean ns, measured stddev ns, probes)`.  The mean
/// includes the tester's own fixed pipeline/replication offsets (which a
/// real deployment calibrates out once); the paper's Fig. 18(b) point is
/// that the *precision* matches the timestamp-based method.
pub fn fig18_state_based(dut_delay: SimTime, probes: usize) -> (f64, f64, usize) {
    use ht_asic::action::{ActionSet, IndexSource, PrimitiveOp};
    use ht_asic::digest::DigestId;
    use ht_asic::register::{Cmp, SaluProgram};
    use ht_asic::table::{Gateway, MatchKind, Table};

    // Probes carry a progression over ipv4.ident as the probe id.
    let src =
        "T1 = trigger().set([dip, sip, proto, dport, sport], [10.9.0.2, 10.9.0.1, udp, 7, 7])\n\
               .set(pkt_len, 128).set(interval, 10us).set(ident, range(0, 4095, 1))";
    let task = compile(&parse(src).unwrap()).unwrap();
    let mut built = ht_core::build(&task, &cfg(2)).unwrap();
    let sw = &mut built.switch;

    // Egress (after the editor): store the departure-side timestamp in a
    // register slot keyed by the probe id.
    let ts_reg = sw.regs.alloc("probe_ts", 64, 4096);
    let sent_ts = sw.fields.intern("meta.sent_ts", 64);
    let delay_f = sw.fields.intern("meta.delay", 64);
    let store = Table::new(
        "probe_store",
        MatchKind::Exact,
        vec![ht_asic::fields::TEMPLATE_ID],
        2,
        ActionSet::new(
            "store_ts",
            vec![PrimitiveOp::Salu {
                reg: ts_reg,
                index: IndexSource::Field(ht_asic::fields::IPV4_IDENT),
                program: SaluProgram::write(ht_asic::register::SaluOperand::Field(
                    ht_asic::fields::IG_TS,
                )),
            }],
        ),
    )
    .with_gateway(Gateway { field: ht_asic::fields::TEMPLATE_ID, cmp: Cmp::Eq, value: 1 })
    .with_gateway(Gateway { field: ht_asic::fields::RID, cmp: Cmp::Gt, value: 0 });
    sw.egress.push_table(store);

    // Ingress (returned probes): delay = now − stored, reported by digest.
    let lookup = Table::new(
        "probe_lookup",
        MatchKind::Exact,
        vec![ht_asic::fields::TEMPLATE_ID],
        2,
        ActionSet::new(
            "compute_delay",
            vec![
                PrimitiveOp::Salu {
                    reg: ts_reg,
                    index: IndexSource::Field(ht_asic::fields::IPV4_IDENT),
                    program: SaluProgram::read(sent_ts),
                },
                PrimitiveOp::CopyField { dst: delay_f, src: ht_asic::fields::IG_TS },
                PrimitiveOp::SubField { dst: delay_f, src: sent_ts },
                PrimitiveOp::Digest { id: DigestId(40), fields: vec![delay_f] },
            ],
        ),
    )
    .with_gateway(Gateway { field: ht_asic::fields::TEMPLATE_ID, cmp: Cmp::Eq, value: 0 })
    .with_gateway(Gateway { field: ht_asic::fields::UDP_DPORT, cmp: Cmp::Eq, value: 7 });
    sw.ingress.push_table(lookup);
    // The probe tables were added after `build()` snapshotted the compiled
    // pipeline programs; re-snapshot so the executor sees them.
    sw.set_exec_mode(sw.exec_mode());
    sw.trace.tx = true;

    let templates = built.template_copies(0, 8);
    let mut world = ht_asic::World::builder().seed(1).build().unwrap();
    let sw_id = world.add_device(Box::new(built.switch));
    let dut =
        world.add_device(Box::new(ht_dut::Forwarder::new("dut", dut_delay).route(0, 1, gbps(100))));
    world.link((sw_id, 0), (dut, 0), LinkSpec::new());
    world.link((dut, 1), (sw_id, 1), LinkSpec::new());
    ht_cpu::SwitchCpu::new().inject_templates(&mut world, sw_id, templates, 0);
    world.run_until(us(10) * probes as u64 + ms(1));

    let swr: &ht_asic::Switch = world.device(sw_id);
    let samples: Vec<f64> = swr
        .digests
        .iter()
        .filter(|d| d.id == DigestId(40))
        .map(|d| d.values[0] as f64 / 1000.0)
        .collect();
    let s = Summary::new(&samples).expect("probe returns");
    (s.mean(), s.stddev(), samples.len())
}

// ---------------------------------------------------------------- Table 8

/// Table 8: SYN-flood testbed measurement + 6.5 Tbps estimation.
#[derive(Debug, Clone)]
pub struct SynFloodReport {
    /// Testbed L1 throughput, Gbps.
    pub testbed_gbps: f64,
    /// Testbed SYN rate, Mpps.
    pub testbed_mpps: f64,
    /// Emulated agents on the testbed (1 Mbps each).
    pub testbed_agents: f64,
    /// Estimated throughput of a 6.5 Tbps switch at 80%, Tbps.
    pub est_tbps: f64,
    /// Estimated SYN rate, Mpps.
    pub est_mpps: f64,
    /// Estimated agents.
    pub est_agents: f64,
}

/// Runs the SYN-flood task on four 100G ports and extrapolates.
pub fn table8_synflood() -> SynFloodReport {
    let ports = run(RunSpec {
        src: apps::SYN_FLOOD,
        ports: 4,
        warmup: ms(1),
        window: ms(1),
        ..Default::default()
    });
    let mpps: f64 = ports.iter().map(|p| p.pps).sum::<f64>() / 1e6;
    let gbps: f64 = ports.iter().map(|p| p.l1_gbps).sum();
    let est_tbps = 6.5 * 0.8;
    let est_mpps = est_tbps * 1e12 / ((64.0 + 20.0) * 8.0) / 1e6;
    SynFloodReport {
        testbed_gbps: gbps,
        testbed_mpps: mpps,
        testbed_agents: gbps * 1e9 / 1e6,
        est_tbps,
        est_mpps,
        est_agents: est_tbps * 1e12 / 1e6,
    }
}
