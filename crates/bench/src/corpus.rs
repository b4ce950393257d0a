//! The differential-testing program corpus: one representative NTAPI
//! program per suite experiment that compiles a switch program, plus the
//! checked-in `tasks/*.nt` applications.
//!
//! Differential compiler testing (in the spirit of Wong et al.) needs a
//! fixed corpus whose compiled [`ht_asic::Switch`] programs can be
//! fingerprinted before a compiler refactor and re-checked after it.  The
//! corpus builds each program exactly the way its experiment does — same
//! source, same port/speed configuration — so a fingerprint match means
//! the refactor is behavior-preserving for the whole suite.

use crate::experiments::{multiport_src, random_src, rate_src, throughput_src};
use ht_asic::fingerprint::program_fingerprint;
use ht_asic::Switch;
use ht_core::TesterConfig;
use ht_ntapi::{compile, parse, resolve_file};
use ht_packet::wire::gbps;
use std::path::PathBuf;

/// One corpus program: a named NTAPI source and its build configuration.
pub struct CorpusEntry {
    /// Stable name, keyed in the committed fingerprint file.
    pub name: &'static str,
    /// NTAPI DSL source.
    pub src: String,
    /// On-disk path for sources with `import`s; when set, the entry is
    /// loaded through the module resolver instead of the plain parser.
    pub path: Option<PathBuf>,
    /// Tester ports; `None` derives `max template port + 1` from the
    /// compiled task (the `htctl lint` rule).
    pub ports: Option<u16>,
    /// Port speed in bits per second.
    pub speed_bps: u64,
}

impl CorpusEntry {
    fn new(name: &'static str, src: impl Into<String>) -> Self {
        CorpusEntry { name, src: src.into(), path: None, ports: None, speed_bps: gbps(100) }
    }

    /// A checked-in `tasks/` file, resolved from disk so that `import`
    /// and template instantiation work.
    fn task(name: &'static str, file: &str) -> Self {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tasks")).join(file);
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("corpus task {}: {e}", path.display()));
        CorpusEntry { name, src, path: Some(path), ports: None, speed_bps: gbps(100) }
    }

    fn ports(mut self, ports: u16) -> Self {
        self.ports = Some(ports);
        self
    }

    fn speed(mut self, speed_bps: u64) -> Self {
        self.speed_bps = speed_bps;
        self
    }
}

/// The corpus: the three `tasks/*.nt` applications plus one program per
/// switch-building suite experiment (experiments that build no switch —
/// CPU-path models, pure-math ablations — have nothing to fingerprint).
pub fn corpus() -> Vec<CorpusEntry> {
    vec![
        // Checked-in task files (resolver-loaded: they import tasks/lib/).
        CorpusEntry::task("task_scan", "scan.nt"),
        CorpusEntry::task("task_syn_flood", "syn_flood.nt"),
        CorpusEntry::task("task_throughput", "throughput.nt"),
        // Table 5 applications (also fig18_delay_case and table8_synflood).
        CorpusEntry::new("app_throughput", crate::apps::THROUGHPUT),
        CorpusEntry::new("app_delay", crate::apps::DELAY).ports(2),
        CorpusEntry::new("app_ip_scan", crate::apps::IP_SCAN),
        CorpusEntry::new("app_syn_flood", crate::apps::SYN_FLOOD).ports(4),
        // Fig. 9 single-port throughput sweep endpoints.
        CorpusEntry::new("fig09_min_frame", throughput_src(64)).ports(1),
        CorpusEntry::new("fig09_max_frame", throughput_src(1500)).ports(1),
        // Fig. 10 multi-port aggregate.
        CorpusEntry::new("fig10_four_ports", multiport_src(64, 4)).ports(4),
        // Figs. 11/12 rate control (1 Mpps of 64 B frames).
        CorpusEntry::new("fig11_ratectl_40g", rate_src(1_000, 64)).ports(1).speed(gbps(40)),
        CorpusEntry::new("fig12_ratectl_100g", rate_src(1_000, 64)).ports(1),
        // Fig. 13 on-ASIC random generation.
        CorpusEntry::new("fig13_normal", random_src("random(normal, 30000, 2000, 13)")).ports(1),
        CorpusEntry::new("fig13_exponential", random_src("random(exp, 4000, 13)")).ports(1),
        // Fig. 14 accelerator loop (interval far beyond the window).
        CorpusEntry::new(
            "fig14_accelerator",
            "T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64)\n\
             .set(interval, 1s)",
        )
        .ports(1),
        // Fig. 15 replicator: timed replication to four ports.
        CorpusEntry::new(
            "fig15_replicator",
            "T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64)\n\
             .set(interval, 1000ns).set(port, [0, 1, 2, 3])",
        )
        .ports(4),
        // Fig. 18(b) state-based delay probes (the compiled part).
        CorpusEntry::new(
            "fig18_state_probe",
            "T1 = trigger().set([dip, sip, proto, dport, sport], \
             [10.9.0.2, 10.9.0.1, udp, 7, 7])\n\
             .set(pkt_len, 128).set(interval, 10us).set(ident, range(0, 4095, 1))",
        )
        .ports(2),
        // Hot-path A/B rate-control workload (200 ns interval).
        CorpusEntry::new("hotpath_rate_control", rate_src(200, 64)).ports(1),
    ]
}

/// Compiles and builds one corpus entry into its switch program.
pub fn build_switch(entry: &CorpusEntry) -> Switch {
    let program = match &entry.path {
        Some(path) => resolve_file(path, &[], &[])
            .unwrap_or_else(|e| panic!("corpus entry {} fails to resolve: {e}", entry.name)),
        None => parse(&entry.src).expect("corpus source parses"),
    };
    let task = compile(&program)
        .unwrap_or_else(|e| panic!("corpus entry {} fails to compile: {e}", entry.name));
    let ports = entry.ports.unwrap_or_else(|| {
        task.templates.iter().flat_map(|t| t.ports.iter().copied()).max().unwrap_or(0) + 1
    });
    let cfg = TesterConfig::builder()
        .ports(ports)
        .speed_bps(entry.speed_bps)
        .build()
        .expect("corpus tester config");
    ht_core::build(&task, &cfg)
        .unwrap_or_else(|e| panic!("corpus entry {} fails to build: {e}", entry.name))
        .switch
}

/// `(name, fingerprint)` for every corpus program, in corpus order.
pub fn fingerprints() -> Vec<(&'static str, u64)> {
    corpus().iter().map(|e| (e.name, program_fingerprint(&build_switch(e)))).collect()
}
