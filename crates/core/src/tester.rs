//! Building a HyperTester switch from a compiled task.
//!
//! [`build`] takes the NTAPI compiler's output and programs a simulated
//! switch: HTPS components into ingress+egress (accelerator, replicator,
//! editor), HTPR components per query (filters, exact key matching, cuckoo
//! engines, captures), the trigger FIFOs of stateless connections, and the
//! template packets the switch CPU will inject.  The returned handles give
//! tests and benches typed access to every register and engine after a run.

use crate::fieldmap::{proto_hint, resolve};
use crate::fifo::RegFifo;
use crate::htpr::{
    CaptureExtern, CaptureStats, CuckooEngine, CuckooExtern, CuckooStats, FilterExtern,
};
use crate::htps::{build_template_editor, build_template_ingress, TemplateHandles};
use ht_asic::action::{ActionSet, IndexSource, PrimitiveOp};
use ht_asic::digest::DigestId;
use ht_asic::phv::{fields, FieldId};
use ht_asic::register::{
    Cmp, RegId, SaluCond, SaluOperand, SaluOutput, SaluOutputSrc, SaluProgram, SaluUpdate,
};
use ht_asic::switch::Switch;
use ht_asic::table::{Gateway, MatchKey, MatchKind, Table};
use ht_asic::SimPacket;
use ht_ntapi::ast::{CmpOp, HeaderField, NtField, QuerySource, ReduceFunc};
use ht_ntapi::compile::{CompiledQuery, CompiledTask, L4Proto, QueryKind, TemplateSpec};
use ht_packet::tcp::TcpFlags;
use ht_packet::{EthernetAddress, Ipv4Address, PacketBuilder};
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;

/// Build-time errors (everything NTAPI-level is already rejected by the
/// compiler; these are switch-capacity constraints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An inverse-transform table exponent larger than the editor supports.
    RandomTableTooLarge {
        /// The requested exponent.
        bits: u32,
    },
    /// A response copy references a field the trigger record does not carry.
    UnsupportedResponseField(
        /// The field's NTAPI name.
        &'static str,
    ),
    /// The built program failed static verification; the switch refuses to
    /// load it.  Carries the error diagnostics.
    Lint(
        /// The lint errors that blocked the load.
        Vec<ht_lint::Diagnostic>,
    ),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::RandomTableTooLarge { bits } => {
                write!(f, "inverse-transform table 2^{bits} exceeds editor capacity (2^16)")
            }
            BuildError::UnsupportedResponseField(n) => {
                write!(f, "response copies cannot source field {n}")
            }
            BuildError::Lint(diags) => {
                write!(f, "program rejected by static verification:")?;
                for d in diags {
                    write!(f, "\n{d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Records per keyed query's KV FIFO (a power of two: the ring indices
/// are bitmasks).
const KV_FIFO_CAPACITY: usize = 4096;

/// Records per trigger FIFO of a stateless consumer (a power of two: the
/// ring indices are bitmasks).
const TRIGGER_FIFO_CAPACITY: usize = 4096;

/// Switch configuration for a tester build.
#[derive(Debug, Clone)]
pub struct TesterConfig {
    /// Device name.
    pub name: String,
    /// RNG seed (jitter + RNG primitive).
    pub seed: u64,
    /// External ports: `(port id, speed bps)`.
    pub ports: Vec<(u16, u64)>,
    /// Ports configured in loopback mode (accelerator capacity extension).
    pub loopback_ports: Vec<u16>,
    /// Pipeline executor [`build`] leaves the switch on.  A per-build
    /// value, so two testers in one process can run different executors;
    /// defaults to [`ExecMode::Compiled`](ht_asic::ExecMode::Compiled).
    pub exec: ht_asic::ExecMode,
}

impl TesterConfig {
    /// Starts a fluent builder:
    /// `TesterConfig::builder().ports(4).speed(Gbps(100)).build()?`.
    pub fn builder() -> TesterConfigBuilder {
        TesterConfigBuilder::default()
    }
}

/// A port speed in gigabits per second, for [`TesterConfigBuilder::speed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Gbps(pub u64);

impl Gbps {
    /// The speed in bits per second.
    pub fn bps(self) -> u64 {
        self.0 * 1_000_000_000
    }
}

/// Validation errors from [`TesterConfigBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// No ports were configured.
    NoPorts,
    /// A port speed of zero bits per second.
    ZeroSpeed,
    /// A loopback port id that is not among the configured ports.
    LoopbackUnknownPort(
        /// The offending port id.
        u16,
    ),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoPorts => write!(f, "a tester needs at least one port"),
            ConfigError::ZeroSpeed => write!(f, "port speed must be non-zero"),
            ConfigError::LoopbackUnknownPort(p) => {
                write!(f, "loopback port {p} is not a configured port")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fluent builder for [`TesterConfig`], with validation at
/// [`build`](Self::build) time instead of silent clamping.
#[derive(Debug, Clone)]
pub struct TesterConfigBuilder {
    name: String,
    seed: u64,
    ports: u16,
    speed_bps: u64,
    loopback_ports: Vec<u16>,
    exec: ht_asic::ExecMode,
}

impl Default for TesterConfigBuilder {
    /// The defaults of the original constructor: one 100 Gb/s port,
    /// seed 7, the compiled executor.
    fn default() -> Self {
        TesterConfigBuilder {
            name: "hypertester".into(),
            seed: 7,
            ports: 1,
            speed_bps: Gbps(100).bps(),
            loopback_ports: Vec::new(),
            exec: ht_asic::ExecMode::Compiled,
        }
    }
}

impl TesterConfigBuilder {
    /// Device name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// RNG seed (jitter + RNG primitive).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of external ports (ids `0..n`).
    pub fn ports(mut self, n: u16) -> Self {
        self.ports = n;
        self
    }

    /// Uniform port speed.
    pub fn speed(self, speed: Gbps) -> Self {
        self.speed_bps(speed.bps())
    }

    /// Uniform port speed in bits per second (for odd rates).
    pub fn speed_bps(mut self, bps: u64) -> Self {
        self.speed_bps = bps;
        self
    }

    /// Ports configured in loopback mode (accelerator capacity extension).
    /// Each id must refer to a configured port.
    pub fn loopback_ports(mut self, ports: impl IntoIterator<Item = u16>) -> Self {
        self.loopback_ports = ports.into_iter().collect();
        self
    }

    /// Pipeline executor of the built switch.
    pub fn exec(mut self, mode: ht_asic::ExecMode) -> Self {
        self.exec = mode;
        self
    }

    /// Validates and produces the [`TesterConfig`].
    pub fn build(self) -> Result<TesterConfig, ConfigError> {
        if self.ports == 0 {
            return Err(ConfigError::NoPorts);
        }
        if self.speed_bps == 0 {
            return Err(ConfigError::ZeroSpeed);
        }
        if let Some(&p) = self.loopback_ports.iter().find(|&&p| p >= self.ports) {
            return Err(ConfigError::LoopbackUnknownPort(p));
        }
        Ok(TesterConfig {
            name: self.name,
            seed: self.seed,
            ports: (0..self.ports).map(|p| (p, self.speed_bps)).collect(),
            loopback_ports: self.loopback_ports,
            exec: self.exec,
        })
    }
}

/// Handle to one compiled query's runtime state.
#[derive(Debug, Clone)]
pub struct QueryHandle {
    /// Query name.
    pub name: String,
    /// Compiled query (kind, filters, fp config).
    pub query: CompiledQuery,
    /// Match-flag field.
    pub match_field: FieldId,
    /// Running-count output field.
    pub count_field: FieldId,
    /// Register of a global reduce.
    pub global_reg: Option<RegId>,
    /// The cuckoo engine of a keyed query.
    pub engine: Option<Arc<Mutex<CuckooEngine>>>,
    /// Exact-key-matching counters: the register plus the installed keys in
    /// index order.
    pub exact: Option<(RegId, Vec<Vec<u64>>)>,
    /// Digest stream carrying this query's evictions.
    pub evict_digest: Option<DigestId>,
    /// Capture statistics (stateless-connection feeders).
    pub capture_stats: Option<Arc<Mutex<CaptureStats>>>,
}

/// Handles to everything built for a task.
#[derive(Debug)]
pub struct TaskHandles {
    /// The fire-flag field shared by all triggers.
    pub fire_field: FieldId,
    /// Per-template handles, in template order.
    pub templates: Vec<TemplateHandles>,
    /// Per-query handles.
    pub queries: HashMap<String, QueryHandle>,
    /// The L4 protocol hint used to resolve generic port fields.
    pub proto: L4Proto,
}

/// A fully built tester: the programmed switch, its template packets and
/// the runtime handles.
#[derive(Debug)]
pub struct BuiltTester {
    /// The programmed switch (install into a `World` as a device).
    pub switch: Switch,
    /// Template packets to inject over PCIe.
    pub templates: Vec<SimPacket>,
    /// Runtime handles.
    pub handles: TaskHandles,
    /// The compiled task.
    pub task: CompiledTask,
    /// The full static-verification report from the build's single run of
    /// the lint pass pipeline (warnings included; errors abort the build).
    pub lint: ht_lint::LintReport,
}

/// Builds a tester switch from a compiled task.
pub fn build(task: &CompiledTask, cfg: &TesterConfig) -> Result<BuiltTester, BuildError> {
    let mut sw = Switch::new(&cfg.name, cfg.seed);
    for &(p, speed) in &cfg.ports {
        sw.add_port(p, speed);
    }
    for &p in &cfg.loopback_ports {
        sw.set_loopback(p, true);
    }

    for tpl in &task.templates {
        for e in &tpl.edits {
            if let ht_ntapi::compile::EditSpec::RandomTable { bits, .. } = e {
                if *bits > 16 {
                    return Err(BuildError::RandomTableTooLarge { bits: *bits });
                }
            }
        }
    }

    let proto = proto_hint(&task.templates);
    let fire_field = sw.fields.intern("meta.fire", 1);

    // Trigger FIFOs: one per (capturing query, consuming template).
    let mut trigger_fifos: HashMap<(String, String), Arc<Mutex<RegFifo>>> = HashMap::new();
    for q in &task.queries {
        for consumer in &q.capture_for {
            let fifo = RegFifo::new(
                &format!("trig_{}_{}", q.name.to_lowercase(), consumer.to_lowercase()),
                &mut sw.regs,
                &mut sw.fields,
                crate::htpr::RECORD_FIELDS.len(),
                TRIGGER_FIFO_CAPACITY,
            );
            trigger_fifos.insert((q.name.clone(), consumer.clone()), Arc::new(Mutex::new(fifo)));
        }
    }

    // ---- HTPS: shared tables then per-template entries --------------------
    // The editor is built before the queries so that sent-traffic queries
    // (deployed in egress) observe post-edit header values.
    //
    // A reserved stage ahead of the timer carries the threshold-draw tables
    // of random-interval triggers (they must execute before the deadline
    // SALU reads their output).
    sw.ingress.stages.push(ht_asic::pipeline::Stage::new());
    let timer_tbl = sw.ingress.push_table(Table::new(
        "replicator_timer",
        MatchKind::Exact,
        vec![fields::TEMPLATE_ID],
        task.templates.len().max(1),
        ActionSet::nop(),
    ));
    // Loop guards sit between the timer and the mcast assignment so they
    // can veto a fire.
    let guard_tbl = sw.ingress.push_table(
        Table::new(
            "replicator_loop_guard",
            MatchKind::Exact,
            vec![fields::TEMPLATE_ID],
            task.templates.len().max(1),
            ActionSet::nop(),
        )
        .with_gateway(Gateway { field: fire_field, cmp: Cmp::Eq, value: 1 }),
    );
    let replicate_tbl = sw.ingress.push_table(
        Table::new(
            "replicator_mcast",
            MatchKind::Exact,
            vec![fields::TEMPLATE_ID],
            task.templates.len().max(1),
            ActionSet::nop(),
        )
        .with_gateway(Gateway { field: fire_field, cmp: Cmp::Eq, value: 1 }),
    );
    let recirc_tbl = sw.ingress.push_table(Table::new(
        "accelerator",
        MatchKind::Exact,
        vec![fields::TEMPLATE_ID],
        task.templates.len().max(1),
        ActionSet::nop(),
    ));

    let mut template_handles = Vec::new();
    for tpl in &task.templates {
        let fifo = tpl
            .source_query
            .as_ref()
            .map(|q| trigger_fifos[&(q.clone(), tpl.trigger_name.clone())].clone());
        let h = build_template_ingress(
            &mut sw,
            tpl,
            fire_field,
            timer_tbl,
            guard_tbl,
            replicate_tbl,
            recirc_tbl,
            fifo,
        );
        build_template_editor(&mut sw, tpl, &h);
        template_handles.push(h);
    }

    // ---- HTPR: queries ----------------------------------------------------
    let mut queries = HashMap::new();
    for (qi, q) in task.queries.iter().enumerate() {
        let handle = build_query(&mut sw, task, q, qi, proto, &trigger_fifos);
        queries.insert(q.name.clone(), handle);
    }

    // Template packets.
    let templates = task.templates.iter().map(|tpl| build_template_packet(&mut sw, tpl)).collect();

    // Static verification: a real target refuses to load a program that
    // violates its constraints, and so does the simulator.  Warnings are
    // surfaced by `htctl lint`; only errors block the build.
    let lint = ht_lint::lint_switch(&sw);
    if lint.has_errors() {
        return Err(BuildError::Lint(lint.errors().cloned().collect()));
    }

    // All tables are populated and verified: switch to the configured
    // executor (compiling the pipelines and, for `Vector`, running the
    // vector-safety analysis).  Callers flipping modes later use
    // `Switch::set_exec_mode`.
    sw.set_exec_mode(cfg.exec);

    Ok(BuiltTester {
        switch: sw,
        templates,
        handles: TaskHandles { fire_field, templates: template_handles, queries, proto },
        task: task.clone(),
        lint,
    })
}

impl BuiltTester {
    /// Clones of one trigger's template packet, each with a fresh uid.
    ///
    /// The accelerator sustains higher aggregate rates by recirculating
    /// multiple copies of the same template (§5.1): with no interval
    /// configured, N copies fire N times per loop; with an interval, the
    /// copies refine the rate-control quantum to `RTT / N` — the paper's
    /// 6.4 ns precision at 89 64-byte copies.
    pub fn template_copies(&mut self, template_idx: usize, copies: usize) -> Vec<SimPacket> {
        let base = self.templates[template_idx].clone();
        (0..copies)
            .map(|_| {
                let mut p = base.clone();
                p.uid = self.switch.alloc_uid();
                p
            })
            .collect()
    }

    /// The number of template copies a rate-controlled trigger needs: the
    /// timer only fires when a template arrives, so the arrival spacing
    /// (`RTT / copies`) must undercut the configured interval with margin
    /// (2× here, bounding the quantization error at half the interval's
    /// percent-level).  Triggers without an interval get the line-rate
    /// count.  Multi-template tasks should use this rather than flooding
    /// the shared recirculation loop with per-trigger line-rate counts.
    pub fn copies_for_interval(&self, template_idx: usize, port_speed_bps: u64) -> usize {
        let tpl = &self.task.templates[template_idx];
        match tpl.interval {
            Some(interval) => {
                let rtt = ht_asic::timing::recirc_rtt(tpl.frame_len);
                ((2 * rtt).div_ceil(interval) as usize)
                    .clamp(1, ht_asic::timing::accelerator_capacity(tpl.frame_len) + 2)
            }
            None => self.copies_for_line_rate(template_idx, port_speed_bps),
        }
    }

    /// The number of template copies that saturate one port at line rate
    /// for this template's frame length.
    ///
    /// Capped slightly *above* the accelerator capacity: the recirculation
    /// path's sustained rate exceeds the external line rate (16 vs 20 bytes
    /// of per-frame overhead), so fully saturating the loop with one or two
    /// extra templates guarantees line-rate output for every frame size.
    pub fn copies_for_line_rate(&self, template_idx: usize, port_speed_bps: u64) -> usize {
        let len = self.task.templates[template_idx].frame_len;
        let fires_per_sec =
            ht_asic::time::PS_PER_SEC as f64 / ht_asic::timing::recirc_rtt(len) as f64;
        let needed = (ht_packet::wire::line_rate_pps(len, port_speed_bps) / fires_per_sec).ceil()
            as usize
            + 1;
        needed.min(ht_asic::timing::accelerator_capacity(len) + 2)
    }
}

fn cmp_of(c: CmpOp) -> Cmp {
    match c {
        CmpOp::Eq => Cmp::Eq,
        CmpOp::Ne => Cmp::Ne,
        CmpOp::Lt => Cmp::Lt,
        CmpOp::Le => Cmp::Le,
        CmpOp::Gt => Cmp::Gt,
        CmpOp::Ge => Cmp::Ge,
    }
}

fn reduce_value_field(map: &[NtField], proto: L4Proto) -> Option<FieldId> {
    map.iter().find_map(|f| match f {
        NtField::PktLen => Some(fields::PKT_LEN),
        NtField::Header(h) => Some(resolve(*h, proto)),
        _ => None,
    })
}

fn build_query(
    sw: &mut Switch,
    task: &CompiledTask,
    q: &CompiledQuery,
    qi: usize,
    proto: L4Proto,
    trigger_fifos: &HashMap<(String, String), Arc<Mutex<RegFifo>>>,
) -> QueryHandle {
    let match_field = sw.fields.intern(&format!("meta.q{qi}_match"), 1);
    let count_field = sw.fields.intern(&format!("meta.q{qi}_count"), 64);
    let exact_miss = sw.fields.intern(&format!("meta.q{qi}_exmiss"), 1);

    // Source gating + user filters.
    let mut preds: Vec<(FieldId, Cmp, u64)> = Vec::new();
    let egress_side = match &q.source {
        QuerySource::Received(port) => {
            preds.push((fields::TEMPLATE_ID, Cmp::Eq, 0));
            if let Some(p) = port {
                preds.push((fields::IG_PORT, Cmp::Eq, u64::from(*p)));
            }
            false
        }
        QuerySource::Trigger(t) => {
            let tid = task
                .templates
                .iter()
                .find(|tpl| &tpl.trigger_name == t)
                .map(|tpl| tpl.id)
                .expect("compiler validated trigger refs");
            preds.push((fields::TEMPLATE_ID, Cmp::Eq, u64::from(tid)));
            preds.push((fields::RID, Cmp::Gt, 0));
            true
        }
    };
    for p in &q.filters {
        preds.push((resolve(p.field, proto), cmp_of(p.cmp), p.value));
    }
    let filter = FilterExtern::new(&format!("q{qi}_filter"), preds, match_field);
    let pipeline = if egress_side { &mut sw.egress } else { &mut sw.ingress };
    pipeline.push_extern(Box::new(filter));

    let mut handle = QueryHandle {
        name: q.name.clone(),
        query: q.clone(),
        match_field,
        count_field,
        global_reg: None,
        engine: None,
        exact: None,
        evict_digest: None,
        capture_stats: None,
    };

    match &q.kind {
        QueryKind::PassThrough => {}
        QueryKind::ReduceGlobal { func } => {
            let reg = sw.regs.alloc(&format!("q{qi}_acc"), 64, 1);
            handle.global_reg = Some(reg);
            let value_field = reduce_value_field(&q.map, proto);
            let update = match (func, value_field) {
                (ReduceFunc::Count, _) | (ReduceFunc::Sum, None) => {
                    SaluUpdate::Add(SaluOperand::Const(1))
                }
                (ReduceFunc::Sum, Some(f)) => SaluUpdate::Add(SaluOperand::Field(f)),
                (ReduceFunc::Max, Some(f)) => SaluUpdate::Set(SaluOperand::Field(f)),
                (ReduceFunc::Max, None) => SaluUpdate::Add(SaluOperand::Const(1)),
            };
            let program = if let (ReduceFunc::Max, Some(vf)) = (func, value_field) {
                SaluProgram {
                    condition: Some(SaluCond {
                        expr: ht_asic::register::CondExpr::Reg,
                        cmp: Cmp::Lt,
                        rhs: SaluOperand::Field(vf),
                    }),
                    on_true: update,
                    on_false: SaluUpdate::Keep,
                    output: Some(SaluOutput { dst: count_field, src: SaluOutputSrc::NewValue }),
                }
            } else {
                SaluProgram {
                    condition: None,
                    on_true: update,
                    on_false: update,
                    output: Some(SaluOutput { dst: count_field, src: SaluOutputSrc::NewValue }),
                }
            };
            let t = Table::new(
                &format!("q{qi}_reduce"),
                MatchKind::Exact,
                vec![match_field],
                2,
                ActionSet::new(
                    &format!("q{qi}_add"),
                    vec![PrimitiveOp::Salu { reg, index: IndexSource::Const(0), program }],
                ),
            )
            .with_gateway(Gateway { field: match_field, cmp: Cmp::Eq, value: 1 });
            let pipeline = if egress_side { &mut sw.egress } else { &mut sw.ingress };
            pipeline.push_table(t);
        }
        QueryKind::ReduceKeyed { keys, .. } | QueryKind::Distinct { keys } => {
            let func = match &q.kind {
                QueryKind::ReduceKeyed { func, .. } => *func,
                _ => ReduceFunc::Count,
            };
            let key_fields: Vec<FieldId> = keys.iter().map(|&k| resolve(k, proto)).collect();
            let fp = q.fp.as_ref();
            let value_field = reduce_value_field(&q.map, proto);

            // Exact key matching table + per-entry counters.
            let entries = fp.map(|f| f.entries.clone()).unwrap_or_default();
            let exact_reg = sw.regs.alloc(&format!("q{qi}_exact_cnt"), 64, entries.len().max(1));
            let mut exact_tbl = Table::new(
                &format!("q{qi}_exact"),
                MatchKind::Exact,
                key_fields.clone(),
                entries.len().max(1),
                ActionSet::new(
                    &format!("q{qi}_exact_miss"),
                    vec![PrimitiveOp::SetConst { dst: exact_miss, value: 1 }],
                ),
            )
            .with_gateway(Gateway { field: match_field, cmp: Cmp::Eq, value: 1 });
            for (i, key) in entries.iter().enumerate() {
                let update = match (func, value_field) {
                    (ReduceFunc::Count, _) | (ReduceFunc::Sum, None) => {
                        SaluUpdate::Add(SaluOperand::Const(1))
                    }
                    (ReduceFunc::Sum, Some(f)) => SaluUpdate::Add(SaluOperand::Field(f)),
                    (ReduceFunc::Max, Some(f)) => SaluUpdate::Set(SaluOperand::Field(f)),
                    (ReduceFunc::Max, None) => SaluUpdate::Add(SaluOperand::Const(1)),
                };
                exact_tbl
                    .insert(
                        MatchKey::Exact(key.clone()),
                        ActionSet::new(
                            "",
                            vec![
                                PrimitiveOp::Salu {
                                    reg: exact_reg,
                                    index: IndexSource::Const(i as u64),
                                    program: SaluProgram {
                                        condition: None,
                                        on_true: update,
                                        on_false: update,
                                        output: Some(SaluOutput {
                                            dst: count_field,
                                            src: SaluOutputSrc::NewValue,
                                        }),
                                    },
                                },
                                PrimitiveOp::SetConst { dst: exact_miss, value: 0 },
                            ],
                        ),
                        0,
                    )
                    .expect("exact entry");
            }
            handle.exact = Some((exact_reg, entries));

            // Cuckoo engine.
            let hash = fp.map(|f| f.hash).unwrap_or_default();
            let bits = hash.array_bits;
            let arr_key = [
                sw.regs.alloc(&format!("q{qi}_a1_key"), 64, 1 << bits),
                sw.regs.alloc(&format!("q{qi}_a2_key"), 64, 1 << bits),
            ];
            let arr_cnt = [
                sw.regs.alloc(&format!("q{qi}_a1_cnt"), 64, 1 << bits),
                sw.regs.alloc(&format!("q{qi}_a2_cnt"), 64, 1 << bits),
            ];
            let fifo = RegFifo::new(
                &format!("q{qi}_kv"),
                &mut sw.regs,
                &mut sw.fields,
                3,
                KV_FIFO_CAPACITY,
            );
            let evict_digest = DigestId(qi as u16 + 1);
            let engine = Arc::new(Mutex::new(CuckooEngine {
                cfg: hash,
                key_fields,
                func,
                value_field,
                match_flag: match_field,
                exact_miss_flag: exact_miss,
                count_out: count_field,
                arr_key,
                arr_cnt,
                fifo,
                evict_digest,
                stats: CuckooStats::default(),
            }));
            handle.engine = Some(engine.clone());
            handle.evict_digest = Some(evict_digest);

            let pipeline = if egress_side { &mut sw.egress } else { &mut sw.ingress };
            pipeline.push_table(exact_tbl);
            pipeline.push_extern(Box::new(CuckooExtern::new(&format!("q{qi}_cuckoo"), engine)));
        }
    }

    // Capture stage feeding stateless triggers.
    if !q.capture_for.is_empty() {
        let fifos: Vec<Arc<Mutex<RegFifo>>> = q
            .capture_for
            .iter()
            .map(|c| trigger_fifos[&(q.name.clone(), c.clone())].clone())
            .collect();
        let stats = Arc::new(Mutex::new(CaptureStats::default()));
        handle.capture_stats = Some(stats.clone());
        let result_gate = q.result_filter.map(|(c, v)| (count_field, cmp_of(c), v));
        let capture = CaptureExtern {
            name: format!("q{qi}_capture"),
            match_flag: match_field,
            result_gate,
            fifos,
            stats,
        };
        let pipeline = if egress_side { &mut sw.egress } else { &mut sw.ingress };
        pipeline.push_extern(Box::new(capture));
    }
    handle
}

fn base_value(tpl: &TemplateSpec, f: HeaderField) -> Option<u64> {
    tpl.base.iter().find(|(bf, _)| *bf == f).map(|&(_, v)| v)
}

/// Builds the template packet bytes for a spec and parses them into a
/// [`SimPacket`] tagged with the template id — the switch-CPU side of
/// template-based generation.
pub fn build_template_packet(sw: &mut Switch, tpl: &TemplateSpec) -> SimPacket {
    let eth_src = base_value(tpl, HeaderField::EthSrc)
        .map(EthernetAddress::from_u64)
        .unwrap_or(EthernetAddress([0x02, 0, 0, 0, 0, 0x01]));
    let eth_dst = base_value(tpl, HeaderField::EthDst)
        .map(EthernetAddress::from_u64)
        .unwrap_or(EthernetAddress([0x02, 0, 0, 0, 0, 0x02]));
    let sip =
        Ipv4Address::from_u32(base_value(tpl, HeaderField::Sip).unwrap_or(0x0a00_0001) as u32);
    let dip =
        Ipv4Address::from_u32(base_value(tpl, HeaderField::Dip).unwrap_or(0x0a00_0002) as u32);
    let sport = base_value(tpl, HeaderField::Sport).unwrap_or(1024) as u16;
    let dport = base_value(tpl, HeaderField::Dport).unwrap_or(80) as u16;

    let mut b = PacketBuilder::new()
        .eth(eth_src, eth_dst)
        .ipv4(sip, dip)
        .ttl(base_value(tpl, HeaderField::Ttl).unwrap_or(64) as u8)
        .ident(base_value(tpl, HeaderField::Ident).unwrap_or(0) as u16)
        .payload(&tpl.payload)
        .frame_len(tpl.frame_len);
    b = match tpl.protocol {
        L4Proto::Tcp => b.tcp(
            sport,
            dport,
            base_value(tpl, HeaderField::SeqNo).unwrap_or(0) as u32,
            base_value(tpl, HeaderField::AckNo).unwrap_or(0) as u32,
            TcpFlags(base_value(tpl, HeaderField::TcpFlags).unwrap_or(0) as u8),
        ),
        L4Proto::Udp => b.udp(sport, dport),
        L4Proto::None => b,
    };
    let mut pkt = sw.make_packet(b.build());
    pkt.phv.set(&sw.fields, fields::TEMPLATE_ID, u64::from(tpl.id));
    pkt
}
