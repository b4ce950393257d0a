//! The programmable switch: parser → ingress pipeline → traffic manager →
//! egress pipeline → deparser → MACs, plus the recirculation path.
//!
//! The simulator is *eager*: a packet's whole traversal is computed when it
//! enters the pipeline, and future effects (MAC departures, recirculation
//! re-entries) are scheduled as events.  Per-port FIFO queueing makes the
//! eager register updates order-equivalent to a lazy simulation, because
//! packets leave each queue in the order they entered it.
//!
//! Timing follows [`crate::timing`], calibrated to the paper's
//! microbenchmarks: a 64-byte template completes one accelerator loop in
//! 570 ns (Fig. 14a) and re-arrives no faster than every 6.4 ns; multicast
//! replicas pay ~389 ns in the replication engine (Fig. 15a).

use crate::action::ExecCtx;
use crate::digest::DigestRecord;
use crate::exec::{self, ExecMode};
use crate::fxhash::FxHashMap;
use crate::mac::MacPort;
use crate::packet::SimPacket;
use crate::parser;
use crate::phv::{fields, FieldTable, Phv};
use crate::pipeline::Pipeline;
use crate::register::RegisterFile;
use crate::sim::{Device, DeviceKind, Outbox};
use crate::time::SimTime;
use crate::timing;
use crate::tm::{McastMember, McastTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;

/// Sentinel for "no unicast egress chosen" in `meta.eg_port`.
pub const PORT_UNSET: u64 = 0xffff;
/// Ingress-port number reported for recirculated packets.
pub const RECIRC_PORT: u16 = 0xfffe;
/// Ingress-port number for packets injected by the switch CPU over PCIe.
pub const CPU_PORT: u16 = 0xfffd;

/// Aggregate switch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchCounters {
    /// Frames entering the ingress pipeline (including recirculations).
    pub rx_frames: u64,
    /// Frames serialized out of MACs (including loopback ports).
    pub tx_frames: u64,
    /// Packets dropped in or after ingress (explicit drops and packets with
    /// no egress destination).
    pub ingress_drops: u64,
    /// Packets dropped in egress.
    pub egress_drops: u64,
    /// Trips through the internal recirculation path.
    pub recirculations: u64,
    /// Replicas created by the multicast engine.
    pub mcast_replicas: u64,
}

/// One MAC transmission, recorded when tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxRecord {
    /// Egress port.
    pub port: u16,
    /// Packet uid.
    pub uid: u64,
    /// Serialization start (the departure timestamp).
    pub at: SimTime,
    /// Frame length.
    pub len: u16,
    /// Originating template id (0 for foreign packets).
    pub template_id: u16,
}

/// Optional event traces for microbenchmarks.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Recirculation re-entry times: `(uid, arrival at ingress)`.
    pub recirc: Vec<(u64, SimTime)>,
    /// MAC transmissions.
    pub tx: Vec<TxRecord>,
    /// Multicast-engine transits per replica:
    /// `(uid, arrival at the TM, start of egress processing)` — the
    /// difference is the engine delay measured in Fig. 15.
    pub mcast: Vec<(u64, SimTime, SimTime)>,
}

/// What to trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceConfig {
    /// Record recirculation re-entries.
    pub recirc: bool,
    /// Record MAC transmissions.
    pub tx: bool,
    /// Record multicast-engine transits.
    pub mcast: bool,
}

/// The programmable switch device.
pub struct Switch {
    name: String,
    /// Field registry shared by both pipelines; intern user metadata here
    /// before building tables.
    pub fields: FieldTable,
    /// Ingress match-action pipeline.
    pub ingress: Pipeline,
    /// Egress match-action pipeline.
    pub egress: Pipeline,
    /// Register file (shared between ingress and egress, as stage-local
    /// memories are on RMT).
    pub regs: RegisterFile,
    /// Multicast group table.
    pub mcast: McastTable,
    /// Digest queue to the switch CPU.
    pub digests: Vec<DigestRecord>,
    /// Counters.
    pub counters: SwitchCounters,
    /// Trace configuration.
    pub trace: TraceConfig,
    /// Trace storage.
    pub log: TraceLog,
    /// Fx-hashed: the per-port MAC resolves once per transmitted packet.
    macs: FxHashMap<u16, MacPort>,
    recirc_next_free: SimTime,
    rng: StdRng,
    pending: Vec<Option<SimPacket>>,
    free_slots: Vec<usize>,
    uid_next: u64,
    exec_mode: ExecMode,
    compiled_ingress: Option<exec::CompiledPipeline>,
    compiled_egress: Option<exec::CompiledPipeline>,
    /// Vector-mode lane plan over the compiled ingress program; `None`
    /// when the program has a vector hazard (falls back to per-packet
    /// compiled execution).
    vector: Option<exec::VectorPlan>,
    /// Reusable SoA lane buffer for vector batches.
    lane_batch: exec::LaneBatch,
    /// Admitted-packet staging for batched dispatch.
    batch_scratch: Vec<(SimPacket, u16, SimTime)>,
    mcast_scratch: Vec<McastMember>,
}

impl std::fmt::Debug for Switch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Switch")
            .field("name", &self.name)
            .field("ports", &self.macs.len())
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl Switch {
    /// Creates a switch with no ports and empty pipelines.
    pub fn new(name: &str, seed: u64) -> Self {
        Switch {
            name: name.to_string(),
            fields: FieldTable::new(),
            ingress: Pipeline::new(),
            egress: Pipeline::new(),
            regs: RegisterFile::new(),
            mcast: McastTable::new(),
            digests: Vec::new(),
            counters: SwitchCounters::default(),
            trace: TraceConfig::default(),
            log: TraceLog::default(),
            macs: FxHashMap::default(),
            recirc_next_free: 0,
            rng: StdRng::seed_from_u64(seed),
            pending: Vec::new(),
            free_slots: Vec::new(),
            uid_next: 1,
            exec_mode: ExecMode::Interp,
            compiled_ingress: None,
            compiled_egress: None,
            vector: None,
            lane_batch: exec::LaneBatch::new(),
            batch_scratch: Vec::new(),
            mcast_scratch: Vec::new(),
        }
    }

    /// Selects the pipeline executor.  [`ExecMode::Compiled`] lowers both
    /// pipelines into threaded-code programs ([`crate::exec`]) and runs
    /// packets through those; [`ExecMode::Interp`] discards the programs
    /// and falls back to per-stage interpretation.
    ///
    /// Contract: the compiled programs snapshot table entries, gateways and
    /// default actions at this call.  Installing or replacing entries after
    /// switching to `Compiled` desynchronizes the program from the live
    /// tables — finish populating the pipelines first (hit/miss counters
    /// keep updating either way; they are mirrored into the live tables).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
        match mode {
            ExecMode::Compiled => {
                self.compiled_ingress = Some(exec::compile(&self.ingress, &self.fields));
                self.compiled_egress = Some(exec::compile(&self.egress, &self.fields));
                self.vector = None;
            }
            ExecMode::Vector => {
                let ig = exec::compile(&self.ingress, &self.fields);
                let eg = exec::compile(&self.egress, &self.fields);
                // Programs with vector hazards (externs, RNG, digests,
                // aliased SALU registers) silently fall back to per-packet
                // compiled execution — semantics are identical either way.
                self.vector = exec::vector_plan(&ig, &eg, &self.fields).ok();
                self.compiled_ingress = Some(ig);
                self.compiled_egress = Some(eg);
            }
            ExecMode::Interp => {
                self.compiled_ingress = None;
                self.compiled_egress = None;
                self.vector = None;
            }
        }
    }

    /// Whether vector mode is active *and* the ingress program passed the
    /// vector-safety analysis (diagnostics/tests).
    pub fn vector_active(&self) -> bool {
        self.vector.is_some()
    }

    /// The currently selected pipeline executor.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Lowering statistics of the compiled ingress/egress programs, when
    /// compiled (`--profile` reporting).
    pub fn compile_stats(&self) -> Option<(exec::CompileStats, exec::CompileStats)> {
        Some((self.compiled_ingress.as_ref()?.stats(), self.compiled_egress.as_ref()?.stats()))
    }

    /// The switch name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an external port at `speed_bps`.
    pub fn add_port(&mut self, port: u16, speed_bps: u64) {
        assert!(port < RECIRC_PORT, "port id collides with internal ports");
        self.macs.insert(port, MacPort::new(speed_bps));
    }

    /// Puts a port into loopback mode (§6.1: extends recirculation capacity
    /// at the price of external bandwidth).
    pub fn set_loopback(&mut self, port: u16, on: bool) {
        self.macs.get_mut(&port).expect("unknown port").loopback = on;
    }

    /// Read access to a port MAC (counters, wire cursor).
    pub fn mac(&self, port: u16) -> &MacPort {
        &self.macs[&port]
    }

    /// The configured external port numbers, in unspecified order.  Used by
    /// static analysis to validate multicast-member port references.
    pub fn ports(&self) -> impl Iterator<Item = u16> + '_ {
        self.macs.keys().copied()
    }

    /// Builds a [`SimPacket`] from wire bytes, parsed with this switch's
    /// field table and given a fresh uid.
    pub fn make_packet(&mut self, bytes: Vec<u8>) -> SimPacket {
        let phv = parser::parse(&self.fields, &bytes).expect("unparsable frame");
        SimPacket { phv, body: None, uid: self.alloc_uid() }
    }

    /// Allocates a packet uid.
    pub fn alloc_uid(&mut self) -> u64 {
        let uid = self.uid_next;
        self.uid_next += 1;
        uid
    }

    /// How far into the future the recirculation path is booked — grows
    /// without bound when a task oversubscribes the accelerator.
    pub fn recirc_backlog(&self, now: SimTime) -> SimTime {
        self.recirc_next_free.saturating_sub(now)
    }

    fn jitter(&mut self, amplitude_ps: u64) -> i64 {
        if amplitude_ps == 0 {
            return 0;
        }
        self.rng.gen_range(-(amplitude_ps as i64)..=(amplitude_ps as i64))
    }

    /// Reclaims a stashed recirculating packet by wake token, recording
    /// the re-entry trace.
    fn unstash(&mut self, token: u64, now: SimTime) -> SimPacket {
        let slot = token as usize;
        let pkt = self.pending[slot].take().expect("spurious wake token");
        self.free_slots.push(slot);
        if self.trace.recirc {
            self.log.recirc.push((pkt.uid, now));
        }
        pkt
    }

    fn stash(&mut self, pkt: SimPacket) -> u64 {
        if let Some(slot) = self.free_slots.pop() {
            self.pending[slot] = Some(pkt);
            slot as u64
        } else {
            self.pending.push(Some(pkt));
            (self.pending.len() - 1) as u64
        }
    }

    fn reset_metadata(phv: &mut Phv, ft: &FieldTable, in_port: u16, now: SimTime) {
        // `meta.template_id` deliberately survives — carried in the
        // internal recirculation/PCIe header on real targets.
        phv.set_batch(
            ft,
            &[
                (fields::IG_PORT, u64::from(in_port)),
                (fields::IG_TS, now),
                (fields::EG_TS, 0),
                (fields::EG_PORT, PORT_UNSET),
                (fields::MCAST_GRP, 0),
                (fields::RID, 0),
                (fields::RECIRC_FLAG, 0),
                (fields::DROP_FLAG, 0),
            ],
        );
    }

    /// Parser-side admission: counts the frame, clears stale template ids
    /// on front-panel arrivals, and resets the per-traversal metadata.
    #[inline]
    fn ingress_prepare(&mut self, pkt: &mut SimPacket, in_port: u16, now: SimTime) {
        self.counters.rx_frames += 1;
        // `meta.template_id` rides an internal header on the recirculation
        // and PCIe paths only; a frame arriving on a front-panel port has no
        // such header, so any stale value from a previous switch traversal
        // is cleared.
        if in_port < RECIRC_PORT && in_port != CPU_PORT {
            pkt.phv.set(&self.fields, fields::TEMPLATE_ID, 0);
        }
        // Packets built by other devices carry PHVs sized to *their* field
        // tables; grow to this program's width (metadata starts cleared).
        pkt.phv.grow_to(self.fields.len());
        Self::reset_metadata(&mut pkt.phv, &self.fields, in_port, now);
    }

    /// One per-packet pass of the ingress pipeline (compiled or
    /// interpreted).
    #[inline]
    fn run_ingress(&mut self, pkt: &mut SimPacket, now: SimTime) {
        let mut ctx = ExecCtx {
            table: &self.fields,
            regs: &mut self.regs,
            rng: &mut self.rng,
            digests: &mut self.digests,
            now,
        };
        if let Some(prog) = &self.compiled_ingress {
            let n = exec::run(prog, &mut self.ingress, &mut pkt.phv, &mut ctx);
            crate::sim::metrics::record_ops(n);
        } else {
            self.ingress.execute(&mut pkt.phv, &mut ctx);
        }
    }

    /// Everything after ingress: drop check, traffic manager, multicast
    /// replication, recirculation and unicast egress.
    #[inline]
    fn post_ingress(&mut self, pkt: SimPacket, now: SimTime, out: &mut Outbox) {
        if pkt.phv.get(fields::DROP_FLAG) != 0 {
            self.counters.ingress_drops += 1;
            return;
        }
        let t_tm = now + timing::PARSER_LATENCY + timing::PIPELINE_LATENCY;

        // Multicast replication.
        let grp = pkt.phv.get(fields::MCAST_GRP) as u16;
        if grp != 0 {
            let mut members = std::mem::take(&mut self.mcast_scratch);
            self.mcast.members_into(grp, &mut members);
            let len = pkt.len();
            for &m in &members {
                let mut rep = pkt.clone();
                rep.uid = self.alloc_uid();
                rep.phv.set_batch(
                    &self.fields,
                    &[
                        (fields::RID, u64::from(m.rid)),
                        (fields::MCAST_GRP, 0),
                        (fields::RECIRC_FLAG, 0),
                        (fields::EG_PORT, u64::from(m.port)),
                    ],
                );
                let j = self.jitter(timing::MCAST_JITTER_PS);
                let t_eg = (t_tm + timing::mcast_delay(len)).saturating_add_signed(j);
                self.counters.mcast_replicas += 1;
                if self.trace.mcast {
                    self.log.mcast.push((rep.uid, t_tm, t_eg));
                }
                self.run_egress(rep, m.port, t_eg, out);
            }
            self.mcast_scratch = members;
        }

        // Unicast / recirculation continuation of the original packet.
        if pkt.phv.get(fields::RECIRC_FLAG) != 0 {
            self.run_egress_to_recirc(pkt, t_tm + timing::TM_UNICAST_LATENCY, out);
        } else {
            let eg = pkt.phv.get(fields::EG_PORT);
            if eg == PORT_UNSET {
                // No destination and not recirculating: the TM discards it.
                self.counters.ingress_drops += 1;
            } else {
                self.run_egress(pkt, eg as u16, t_tm + timing::TM_UNICAST_LATENCY, out);
            }
        }
    }

    /// Runs a packet through ingress, the traffic manager and all egress
    /// paths.  Public so microbenchmarks can drive the switch without a
    /// full [`crate::sim::World`].
    pub fn process(&mut self, mut pkt: SimPacket, in_port: u16, now: SimTime, out: &mut Outbox) {
        self.ingress_prepare(&mut pkt, in_port, now);
        self.run_ingress(&mut pkt, now);
        self.post_ingress(pkt, now, out);
    }

    /// Egress pipeline + MAC transmission toward an external port.
    fn run_egress(&mut self, mut pkt: SimPacket, port: u16, t_start: SimTime, out: &mut Outbox) {
        {
            let mut ctx = ExecCtx {
                table: &self.fields,
                regs: &mut self.regs,
                rng: &mut self.rng,
                digests: &mut self.digests,
                now: t_start,
            };
            if let Some(prog) = &self.compiled_egress {
                let n = exec::run(prog, &mut self.egress, &mut pkt.phv, &mut ctx);
                crate::sim::metrics::record_ops(n);
            } else {
                self.egress.execute(&mut pkt.phv, &mut ctx);
            }
        }
        if pkt.phv.get(fields::DROP_FLAG) != 0 {
            self.counters.egress_drops += 1;
            return;
        }
        let len = pkt.len();
        let t_ready = t_start + timing::PIPELINE_LATENCY + timing::DEPARSER_LATENCY;
        let Some(mac) = self.macs.get_mut(&port) else {
            self.counters.egress_drops += 1;
            return;
        };
        let (ser_start, ser_end) = mac.transmit(len, t_ready);
        let loopback = mac.loopback;
        pkt.phv.set(&self.fields, fields::EG_TS, ser_start);
        self.counters.tx_frames += 1;
        if self.trace.tx {
            self.log.tx.push(TxRecord {
                port,
                uid: pkt.uid,
                at: ser_start,
                len: len as u16,
                template_id: pkt.template_id(),
            });
        }
        if loopback {
            // The frame leaves the MAC and re-enters the ingress parser,
            // with the same loop latency as the internal recirc path.
            let j = self.jitter(timing::RECIRC_JITTER_PS);
            let re_entry = (ser_start
                + timing::RECIRC_LOOP_FIXED
                + len as u64 * timing::RECIRC_LOOP_PER_BYTE_PS)
                .saturating_add_signed(j);
            self.counters.recirculations += 1;
            let token = self.stash(pkt);
            out.wake_at(token, re_entry);
        } else {
            out.emit(port, pkt, ser_end);
        }
    }

    /// Egress pipeline + the internal recirculation path back to ingress.
    fn run_egress_to_recirc(&mut self, mut pkt: SimPacket, t_start: SimTime, out: &mut Outbox) {
        {
            let mut ctx = ExecCtx {
                table: &self.fields,
                regs: &mut self.regs,
                rng: &mut self.rng,
                digests: &mut self.digests,
                now: t_start,
            };
            if let Some(prog) = &self.compiled_egress {
                let n = exec::run(prog, &mut self.egress, &mut pkt.phv, &mut ctx);
                crate::sim::metrics::record_ops(n);
            } else {
                self.egress.execute(&mut pkt.phv, &mut ctx);
            }
        }
        if pkt.phv.get(fields::DROP_FLAG) != 0 {
            self.counters.egress_drops += 1;
            return;
        }
        let len = pkt.len();
        let t_ready = t_start + timing::PIPELINE_LATENCY + timing::DEPARSER_LATENCY;
        let ser_start = t_ready.max(self.recirc_next_free);
        self.recirc_next_free = ser_start + timing::recirc_occupancy(len);
        let j = self.jitter(timing::RECIRC_JITTER_PS);
        let re_entry =
            (ser_start + timing::RECIRC_LOOP_FIXED + len as u64 * timing::RECIRC_LOOP_PER_BYTE_PS)
                .saturating_add_signed(j);
        self.counters.recirculations += 1;
        let token = self.stash(pkt);
        out.wake_at(token, re_entry);
    }
}

impl Device for Switch {
    fn name(&self) -> &str {
        &self.name
    }

    fn rx(&mut self, port: u16, pkt: SimPacket, now: SimTime, out: &mut Outbox) {
        self.process(pkt, port, now, out);
    }

    fn device_kind(&self) -> DeviceKind {
        DeviceKind::Switch
    }

    fn wake(&mut self, token: u64, now: SimTime, out: &mut Outbox) {
        let pkt = self.unstash(token, now);
        self.process(pkt, RECIRC_PORT, now, out);
    }

    fn rx_batch(&mut self, items: &mut Vec<crate::sim::BatchItem>, now: SimTime, out: &mut Outbox) {
        use crate::sim::BatchItem;
        let _ = now;
        if self.vector.is_none() || items.len() < 2 {
            for item in items.drain(..) {
                match item {
                    BatchItem::Deliver { port, pkt, at } => self.rx(port, pkt, at, out),
                    BatchItem::Wake { token, at } => self.wake(token, at, out),
                }
                out.checkpoint();
            }
            return;
        }
        // Phase A — admit every item through the parser in event order:
        // frame counting, template clearing, recirculation unstash and
        // per-item metadata reset all observe the serial order.
        let mut staged = std::mem::take(&mut self.batch_scratch);
        staged.clear();
        for item in items.drain(..) {
            let (mut pkt, port, at) = match item {
                BatchItem::Deliver { port, pkt, at } => (pkt, port, at),
                BatchItem::Wake { token, at } => (self.unstash(token, at), RECIRC_PORT, at),
            };
            self.ingress_prepare(&mut pkt, port, at);
            staged.push((pkt, port, at));
        }
        // Phase B — one op-at-a-time ingress pass over all lanes.  The
        // vector plan guarantees this is observationally identical to
        // per-packet execution: no RNG draws, no digests, and every
        // register behind a single SALU site visiting lanes in packet
        // order.
        let plan = self.vector.take().expect("vector plan checked above");
        let prog = self.compiled_ingress.take().expect("vector mode compiles ingress");
        let n = staged.len();
        self.lane_batch.begin(&plan, n);
        for (lane, (pkt, _, _)) in staged.iter().enumerate() {
            self.lane_batch.load(&plan, lane, &pkt.phv);
        }
        let retired = exec::run_vector(
            &prog,
            &plan,
            &mut self.ingress,
            &mut self.regs,
            &self.fields,
            &mut self.lane_batch,
        );
        crate::sim::metrics::record_ops(retired);
        crate::sim::metrics::record_vector_dispatch(n as u64);
        for (lane, (pkt, _, _)) in staged.iter_mut().enumerate() {
            self.lane_batch.store(&plan, lane, &mut pkt.phv);
        }
        self.compiled_ingress = Some(prog);
        self.vector = Some(plan);
        // Phase C — per-packet continuation in event order: drop
        // accounting, TM, multicast replication (uid and jitter draws),
        // recirculation and egress, with one checkpoint per item so the
        // flush assigns the same event keys as serial dispatch.
        for (pkt, _, at) in staged.drain(..) {
            self.post_ingress(pkt, at, out);
            out.checkpoint();
        }
        self.batch_scratch = staged;
    }

    fn lookahead(&self) -> SimTime {
        // Tightest exit path from an input event: unicast traversal
        // parser → ingress → TM → egress → deparser, after which the MAC
        // serializes (`ser_end` is strictly later still).  Every other
        // path is slower: recirculation and loopback add the loop
        // latency (119 168 ps ± 4 000 ps jitter) on top of this sum, and
        // multicast replicas leave the TM no earlier than
        // `PARSER + PIPELINE + MCAST_BASE_DELAY − jitter` before running
        // a full egress pass of their own.
        timing::PARSER_LATENCY
            + timing::PIPELINE_LATENCY
            + timing::TM_UNICAST_LATENCY
            + timing::PIPELINE_LATENCY
            + timing::DEPARSER_LATENCY
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionSet, PrimitiveOp};
    use crate::sim::World;
    use crate::table::{MatchKind, Table};
    use ht_packet::wire::gbps;
    use ht_packet::{Ipv4Address, PacketBuilder};

    fn udp_frame(len: usize) -> Vec<u8> {
        PacketBuilder::new()
            .ipv4(Ipv4Address::new(10, 0, 0, 1), Ipv4Address::new(10, 0, 0, 2))
            .udp(1, 1)
            .frame_len(len)
            .build()
    }

    /// A switch whose ingress forwards everything to port `p`.
    fn forwarding_switch(p: u16) -> Switch {
        let mut sw = Switch::new("sw", 1);
        sw.add_port(p, gbps(100));
        let tbl = Table::new(
            "fwd",
            MatchKind::Exact,
            vec![fields::IG_PORT],
            4,
            ActionSet::new("to_port", vec![PrimitiveOp::SetEgressPort(p)]),
        );
        sw.ingress.push_table(tbl);
        sw
    }

    #[test]
    fn forwarded_packet_leaves_with_pipeline_latency() {
        let mut sw = forwarding_switch(0);
        sw.trace.tx = true;
        let pkt = sw.make_packet(udp_frame(64));
        let mut out = Outbox::default();
        sw.process(pkt, 5, 1_000_000, &mut out);
        assert_eq!(out.emits.len(), 1);
        let (port, _, at) = &out.emits[0];
        assert_eq!(*port, 0);
        // parser + ingress + TM + egress + deparser + serialization.
        let expected = 1_000_000
            + timing::PARSER_LATENCY
            + timing::PIPELINE_LATENCY
            + timing::TM_UNICAST_LATENCY
            + timing::PIPELINE_LATENCY
            + timing::DEPARSER_LATENCY
            + ht_packet::wire::wire_time_ps(64, gbps(100));
        assert_eq!(*at, expected);
        assert_eq!(sw.counters.tx_frames, 1);
        assert_eq!(sw.log.tx.len(), 1);
    }

    #[test]
    fn packet_without_destination_is_dropped() {
        let mut sw = Switch::new("sw", 1);
        sw.add_port(0, gbps(100));
        let pkt = sw.make_packet(udp_frame(64));
        let mut out = Outbox::default();
        sw.process(pkt, 0, 0, &mut out);
        assert!(out.emits.is_empty());
        assert_eq!(sw.counters.ingress_drops, 1);
    }

    #[test]
    fn explicit_drop_in_ingress() {
        let mut sw = Switch::new("sw", 1);
        sw.add_port(0, gbps(100));
        let tbl = Table::new(
            "drop_all",
            MatchKind::Exact,
            vec![fields::IG_PORT],
            4,
            ActionSet::new("drop", vec![PrimitiveOp::Drop]),
        );
        sw.ingress.push_table(tbl);
        let pkt = sw.make_packet(udp_frame(64));
        let mut out = Outbox::default();
        sw.process(pkt, 0, 0, &mut out);
        assert_eq!(sw.counters.ingress_drops, 1);
        assert!(out.emits.is_empty());
    }

    #[test]
    fn mcast_replicates_to_all_members_with_rids() {
        let mut sw = Switch::new("sw", 1);
        for p in 0..3 {
            sw.add_port(p, gbps(100));
        }
        sw.mcast.set_group(
            7,
            (0..3).map(|p| crate::tm::McastMember { port: p, rid: p + 10 }).collect(),
        );
        let tbl = Table::new(
            "mc",
            MatchKind::Exact,
            vec![fields::IG_PORT],
            4,
            ActionSet::new("to_grp", vec![PrimitiveOp::SetMcastGroup(7)]),
        );
        sw.ingress.push_table(tbl);
        sw.trace.tx = true;

        let pkt = sw.make_packet(udp_frame(64));
        let mut out = Outbox::default();
        sw.process(pkt, 0, 0, &mut out);
        assert_eq!(out.emits.len(), 3);
        assert_eq!(sw.counters.mcast_replicas, 3);
        let mut ports: Vec<u16> = out.emits.iter().map(|e| e.0).collect();
        ports.sort_unstable();
        assert_eq!(ports, vec![0, 1, 2]);
        // Replica departure includes the mcast-engine delay.
        let min_at = out.emits.iter().map(|e| e.2).min().unwrap();
        assert!(min_at >= timing::mcast_delay(64));
    }

    #[test]
    fn recirculated_template_loops_with_calibrated_rtt() {
        let mut sw = Switch::new("sw", 42);
        sw.add_port(0, gbps(100));
        let tbl = Table::new(
            "recirc_all",
            MatchKind::Exact,
            vec![fields::IG_PORT],
            4,
            ActionSet::new("recirc", vec![PrimitiveOp::Recirculate]),
        );
        sw.ingress.push_table(tbl);
        sw.trace.recirc = true;

        let mut w = World::builder().seed(1).build().unwrap();
        let pkt = sw.make_packet(udp_frame(64));
        let sw_id = w.add_device(Box::new(sw));
        w.schedule_rx(sw_id, CPU_PORT, pkt, 0);
        // Run 100 µs ≈ 175 loops.
        w.run_until(crate::time::us(100));

        let sw = w.device::<Switch>(sw_id);
        let times: Vec<SimTime> = sw.log.recirc.iter().map(|&(_, t)| t).collect();
        assert!(times.len() > 100, "only {} loops", times.len());
        let rtts: Vec<f64> = times.windows(2).map(|w| (w[1] - w[0]) as f64 / 1000.0).collect();
        let mean = rtts.iter().sum::<f64>() / rtts.len() as f64;
        assert!((mean - 570.0).abs() < 2.0, "mean RTT {mean} ns");
    }

    #[test]
    fn compiled_and_interpreted_switch_traversals_are_identical() {
        use crate::table::MatchKey;
        // Mixes multicast replication (jittered, draws from the shared
        // RNG), RngUniform (also draws), recirculation and plain unicast,
        // so any executor divergence in op semantics or RNG draw order
        // shows up in the compared state.
        let run = |mode: ExecMode| {
            let mut sw = Switch::new("sw", 7);
            for p in 0..3 {
                sw.add_port(p, gbps(100));
            }
            sw.mcast.set_group(
                5,
                (0..3).map(|p| crate::tm::McastMember { port: p, rid: p + 1 }).collect(),
            );
            let mut route = Table::new(
                "route",
                MatchKind::Exact,
                vec![fields::IG_PORT],
                8,
                ActionSet::new("mc", vec![PrimitiveOp::SetMcastGroup(5)]),
            );
            route
                .insert(
                    MatchKey::Exact(vec![u64::from(CPU_PORT)]),
                    ActionSet::new(
                        "jitter_fwd",
                        vec![
                            PrimitiveOp::RngUniform { dst: fields::IPV4_IDENT, bits: 8, offset: 0 },
                            PrimitiveOp::SetEgressPort(1),
                        ],
                    ),
                    0,
                )
                .unwrap();
            sw.ingress.push_table(route);
            sw.trace.tx = true;
            sw.set_exec_mode(mode);
            assert_eq!(sw.exec_mode(), mode);
            let mut out = Outbox::default();
            for i in 0..8u64 {
                let pkt = sw.make_packet(udp_frame(64 + i as usize * 10));
                let port = if i % 2 == 0 { CPU_PORT } else { 2 };
                sw.process(pkt, port, 1_000 * i, &mut out);
            }
            let emitted: Vec<(u16, u64, Phv, SimTime)> =
                out.emits.iter().map(|e| (e.0, e.1.uid, e.1.phv.clone(), e.2)).collect();
            (sw.counters, sw.log.tx.clone(), emitted)
        };
        assert_eq!(run(ExecMode::Interp), run(ExecMode::Compiled));
    }

    #[test]
    fn loopback_port_returns_packets_to_ingress() {
        let mut sw = Switch::new("sw", 1);
        sw.add_port(0, gbps(100));
        sw.set_loopback(0, true);
        let tbl = Table::new(
            "fwd",
            MatchKind::Exact,
            vec![fields::IG_PORT],
            4,
            ActionSet::new("to0", vec![PrimitiveOp::SetEgressPort(0)]),
        );
        sw.ingress.push_table(tbl);

        let mut w = World::builder().seed(1).build().unwrap();
        let pkt = sw.make_packet(udp_frame(64));
        let sw_id = w.add_device(Box::new(sw));
        w.schedule_rx(sw_id, CPU_PORT, pkt, 0);
        w.run_until(crate::time::us(10));
        let sw = w.device::<Switch>(sw_id);
        assert!(sw.counters.recirculations > 10);
        assert_eq!(w.stats.dangling_emits, 0, "loopback frames must not leave the switch");
    }
}
