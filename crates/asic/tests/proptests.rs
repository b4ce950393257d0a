//! Property-based tests for the ASIC simulator's core invariants.

use ht_asic::action::{ActionSet, PrimitiveOp};
use ht_asic::phv::{fields, mask_for, FieldId, FieldTable, Phv};
use ht_asic::register::{
    Cmp, CondExpr, RegId, RegisterFile, SaluCond, SaluOperand, SaluOutput, SaluOutputSrc,
    SaluProgram, SaluUpdate, WrapEvent, WRAP_LOG_CAP,
};
use ht_asic::sim::{Outbox, World};
use ht_asic::switch::{Switch, CPU_PORT};
use ht_asic::table::{MatchKey, MatchKind, Table};
use ht_packet::wire::gbps;
use ht_packet::{Ipv4Address, PacketBuilder};
use proptest::prelude::*;

proptest! {
    /// PHV writes always respect field widths, for every standard field.
    #[test]
    fn phv_values_never_exceed_width(field in 0u16..fields::STANDARD_COUNT, value in any::<u64>()) {
        let t = FieldTable::new();
        let mut phv = t.new_phv();
        let id = FieldId(field);
        phv.set(&t, id, value);
        prop_assert!(phv.get(id) <= mask_for(t.width(id)));
        prop_assert_eq!(phv.get(id), value & mask_for(t.width(id)));
    }

    /// SALU fetch-add over arbitrary sequences equals a software counter
    /// that wraps at the register width.
    #[test]
    fn salu_counter_matches_oracle(width in 4u32..32, ops in 1usize..200) {
        let mut t = FieldTable::new();
        let dst = t.intern("meta.out", 32);
        let mut phv = t.new_phv();
        let mut rf = RegisterFile::new();
        let r = rf.alloc("ctr", width, 4);
        let prog = SaluProgram::fetch_add(dst);
        let mask = mask_for(width);
        let mut oracle: u64 = 0;
        for _ in 0..ops {
            let exported = rf.execute(r, 1, &prog, &mut phv, &t);
            prop_assert_eq!(exported, oracle);
            oracle = (oracle + 1) & mask;
        }
        prop_assert_eq!(rf.array(r).cp_read(1), oracle);
    }

    /// The guarded-increment SALU program (the FIFO rear guard) never lets
    /// the register exceed its bound.
    #[test]
    fn guarded_increment_never_exceeds_bound(bound in 1u64..50, ops in 1usize..200) {
        let mut t = FieldTable::new();
        let flag = t.intern("meta.flag", 1);
        let mut phv = t.new_phv();
        let mut rf = RegisterFile::new();
        let r = rf.alloc("rear", 32, 1);
        let prog = SaluProgram {
            condition: Some(SaluCond {
                expr: CondExpr::Reg,
                cmp: Cmp::Lt,
                rhs: SaluOperand::Const(bound),
            }),
            on_true: SaluUpdate::Add(SaluOperand::Const(1)),
            on_false: SaluUpdate::Keep,
            output: Some(SaluOutput { dst: flag, src: SaluOutputSrc::CondFlag }),
        };
        for _ in 0..ops {
            rf.execute(r, 0, &prog, &mut phv, &t);
            prop_assert!(rf.array(r).cp_read(0) <= bound);
        }
        prop_assert_eq!(rf.array(r).cp_read(0), bound.min(ops as u64));
    }

    /// Ternary tables with a catch-all always hit something, and the
    /// highest-priority matching entry wins regardless of insert order.
    #[test]
    fn ternary_priority_invariant(values in prop::collection::vec(0u64..1024, 1..20), probe in 0u64..1024) {
        let ft = FieldTable::new();
        let mut tbl = Table::new("t", MatchKind::Ternary, vec![fields::TCP_DPORT], 64, ActionSet::nop());
        // Catch-all at priority 0.
        tbl.insert(MatchKey::Ternary(vec![(0, 0)]),
                   ActionSet::new("all", vec![]), 0).unwrap();
        // Exact-value entries at priority = value (so the expected winner is
        // deterministic even with duplicates).
        for &v in &values {
            tbl.insert(MatchKey::Ternary(vec![(v, 0x3ff)]),
                       ActionSet::new(&format!("v{v}"), vec![]), 10 + v as i32).unwrap();
        }
        let mut phv = ft.new_phv();
        phv.set(&ft, fields::TCP_DPORT, probe);
        let hit = tbl.lookup(&phv).unwrap();
        if values.contains(&probe) {
            prop_assert_eq!(&hit.name, &format!("v{probe}"));
        } else {
            prop_assert_eq!(&hit.name, "all");
        }
    }

    /// MAC serializations never overlap and always take exactly the wire
    /// time, for arbitrary arrival patterns.
    #[test]
    fn mac_serializations_never_overlap(
        arrivals in prop::collection::vec(0u64..1_000_000u64, 1..50),
        len in 64usize..1518,
    ) {
        let mut mac = ht_asic::mac::MacPort::new(gbps(40));
        let mut arrivals = arrivals;
        arrivals.sort_unstable();
        let wire = ht_packet::wire::wire_time_ps(len, gbps(40));
        let mut prev_end = 0u64;
        for &a in &arrivals {
            let (s, e) = mac.transmit(len, a);
            prop_assert!(s >= prev_end, "overlap: start {s} < prev end {prev_end}");
            prop_assert!(s >= a);
            prop_assert_eq!(e - s, wire);
            prev_end = e;
        }
    }

    /// A forwarding switch transmits every injected packet exactly once and
    /// departure times are strictly monotone per port.
    #[test]
    fn switch_conserves_packets(n in 1usize..40, len in 64usize..512) {
        let mut sw = Switch::new("sw", 9);
        sw.add_port(0, gbps(100));
        sw.trace.tx = true;
        let tbl = Table::new("fwd", MatchKind::Exact, vec![fields::IG_PORT], 4,
            ActionSet::new("to0", vec![PrimitiveOp::SetEgressPort(0)]));
        sw.ingress.push_table(tbl);

        let frame = PacketBuilder::new()
            .ipv4(Ipv4Address::new(1, 0, 0, 1), Ipv4Address::new(1, 0, 0, 2))
            .udp(1, 1)
            .frame_len(len)
            .build();
        let mut out = Outbox::default();
        for i in 0..n {
            let pkt = sw.make_packet(frame.clone());
            sw.process(pkt, CPU_PORT, i as u64 * 1_000, &mut out);
        }
        prop_assert_eq!(out.emits.len(), n);
        prop_assert_eq!(sw.counters.tx_frames, n as u64);
        let times: Vec<u64> = sw.log.tx.iter().map(|r| r.at).collect();
        for w in times.windows(2) {
            prop_assert!(w[1] > w[0], "departures not monotone");
        }
    }

    /// World events never run backwards in time, even with random wakes.
    #[test]
    fn world_time_is_monotone(times in prop::collection::vec(0u64..1_000_000, 1..100)) {
        struct Nop;
        impl ht_asic::Device for Nop {
            fn name(&self) -> &str { "nop" }
            fn rx(&mut self, _: u16, _: ht_asic::SimPacket, _: u64, _: &mut Outbox) {}
            fn as_any(&self) -> &dyn std::any::Any { self }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
        }
        let mut w = World::builder().seed(3).build().unwrap();
        let d = w.add_device(Box::new(Nop));
        for (i, &t) in times.iter().enumerate() {
            w.schedule_wake(d, i as u64, t);
        }
        let mut prev = 0;
        while w.step() {
            prop_assert!(w.now() >= prev);
            prev = w.now();
        }
    }

    /// Allocate-on-write storage is invisible: random scripts of
    /// control-plane reads/writes and SALU programs (every condition form,
    /// comparison, update and export) give the same exported values, PHV
    /// writes, slot contents and wrap trace as an eagerly zeroed
    /// reference, and only arrays that were written become resident.
    #[test]
    fn lazy_registers_match_eager_reference(
        script in prop::collection::vec(
            (0u8..3, 0usize..3, 0u64..40, any::<u64>(), any::<u64>(), (any::<u64>(), any::<u64>())),
            1..300,
        )
    ) {
        let mut t = FieldTable::new();
        let (fa, fb) = (t.intern("meta.a", 64), t.intern("meta.b", 16));
        let outs = [t.intern("meta.out", 32), t.intern("meta.out8", 8)];
        let (mut phv, mut ref_phv) = (t.new_phv(), t.new_phv());
        let mut rf = RegisterFile::new();
        rf.set_trace_wraps(true);
        let shapes = [(8u32, 1usize), (32, 5), (64, 16)];
        let ids: Vec<RegId> =
            shapes.iter().map(|&(w, d)| rf.alloc(&format!("r{w}"), w, d)).collect();
        let mut reference = EagerRegisters::new(&shapes);
        let mut written = [false; 3];

        for (kind, a, idx, value, bits, (va, vb)) in script {
            match kind {
                0 => prop_assert_eq!(
                    rf.array(ids[a]).cp_read(idx as usize),
                    reference.slots[a][idx as usize % shapes[a].1]
                ),
                1 => {
                    rf.array_mut(ids[a]).cp_write(idx as usize, value);
                    reference.slots[a][idx as usize % shapes[a].1] = value & mask_for(shapes[a].0);
                    written[a] = true;
                }
                _ => {
                    for p in [&mut phv, &mut ref_phv] {
                        p.set(&t, fa, va);
                        p.set(&t, fb, vb);
                    }
                    let prog = decode_program(bits, value, fa, fb, outs);
                    let got = rf.execute(ids[a], idx, &prog, &mut phv, &t);
                    let want = reference.execute(a, ids[a], idx, &prog, &mut ref_phv, &t);
                    prop_assert_eq!(got, want);
                    for f in [fa, fb, outs[0], outs[1]] {
                        prop_assert_eq!(phv.get(f), ref_phv.get(f));
                    }
                    written[a] = true;
                }
            }
        }
        prop_assert_eq!(rf.wraps(), reference.wraps);
        prop_assert_eq!(rf.wrap_log(), reference.log.as_slice());
        let mut resident = 0;
        for (a, &(_, depth)) in shapes.iter().enumerate() {
            for i in 0..depth {
                prop_assert_eq!(rf.array(ids[a]).cp_read(i), reference.slots[a][i]);
            }
            if written[a] {
                resident += depth * 8;
            }
        }
        prop_assert_eq!(rf.resident_bytes(), resident);
    }
}

/// Builds a SALU program from random bits, reaching every variant.
fn decode_program(
    mut bits: u64,
    value: u64,
    fa: FieldId,
    fb: FieldId,
    outs: [FieldId; 2],
) -> SaluProgram {
    let mut take = |n: u64| {
        let v = bits % n;
        bits /= n;
        v
    };
    let operand = |sel: u64| match sel {
        0 => SaluOperand::Const(value & 0xff),
        1 => SaluOperand::Const(value),
        2 => SaluOperand::Field(fa),
        _ => SaluOperand::Field(fb),
    };
    let cmps = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];
    let condition = match take(5) {
        0 => None,
        e => {
            let op = operand(take(4));
            let expr = match e {
                1 => CondExpr::Reg,
                2 => CondExpr::Operand(op),
                3 => CondExpr::OperandMinusReg(op),
                _ => CondExpr::RegMinusOperand(op),
            };
            let cmp = cmps[take(6) as usize];
            Some(SaluCond { expr, cmp, rhs: operand(take(4)) })
        }
    };
    let update = |sel: u64, op: SaluOperand| match sel {
        0 => SaluUpdate::Keep,
        1 => SaluUpdate::Set(op),
        2 => SaluUpdate::Add(op),
        _ => SaluUpdate::Sub(op),
    };
    let (t_sel, t_op, f_sel, f_op) = (take(4), take(4), take(4), take(4));
    let on_true = update(t_sel, operand(t_op));
    let on_false = update(f_sel, operand(f_op));
    let output = match take(4) {
        0 => None,
        s => {
            let src = [SaluOutputSrc::OldValue, SaluOutputSrc::NewValue, SaluOutputSrc::CondFlag]
                [s as usize - 1];
            Some(SaluOutput { dst: outs[take(2) as usize], src })
        }
    };
    SaluProgram { condition, on_true, on_false, output }
}

/// Eagerly zeroed register arrays with SALU semantics written out from
/// the definitions: updates are computed exactly in `i128` and reduced
/// modulo the lane, and a wrap is any update whose exact result differs
/// from its reduction.
struct EagerRegisters {
    widths: Vec<u32>,
    slots: Vec<Vec<u64>>,
    wraps: u64,
    log: Vec<WrapEvent>,
}

impl EagerRegisters {
    fn new(shapes: &[(u32, usize)]) -> Self {
        EagerRegisters {
            widths: shapes.iter().map(|s| s.0).collect(),
            slots: shapes.iter().map(|s| vec![0; s.1]).collect(),
            wraps: 0,
            log: Vec::new(),
        }
    }

    fn execute(
        &mut self,
        a: usize,
        id: RegId,
        idx: u64,
        prog: &SaluProgram,
        phv: &mut Phv,
        t: &FieldTable,
    ) -> u64 {
        let mask = mask_for(self.widths[a]);
        let slot = idx as usize % self.slots[a].len();
        let old = self.slots[a][slot];
        let eval = |op: SaluOperand, phv: &Phv| match op {
            SaluOperand::Const(c) => c,
            SaluOperand::Field(f) => phv.get(f),
        };
        let cond = prog.condition.is_none_or(|c| {
            let lhs = match c.expr {
                CondExpr::Reg => old,
                CondExpr::Operand(o) => eval(o, phv) & mask,
                CondExpr::OperandMinusReg(o) => eval(o, phv).wrapping_sub(old) & mask,
                CondExpr::RegMinusOperand(o) => old.wrapping_sub(eval(o, phv)) & mask,
            };
            let rhs = eval(c.rhs, phv) & mask;
            match c.cmp {
                Cmp::Eq => lhs == rhs,
                Cmp::Ne => lhs != rhs,
                Cmp::Lt => lhs < rhs,
                Cmp::Le => lhs <= rhs,
                Cmp::Gt => lhs > rhs,
                Cmp::Ge => lhs >= rhs,
            }
        });
        let exact = match if cond { prog.on_true } else { prog.on_false } {
            SaluUpdate::Keep => i128::from(old),
            SaluUpdate::Set(o) => i128::from(eval(o, phv)),
            SaluUpdate::Add(o) => i128::from(old) + i128::from(eval(o, phv)),
            SaluUpdate::Sub(o) => i128::from(old) - i128::from(eval(o, phv)),
        };
        let new = exact.rem_euclid(i128::from(mask) + 1) as u64;
        if i128::from(new) != exact {
            self.wraps += 1;
            if self.log.len() < WRAP_LOG_CAP {
                self.log.push(WrapEvent { reg: id, slot });
            }
        }
        self.slots[a][slot] = new;
        match prog.output {
            None => new,
            Some(out) => {
                let v = match out.src {
                    SaluOutputSrc::OldValue => old,
                    SaluOutputSrc::NewValue => new,
                    SaluOutputSrc::CondFlag => u64::from(cond),
                };
                phv.set(t, out.dst, v);
                v
            }
        }
    }
}
