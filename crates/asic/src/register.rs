//! Register arrays and the stateful ALU (SALU).
//!
//! Tofino exposes per-stage register arrays that a packet may access **once**
//! in a read-modify-write operation programmed into a small stateful ALU:
//! an optional comparison selects between two update expressions, and either
//! the pre-update or post-update value (or the comparison flag) can be
//! exported to a PHV field.  That single-access constraint is the reason the
//! paper's FIFO (Fig. 7) and cuckoo pipeline (Fig. 5) are laid out the way
//! they are, so the reproduction models registers through exactly this
//! interface: [`RegisterFile::execute`] is the only way the pipeline touches
//! register state.
//!
//! HyperTester's uses of SALUs:
//! * the replicator's rate-control timer — `if now − last ≥ interval { last = now }`,
//!   exporting the condition flag ("fire");
//! * the editor's per-template packet-id counters — unconditional `+1`,
//!   exporting the old value;
//! * the counter-based query engine's key/counter arrays;
//! * the FIFO front/rear counters, with the rear update guarded by the front
//!   value to prevent underflow.

use crate::phv::{mask_for, FieldId, FieldTable, Phv};

/// Identifies a register array within a [`RegisterFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegId(pub u16);

/// An operand of a SALU expression: a constant or a PHV field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaluOperand {
    /// An immediate constant.
    Const(u64),
    /// The value of a PHV field at execution time.
    Field(FieldId),
}

impl SaluOperand {
    fn eval<A: SaluAccess + ?Sized>(&self, phv: &A) -> u64 {
        match *self {
            SaluOperand::Const(c) => c,
            SaluOperand::Field(f) => phv.get(f),
        }
    }
}

/// Field access as the SALU sees it — implemented by [`Phv`] (the scalar
/// executors) and by the vector executor's lane views, so one
/// [`RegisterFile::execute_on`] body serves both and their semantics
/// cannot drift.
pub trait SaluAccess {
    /// Reads a field.
    fn get(&self, f: FieldId) -> u64;
    /// Writes a field, masking to its declared width.
    fn set(&mut self, table: &FieldTable, f: FieldId, v: u64);
}

impl SaluAccess for Phv {
    #[inline]
    fn get(&self, f: FieldId) -> u64 {
        Phv::get(self, f)
    }

    #[inline]
    fn set(&mut self, table: &FieldTable, f: FieldId, v: u64) {
        Phv::set(self, table, f, v);
    }
}

/// Left-hand side of the SALU comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondExpr {
    /// The stored register value.
    Reg,
    /// An operand alone.
    Operand(SaluOperand),
    /// `operand − reg` (wrapping, masked to the register width) — the form
    /// the rate-control timer uses with a timestamp operand.
    OperandMinusReg(SaluOperand),
    /// `reg − operand` (wrapping, masked).
    RegMinusOperand(SaluOperand),
}

/// Comparison operators available to the SALU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl Cmp {
    pub(crate) fn test(&self, lhs: u64, rhs: u64) -> bool {
        match self {
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
        }
    }
}

/// The SALU predicate: `expr cmp rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaluCond {
    /// Left-hand expression.
    pub expr: CondExpr,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand operand.
    pub rhs: SaluOperand,
}

/// Register update expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaluUpdate {
    /// Leave the stored value unchanged.
    Keep,
    /// Store the operand.
    Set(SaluOperand),
    /// Add the operand (wrapping, masked to the register width).
    Add(SaluOperand),
    /// Subtract the operand (wrapping, masked).
    Sub(SaluOperand),
}

impl SaluUpdate {
    fn apply<A: SaluAccess + ?Sized>(&self, old: u64, phv: &A, mask: u64) -> u64 {
        match *self {
            SaluUpdate::Keep => old,
            SaluUpdate::Set(op) => op.eval(phv) & mask,
            SaluUpdate::Add(op) => old.wrapping_add(op.eval(phv)) & mask,
            SaluUpdate::Sub(op) => old.wrapping_sub(op.eval(phv)) & mask,
        }
    }
}

/// What the SALU exports to the PHV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaluOutputSrc {
    /// The value before the update.
    OldValue,
    /// The value after the update.
    NewValue,
    /// 1 when the condition held, else 0.
    CondFlag,
}

/// Output configuration: write `src` into PHV field `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaluOutput {
    /// Destination PHV field.
    pub dst: FieldId,
    /// Which value to export.
    pub src: SaluOutputSrc,
}

/// A complete SALU program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaluProgram {
    /// Optional predicate; `None` behaves as always-true.
    pub condition: Option<SaluCond>,
    /// Update applied when the predicate holds (or unconditionally).
    pub on_true: SaluUpdate,
    /// Update applied when the predicate fails.
    pub on_false: SaluUpdate,
    /// Optional PHV export.
    pub output: Option<SaluOutput>,
}

impl SaluProgram {
    /// An unconditional read: keeps the value, exports the old value.
    pub fn read(dst: FieldId) -> Self {
        SaluProgram {
            condition: None,
            on_true: SaluUpdate::Keep,
            on_false: SaluUpdate::Keep,
            output: Some(SaluOutput { dst, src: SaluOutputSrc::OldValue }),
        }
    }

    /// An unconditional write of an operand, with no export.
    pub fn write(value: SaluOperand) -> Self {
        SaluProgram {
            condition: None,
            on_true: SaluUpdate::Set(value),
            on_false: SaluUpdate::Set(value),
            output: None,
        }
    }

    /// `reg += 1`, exporting the pre-increment value — the paper's FIFO
    /// `update` operation and the editor's packet-id counter.
    pub fn fetch_add(dst: FieldId) -> Self {
        SaluProgram {
            condition: None,
            on_true: SaluUpdate::Add(SaluOperand::Const(1)),
            on_false: SaluUpdate::Add(SaluOperand::Const(1)),
            output: Some(SaluOutput { dst, src: SaluOutputSrc::OldValue }),
        }
    }
}

/// One register array: `depth` slots of `width` bits.
///
/// # Storage
///
/// Like Tofino register memory, reserved at compile time, an array costs
/// nothing until written: the first [`cp_write`](Self::cp_write) or SALU
/// access ([`RegisterFile::execute_on`]) allocates its zeroed slots, and
/// until then every slot reads 0.  [`depth`](Self::depth) never changes.
#[derive(Debug, Clone)]
pub struct RegisterArray {
    name: String,
    width: u32,
    depth: usize,
    values: Vec<u64>,
}

impl RegisterArray {
    /// Declares an array of `depth` slots, all reading 0; no slot storage
    /// is allocated until the first write (see [Storage](Self#storage)).
    pub fn new(name: &str, width: u32, depth: usize) -> Self {
        assert!((1..=64).contains(&width), "register width out of range: {width}");
        assert!(depth > 0, "register depth must be positive");
        RegisterArray { name: name.to_string(), width, depth, values: Vec::new() }
    }

    /// The slot storage, allocated zeroed on first use.
    #[inline]
    fn slots_mut(&mut self) -> &mut [u64] {
        if self.values.is_empty() {
            self.values = vec![0; self.depth];
        }
        &mut self.values
    }

    /// Array name (for diagnostics and resource reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Slot width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of slots.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Control-plane read of one slot (no SALU semantics — this is the PCIe
    /// path the switch CPU uses; see `ht-cpu` for its timing model).
    pub fn cp_read(&self, idx: usize) -> u64 {
        self.values.get(idx % self.depth).copied().unwrap_or(0)
    }

    /// Control-plane write of one slot.
    pub fn cp_write(&mut self, idx: usize, value: u64) {
        let mask = mask_for(self.width);
        let slot = idx % self.depth;
        self.slots_mut()[slot] = value & mask;
    }
}

/// One observed SALU overflow event: a `Set` whose operand exceeded the
/// lane (truncation) or an `Add`/`Sub` that wrapped the stored value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrapEvent {
    /// The register array the event happened in.
    pub reg: RegId,
    /// The slot that wrapped.
    pub slot: usize,
}

/// Cap on the retained [`WrapEvent`] log; the total counter keeps
/// counting past it.
pub const WRAP_LOG_CAP: usize = 64;

/// All register arrays of one pipeline, accessed by [`RegId`].
#[derive(Debug, Default)]
pub struct RegisterFile {
    arrays: Vec<RegisterArray>,
    trace_wraps: bool,
    wraps: u64,
    wrap_log: Vec<WrapEvent>,
}

impl RegisterFile {
    /// Creates an empty file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables (or disables) wrap tracing: while on, every SALU update
    /// that truncates or wraps its lane bumps [`RegisterFile::wraps`] and
    /// is appended to [`RegisterFile::wrap_log`] (capped at
    /// [`WRAP_LOG_CAP`] events).  Off by default — the hot path pays
    /// nothing for it.
    pub fn set_trace_wraps(&mut self, on: bool) {
        self.trace_wraps = on;
    }

    /// Total SALU wrap/truncation events observed while tracing.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }

    /// The retained wrap events, oldest first.
    pub fn wrap_log(&self) -> &[WrapEvent] {
        &self.wrap_log
    }

    /// Allocates an array, returning its id.
    pub fn alloc(&mut self, name: &str, width: u32, depth: usize) -> RegId {
        let id = RegId(u16::try_from(self.arrays.len()).expect("too many register arrays"));
        self.arrays.push(RegisterArray::new(name, width, depth));
        id
    }

    /// The array behind an id.
    pub fn array(&self, id: RegId) -> &RegisterArray {
        &self.arrays[id.0 as usize]
    }

    /// Mutable access for the control plane.
    pub fn array_mut(&mut self, id: RegId) -> &mut RegisterArray {
        &mut self.arrays[id.0 as usize]
    }

    /// Number of allocated arrays.
    pub fn len(&self) -> usize {
        self.arrays.len()
    }

    /// Whether no arrays are allocated.
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }

    /// Iterates over all arrays (for resource accounting).
    pub fn iter(&self) -> impl Iterator<Item = &RegisterArray> {
        self.arrays.iter()
    }

    /// Bytes of slot storage actually allocated — only arrays that have
    /// been written count (see [Storage](RegisterArray#storage)).
    pub fn resident_bytes(&self) -> usize {
        self.arrays.iter().map(|a| a.values.len() * std::mem::size_of::<u64>()).sum()
    }

    /// Executes one SALU read-modify-write on slot `idx` of array `id` —
    /// the packet's single access to that array.
    ///
    /// Returns the exported value (also written to the PHV when the program
    /// configures an output).  The index wraps modulo the array depth, like
    /// a hardware index truncated to the address width.
    pub fn execute(
        &mut self,
        id: RegId,
        idx: u64,
        program: &SaluProgram,
        phv: &mut Phv,
        table: &FieldTable,
    ) -> u64 {
        self.execute_on(id, idx, program, phv, table)
    }

    /// [`execute`](Self::execute) over any [`SaluAccess`] view — the
    /// vector executor runs SALUs on SoA lane views through this entry
    /// point, one lane at a time, so per-register access order is the
    /// lane (= packet) order.
    pub fn execute_on<A: SaluAccess + ?Sized>(
        &mut self,
        id: RegId,
        idx: u64,
        program: &SaluProgram,
        phv: &mut A,
        table: &FieldTable,
    ) -> u64 {
        let arr = &mut self.arrays[id.0 as usize];
        let mask = mask_for(arr.width);
        let slot = (idx as usize) % arr.depth;
        let values = arr.slots_mut();
        let old = values[slot];

        let cond = match &program.condition {
            None => true,
            Some(c) => {
                let lhs = match c.expr {
                    CondExpr::Reg => old,
                    CondExpr::Operand(op) => op.eval(phv) & mask,
                    CondExpr::OperandMinusReg(op) => (op.eval(phv).wrapping_sub(old)) & mask,
                    CondExpr::RegMinusOperand(op) => (old.wrapping_sub(op.eval(phv))) & mask,
                };
                c.cmp.test(lhs, c.rhs.eval(phv) & mask)
            }
        };

        let update = if cond { &program.on_true } else { &program.on_false };
        let new = update.apply(old, phv, mask);
        values[slot] = new;

        if self.trace_wraps {
            // Exact overflow semantics of `SaluUpdate::apply`: `Set`
            // truncates when the raw operand exceeds the lane; `Add`
            // carries out of it; `Sub` borrows past zero (`old` is always
            // already lane-masked).
            let wrapped = match *update {
                SaluUpdate::Keep => false,
                SaluUpdate::Set(op) => op.eval(phv) > mask,
                SaluUpdate::Add(op) => {
                    u128::from(old) + u128::from(op.eval(phv)) > u128::from(mask)
                }
                SaluUpdate::Sub(op) => op.eval(phv) > old,
            };
            if wrapped {
                self.wraps += 1;
                if self.wrap_log.len() < WRAP_LOG_CAP {
                    self.wrap_log.push(WrapEvent { reg: id, slot });
                }
            }
        }

        match program.output {
            None => new,
            Some(out) => {
                let v = match out.src {
                    SaluOutputSrc::OldValue => old,
                    SaluOutputSrc::NewValue => new,
                    SaluOutputSrc::CondFlag => u64::from(cond),
                };
                phv.set(table, out.dst, v);
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::fields;

    fn setup() -> (FieldTable, Phv, RegisterFile, RegId, FieldId) {
        let mut t = FieldTable::new();
        let scratch = t.intern("meta.scratch", 32);
        let phv = t.new_phv();
        let mut rf = RegisterFile::new();
        let r = rf.alloc("r", 32, 8);
        (t, phv, rf, r, scratch)
    }

    #[test]
    fn read_program_exports_without_modifying() {
        let (t, mut phv, mut rf, r, scratch) = setup();
        rf.array_mut(r).cp_write(3, 77);
        let v = rf.execute(r, 3, &SaluProgram::read(scratch), &mut phv, &t);
        assert_eq!(v, 77);
        assert_eq!(phv.get(scratch), 77);
        assert_eq!(rf.array(r).cp_read(3), 77);
    }

    #[test]
    fn fetch_add_returns_old_and_increments() {
        let (t, mut phv, mut rf, r, scratch) = setup();
        let p = SaluProgram::fetch_add(scratch);
        assert_eq!(rf.execute(r, 0, &p, &mut phv, &t), 0);
        assert_eq!(rf.execute(r, 0, &p, &mut phv, &t), 1);
        assert_eq!(rf.execute(r, 0, &p, &mut phv, &t), 2);
        assert_eq!(rf.array(r).cp_read(0), 3);
    }

    #[test]
    fn rate_timer_semantics() {
        // if (now − last ≥ interval) { last = now; fire = 1 } else { fire = 0 }
        let (t, mut phv, mut rf, r, fire) = setup();
        let now = fields::IG_TS;
        let prog = SaluProgram {
            condition: Some(SaluCond {
                expr: CondExpr::OperandMinusReg(SaluOperand::Field(now)),
                cmp: Cmp::Ge,
                rhs: SaluOperand::Const(100),
            }),
            on_true: SaluUpdate::Set(SaluOperand::Field(now)),
            on_false: SaluUpdate::Keep,
            output: Some(SaluOutput { dst: fire, src: SaluOutputSrc::CondFlag }),
        };
        // t = 100: fires (100 − 0 ≥ 100), records 100.
        phv.set(&t, now, 100);
        rf.execute(r, 0, &prog, &mut phv, &t);
        assert_eq!(phv.get(fire), 1);
        // t = 150: does not fire.
        phv.set(&t, now, 150);
        rf.execute(r, 0, &prog, &mut phv, &t);
        assert_eq!(phv.get(fire), 0);
        assert_eq!(rf.array(r).cp_read(0), 100);
        // t = 200: fires again.
        phv.set(&t, now, 200);
        rf.execute(r, 0, &prog, &mut phv, &t);
        assert_eq!(phv.get(fire), 1);
        assert_eq!(rf.array(r).cp_read(0), 200);
    }

    #[test]
    fn guarded_rear_update_prevents_underflow_style_wrap() {
        // FIFO-rear-style: increment only while reg < operand.
        let (t, mut phv, mut rf, r, scratch) = setup();
        let prog = SaluProgram {
            condition: Some(SaluCond {
                expr: CondExpr::Reg,
                cmp: Cmp::Lt,
                rhs: SaluOperand::Const(2),
            }),
            on_true: SaluUpdate::Add(SaluOperand::Const(1)),
            on_false: SaluUpdate::Keep,
            output: Some(SaluOutput { dst: scratch, src: SaluOutputSrc::CondFlag }),
        };
        for expected in [1u64, 1, 0, 0] {
            rf.execute(r, 0, &prog, &mut phv, &t);
            assert_eq!(phv.get(scratch), expected);
        }
        assert_eq!(rf.array(r).cp_read(0), 2);
    }

    #[test]
    fn arithmetic_wraps_at_register_width() {
        let mut t = FieldTable::new();
        let scratch = t.intern("meta.scratch", 32);
        let mut phv = t.new_phv();
        let mut rf = RegisterFile::new();
        let r = rf.alloc("narrow", 8, 1);
        rf.array_mut(r).cp_write(0, 0xff);
        let p = SaluProgram::fetch_add(scratch);
        assert_eq!(rf.execute(r, 0, &p, &mut phv, &t), 0xff);
        assert_eq!(rf.array(r).cp_read(0), 0); // wrapped at 8 bits
    }

    #[test]
    fn index_wraps_modulo_depth() {
        let (t, mut phv, mut rf, r, scratch) = setup();
        rf.array_mut(r).cp_write(2, 5);
        let v = rf.execute(r, 10, &SaluProgram::read(scratch), &mut phv, &t); // 10 % 8 = 2
        assert_eq!(v, 5);
    }

    #[test]
    fn arrays_allocate_on_first_write_only() {
        let (t, mut phv, mut rf, r, scratch) = setup();
        let s = rf.alloc("s", 16, 4);
        assert_eq!(rf.resident_bytes(), 0);
        // Reads of a never-written array, in range or not, see 0 and
        // allocate nothing.
        for idx in [0, 7, 8, 1000, usize::MAX] {
            assert_eq!(rf.array(r).cp_read(idx), 0);
        }
        assert_eq!(rf.resident_bytes(), 0);
        let shape = |a: &RegisterArray| (a.name().to_string(), a.width(), a.depth());
        assert_eq!(shape(rf.array(r)), ("r".to_string(), 32, 8));

        rf.array_mut(r).cp_write(9, 5);
        assert_eq!(rf.resident_bytes(), 8 * 8);
        assert_eq!(shape(rf.array(r)), ("r".to_string(), 32, 8));
        assert_eq!(rf.array(r).cp_read(1), 5);

        // Any SALU access allocates, a plain read included.
        assert_eq!(rf.execute(s, 2, &SaluProgram::read(scratch), &mut phv, &t), 0);
        assert_eq!(rf.resident_bytes(), (8 + 4) * 8);
        assert_eq!(shape(rf.array(s)), ("s".to_string(), 16, 4));
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn rejects_zero_width() {
        RegisterArray::new("bad", 0, 4);
    }
}
