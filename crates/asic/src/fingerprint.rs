//! Deterministic program fingerprints for compiled [`Switch`] configurations.
//!
//! A fingerprint is an FNV-1a 64 hash over a canonical text rendering of
//! everything the compiler configures on a switch: interned fields, both
//! pipelines (tables with their installed entries, gateways and actions;
//! externs with their declared resources and field/register sets), the
//! register file, multicast groups, and port setup.  Runtime state —
//! counters, hit/miss statistics, wire cursors, digests, traces — is
//! deliberately excluded, so the fingerprint is stable across executions
//! and only changes when the *program* changes.
//!
//! [`Fnv1a`] is the workspace's one FNV-1a 64 hasher: switch fingerprints,
//! experiment result digests, IR table summaries and fuzz digests all
//! stream their bytes through it.
//!
//! Hash-map-backed collections (exact-match entries, multicast groups,
//! ports) are sorted before rendering, so two switches built through
//! different code paths but describing the same program hash identically.
//! This is what the differential compiler tests lean on, in the spirit of
//! running the same program through independent lowerings and comparing
//! (Wong et al.).

use crate::pipeline::Pipeline;
use crate::switch::Switch;
use std::fmt::Write;

/// A streaming FNV-1a 64 hasher.  Callers choose how a value becomes
/// bytes (e.g. `to_le_bytes` or `to_be_bytes`), so a digest's byte order
/// is visible where it is computed.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a 64 offset basis.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64 over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// The canonical text rendering hashed by [`program_fingerprint`].
/// Exposed so tests can diff two renderings when fingerprints disagree.
pub fn program_canonical_text(sw: &Switch) -> String {
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "switch {}", sw.name());

    let mut ports: Vec<u16> = sw.ports().collect();
    ports.sort_unstable();
    for p in ports {
        let mac = sw.mac(p);
        let _ = writeln!(w, "port {} speed {} loopback {}", p, mac.speed_bps, mac.loopback);
    }

    for i in 0..sw.fields.len() {
        let def = sw.fields.def(crate::phv::FieldId(i as u16));
        let _ = writeln!(w, "field {} {} {}", i, def.name, def.width);
    }

    render_pipeline(w, "ingress", &sw.ingress);
    render_pipeline(w, "egress", &sw.egress);

    for reg in sw.regs.iter() {
        let _ = writeln!(w, "reg {} width {} depth {}", reg.name(), reg.width(), reg.depth());
    }

    let mut groups: Vec<_> = sw.mcast.groups().collect();
    groups.sort_by_key(|(gid, _)| *gid);
    for (gid, members) in groups {
        let _ = write!(w, "mcast {gid}");
        for m in members {
            let _ = write!(w, " ({},{})", m.port, m.rid);
        }
        let _ = writeln!(w);
    }
    out
}

fn render_pipeline(w: &mut String, label: &str, pipe: &Pipeline) {
    for (si, stage) in pipe.stages.iter().enumerate() {
        let _ = writeln!(w, "{label} stage {si}");
        for t in &stage.tables {
            let _ = writeln!(
                w,
                "  table {} kind {:?} keys {:?} cap {}",
                t.name(),
                t.kind(),
                t.key_fields(),
                t.capacity()
            );
            for gw in t.gateways() {
                let _ = writeln!(w, "    gw {:?} {:?} {}", gw.field, gw.cmp, gw.value);
            }
            let _ = writeln!(w, "    default {:?}", t.default_action());
            for (key, prio, action) in t.entries() {
                let _ = writeln!(w, "    entry {key:?} prio {prio} -> {action:?}");
            }
        }
        for e in &stage.externs {
            let _ = writeln!(
                w,
                "  extern {} res {:?} reads {:?} writes {:?} regs {:?}",
                e.name(),
                e.resources(),
                e.reads(),
                e.writes(),
                e.registers()
            );
        }
    }
}

/// FNV-1a 64 fingerprint of a switch's compiled program (see module docs
/// for what is and is not covered).
pub fn program_fingerprint(sw: &Switch) -> u64 {
    fnv1a(program_canonical_text(sw).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionSet, PrimitiveOp};
    use crate::phv::fields;
    use crate::table::{MatchKey, MatchKind, Table};
    use crate::tm::McastMember;

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"a");
        h.write(b"b");
        assert_eq!(h.finish(), fnv1a(b"ab"));
    }

    fn keyed_table() -> Table {
        Table::new("t", MatchKind::Exact, vec![fields::IPV4_DST], 8, ActionSet::nop())
    }

    fn entry(v: u64) -> (MatchKey, ActionSet) {
        (
            MatchKey::Exact(vec![v]),
            ActionSet::new("set", vec![PrimitiveOp::SetConst { dst: fields::TCP_SPORT, value: v }]),
        )
    }

    #[test]
    fn fingerprint_ignores_exact_insertion_order() {
        let mut a = Switch::new("s", 1);
        let mut b = Switch::new("s", 1);
        let mut ta = keyed_table();
        let mut tb = keyed_table();
        for v in [1u64, 2, 3] {
            let (k, act) = entry(v);
            ta.insert(k, act, 0).unwrap();
        }
        for v in [3u64, 1, 2] {
            let (k, act) = entry(v);
            tb.insert(k, act, 0).unwrap();
        }
        a.ingress.push_table(ta);
        b.ingress.push_table(tb);
        assert_eq!(program_fingerprint(&a), program_fingerprint(&b));
    }

    #[test]
    fn fingerprint_sees_program_differences() {
        let mut a = Switch::new("s", 1);
        let mut b = Switch::new("s", 1);
        let mut ta = keyed_table();
        let (k, act) = entry(1);
        ta.insert(k, act, 0).unwrap();
        a.ingress.push_table(ta);
        b.ingress.push_table(keyed_table());
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
    }

    #[test]
    fn fingerprint_ignores_runtime_state() {
        let mut a = Switch::new("s", 1);
        a.add_port(0, 100_000_000_000);
        let before = program_fingerprint(&a);
        a.counters.rx_frames = 99;
        a.digests.push(crate::digest::DigestRecord {
            id: crate::digest::DigestId(1),
            values: vec![2],
            at: 3,
        });
        assert_eq!(program_fingerprint(&a), before);
    }

    #[test]
    fn fingerprint_ignores_mcast_group_order() {
        let mut a = Switch::new("s", 1);
        let mut b = Switch::new("s", 1);
        for g in [1u16, 2, 3] {
            a.mcast.set_group(g, vec![McastMember { port: 0, rid: g }]);
        }
        for g in [3u16, 1, 2] {
            b.mcast.set_group(g, vec![McastMember { port: 0, rid: g }]);
        }
        assert_eq!(program_fingerprint(&a), program_fingerprint(&b));
    }
}
