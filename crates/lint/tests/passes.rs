//! One known-bad fixture per lint pass, each asserting the expected
//! diagnostic, plus a clean fixture showing the pass stays silent on a
//! valid program.
//!
//! Every switch fixture is also linted whole by `lint_switch`, and the
//! reports, in pass order, are pinned by a committed golden
//! (`tests/golden/lint_reports.txt`).  Regenerate it (only when a
//! diagnostic change is *intended*) with:
//!
//! ```text
//! HT_REGEN_GOLDEN=1 cargo test -p ht-lint --test passes lint_reports
//! ```

use ht_asic::action::{ActionSet, IndexSource, PrimitiveOp};
use ht_asic::parser::{ParseGraph, ParseState};
use ht_asic::phv::{fields, FieldId};
use ht_asic::register::{Cmp, CondExpr, SaluCond, SaluOperand, SaluProgram, SaluUpdate};
use ht_asic::switch::Switch;
use ht_asic::table::{Gateway, MatchKey, MatchKind, Table};
use ht_asic::tm::McastMember;
use ht_lint::{
    analyze_switch, check_dead_field_edits, check_parse_graph, check_phv_liveness,
    check_reachability, check_replication, check_salu_discipline, check_salu_range,
    check_stage_resources, check_unreachable_actions, lint_switch, proven_nowrap_regs, LintReport,
    Severity, SwitchAnalysis,
};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lint_reports.txt");

/// A minimal valid program: one forwarding table, one port.
fn clean_switch() -> Switch {
    let mut sw = Switch::new("sw", 1);
    sw.add_port(0, 100_000_000_000);
    let t = Table::new(
        "fwd",
        MatchKind::Exact,
        vec![fields::IG_PORT],
        4,
        ActionSet::new("to0", vec![PrimitiveOp::SetEgressPort(0)]),
    );
    sw.ingress.push_table(t);
    sw
}

fn salu_on(sw: &mut Switch, name: &str) -> PrimitiveOp {
    let reg = sw.regs.alloc(name, 32, 1);
    PrimitiveOp::Salu {
        reg,
        index: IndexSource::Const(0),
        program: SaluProgram::fetch_add(fields::TCP_WINDOW),
    }
}

/// `clean_switch` plus one table on `IPV4_DST` gated by `gateways`.
fn gated(name: &str, gateways: &[Gateway]) -> Switch {
    let mut sw = clean_switch();
    let mut t = Table::new(name, MatchKind::Exact, vec![fields::IPV4_DST], 4, ActionSet::nop());
    for gw in gateways {
        t = t.with_gateway(*gw);
    }
    sw.ingress.push_table(t);
    sw
}

/// Runs one dataflow pass over a fixture with the fixture's solved
/// analysis.
fn solved(check: fn(&Switch, &SwitchAnalysis) -> LintReport, sw: Switch) -> LintReport {
    check(&sw, &analyze_switch(&sw).expect("solver must reach a fixpoint"))
}

fn sport(cmp: Cmp, value: u64) -> Gateway {
    Gateway { field: fields::TCP_SPORT, cmp, value }
}

/// Every switch fixture below, by name, in file order: the golden pins
/// the full `lint_switch` report of each.
fn fixtures() -> Vec<(&'static str, Switch)> {
    vec![
        ("clean", clean_switch()),
        ("overfull_stage", overfull_stage()),
        ("ghost_read", ghost_read()),
        ("unread_write", unread_write()),
        ("write_then_read", write_then_read()),
        ("double_salu_access", double_salu_access()),
        ("array_from_two_tables", array_from_two_tables()),
        ("single_salu_access", single_salu_access()),
        ("mcast_member_on_unknown_port", mcast_member_on_unknown_port()),
        ("unknown_mcast_group", unknown_mcast_group()),
        ("default_action_recirculates", default_action_recirculates()),
        ("template_keyed_recirculation", template_keyed_recirculation()),
        ("false_gateway", false_gateway()),
        ("contradicting_gateway_pair", contradicting_gateway_pair()),
        ("tautological_gateway", tautological_gateway()),
        ("satisfiable_gateway_pair", satisfiable_gateway_pair()),
        ("pinned_mode_gated_on_5", pinned_mode_gated_on(5)),
        ("pinned_mode_gated_on_3", pinned_mode_gated_on(3)),
        ("scratch_chain", scratch_chain(false)),
        ("scratch_chain_read_between", scratch_chain(true)),
        ("mode_matcher_with_dead_entry", mode_matcher(true)),
        ("mode_matcher", mode_matcher(false)),
        ("narrow_lane", salu_lane("narrow", 8)),
        ("wide_lane", salu_lane("wide", 32)),
        ("guarded_increment", guarded_increment()),
        ("recirculating_counter", recirculating_counter()),
        ("every_pass_fires", every_pass_fires()),
    ]
}

#[test]
fn lint_reports_match_the_golden() {
    let mut got = String::new();
    for (name, sw) in fixtures() {
        got.push_str(&format!("## {name}\n{}\n\n", lint_switch(&sw)));
    }
    if std::env::var("HT_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).expect("committed golden lint reports");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(
            g, w,
            "lint report drifted from the golden (a diagnostic or the pass order changed; \
             if intended, regenerate with HT_REGEN_GOLDEN=1)"
        );
    }
    assert_eq!(got, want, "fixture list drifted from the golden file");
}

// --- pass 1: stage resource fitting ---------------------------------------

fn overfull_stage() -> Switch {
    let mut sw = clean_switch();
    // Five register arrays touched from one stage: 5 SALUs > 4 per stage.
    let ops: Vec<PrimitiveOp> = (0..5).map(|i| salu_on(&mut sw, &format!("r{i}"))).collect();
    let t =
        Table::new("hot", MatchKind::Exact, vec![fields::IPV4_DST], 4, ActionSet::new("a", ops));
    sw.ingress.push_table(t);
    sw
}

#[test]
fn overfull_stage_is_rejected() {
    let r = check_stage_resources(&overfull_stage());
    assert!(
        r.errors().any(|d| d.rule == "resource-overflow" && d.message.contains("salus")),
        "{r}"
    );
}

#[test]
fn fitting_stage_passes_resources() {
    let sw = clean_switch();
    assert!(check_stage_resources(&sw).diagnostics.is_empty());
}

// --- pass 2: PHV def-use / liveness ----------------------------------------

fn ghost_read() -> Switch {
    let mut sw = clean_switch();
    let ghost = sw.fields.intern("meta.ghost", 16);
    let t = Table::new(
        "reader",
        MatchKind::Exact,
        vec![fields::IPV4_DST],
        4,
        ActionSet::new("copy", vec![PrimitiveOp::CopyField { dst: fields::TCP_SPORT, src: ghost }]),
    );
    sw.ingress.push_table(t);
    sw
}

#[test]
fn read_of_never_written_metadata_is_an_error() {
    let r = check_phv_liveness(&ghost_read());
    assert!(
        r.errors().any(|d| d.rule == "phv-undef-read" && d.message.contains("meta.ghost")),
        "{r}"
    );
}

fn unread_write() -> Switch {
    let mut sw = clean_switch();
    let unused = sw.fields.intern("meta.unused", 16);
    let t = Table::new(
        "writer",
        MatchKind::Exact,
        vec![fields::IPV4_DST],
        4,
        ActionSet::new("w", vec![PrimitiveOp::SetConst { dst: unused, value: 1 }]),
    );
    sw.ingress.push_table(t);
    sw
}

#[test]
fn write_nothing_reads_is_a_warning() {
    let r = check_phv_liveness(&unread_write());
    assert!(!r.has_errors(), "{r}");
    assert!(
        r.diagnostics.iter().any(|d| d.rule == "phv-dead-write" && d.severity == Severity::Warning),
        "{r}"
    );
}

fn write_then_read() -> Switch {
    let mut sw = clean_switch();
    let flag = sw.fields.intern("meta.flag", 1);
    let w = Table::new(
        "producer",
        MatchKind::Exact,
        vec![fields::IPV4_DST],
        4,
        ActionSet::new("set", vec![PrimitiveOp::SetConst { dst: flag, value: 1 }]),
    );
    let r = Table::new("consumer", MatchKind::Exact, vec![fields::IPV4_SRC], 4, ActionSet::nop())
        .with_gateway(Gateway { field: flag, cmp: Cmp::Eq, value: 1 });
    sw.ingress.push_table(w);
    sw.ingress.push_table(r);
    sw
}

#[test]
fn write_then_read_metadata_is_clean() {
    let report = check_phv_liveness(&write_then_read());
    assert!(report.diagnostics.is_empty(), "{report}");
}

// --- pass 3: SALU access discipline ----------------------------------------

fn double_salu_access() -> Switch {
    let mut sw = clean_switch();
    let reg = sw.regs.alloc("ctr", 32, 1);
    let op = |dst| PrimitiveOp::Salu {
        reg,
        index: IndexSource::Const(0),
        program: SaluProgram::fetch_add(dst),
    };
    let t = Table::new(
        "double",
        MatchKind::Exact,
        vec![fields::IPV4_DST],
        4,
        ActionSet::new("a", vec![op(fields::TCP_SPORT), op(fields::TCP_DPORT)]),
    );
    sw.ingress.push_table(t);
    sw
}

#[test]
fn two_salu_ops_on_one_array_in_one_action() {
    let r = check_salu_discipline(&double_salu_access());
    assert!(r.errors().any(|d| d.rule == "salu-double-access"), "{r}");
}

fn array_from_two_tables() -> Switch {
    let mut sw = clean_switch();
    let reg = sw.regs.alloc("shared", 32, 1);
    for name in ["first", "second"] {
        let t = Table::new(
            name,
            MatchKind::Exact,
            vec![fields::IPV4_DST],
            4,
            ActionSet::new(
                "a",
                vec![PrimitiveOp::Salu {
                    reg,
                    index: IndexSource::Const(0),
                    program: SaluProgram::fetch_add(fields::TCP_WINDOW),
                }],
            ),
        );
        sw.ingress.push_table(t);
    }
    sw
}

#[test]
fn same_array_from_two_tables_is_a_hazard() {
    let r = check_salu_discipline(&array_from_two_tables());
    assert!(r.errors().any(|d| d.rule == "salu-raw-hazard"), "{r}");
}

fn single_salu_access() -> Switch {
    let mut sw = clean_switch();
    let op = salu_on(&mut sw, "only");
    let t =
        Table::new("t", MatchKind::Exact, vec![fields::IPV4_DST], 4, ActionSet::new("a", vec![op]));
    sw.ingress.push_table(t);
    sw
}

#[test]
fn single_access_per_array_is_clean() {
    assert!(check_salu_discipline(&single_salu_access()).diagnostics.is_empty());
}

// --- pass 4: parser graph ---------------------------------------------------

fn state(name: &str, transitions: Vec<usize>) -> ParseState {
    ParseState { name: name.into(), writes: vec![], transitions }
}

#[test]
fn parser_cycle_is_an_error() {
    let g = ParseGraph {
        states: vec![state("a", vec![1]), state("b", vec![0])],
        start: 0,
        max_depth: 12,
    };
    let r = check_parse_graph(&g);
    assert!(r.errors().any(|d| d.rule == "parser-cycle"), "{r}");
}

#[test]
fn parser_depth_overflow_is_an_error() {
    // A 5-state chain against a depth budget of 3.
    let states =
        (0..5).map(|i| state(&format!("s{i}"), if i < 4 { vec![i + 1] } else { vec![] })).collect();
    let g = ParseGraph { states, start: 0, max_depth: 3 };
    let r = check_parse_graph(&g);
    assert!(r.errors().any(|d| d.rule == "parser-depth"), "{r}");
}

#[test]
fn unreachable_parser_state_is_a_warning() {
    let g = ParseGraph {
        states: vec![state("start", vec![]), state("orphan", vec![])],
        start: 0,
        max_depth: 12,
    };
    let r = check_parse_graph(&g);
    assert!(!r.has_errors(), "{r}");
    assert!(r.diagnostics.iter().any(|d| d.rule == "parser-unreachable"), "{r}");
}

#[test]
fn standard_parser_graph_is_clean() {
    assert!(check_parse_graph(&ParseGraph::standard()).diagnostics.is_empty());
}

// --- pass 5: replication / recirculation -----------------------------------

fn mcast_member_on_unknown_port() -> Switch {
    let mut sw = clean_switch(); // only port 0 exists
    sw.mcast.set_group(1, vec![McastMember { port: 9, rid: 1 }]);
    sw
}

#[test]
fn mcast_member_on_unknown_port_is_an_error() {
    let r = check_replication(&mcast_member_on_unknown_port());
    assert!(r.errors().any(|d| d.rule == "mcast-bad-port"), "{r}");
}

fn unknown_mcast_group() -> Switch {
    let mut sw = clean_switch();
    let t = Table::new(
        "rep",
        MatchKind::Exact,
        vec![fields::TEMPLATE_ID],
        4,
        ActionSet::new("grp", vec![PrimitiveOp::SetMcastGroup(7)]),
    );
    sw.ingress.push_table(t);
    sw
}

#[test]
fn unknown_mcast_group_reference_is_an_error() {
    let r = check_replication(&unknown_mcast_group());
    assert!(r.errors().any(|d| d.rule == "mcast-unknown-group"), "{r}");
}

fn default_action_recirculates() -> Switch {
    let mut sw = clean_switch();
    let t = Table::new(
        "acc",
        MatchKind::Exact,
        vec![fields::TEMPLATE_ID],
        4,
        ActionSet::new("loop", vec![PrimitiveOp::Recirculate]),
    );
    sw.ingress.push_table(t);
    sw
}

#[test]
fn recirculate_in_default_action_is_unbounded() {
    let r = check_replication(&default_action_recirculates());
    assert!(r.errors().any(|d| d.rule == "recirc-unbounded"), "{r}");
}

fn template_keyed_recirculation() -> Switch {
    let mut sw = clean_switch();
    let mut t = Table::new("acc", MatchKind::Exact, vec![fields::TEMPLATE_ID], 4, ActionSet::nop());
    t.insert(MatchKey::Exact(vec![1]), ActionSet::new("loop", vec![PrimitiveOp::Recirculate]), 0)
        .unwrap();
    sw.ingress.push_table(t);
    sw.mcast.set_group(1, vec![McastMember { port: 0, rid: 1 }]);
    sw
}

#[test]
fn template_keyed_recirculation_entry_is_bounded() {
    let r = check_replication(&template_keyed_recirculation());
    assert!(r.diagnostics.is_empty(), "{r}");
}

// --- pass 6: gateway contradictions ----------------------------------------

fn false_gateway() -> Switch {
    // tcp.sport is 16 bits; no value exceeds 0x10000.
    gated("dead", &[sport(Cmp::Eq, 0x1_0000)])
}

#[test]
fn statically_false_gateway_is_an_error() {
    let r = solved(check_reachability, false_gateway());
    assert!(r.errors().any(|d| d.rule == "gateway-false"), "{r}");
}

fn contradicting_gateway_pair() -> Switch {
    gated("dead", &[sport(Cmp::Lt, 5), sport(Cmp::Gt, 10)])
}

#[test]
fn contradicting_gateway_pair_is_an_error() {
    let r = solved(check_reachability, contradicting_gateway_pair());
    assert!(r.errors().any(|d| d.rule == "gateway-contradiction"), "{r}");
}

fn tautological_gateway() -> Switch {
    gated("t", &[sport(Cmp::Ge, 0)])
}

#[test]
fn tautological_gateway_is_a_warning() {
    let r = solved(check_reachability, tautological_gateway());
    assert!(!r.has_errors(), "{r}");
    assert!(r.diagnostics.iter().any(|d| d.rule == "gateway-redundant"), "{r}");
}

fn satisfiable_gateway_pair() -> Switch {
    gated("t", &[sport(Cmp::Ge, 5), sport(Cmp::Le, 10)])
}

#[test]
fn satisfiable_gateway_pair_is_clean() {
    assert!(solved(check_reachability, satisfiable_gateway_pair()).diagnostics.is_empty());
}

/// An earlier default action pins `meta.mode` to 3; a later table is
/// gated on `meta.mode == value`.
fn pinned_mode_gated_on(value: u64) -> Switch {
    let mut sw = clean_switch();
    let mode = sw.fields.intern("meta.mode", 8);
    let producer = Table::new(
        "producer",
        MatchKind::Exact,
        vec![fields::IPV4_DST],
        4,
        ActionSet::new("pin", vec![PrimitiveOp::SetConst { dst: mode, value: 3 }]),
    );
    let consumer =
        Table::new("consumer", MatchKind::Exact, vec![fields::IPV4_SRC], 4, ActionSet::nop())
            .with_gateway(Gateway { field: mode, cmp: Cmp::Eq, value });
    sw.ingress.push_table(producer);
    sw.ingress.push_table(consumer);
    sw
}

#[test]
fn semantic_contradiction_through_value_flow_is_an_error() {
    // No single gateway pair is contradictory here — only value flow sees
    // it: an earlier default action pins the metadata to 3, and a later
    // gateway demands 5.  The old syntactic pass was blind to this.
    let r = solved(check_reachability, pinned_mode_gated_on(5));
    assert!(r.errors().any(|d| d.rule == "gateway-contradiction"), "{r}");
}

#[test]
fn semantically_satisfiable_gateway_on_pinned_field_is_clean() {
    assert!(solved(check_reachability, pinned_mode_gated_on(3)).diagnostics.is_empty());
}

// --- pass 7: dead field edits -----------------------------------------------

/// Three-table chain over one metadata field: first writes, second
/// overwrites, third reads.  Only the first write is dead.
fn scratch_chain(read_between: bool) -> Switch {
    let mut sw = clean_switch();
    let scratch = sw.fields.intern("meta.scratch", 16);
    let first = Table::new(
        "first",
        MatchKind::Exact,
        vec![fields::IPV4_DST],
        4,
        ActionSet::new("w1", vec![PrimitiveOp::SetConst { dst: scratch, value: 1 }]),
    );
    let mut second = Table::new(
        "second",
        MatchKind::Exact,
        vec![fields::IPV4_SRC],
        4,
        ActionSet::new("w2", vec![PrimitiveOp::SetConst { dst: scratch, value: 2 }]),
    );
    if read_between {
        // A gateway on the overwriting table reads the first write.
        second = second.with_gateway(Gateway { field: scratch, cmp: Cmp::Eq, value: 1 });
    }
    let third = Table::new("third", MatchKind::Exact, vec![fields::TCP_SPORT], 4, ActionSet::nop())
        .with_gateway(Gateway { field: scratch, cmp: Cmp::Ge, value: 1 });
    sw.ingress.push_table(first);
    sw.ingress.push_table(second);
    sw.ingress.push_table(third);
    sw
}

#[test]
fn overwritten_before_read_edit_is_a_warning() {
    let r = solved(check_dead_field_edits, scratch_chain(false));
    assert!(!r.has_errors(), "{r}");
    assert!(
        r.diagnostics.iter().any(|d| {
            d.rule == "dead-field-edit"
                && d.location.contains("table first")
                && d.message.contains("meta.scratch")
        }),
        "{r}"
    );
    // The overwrite itself is live (the third table reads it).
    assert!(!r.diagnostics.iter().any(|d| d.location.contains("table second")), "{r}");
}

#[test]
fn edit_with_a_reader_in_between_is_clean() {
    assert!(solved(check_dead_field_edits, scratch_chain(true)).diagnostics.is_empty());
}

// --- pass 8: unreachable table actions --------------------------------------

/// A producer pins `meta.mode` to 3; a matcher keys on it with entries
/// for 3 and (optionally) 5.
fn mode_matcher(with_dead_entry: bool) -> Switch {
    let mut sw = clean_switch();
    let mode = sw.fields.intern("meta.mode", 8);
    let producer = Table::new(
        "producer",
        MatchKind::Exact,
        vec![fields::IPV4_DST],
        4,
        ActionSet::new("pin", vec![PrimitiveOp::SetConst { dst: mode, value: 3 }]),
    );
    let mut matcher = Table::new("matcher", MatchKind::Exact, vec![mode], 4, ActionSet::nop());
    matcher
        .insert(MatchKey::Exact(vec![3]), ActionSet::new("hit3", vec![PrimitiveOp::NoOp]), 0)
        .unwrap();
    if with_dead_entry {
        matcher
            .insert(MatchKey::Exact(vec![5]), ActionSet::new("hit5", vec![PrimitiveOp::NoOp]), 0)
            .unwrap();
    }
    sw.ingress.push_table(producer);
    sw.ingress.push_table(matcher);
    sw
}

#[test]
fn entry_outside_the_proven_range_is_a_warning() {
    let r = solved(check_unreachable_actions, mode_matcher(true));
    assert!(!r.has_errors(), "{r}");
    let hits: Vec<_> = r.diagnostics.iter().filter(|d| d.rule == "unreachable-action").collect();
    assert_eq!(hits.len(), 1, "{r}");
    assert!(hits[0].location.contains("hit5"), "{r}");
    assert!(hits[0].message.contains("[3, 3]"), "{r}");
}

#[test]
fn entries_inside_the_proven_range_are_clean() {
    assert!(solved(check_unreachable_actions, mode_matcher(false)).diagnostics.is_empty());
}

// --- pass 9: SALU value ranges ----------------------------------------------

fn salu_table(sw: &mut Switch, name: &str, width: u32, program: SaluProgram) -> Table {
    let reg = sw.regs.alloc(name, width, 1);
    Table::new(
        name,
        MatchKind::Exact,
        vec![fields::IPV4_DST],
        4,
        ActionSet::new("a", vec![PrimitiveOp::Salu { reg, index: IndexSource::Const(0), program }]),
    )
}

/// One table writing `tcp.sport` (which spans [0, 65535]) into a
/// `width`-bit register lane.
fn salu_lane(name: &str, width: u32) -> Switch {
    let mut sw = clean_switch();
    let t =
        salu_table(&mut sw, name, width, SaluProgram::write(SaluOperand::Field(fields::TCP_SPORT)));
    sw.ingress.push_table(t);
    sw
}

#[test]
fn operand_wider_than_the_register_lane_is_a_warning() {
    // An 8-bit lane silently truncates tcp.sport.
    let r = solved(check_salu_range, salu_lane("narrow", 8));
    assert!(!r.has_errors(), "{r}");
    assert!(
        r.diagnostics.iter().any(|d| {
            d.rule == "salu-range-overflow"
                && d.message.contains("tcp.sport")
                && d.message.contains("8-bit")
        }),
        "{r}"
    );
}

#[test]
fn operand_within_the_lane_is_clean() {
    assert!(solved(check_salu_range, salu_lane("wide", 32)).diagnostics.is_empty());
}

fn guarded_increment() -> Switch {
    let mut sw = clean_switch();
    // `if reg < 100 { reg += 1 }` on an 8-bit lane: max stored value 100.
    let guarded = SaluProgram {
        condition: Some(SaluCond {
            expr: CondExpr::Reg,
            cmp: Cmp::Lt,
            rhs: SaluOperand::Const(100),
        }),
        on_true: SaluUpdate::Add(SaluOperand::Const(1)),
        on_false: SaluUpdate::Keep,
        output: None,
    };
    let t = salu_table(&mut sw, "bounded", 8, guarded);
    sw.ingress.push_table(t);
    // An unguarded counter on the same-width lane is NOT certified.
    let t2 = salu_table(&mut sw, "unbounded", 8, SaluProgram::fetch_add(fields::TCP_WINDOW));
    sw.ingress.push_table(t2);
    sw
}

#[test]
fn guarded_increment_is_certified_nowrap() {
    let sw = guarded_increment();
    let proven = proven_nowrap_regs(&sw, &analyze_switch(&sw).unwrap());
    let names: Vec<&str> = proven.iter().map(|r| sw.regs.array(*r).name()).collect();
    assert!(names.contains(&"bounded"), "{names:?}");
    assert!(!names.contains(&"unbounded"), "{names:?}");
}

// --- recirculation back edge ------------------------------------------------

fn recirculating_counter() -> Switch {
    let mut sw = clean_switch();
    let laps = sw.fields.intern("meta.laps", 16);
    // A counter that grows every lap plus an unconditional recirculate:
    // without widening the interval for `meta.laps` would climb forever.
    let mut t = Table::new("acc", MatchKind::Exact, vec![fields::TEMPLATE_ID], 4, ActionSet::nop());
    t.insert(
        MatchKey::Exact(vec![1]),
        ActionSet::new(
            "lap",
            vec![PrimitiveOp::AddConst { dst: laps, value: 1 }, PrimitiveOp::Recirculate],
        ),
        0,
    )
    .unwrap();
    sw.ingress.push_table(t);
    sw
}

#[test]
fn recirculating_program_reaches_fixpoint_with_widening() {
    let sw = recirculating_counter();
    let a = analyze_switch(&sw).expect("solver must reach a fixpoint");
    assert!(a.has_back_edge());
    let (value_iters, live_iters) = a.iterations();
    // Well under the divergence budget: widening collapses the ascent.
    assert!(value_iters < 100, "value solver took {value_iters} iterations");
    assert!(live_iters < 100, "liveness solver took {live_iters} iterations");
    // And the dataflow passes stay silent on it.
    assert!(check_dead_field_edits(&sw, &a).diagnostics.is_empty());
    assert!(check_salu_range(&sw, &a).diagnostics.is_empty());
}

// --- driver -----------------------------------------------------------------

/// One program with a fault for every switch pass, so the golden pins the
/// order in which `lint_switch` runs them.
fn every_pass_fires() -> Switch {
    // dead-field-edit: `first` writes meta.scratch, `second` overwrites it.
    let mut sw = scratch_chain(false);
    fn push(sw: &mut Switch, name: &str, key: FieldId, action: ActionSet) {
        sw.ingress.push_table(Table::new(name, MatchKind::Exact, vec![key], 4, action));
    }
    // resource-overflow: five SALUs in one stage.
    let ops: Vec<PrimitiveOp> = (0..5).map(|i| salu_on(&mut sw, &format!("r{i}"))).collect();
    push(&mut sw, "hot", fields::IPV4_DST, ActionSet::new("a", ops));
    // phv-undef-read.
    let ghost = sw.fields.intern("meta.ghost", 16);
    let copy = PrimitiveOp::CopyField { dst: fields::TCP_SPORT, src: ghost };
    push(&mut sw, "reader", fields::IPV4_DST, ActionSet::new("copy", vec![copy]));
    // salu-double-access.
    let reg = sw.regs.alloc("ctr", 32, 1);
    let fetch = |dst| PrimitiveOp::Salu {
        reg,
        index: IndexSource::Const(0),
        program: SaluProgram::fetch_add(dst),
    };
    let twice = vec![fetch(fields::TCP_SPORT), fetch(fields::TCP_DPORT)];
    push(&mut sw, "double", fields::IPV4_DST, ActionSet::new("a", twice));
    // mcast-bad-port.
    sw.mcast.set_group(1, vec![McastMember { port: 9, rid: 1 }]);
    // gateway-false.
    sw.ingress.push_table(
        Table::new("dead", MatchKind::Exact, vec![fields::IPV4_DST], 4, ActionSet::nop())
            .with_gateway(sport(Cmp::Eq, 0x1_0000)),
    );
    // unreachable-action: meta.mode is pinned to 3, an entry wants 5.
    let mode = sw.fields.intern("meta.mode", 8);
    let pin = PrimitiveOp::SetConst { dst: mode, value: 3 };
    push(&mut sw, "producer", fields::IPV4_SRC, ActionSet::new("pin", vec![pin]));
    let mut matcher = Table::new("matcher", MatchKind::Exact, vec![mode], 4, ActionSet::nop());
    matcher
        .insert(MatchKey::Exact(vec![5]), ActionSet::new("hit5", vec![PrimitiveOp::NoOp]), 0)
        .unwrap();
    sw.ingress.push_table(matcher);
    // salu-range-overflow.
    let t =
        salu_table(&mut sw, "narrow", 8, SaluProgram::write(SaluOperand::Field(fields::TCP_SPORT)));
    sw.ingress.push_table(t);
    sw
}

#[test]
fn clean_switch_passes_every_pass() {
    let r = lint_switch(&clean_switch());
    assert!(r.diagnostics.is_empty(), "{r}");
}
