//! Table 7: per-component data-plane resource usage, normalized by the
//! `switch.p4` profile.
//!
//! Each component row is measured as a *delta*: the resource usage of a
//! task containing the component minus the usage of the same task without
//! it — matching how the paper isolates component costs.

use ht_asic::resources::{register_usage, switch_p4_baseline, NormalizedUsage, ResourceUsage};
use ht_asic::ExecMode;
use ht_core::{build, TesterConfig};
use ht_ntapi::{compile, parse};
use ht_packet::wire::gbps;

/// Total data-plane resource usage of a task compiled and built on the
/// `exec` executor.
pub fn task_usage(src: &str, exec: ExecMode) -> ResourceUsage {
    let task = compile(&parse(src).expect("parse")).expect("compile");
    let config =
        TesterConfig::builder().ports(4).speed_bps(gbps(100)).exec(exec).build().expect("config");
    let built = build(&task, &config).expect("build");
    let sw = built.switch;
    let mut u = sw.ingress.table_resources() + sw.egress.table_resources();
    for r in sw.regs.iter() {
        u += register_usage(r);
    }
    u
}

fn saturating_delta(a: ResourceUsage, b: ResourceUsage) -> ResourceUsage {
    ResourceUsage {
        crossbar_bits: a.crossbar_bits.saturating_sub(b.crossbar_bits),
        sram_blocks: a.sram_blocks.saturating_sub(b.sram_blocks),
        tcam_blocks: a.tcam_blocks.saturating_sub(b.tcam_blocks),
        vliw_slots: a.vliw_slots.saturating_sub(b.vliw_slots),
        hash_bits: a.hash_bits.saturating_sub(b.hash_bits),
        salus: a.salus.saturating_sub(b.salus),
        gateways: a.gateways.saturating_sub(b.gateways),
    }
}

/// One Table 7 row.
#[derive(Debug, Clone)]
pub struct ResourceRow {
    /// Component label (matching the paper's row).
    pub component: &'static str,
    /// "Trigger" or "Query".
    pub category: &'static str,
    /// Usage normalized by the switch.p4 profile (fractions).
    pub normalized: NormalizedUsage,
}

const BARE: &str = "T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64)";

/// Computes every Table 7 row.
pub fn table7_rows(exec: ExecMode) -> Vec<ResourceRow> {
    let base = switch_p4_baseline();
    let bare = task_usage(BARE, exec);
    // The accelerator in isolation: the recirculation table, exactly as
    // the builder creates it.
    let accel_table = ht_asic::table::Table::new(
        "accelerator",
        ht_asic::table::MatchKind::Exact,
        vec![ht_asic::fields::TEMPLATE_ID],
        1,
        ht_asic::action::ActionSet::new("recirc", vec![ht_asic::action::PrimitiveOp::Recirculate]),
    );
    let accel = ht_asic::resources::table_usage(&accel_table);
    // replicator(0): fire on every arrival (timer + mcast tables, no SALU).
    let replicator0 = saturating_delta(bare, accel);
    // replicator(100): 100 ns inter-departure → timer register + SALU +
    // fire gateway on top.
    let with_timer = task_usage(&format!("{BARE}\n    .set(interval, 100ns)"), exec);
    let replicator100 = saturating_delta(with_timer, accel);

    let range_edit = saturating_delta(
        task_usage(&format!("{BARE}\n    .set(dport, range(80, 100, 2))"), exec),
        bare,
    );
    let rand_edit = saturating_delta(
        task_usage(&format!("{BARE}\n    .set(dport, random(E, 128, 16))"), exec),
        bare,
    );
    let filter_q = saturating_delta(
        task_usage(&format!("{BARE}\nQ1 = query().filter(tcp_flag == SYN)"), exec),
        bare,
    );
    let distinct_q = saturating_delta(
        task_usage(
            &format!("{BARE}\nQ1 = query().distinct(keys=[sip, dip, proto, sport, dport])"),
            exec,
        ),
        bare,
    );
    let reduce_q = saturating_delta(
        task_usage(&format!("{BARE}\nQ1 = query().reduce(keys=[dip], func=sum)"), exec),
        bare,
    );

    vec![
        ResourceRow {
            component: "accelerator",
            category: "Trigger",
            normalized: accel.normalized_by(&base),
        },
        ResourceRow {
            component: "replicator(0)",
            category: "Trigger",
            normalized: replicator0.normalized_by(&base),
        },
        ResourceRow {
            component: "replicator(100)",
            category: "Trigger",
            normalized: replicator100.normalized_by(&base),
        },
        ResourceRow {
            component: "set(tcp.dp,range(80,100,2))",
            category: "Trigger",
            normalized: range_edit.normalized_by(&base),
        },
        ResourceRow {
            component: "set(tcp.dp,rand('E',128,16))",
            category: "Trigger",
            normalized: rand_edit.normalized_by(&base),
        },
        ResourceRow {
            component: "filter(tcp.flag==SYN)",
            category: "Query",
            normalized: filter_q.normalized_by(&base),
        },
        ResourceRow {
            component: "distinct(keys={5-tuple})",
            category: "Query",
            normalized: distinct_q.normalized_by(&base),
        },
        ResourceRow {
            component: "reduce(keys={ipv4.dip},sum)",
            category: "Query",
            normalized: reduce_q.normalized_by(&base),
        },
    ]
}
