//! Deterministic IR dumps: a line-oriented text form (golden snapshot
//! tests, `htctl compile --dump-ir`) and a compact JSON form
//! (`--dump-ir --json`), both hand-rolled — this workspace carries no
//! serialization dependency.
//!
//! Synthesized inverse-transform tables (`EditSpec::RandomTable`) and
//! value lists longer than [`INLINE_VALUES`] render as a length plus an
//! FNV-1a 64 hash of their values instead of the full list: the content
//! is reproducible from the source program, and eliding it keeps dumps
//! and snapshots reviewable.  Every other part of the module renders in
//! full, in declaration order, with no map-backed collections — two
//! equal modules always produce byte-identical dumps.

use crate::diag::json_escape;
use crate::field::QuerySource;
use crate::module::Module;
use crate::query::{CompiledQuery, QueryKind};
use crate::template::{EditSpec, TemplateSpec};
use ht_asic::fingerprint::Fnv1a;
use std::fmt::Write;

/// Value lists up to this length render inline; longer ones render as
/// `len` + FNV hash.
pub const INLINE_VALUES: usize = 16;

/// FNV-1a 64 over a slice of values (big-endian byte order), used to
/// summarize elided tables.
fn fnv_values(values: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    for v in values {
        h.write(&v.to_be_bytes());
    }
    h.finish()
}

fn u64_list(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn edit_text(e: &EditSpec) -> String {
    match e {
        EditSpec::ValueList { field, values } if values.len() <= INLINE_VALUES => {
            format!("value_list {} {}", field.name(), u64_list(values))
        }
        EditSpec::ValueList { field, values } => {
            format!(
                "value_list {} len {} fnv {:016x}",
                field.name(),
                values.len(),
                fnv_values(values)
            )
        }
        EditSpec::Progression { field, start, end, step } => {
            format!("progression {} {start}..={end} step {step}", field.name())
        }
        EditSpec::RandomUniform { field, bits, offset } => {
            format!("random_uniform {} bits {bits} offset {offset}", field.name())
        }
        EditSpec::RandomTable { field, values, bits } => {
            format!(
                "random_table {} bits {bits} len {} fnv {:016x}",
                field.name(),
                values.len(),
                fnv_values(values)
            )
        }
    }
}

fn edit_json(e: &EditSpec) -> String {
    match e {
        EditSpec::ValueList { field, values } if values.len() <= INLINE_VALUES => {
            let items: Vec<String> = values.iter().map(u64::to_string).collect();
            format!(
                "{{\"edit\":\"value_list\",\"field\":\"{}\",\"values\":[{}]}}",
                field.name(),
                items.join(",")
            )
        }
        EditSpec::ValueList { field, values } => format!(
            "{{\"edit\":\"value_list\",\"field\":\"{}\",\"len\":{},\"fnv\":\"{:016x}\"}}",
            field.name(),
            values.len(),
            fnv_values(values)
        ),
        EditSpec::Progression { field, start, end, step } => format!(
            "{{\"edit\":\"progression\",\"field\":\"{}\",\"start\":{start},\"end\":{end},\"step\":{step}}}",
            field.name()
        ),
        EditSpec::RandomUniform { field, bits, offset } => format!(
            "{{\"edit\":\"random_uniform\",\"field\":\"{}\",\"bits\":{bits},\"offset\":{offset}}}",
            field.name()
        ),
        EditSpec::RandomTable { field, values, bits } => format!(
            "{{\"edit\":\"random_table\",\"field\":\"{}\",\"bits\":{bits},\"len\":{},\"fnv\":\"{:016x}\"}}",
            field.name(),
            values.len(),
            fnv_values(values)
        ),
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn template_text(w: &mut String, t: &TemplateSpec) {
    let _ = writeln!(w, "template {} \"{}\"", t.id, t.trigger_name);
    let _ = writeln!(w, "  frame_len {}", t.frame_len);
    let _ = writeln!(w, "  protocol {}", t.protocol.name());
    if t.payload.is_empty() {
        let _ = writeln!(w, "  payload 0 bytes");
    } else {
        let _ = writeln!(w, "  payload {} bytes {}", t.payload.len(), hex(&t.payload));
    }
    for (field, value) in &t.base {
        let _ = writeln!(w, "  base {} = {}", field.name(), value);
    }
    match t.interval {
        Some(ps) => {
            let _ = writeln!(w, "  interval {ps}ps");
        }
        None => {
            let _ = writeln!(w, "  interval line-rate");
        }
    }
    if let Some(dist) = &t.interval_dist {
        let _ = writeln!(w, "  interval_dist {}", edit_text(dist));
    }
    let ports: Vec<String> = t.ports.iter().map(u16::to_string).collect();
    let _ = writeln!(w, "  ports [{}]", ports.join(", "));
    let _ = writeln!(w, "  loop {}", t.loop_count);
    for e in &t.edits {
        let _ = writeln!(w, "  edit {}", edit_text(e));
    }
    if let Some(q) = &t.source_query {
        let _ = writeln!(w, "  source_query {q}");
    }
    for rc in &t.response_copies {
        let _ =
            writeln!(w, "  response_copy {} <- {} + {}", rc.dst.name(), rc.src.name(), rc.offset);
    }
}

fn source_text(s: &QuerySource) -> String {
    match s {
        QuerySource::Trigger(t) => format!("trigger {t}"),
        QuerySource::Received(Some(p)) => format!("received port {p}"),
        QuerySource::Received(None) => "received any".into(),
    }
}

fn kind_text(k: &QueryKind) -> String {
    let keys = |ks: &[crate::field::HeaderField]| {
        let names: Vec<&str> = ks.iter().map(|k| k.name()).collect();
        format!("[{}]", names.join(", "))
    };
    match k {
        QueryKind::PassThrough => "pass_through".into(),
        QueryKind::ReduceGlobal { func } => format!("reduce_global {}", func.name()),
        QueryKind::ReduceKeyed { keys: ks, func } => {
            format!("reduce_keyed {} {}", keys(ks), func.name())
        }
        QueryKind::Distinct { keys: ks } => format!("distinct {}", keys(ks)),
    }
}

fn query_text(w: &mut String, q: &CompiledQuery) {
    let _ = writeln!(w, "query \"{}\"", q.name);
    let _ = writeln!(w, "  source {}", source_text(&q.source));
    for p in &q.filters {
        let _ = writeln!(w, "  filter {} {} {}", p.field.name(), p.cmp.symbol(), p.value);
    }
    if !q.map.is_empty() {
        let names: Vec<&str> = q.map.iter().map(|f| f.name()).collect();
        let _ = writeln!(w, "  map [{}]", names.join(", "));
    }
    let _ = writeln!(w, "  kind {}", kind_text(&q.kind));
    if let Some((cmp, value)) = &q.result_filter {
        let _ = writeln!(w, "  result_filter {} {}", cmp.symbol(), value);
    }
    if !q.capture_for.is_empty() {
        let _ = writeln!(w, "  capture_for [{}]", q.capture_for.join(", "));
    }
    if let Some(fp) = &q.fp {
        let _ = writeln!(
            w,
            "  fp hash {}/{} entries {} space {}",
            fp.hash.array_bits,
            fp.hash.digest_bits,
            fp.entries.len(),
            fp.space_size
        );
    }
}

impl Module {
    /// Renders the module as the line-oriented text form (see module docs).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        let _ =
            writeln!(w, "module templates {} queries {}", self.templates.len(), self.queries.len());
        for t in &self.templates {
            template_text(w, t);
        }
        for q in &self.queries {
            query_text(w, q);
        }
        let _ = writeln!(w, "plan");
        let _ = writeln!(
            w,
            "  logical_stages {} / {}",
            self.plan.logical_stages, self.plan.stage_budget
        );
        let _ = writeln!(
            w,
            "  accelerator {} / {}",
            self.plan.accelerator.resident, self.plan.accelerator.capacity
        );
        for timer in &self.plan.timers {
            let cadence = match timer.interval {
                Some(ps) => format!("interval {ps}ps"),
                None => "line-rate".into(),
            };
            let dist = if timer.distribution { " dist" } else { "" };
            let _ = writeln!(w, "  timer template {} {}{}", timer.template_id, cadence, dist);
        }
        let facts = &self.plan.analysis;
        if !facts.is_empty() {
            let _ = writeln!(w, "analysis");
            for fr in &facts.field_ranges {
                let _ = writeln!(
                    w,
                    "  range template {} {} in [{}, {}]",
                    fr.template_id, fr.field, fr.lo, fr.hi
                );
            }
            for tf in &facts.timers {
                let verdict = if tf.feasible { "feasible" } else { "INFEASIBLE" };
                let _ = writeln!(
                    w,
                    "  timer template {} interval {}ps min {}ps {}",
                    tf.template_id, tf.interval_ps, tf.min_interval_ps, verdict
                );
            }
        }
        out
    }

    /// Renders the module as one compact JSON object (see module docs).
    pub fn to_json(&self) -> String {
        let templates: Vec<String> = self.templates.iter().map(template_json).collect();
        let queries: Vec<String> = self.queries.iter().map(query_json).collect();
        let timers: Vec<String> = self
            .plan
            .timers
            .iter()
            .map(|t| {
                format!(
                    "{{\"template\":{},\"interval\":{},\"distribution\":{}}}",
                    t.template_id,
                    t.interval.map_or("null".into(), |ps| ps.to_string()),
                    t.distribution
                )
            })
            .collect();
        let ranges: Vec<String> = self
            .plan
            .analysis
            .field_ranges
            .iter()
            .map(|fr| {
                format!(
                    "{{\"template\":{},\"field\":\"{}\",\"lo\":{},\"hi\":{}}}",
                    fr.template_id, fr.field, fr.lo, fr.hi
                )
            })
            .collect();
        let timer_facts: Vec<String> = self
            .plan
            .analysis
            .timers
            .iter()
            .map(|tf| {
                format!(
                    "{{\"template\":{},\"interval_ps\":{},\"min_interval_ps\":{},\"feasible\":{}}}",
                    tf.template_id, tf.interval_ps, tf.min_interval_ps, tf.feasible
                )
            })
            .collect();
        format!(
            "{{\"templates\":[{}],\"queries\":[{}],\"plan\":{{\"logical_stages\":{},\"stage_budget\":{},\"accelerator\":{{\"resident\":{},\"capacity\":{}}},\"timers\":[{}],\"analysis\":{{\"ranges\":[{}],\"timers\":[{}]}}}}}}",
            templates.join(","),
            queries.join(","),
            self.plan.logical_stages,
            self.plan.stage_budget,
            self.plan.accelerator.resident,
            self.plan.accelerator.capacity,
            timers.join(","),
            ranges.join(","),
            timer_facts.join(",")
        )
    }
}

fn template_json(t: &TemplateSpec) -> String {
    let base: Vec<String> = t
        .base
        .iter()
        .map(|(f, v)| format!("{{\"field\":\"{}\",\"value\":{v}}}", f.name()))
        .collect();
    let ports: Vec<String> = t.ports.iter().map(u16::to_string).collect();
    let edits: Vec<String> = t.edits.iter().map(edit_json).collect();
    let copies: Vec<String> = t
        .response_copies
        .iter()
        .map(|rc| {
            format!(
                "{{\"dst\":\"{}\",\"src\":\"{}\",\"offset\":{}}}",
                rc.dst.name(),
                rc.src.name(),
                rc.offset
            )
        })
        .collect();
    format!(
        "{{\"id\":{},\"trigger\":\"{}\",\"frame_len\":{},\"protocol\":\"{}\",\"payload\":\"{}\",\"base\":[{}],\"interval\":{},\"interval_dist\":{},\"ports\":[{}],\"loop\":{},\"edits\":[{}],\"source_query\":{},\"response_copies\":[{}]}}",
        t.id,
        json_escape(&t.trigger_name),
        t.frame_len,
        t.protocol.name(),
        hex(&t.payload),
        base.join(","),
        t.interval.map_or("null".into(), |ps| ps.to_string()),
        t.interval_dist.as_ref().map_or("null".into(), edit_json),
        ports.join(","),
        t.loop_count,
        edits.join(","),
        t.source_query
            .as_ref()
            .map_or("null".into(), |q| format!("\"{}\"", json_escape(q))),
        copies.join(",")
    )
}

fn query_json(q: &CompiledQuery) -> String {
    let source = match &q.source {
        QuerySource::Trigger(t) => format!("{{\"trigger\":\"{}\"}}", json_escape(t)),
        QuerySource::Received(p) => {
            format!("{{\"received\":{}}}", p.map_or("null".into(), |p| p.to_string()))
        }
    };
    let filters: Vec<String> = q
        .filters
        .iter()
        .map(|p| {
            format!(
                "{{\"field\":\"{}\",\"cmp\":\"{}\",\"value\":{}}}",
                p.field.name(),
                p.cmp.symbol(),
                p.value
            )
        })
        .collect();
    let map: Vec<String> = q.map.iter().map(|f| format!("\"{}\"", f.name())).collect();
    let keys_json = |ks: &[crate::field::HeaderField]| {
        let names: Vec<String> = ks.iter().map(|k| format!("\"{}\"", k.name())).collect();
        names.join(",")
    };
    let kind = match &q.kind {
        QueryKind::PassThrough => "{\"kind\":\"pass_through\"}".to_string(),
        QueryKind::ReduceGlobal { func } => {
            format!("{{\"kind\":\"reduce_global\",\"func\":\"{}\"}}", func.name())
        }
        QueryKind::ReduceKeyed { keys, func } => format!(
            "{{\"kind\":\"reduce_keyed\",\"keys\":[{}],\"func\":\"{}\"}}",
            keys_json(keys),
            func.name()
        ),
        QueryKind::Distinct { keys } => {
            format!("{{\"kind\":\"distinct\",\"keys\":[{}]}}", keys_json(keys))
        }
    };
    let capture: Vec<String> =
        q.capture_for.iter().map(|t| format!("\"{}\"", json_escape(t))).collect();
    format!(
        "{{\"name\":\"{}\",\"source\":{},\"filters\":[{}],\"map\":[{}],\"kind\":{},\"result_filter\":{},\"capture_for\":[{}],\"fp\":{}}}",
        json_escape(&q.name),
        source,
        filters.join(","),
        map.join(","),
        kind,
        q.result_filter.map_or("null".into(), |(cmp, value)| format!(
            "{{\"cmp\":\"{}\",\"value\":{value}}}",
            cmp.symbol()
        )),
        capture.join(","),
        q.fp.as_ref().map_or("null".into(), |fp| format!(
            "{{\"array_bits\":{},\"digest_bits\":{},\"entries\":{},\"space_size\":{}}}",
            fp.hash.array_bits,
            fp.hash.digest_bits,
            fp.entries.len(),
            fp.space_size
        ))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{CmpOp, HeaderField, NtField, Predicate, QuerySource};
    use crate::module::{AcceleratorPlan, PipelinePlan, TimerPlan};
    use crate::query::{CompiledQuery, FpConfig, QueryKind};
    use crate::template::{L4Proto, ResponseCopy};

    fn sample() -> Module {
        Module {
            templates: vec![TemplateSpec {
                id: 1,
                trigger_name: "T1".into(),
                frame_len: 64,
                payload: vec![0xde, 0xad],
                protocol: L4Proto::Udp,
                base: vec![(HeaderField::Dip, 0x0a000002)],
                interval: Some(1_000_000),
                interval_dist: None,
                ports: vec![0, 1],
                loop_count: 0,
                edits: vec![
                    EditSpec::Progression { field: HeaderField::Sport, start: 1, end: 5, step: 1 },
                    EditSpec::RandomTable {
                        field: HeaderField::Dport,
                        values: (0..1024).collect(),
                        bits: 10,
                    },
                ],
                source_query: Some("Q1".into()),
                response_copies: vec![ResponseCopy {
                    dst: HeaderField::AckNo,
                    src: HeaderField::SeqNo,
                    offset: 1,
                }],
            }],
            queries: vec![CompiledQuery {
                name: "Q1".into(),
                source: QuerySource::Received(None),
                filters: vec![Predicate {
                    field: HeaderField::TcpFlags,
                    cmp: CmpOp::Eq,
                    value: 18,
                }],
                map: vec![NtField::PktLen],
                kind: QueryKind::Distinct { keys: vec![HeaderField::Sip] },
                result_filter: Some((CmpOp::Lt, 5)),
                capture_for: vec!["T1".into()],
                fp: Some(FpConfig {
                    hash: crate::hashcfg::HashConfig::default(),
                    entries: vec![],
                    space_size: 7,
                }),
            }],
            plan: PipelinePlan {
                timers: vec![TimerPlan {
                    template_id: 1,
                    interval: Some(1_000_000),
                    distribution: false,
                }],
                accelerator: AcceleratorPlan { resident: 1, capacity: 89 },
                logical_stages: 8,
                stage_budget: 24,
                analysis: Default::default(),
                exec: Default::default(),
            },
            provenance: Default::default(),
        }
    }

    #[test]
    fn text_dump_is_deterministic_and_complete() {
        let m = sample();
        let a = m.to_text();
        assert_eq!(a, m.to_text());
        assert!(a.contains("template 1 \"T1\""));
        assert!(a.contains("  payload 2 bytes dead"));
        assert!(a.contains("  base dip = 167772162"));
        assert!(a.contains("  interval 1000000ps"));
        assert!(a.contains("  edit progression sport 1..=5 step 1"));
        assert!(a.contains("  edit random_table dport bits 10 len 1024 fnv "));
        assert!(a.contains("  response_copy ack_no <- seq_no + 1"));
        assert!(a.contains("  source received any"));
        assert!(a.contains("  kind distinct [sip]"));
        assert!(a.contains("  result_filter < 5"));
        assert!(a.contains("  fp hash 16/16 entries 0 space 7"));
        assert!(a.contains("  timer template 1 interval 1000000ps"));
        assert!(a.contains("  accelerator 1 / 89"));
    }

    #[test]
    fn json_dump_elides_synthesized_tables() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"trigger\":\"T1\""));
        assert!(j.contains("\"payload\":\"dead\""));
        assert!(j.contains("\"edit\":\"random_table\""));
        assert!(j.contains("\"len\":1024"));
        assert!(!j.contains("1017,1018"), "table values must be elided");
        assert!(j.contains("\"kind\":\"distinct\""));
        assert!(j.contains("\"space_size\":7"));
    }

    #[test]
    fn analysis_facts_render_after_the_plan_section() {
        let mut m = sample();
        assert!(!m.to_text().contains("analysis"), "empty facts add no section");
        m.plan.analysis = crate::module::AnalysisFacts {
            field_ranges: vec![crate::module::FieldRangeFact {
                template_id: 1,
                field: "sport",
                lo: 1,
                hi: 5,
            }],
            timers: vec![crate::module::TimerFact {
                template_id: 1,
                interval_ps: 1_000_000,
                min_interval_ps: 5_600_000,
                feasible: false,
            }],
        };
        let text = m.to_text();
        let plan_at = text.find("plan\n").unwrap();
        let analysis_at = text.find("analysis\n").unwrap();
        assert!(analysis_at > plan_at, "analysis section follows the plan section");
        assert!(text.contains("  range template 1 sport in [1, 5]"));
        assert!(text.contains("  timer template 1 interval 1000000ps min 5600000ps INFEASIBLE"));
        let json = m.to_json();
        assert!(json.contains(
            "\"analysis\":{\"ranges\":[{\"template\":1,\"field\":\"sport\",\"lo\":1,\"hi\":5}]"
        ));
        assert!(json.contains("\"min_interval_ps\":5600000,\"feasible\":false"));
    }

    #[test]
    fn long_value_lists_are_summarized_short_ones_inline() {
        let short = EditSpec::ValueList { field: HeaderField::Sport, values: vec![1, 2, 3] };
        assert_eq!(edit_text(&short), "value_list sport [1, 2, 3]");
        let long = EditSpec::ValueList { field: HeaderField::Sport, values: (0..100).collect() };
        assert!(edit_text(&long).starts_with("value_list sport len 100 fnv "));
    }
}
