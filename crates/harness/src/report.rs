//! `BENCH.json` serialization, the markdown run ledger, and the exact
//! baseline comparison.
//!
//! The JSON is hand-rolled (the workspace vendors no serde): every
//! experiment entry is emitted on its own line with a fixed field order,
//! so baselines diff cleanly and the comparison parser can stay a simple
//! line scanner.  The report carries no timing (that is `benchmark/`'s
//! job): the deterministic payload is fingerprinted by `digest`, and
//! `events` is a pure function of code and scale.

use crate::runner::JobResult;
use crate::Scale;

/// A complete suite run, ready to serialize.
#[derive(Debug)]
pub struct BenchReport {
    /// Scale the suite ran at.
    pub scale: Scale,
    /// Worker threads used.
    pub workers: usize,
    /// Pipeline executor label (`"compiled"` / `"interp"`).
    pub exec: String,
    /// Whether to render the per-experiment profile counters into the
    /// JSON report (`--profile`).
    pub profile: bool,
    /// Per-experiment results, in suite order.
    pub results: Vec<JobResult>,
}

/// Escapes a string for a JSON literal.
fn esc(s: &str) -> String {
    let mut o = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            '\t' => o.push_str("\\t"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o
}

impl BenchReport {
    /// Serializes the report; one experiment entry per line.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": 1,\n");
        s.push_str(&format!("  \"scale\": \"{}\",\n", self.scale.name()));
        s.push_str(&format!("  \"workers\": {},\n", self.workers));
        s.push_str(&format!("  \"exec\": \"{}\",\n", esc(&self.exec)));
        s.push_str("  \"experiments\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let failed = r.output.checks.iter().filter(|c| !c.pass).count();
            let mut line = format!(
                "    {{\"name\":\"{}\",\"group\":\"{}\",\"ok\":{},\
                 \"events\":{},\"peak_queue_depth\":{},\
                 \"arena_allocs\":{},\"arena_reuses\":{},\"shards\":{},\"checks\":{},\
                 \"checks_failed\":{},\"digest\":\"{:016x}\"",
                esc(&r.name),
                esc(&r.group),
                r.ok,
                r.events,
                r.peak_queue_depth,
                r.arena_allocs,
                r.arena_reuses,
                r.shards,
                r.output.checks.len(),
                failed,
                r.digest,
            );
            if let Some(p) = &r.panicked {
                line.push_str(&format!(",\"panicked\":\"{}\"", esc(p)));
            }
            if self.profile {
                let p = &r.profile;
                let hist = p.batch_hist.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
                let kinds = ht_asic::sim::DeviceKind::ALL
                    .iter()
                    .map(|k| format!("\"{}\":{}", k.name(), p.by_kind[k.index()]))
                    .collect::<Vec<_>>()
                    .join(",");
                line.push_str(&format!(
                    ",\"profile\":{{\"ops_retired\":{},\"batch_hist\":[{hist}],\
                     \"vector_batches\":{},\"vector_lanes\":{},{kinds}}}",
                    p.ops_retired, p.vector_batches, p.vector_lanes,
                ));
            }
            for (k, v) in &r.output.extras {
                line.push_str(&format!(",\"{}\":{}", esc(k), v));
            }
            line.push('}');
            if i + 1 < self.results.len() {
                line.push(',');
            }
            s.push_str(&line);
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// The markdown run ledger (the generated section of EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "Suite: {} experiments at {} scale, {} workers.\n\n",
            self.results.len(),
            self.scale.name(),
            self.workers,
        ));
        s.push_str("| experiment | group | status | checks | events | peak queue |\n");
        s.push_str("|---|---|---|---|---|---|\n");
        for r in &self.results {
            let status = if r.ok {
                "ok"
            } else if r.panicked.is_some() {
                "panic"
            } else {
                "FAIL"
            };
            let failed = r.output.checks.iter().filter(|c| !c.pass).count();
            s.push_str(&format!(
                "| {} | {} | {} | {}/{} | {} | {} |\n",
                r.name,
                r.group,
                status,
                r.output.checks.len() - failed,
                r.output.checks.len(),
                r.events,
                r.peak_queue_depth,
            ));
        }
        for r in &self.results {
            if r.output.checks.iter().any(|c| !c.pass) || r.panicked.is_some() {
                s.push_str(&format!("\n### {} — failures\n\n", r.name));
                if let Some(p) = &r.panicked {
                    s.push_str(&format!("- panicked: {p}\n"));
                }
                for c in r.output.checks.iter().filter(|c| !c.pass) {
                    s.push_str(&format!("- `{}`: {}\n", c.name, c.detail));
                }
            }
        }
        s
    }
}

/// Pulls `"key": value` out of a single JSON line (string or bare value).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    if let Some(q) = rest.strip_prefix('"') {
        q.split('"').next()
    } else {
        rest.split([',', '}']).next().map(str::trim)
    }
}

/// One regression (or note) from a baseline comparison.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Whether this entry fails the run (vs an informational note).
    pub fatal: bool,
    /// Human-readable description.
    pub message: String,
}

/// Compares a fresh report against a committed `BENCH.json` baseline.
///
/// Only what is a pure function of code and scale is compared, and any
/// difference is fatal: an experiment's deterministic result `digest`
/// (same scale ⇒ same seeds ⇒ same payload) and its simulated `events`
/// count.  Scale mismatches and missing experiments produce non-fatal
/// notes (the line-oriented parse tolerates hand-edited or older
/// baselines).
pub fn compare_to_baseline(report: &BenchReport, baseline_json: &str) -> Vec<Regression> {
    let mut out = Vec::new();
    if let Some(scale) = baseline_json.lines().find_map(|l| field(l, "scale")) {
        if scale != report.scale.name() {
            out.push(Regression {
                fatal: false,
                message: format!(
                    "baseline scale \"{}\" differs from run scale \"{}\"; skipping comparison",
                    scale,
                    report.scale.name()
                ),
            });
            return out;
        }
    }
    let mut seen_any = false;
    for line in baseline_json.lines() {
        let Some(name) = field(line, "name") else { continue };
        seen_any = true;
        let Some(now) = report.results.iter().find(|r| r.name == name) else {
            out.push(Regression {
                fatal: false,
                message: format!("baseline experiment {name} missing from this run"),
            });
            continue;
        };
        if let Some(digest) = field(line, "digest") {
            let now_digest = format!("{:016x}", now.digest);
            if digest != now_digest {
                out.push(Regression {
                    fatal: true,
                    message: format!(
                        "{name}: result digest drifted from baseline ({digest} -> {now_digest}); \
                         deterministic output changed"
                    ),
                });
            }
        }
        if let Some(events) = field(line, "events").and_then(|v| v.parse::<u64>().ok()) {
            if events != now.events {
                out.push(Regression {
                    fatal: true,
                    message: format!(
                        "{name}: simulated {} events, baseline {events}; \
                         the event count is deterministic at a given scale",
                        now.events
                    ),
                });
            }
        }
    }
    if !seen_any {
        out.push(Regression {
            fatal: false,
            message: "baseline has no comparable experiment entries".into(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunOutput;

    fn report() -> BenchReport {
        BenchReport {
            scale: Scale::Smoke,
            workers: 2,
            exec: "compiled".into(),
            profile: false,
            results: vec![JobResult {
                name: "a".into(),
                group: "paper".into(),
                title: "a".into(),
                ok: true,
                panicked: None,
                events: 1000,
                peak_queue_depth: 4,
                arena_allocs: 1,
                arena_reuses: 9,
                shards: 0,
                digest: 0xabcd,
                output: RunOutput::default(),
                profile: Default::default(),
            }],
        }
    }

    #[test]
    fn json_roundtrips_through_field_scanner() {
        let j = report().to_json();
        let line = j.lines().find(|l| l.contains("\"name\":\"a\"")).unwrap();
        assert_eq!(field(line, "name"), Some("a"));
        assert_eq!(field(line, "events"), Some("1000"));
        assert_eq!(field(&j, "scale"), Some("smoke"));
    }

    #[test]
    fn an_events_mismatch_is_fatal() {
        let baseline = report().to_json();
        let mut run = report();
        assert!(compare_to_baseline(&run, &baseline).is_empty());
        run.results[0].events += 1;
        let regs = compare_to_baseline(&run, &baseline);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].fatal && regs[0].message.contains("a: simulated 1001 events"), "{regs:?}");
    }

    #[test]
    fn digest_drift_is_fatal_when_scales_match() {
        let baseline = report().to_json();
        let mut run = report();
        run.results[0].digest = 0xbeef;
        let regs = compare_to_baseline(&run, &baseline);
        assert!(regs.iter().any(|r| r.fatal && r.message.contains("digest drifted")), "{regs:?}");
    }

    #[test]
    fn json_includes_shard_count() {
        let mut rep = report();
        rep.results[0].shards = 12;
        let j = rep.to_json();
        let line = j.lines().find(|l| l.contains("\"name\":\"a\"")).unwrap();
        assert_eq!(field(line, "shards"), Some("12"));
    }

    #[test]
    fn scale_mismatch_is_note_not_failure() {
        let mut base = report();
        base.scale = Scale::Full;
        let regs = compare_to_baseline(&report(), &base.to_json());
        assert_eq!(regs.len(), 1);
        assert!(!regs[0].fatal);
    }
}
