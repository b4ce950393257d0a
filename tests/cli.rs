//! Smoke tests for the `htctl` command line.

use std::process::Command;

fn htctl(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_htctl")).args(args).output().expect("spawn htctl");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn task_path(name: &str) -> String {
    format!("{}/tasks/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn compile_reports_task_structure() {
    let (stdout, _, ok) = htctl(&["compile", &task_path("syn_flood.nt")]);
    assert!(ok);
    assert!(stdout.contains("task OK: 1 trigger(s), 0 quer(ies)"), "{stdout}");
    assert!(stdout.contains("ports [0, 1, 2, 3]"));
    assert!(stdout.contains("2 edit(s)"));
}

#[test]
fn compile_scan_shows_fp_precompute() {
    let (stdout, _, ok) = htctl(&["compile", &task_path("scan.nt")]);
    assert!(ok);
    assert!(stdout.contains("exact-match entries"), "{stdout}");
}

#[test]
fn p4_emits_a_program() {
    let (stdout, _, ok) = htctl(&["p4", &task_path("throughput.nt")]);
    assert!(ok);
    assert!(stdout.contains("control ingress"));
    assert!(stdout.contains("table accelerator"));
}

#[test]
fn loc_counts_both_sides() {
    let (stdout, _, ok) = htctl(&["loc", &task_path("throughput.nt")]);
    assert!(ok);
    assert!(stdout.contains("NTAPI:"));
    assert!(stdout.contains("P4   :"));
}

#[test]
fn run_prints_throughput_and_queries() {
    let (stdout, _, ok) = htctl(&["run", &task_path("throughput.nt"), "--duration", "1"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("per-port throughput"));
    assert!(stdout.contains("query results"));
    assert!(stdout.contains("Q1:"));
}

#[test]
fn rejected_task_exits_nonzero_with_message() {
    let dir = std::env::temp_dir().join("htctl-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.nt");
    std::fs::write(&bad, "T1 = trigger().set(dport, 99999)").unwrap();
    let (_, stderr, ok) = htctl(&["compile", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("task rejected"), "{stderr}");
    assert!(stderr.contains("99999"));
}

#[test]
fn missing_args_show_usage() {
    let (_, stderr, ok) = htctl(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}

#[test]
fn lint_accepts_all_shipped_tasks() {
    for name in ["scan.nt", "syn_flood.nt", "throughput.nt"] {
        let (stdout, stderr, ok) = htctl(&["lint", &task_path(name)]);
        assert!(ok, "{name}: {stdout}{stderr}");
        assert!(stdout.contains("0 error(s)"), "{name}: {stdout}");
    }
}

#[test]
fn lint_json_has_the_documented_shape() {
    let (stdout, _, ok) = htctl(&["lint", "--json", &task_path("throughput.nt")]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"file\":"), "{stdout}");
    assert!(stdout.contains("\"diagnostics\":["), "{stdout}");
    assert!(stdout.contains("\"errors\":0"), "{stdout}");
    assert!(stdout.contains("\"warnings\":"), "{stdout}");
}

#[test]
fn lint_rejects_a_shadowed_edit_with_exit_one() {
    let dir = std::env::temp_dir().join("htctl-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("shadowed.nt");
    // Two edits of the same field: the second silently overwrites the
    // first, which the task-level lint flags as an error.
    std::fs::write(&bad, "T1 = trigger().set(sport, range(1, 9, 1)).set(sport, [7, 8])\n").unwrap();
    let (stdout, _, ok) = htctl(&["lint", bad.to_str().unwrap()]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("edit-shadowed"), "{stdout}");

    let (json_out, _, json_ok) = htctl(&["lint", "--json", bad.to_str().unwrap()]);
    assert!(!json_ok);
    assert!(json_out.contains("\"rule\":\"edit-shadowed\""), "{json_out}");
    assert!(json_out.contains("\"severity\":\"error\""), "{json_out}");
}

#[test]
fn lint_without_a_path_shows_usage() {
    let (_, stderr, ok) = htctl(&["lint", "--json"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}

#[test]
fn unreadable_file_is_an_error() {
    let (_, stderr, ok) = htctl(&["compile", "/nonexistent/task.nt"]);
    assert!(!ok);
    assert!(stderr.contains("error:"));
}

fn htctl_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_htctl")).args(args).output().expect("spawn htctl");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn compile_json_reports_templates_and_queries() {
    let (stdout, _, ok) = htctl(&["compile", "--json", &task_path("throughput.nt")]);
    assert!(ok, "{stdout}");
    assert!(stdout.starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"ok\":true"), "{stdout}");
    assert!(stdout.contains("\"templates\":["), "{stdout}");
    assert!(stdout.contains("\"queries\":["), "{stdout}");
    assert!(stdout.contains("\"frame_len\":"), "{stdout}");
}

#[test]
fn compile_json_failure_is_exit_one_with_error_object() {
    let dir = std::env::temp_dir().join("htctl-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad_json.nt");
    std::fs::write(&bad, "T1 = trigger().set(dport, 99999)").unwrap();
    let (stdout, _, code) = htctl_code(&["compile", "--json", bad.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(stdout.contains("\"ok\":false"), "{stdout}");
    assert!(stdout.contains("\"error\":"), "{stdout}");
}

#[test]
fn run_json_emits_ports_queries_and_counters() {
    let (stdout, _, ok) = htctl(&["run", "--json", &task_path("throughput.nt"), "--duration", "1"]);
    assert!(ok, "{stdout}");
    assert!(stdout.starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"ports\":[{\"port\":0"), "{stdout}");
    assert!(stdout.contains("\"queries\":["), "{stdout}");
    assert!(stdout.contains("\"counters\":{"), "{stdout}");
    // No human progress text may pollute the JSON stream.
    assert!(!stdout.contains("running"), "{stdout}");
}

#[test]
fn usage_errors_exit_two_everywhere() {
    let (_, _, none) = htctl_code(&[]);
    let (_, _, compile) = htctl_code(&["compile"]);
    let (_, _, bench) = htctl_code(&["bench", "--bogus"]);
    // The baseline check is exact; there is no threshold to set.
    let (_, _, threshold) = htctl_code(&["bench", "--fail-threshold", "20"]);
    let throughput = task_path("throughput.nt");
    // A port count past u16 is refused, not truncated.
    let (_, _, ports) = htctl_code(&["run", &throughput, "--ports", "65537"]);
    // Engine counts are a `World` setting, not a flag.
    let (_, _, run_threads) = htctl_code(&["run", &throughput, "--sim-threads", "2"]);
    let (_, _, bench_threads) = htctl_code(&["bench", "--sim-threads", "2"]);
    assert_eq!(
        (none, compile, bench, threshold, ports, run_threads, bench_threads),
        (2, 2, 2, 2, 2, 2, 2)
    );
}

#[test]
fn bench_lists_the_suite() {
    let (stdout, _, ok) = htctl(&["bench", "--list"]);
    assert!(ok, "{stdout}");
    for name in ["table5_loc", "fig14_accelerator", "ablation_cuckoo", "fig17_exact_match"] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
}

#[test]
fn bench_smoke_filter_emits_bench_json() {
    let (stdout, _, ok) =
        htctl(&["bench", "--smoke", "--workers", "2", "--json", "--filter", "table5"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"schema\": 1"), "{stdout}");
    assert!(stdout.contains("\"scale\": \"smoke\""), "{stdout}");
    assert!(stdout.contains("\"name\":\"table5_loc\""), "{stdout}");
    assert!(stdout.contains("\"digest\":"), "{stdout}");
}

#[test]
fn bench_smoke_filter_prints_the_regenerated_figure() {
    let (stdout, stderr, code) = htctl_code(&["bench", "--smoke", "--filter", "fig15"]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    let progress = stdout.find("fig15_replicator").expect("progress line");
    let title = stdout.find("Fig. 15 — multicast engine delay").expect("figure title");
    assert!(progress < title, "output follows its progress line: {stdout}");
    assert!(stdout.lines().any(|l| l.starts_with("PASS ")), "{stdout}");
}

#[test]
fn bench_baseline_gates_digests_and_events_but_not_timing() {
    let path = std::env::temp_dir().join(format!("htctl-baseline-{}.json", std::process::id()));
    let path = path.to_str().unwrap();
    let run = ["bench", "--smoke", "--workers", "1", "--filter", "fig18"];
    let (report, _, ok) = htctl(&[&run[..], &["--json"]].concat());
    assert!(ok, "{report}");
    let field = |key: &str| {
        let pat = format!("\"{key}\":");
        let rest = &report[report.find(&pat).unwrap() + pat.len()..];
        rest[..rest.find(',').unwrap()].to_string()
    };
    let gated = [&run[..], &["--baseline", path]].concat();

    // The report holds no timing to gate on.
    for timing in ["wall_ms", "events_per_sec"] {
        assert!(!report.contains(timing), "{timing} in {report}");
    }

    // One more event than this run simulates.
    let events = field("events");
    let off_by_one = (events.parse::<u64>().unwrap() + 1).to_string();
    let altered =
        report.replace(&format!("\"events\":{events},"), &format!("\"events\":{off_by_one},"));
    std::fs::write(path, altered).unwrap();
    let (_, stderr, code) = htctl_code(&gated);
    let _ = std::fs::remove_file(path);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("REGRESSION: fig18_delay_case: simulated"), "{stderr}");
}

#[test]
fn compile_surfaces_task_warnings() {
    let dir = std::env::temp_dir().join("htctl-test");
    std::fs::create_dir_all(&dir).unwrap();
    let warn = dir.join("warn.nt");
    std::fs::write(
        &warn,
        "T1 = trigger().set([dip, proto], [10.0.0.2, udp]).set(pkt_len, 64)\n\
         \x20   .set(interval, 2ns)",
    )
    .unwrap();
    let path = warn.to_str().unwrap();
    let (stdout, _, ok) = htctl(&["compile", path]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("warning[timer-rate-infeasible]"), "{stdout}");
    let (stdout, _, ok) = htctl(&["compile", "--json", path]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"warnings\":[{\"rule\":\"timer-rate-infeasible\""), "{stdout}");
}

#[test]
fn analyze_reports_fixpoint_and_certified_registers() {
    let (stdout, _, ok) = htctl(&["analyze", &task_path("scan.nt")]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("fixpoint in"), "{stdout}");
    assert!(stdout.contains("recirculation back edge, widened"), "{stdout}");
    assert!(stdout.contains("certified no-wrap registers:"), "{stdout}");
}

#[test]
fn analyze_json_shares_the_lint_schema() {
    let path = task_path("syn_flood.nt");
    let (analyze, _, ok_a) = htctl(&["analyze", "--json", &path]);
    let (lint, _, ok_l) = htctl(&["lint", "--json", &path]);
    assert!(ok_a && ok_l);
    // One serializer (ht_ir::report_json) feeds both subcommands: on a
    // clean task the objects are byte-identical.
    assert_eq!(analyze, lint);
    assert!(analyze.contains("\"diagnostics\":["), "{analyze}");
}

#[test]
fn analyze_dumps_each_fact_pass() {
    for (pass, needle) in [
        ("value", "field intervals"),
        ("liveness", "fields live"),
        ("reachability", "reachability"),
        ("salu-range", "never to wrap"),
    ] {
        let (stdout, _, ok) =
            htctl(&["analyze", &format!("--dump-facts={pass}"), &task_path("scan.nt")]);
        assert!(ok, "pass {pass}: {stdout}");
        assert!(stdout.to_lowercase().contains(needle), "pass {pass}: {stdout}");
    }
    let (_, stderr, code) = htctl_code(&["analyze", "--dump-facts=bogus", &task_path("scan.nt")]);
    assert_eq!(code, 2, "an unknown fact pass is a usage error");
    assert!(stderr.contains("unknown fact pass"), "{stderr}");
}

#[test]
fn fuzz_fixed_seed_campaign_is_clean_and_deterministic() {
    let (a, _, ok_a) = htctl(&["fuzz", "--cases", "60", "--seed", "7"]);
    let (b, _, ok_b) = htctl(&["fuzz", "--cases", "60", "--seed", "7"]);
    assert!(ok_a && ok_b, "{a}");
    assert_eq!(a, b, "campaign must be deterministic per seed");
    assert!(a.contains("0 counterexample(s)"), "{a}");
}

#[test]
fn fuzz_json_reports_the_case_mix() {
    let (stdout, _, ok) = htctl(&["fuzz", "--cases", "40", "--seed", "3", "--json"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("\"cases\":40"), "{stdout}");
    assert!(stdout.contains("\"seed\":3"), "{stdout}");
    assert!(stdout.contains("\"failures\":[]"), "{stdout}");
}

#[test]
fn bench_list_shows_analysis_facts_column() {
    let (stdout, _, ok) = htctl(&["bench", "--list"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("facts"), "{stdout}");
    let loc = stdout.lines().find(|l| l.starts_with("table5_loc")).unwrap();
    assert!(loc.contains("yes"), "{loc}");
    let ratectl = stdout.lines().find(|l| l.starts_with("fig11_ratectl_40g")).unwrap();
    assert!(ratectl.contains("yes"), "{ratectl}");
    let cost = stdout.lines().find(|l| l.starts_with("table6_cost")).unwrap();
    assert!(!cost.contains("yes"), "{cost}");
}
