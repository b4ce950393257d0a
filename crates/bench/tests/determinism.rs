//! The harness determinism contract on the real suite: the same seed
//! produces byte-identical per-experiment results (lines, checks, digest)
//! regardless of the worker count.  Timing fields are excluded from the
//! digest by construction.  `fig17_exact_match` additionally exercises the
//! multi-part path: its parts land on different workers and must merge
//! back to an identical figure.

use ht_asic::ExecMode;
use ht_bench::suite::ALL;
use ht_harness::runner::run_suite;
use ht_harness::{Experiment, RunCx, Scale};
use proptest::prelude::*;

const SMOKE: RunCx = RunCx { scale: Scale::Smoke, exec: ExecMode::Compiled };

/// The rows of the suite table named in `names`, in suite order.
fn rows(names: &[&str]) -> Vec<Experiment> {
    ALL.iter().filter(|e| names.contains(&e.name)).copied().collect()
}

/// A cheap subset of the suite (the fast analytic experiments) — enough
/// jobs to spread over several of the 8 workers.
fn subset() -> Vec<Experiment> {
    rows(&["table5_loc", "table6_cost", "table7_resources", "ablation_cuckoo"])
}

/// The cheap subset plus the multi-part Fig. 17 (smoke parameters keep it
/// fast; at full scale the sweep is the suite's heaviest job).
fn subset_with_fig17() -> Vec<Experiment> {
    rows(&["table5_loc", "fig17_exact_match", "table6_cost", "table7_resources", "ablation_cuckoo"])
}

#[test]
fn results_identical_at_1_and_8_workers() {
    let one = run_suite(&subset_with_fig17(), 1, SMOKE, |_| {});
    let eight = run_suite(&subset_with_fig17(), 8, SMOKE, |_| {});
    assert_eq!(one.len(), 5);
    assert_eq!(one.len(), eight.len());
    for (a, b) in one.iter().zip(&eight) {
        assert_eq!(a.name, b.name, "suite order must be preserved");
        assert_eq!(a.digest, b.digest, "{}: digest differs across worker counts", a.name);
        assert_eq!(a.output.lines, b.output.lines, "{}: output differs", a.name);
        assert_eq!(a.output.extras, b.output.extras, "{}: extras differ", a.name);
        assert_eq!(
            a.output.checks.iter().map(|c| (&c.name, c.pass)).collect::<Vec<_>>(),
            b.output.checks.iter().map(|c| (&c.name, c.pass)).collect::<Vec<_>>(),
            "{}: check verdicts differ",
            a.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sharded Fig. 17 digests are identical at `--workers 1` vs any other
    /// worker count: parts complete in arbitrary order, but the merge
    /// reassembles them in declaration order.
    #[test]
    fn sharded_fig17_digest_identical_across_workers(workers in 2usize..9) {
        let fig17 = rows(&["fig17_exact_match"]);
        let one = run_suite(&fig17, 1, SMOKE, |_| {});
        let many = run_suite(&fig17, workers, SMOKE, |_| {});
        prop_assert_eq!(one[0].digest, many[0].digest);
        prop_assert_eq!(&one[0].output.lines, &many[0].output.lines);
        prop_assert_eq!(&one[0].output.extras, &many[0].output.extras);
        prop_assert_eq!(one[0].shards, many[0].shards);
    }
}

/// The `HashSet`-free key generation produces exactly the key sets the old
/// deduplicating generator did for every full-scale seed at the largest
/// flow count: no duplicate is ever drawn, so dropping the set is a pure
/// optimization (this is what pins the committed Fig. 17 digests).
#[test]
fn hashset_free_key_generation_matches_dedup() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let n = 2_000_000;
    for seed in 1000..1005u64 {
        let space = ht_bench::experiments::random_flow_space(n, seed);
        assert_eq!(space.len(), n);
        // Old generator: draw until n distinct keys have been seen.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::with_capacity(n);
        let mut i = 0usize;
        while i < n {
            let k = rand::Rng::gen::<u64>(&mut rng);
            assert!(seen.insert(k), "seed {seed}: duplicate draw at key {i}");
            assert_eq!(space.key(i), &[k, 80], "seed {seed}: key {i} differs");
            i += 1;
        }
    }
}

#[test]
fn smoke_and_full_scales_both_run_the_cheap_subset() {
    // Scale only changes parameters, never determinism: each scale is
    // self-consistent across repeat runs.
    for scale in [Scale::Smoke, Scale::Full] {
        let cx = RunCx { scale, exec: ExecMode::Compiled };
        let a = run_suite(&subset(), 4, cx, |_| {});
        let b = run_suite(&subset(), 4, cx, |_| {});
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.digest, y.digest, "{} not reproducible at {:?}", x.name, scale);
        }
    }
}
