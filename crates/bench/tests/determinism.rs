//! The harness determinism contract on the real suite: the same seed
//! produces byte-identical per-experiment results (lines, checks, digest)
//! regardless of the worker count.  Timing fields are excluded from the
//! digest by construction.  `fig17_exact_match` additionally exercises the
//! sharded path: its shards land on different workers and must merge back
//! to an identical figure.

use ht_harness::runner::run_suite;
use ht_harness::Scale;
use proptest::prelude::*;

/// A cheap subset of the suite (the fast analytic experiments) — enough
/// jobs to spread over several of the 8 workers.
fn subset() -> Vec<Box<dyn ht_harness::Experiment>> {
    ht_bench::suite::all()
        .into_iter()
        .filter(|e| {
            matches!(
                e.name(),
                "table5_loc" | "table6_cost" | "table7_resources" | "ablation_cuckoo"
            )
        })
        .collect()
}

/// The cheap subset plus the sharded Fig. 17 (smoke parameters keep it
/// fast; at full scale the sweep is the suite's heaviest job).
fn subset_with_fig17() -> Vec<Box<dyn ht_harness::Experiment>> {
    ht_bench::suite::all()
        .into_iter()
        .filter(|e| {
            matches!(
                e.name(),
                "table5_loc"
                    | "table6_cost"
                    | "table7_resources"
                    | "ablation_cuckoo"
                    | "fig17_exact_match"
            )
        })
        .collect()
}

#[test]
fn results_identical_at_1_and_8_workers() {
    let one = run_suite(&subset_with_fig17(), 1, Scale::Smoke, |_| {});
    let eight = run_suite(&subset_with_fig17(), 8, Scale::Smoke, |_| {});
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
    /// worker count: shards complete in arbitrary order, but the merge
    /// reassembles them in declaration order.
    #[test]
    fn sharded_fig17_digest_identical_across_workers(workers in 2usize..9) {
        let fig17 = || -> Vec<Box<dyn ht_harness::Experiment>> {
            ht_bench::suite::all()
                .into_iter()
                .filter(|e| e.name() == "fig17_exact_match")
                .collect()
        };
        let one = run_suite(&fig17(), 1, Scale::Smoke, |_| {});
        let many = run_suite(&fig17(), workers, Scale::Smoke, |_| {});
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
        let a = run_suite(&subset(), 4, scale, |_| {});
        let b = run_suite(&subset(), 4, scale, |_| {});
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.digest, y.digest, "{} not reproducible at {:?}", x.name, scale);
        }
    }
}
