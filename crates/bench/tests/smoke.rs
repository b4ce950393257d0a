//! Smoke tests for the experiment harness: scaled-down versions of each
//! regenerator, so `cargo test` catches harness regressions without a
//! full `htctl bench` pass.

use ht_baseline::ratectl::RateControlMode;
use ht_bench::ablations::{accuracy_ablation, cuckoo_occupancy};
use ht_bench::experiments::*;
use ht_bench::resources::table7_rows;
use ht_packet::wire::gbps;

#[test]
fn table5_rows_hold_the_loc_relations() {
    for row in table5_loc() {
        assert!(row.ntapi <= 12, "{}: {}", row.app, row.ntapi);
        assert!(row.p4 >= 10 * row.ntapi, "{}", row.app);
        assert!(row.lua > 3 * row.ntapi, "{}", row.app);
    }
}

#[test]
fn fig9_small_sweep_hits_line_rate() {
    let arena0 = ht_asic::arena::stats();
    let pts = fig9_ht_single_port(gbps(100), &[64, 1500]);
    for p in pts {
        assert!((p.mpps - p.line_mpps).abs() / p.line_mpps < 0.02, "{} B", p.frame_len);
    }
    // The accelerator clones every recirculating template once per loop
    // for the wire: once the buffers in flight exist, the PHV arena must
    // serve every further clone.
    let arena = ht_asic::arena::stats();
    let (allocs, reuses) = (arena.allocs - arena0.allocs, arena.reuses - arena0.reuses);
    assert!(reuses > allocs, "{reuses} reuses vs {allocs} allocs");
    let mg = fig9_mg_single_port(gbps(40), &[64]);
    assert!(mg[0].mpps < mg[0].line_mpps * 0.3);
}

#[test]
fn fig10_mg_model_is_linear() {
    let rows = fig10_mg_multi_core();
    assert_eq!(rows.len(), 8);
    for (cores, gbit) in rows {
        assert!((gbit - 10.0 * cores as f64).abs() < 0.5);
    }
}

#[test]
fn fig11_ht_beats_mg_at_one_rate() {
    let ht = ht_rate_control(1_000_000, 64, gbps(40));
    let mg = mg_rate_control(1_000_000, 64, gbps(40), RateControlMode::Hardware);
    assert!(mg.metrics.mae / ht.metrics.mae > 10.0);
}

#[test]
fn fig13_normal_sits_on_diagonal() {
    let (n, deciles, ks) = fig13_random(
        "random(normal, 30000, 2000, 10)",
        ht_stats::Distribution::Normal { mean: 30000.0, std_dev: 2000.0 },
    );
    assert!(n > 10_000);
    assert!(ks < 0.02, "KS {ks}");
    let span = deciles[8].0 - deciles[0].0;
    for (th, em) in deciles {
        assert!((th - em).abs() / span < 0.05);
    }
}

#[test]
fn fig14_small_loop_count_calibration() {
    let p = &fig14_accelerator(&[64], 1_000)[0];
    assert!((p.rtt_ns - 570.0).abs() < 3.0);
    assert_eq!(p.capacity, 89);
}

#[test]
fn fig15_single_point() {
    let p = &fig15_replicator(&[64], 1, 1_000_000)[0];
    assert!((p.delay_ns - 389.0).abs() < 3.0);
    assert!(p.delay_rmse_ns < 4.5);
}

#[test]
fn fig16_models() {
    let g = fig16_digest_goodput(&[16, 256]);
    assert!(g[1].1 > g[0].1);
    let p = fig16_counter_pull(&[65536]);
    assert!((p[0].2 - 0.2).abs() < 0.02);
}

#[test]
fn fig17_small_flow_count() {
    let rows = fig17_exact_match(&[50_000], 16, 16, 2);
    assert!(rows[0].1 < 10.0, "entries {}", rows[0].1);
}

#[test]
fn fig18_state_based_precision() {
    let (_, stddev, n) = fig18_state_based(600_000, 150);
    assert!(n > 100);
    assert!(stddev < 60.0);
}

#[test]
fn table7_shape() {
    let rows = table7_rows();
    assert_eq!(rows.len(), 8);
    let accel = &rows[0];
    assert!(accel.normalized.sram < 0.02);
    let distinct = rows.iter().find(|r| r.component.starts_with("distinct")).unwrap();
    assert!(distinct.normalized.salu > 0.25);
}

#[test]
fn table8_extrapolation_constants() {
    // Only the analytic part (the full testbed run lives in the binary).
    let est_mpps: f64 = 6.5 * 0.8 * 1e12 / ((64.0 + 20.0) * 8.0) / 1e6;
    assert!((est_mpps - 7738.0).abs() < 1.0);
}

#[test]
fn ablations_at_reduced_scale() {
    let rows = accuracy_ablation(4_000, 10);
    assert_eq!(rows[0].exact_keys, rows[0].total_keys, "HT must be exact");
    assert!(rows[1].mean_rel_error > rows[0].mean_rel_error);

    let occ = cuckoo_occupancy(10, &[0.5]);
    assert!(occ[0].cuckoo_resident > occ[0].single_resident);
}
