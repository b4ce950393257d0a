//! `fp_precompute` — `compute_fp_indices` over seeded random flow spaces of
//! 10 k and 2 M keys at digest widths 16, 24 and 32 bits, plus one compile
//! of a `scan_sweep` task over a /12 (a ≈1 M-key header space).
//!
//! Why: Fig. 17's path, 30 % of the experiment suite's wall time.  10 k keys
//! sit in L2 while 2 M 16-byte keys plus their 24-byte triples overflow the
//! LLC, and 24/32-bit digests leave the counting sort for the comparison
//! sort — so a CRC-kernel or grouping change shows here and nowhere else.

use super::{first_failure, timed_rep, Rep, Scale};
use crate::front::{must_build, Loader, Source};
use crate::trace::Tracer;
use crate::util::{Fnv, Rng};
use hypertester::bench::experiments::random_flow_space;
use hypertester::ht::{Gbps, TesterConfig};
use hypertester::ntapi::fp::{compute_fp_indices, is_false_positive_pair, HashConfig, KeySpace};
use std::time::Instant;

/// Key-set sizes at full scale.
pub const SIZES: [u64; 2] = [10_000, 2_000_000];
pub const DIGEST_BITS: [u32; 3] = [16, 24, 32];
/// Keys of each set brute-forced against the diverted keys.
const SUBSAMPLE: usize = 5_000;
/// Prefix length of the scan at full scale (a /12 ≈ 1 M addresses); the
/// self-test scans a /15.
const SCAN_PREFIX: u8 = 12;

pub struct Inputs {
    pub spaces: Vec<KeySpace>,
    pub scan: Source,
    pub scan_prefix: u8,
}

pub fn inputs(seed: u64, scale: Scale) -> Inputs {
    let mut rng = Rng::new(seed, 6);
    let spaces =
        SIZES.iter().map(|&n| random_flow_space(scale.of(n) as usize, rng.next())).collect();
    let prefix = match scale {
        Scale::Full => SCAN_PREFIX,
        Scale::Check => SCAN_PREFIX + 3,
    };
    // 10.0.0.0/8 holds sixteen /12 blocks; every /15 of the self-test
    // starts at one of them too.
    let block = rng.range(0, 15) * 16;
    let text = format!(
        "# fp_precompute scan, seed {seed}\n\
         import \"lib/common.nt\"\n\
         T1 = scan_sweep(prefix=10.{block}.0.0/{prefix}, rate=1us)\n\
         Q1 = responders(flagmask=SYN+ACK)\n"
    );
    // The name stands in for a path under tasks/, so the import resolves to
    // the shipped template library.
    let scan = Source { name: "tasks/fp_scan.nt".into(), text, loader: Loader::FsText };
    Inputs { spaces, scan, scan_prefix: prefix }
}

/// Whether `diverted` (sorted indices into `space`) is sound on the first
/// `SUBSAMPLE` keys, by brute force: every diverted key of the subsample is
/// a false-positive pair with some key of the space, and no two kept keys
/// of the subsample are.
fn subsample_sound(space: &KeySpace, diverted: &[usize], cfg: &HashConfig) -> bool {
    let n = space.len().min(SUBSAMPLE);
    let is_diverted = |i: usize| diverted.binary_search(&i).is_ok();
    // A false-positive pair shares a digest, so digests computed once prune
    // the pair scans to the rare equal-digest candidates.  The whole set is
    // only needed when the subsample holds a diverted key to find a partner
    // for (at 24 and 32 digest bits it rarely does).
    let reach = if diverted.first().is_some_and(|&i| i < n) { space.len() } else { n };
    let digests: Vec<u64> = space.iter().take(reach).map(|k| cfg.digest(k)).collect();
    let collides = |i: usize, j: usize| {
        digests[i] == digests[j] && is_false_positive_pair(space.key(i), space.key(j), cfg)
    };
    let diverted_collide =
        diverted.iter().take_while(|&&i| i < n).all(|&i| (0..reach).any(|j| collides(i, j)));
    let kept: Vec<usize> = (0..n).filter(|&i| !is_diverted(i)).collect();
    let kept_clean =
        kept.iter().enumerate().all(|(a, &i)| kept[a + 1..].iter().all(|&j| !collides(i, j)));
    diverted_collide && kept_clean
}

pub fn setup_only(seed: u64, scale: Scale) {
    std::hint::black_box(inputs(seed, scale));
}

pub fn rep(seed: u64, scale: Scale, tr: &mut Tracer) -> Rep {
    timed_rep(tr, |tr, rep, start| {
        let inp = tr.span("bench.inputs", |_| inputs(seed, scale));
        rep.setup_s = start.elapsed().as_secs_f64();

        let mut digest = Fnv::default();
        for space in &inp.spaces {
            for &digest_bits in &DIGEST_BITS {
                let cfg = HashConfig { array_bits: 16, digest_bits };
                let t = Instant::now();
                let diverted = tr.span("ntapi.fp", |_| compute_fp_indices(space, &cfg));
                rep.core_s += t.elapsed().as_secs_f64();
                rep.work += space.len() as u64;
                tr.span("bench.verify", |_| {
                    rep.op(first_failure(&[
                        (
                            diverted.windows(2).all(|w| w[0] < w[1])
                                && diverted.last().is_none_or(|&i| i < space.len()),
                            format!("{} keys / {digest_bits} bits: bad index list", space.len()),
                        ),
                        (
                            subsample_sound(space, &diverted, &cfg),
                            format!("{} keys / {digest_bits} bits: unsound diversion", space.len()),
                        ),
                    ]));
                    digest.word(diverted.len() as u64);
                    digest.words(diverted.iter().map(|&i| i as u64));
                });
            }
        }

        // The scan compile reaches the same precompute through the compiler
        // (header-space enumeration → fp → exact-match entries).
        let cfg = TesterConfig::builder()
            .ports(1)
            .speed(Gbps(100))
            .build()
            .expect("static tester config");
        let t = Instant::now();
        let built = must_build(tr, &inp.scan, &cfg, &mut rep.front);
        rep.core_s += t.elapsed().as_secs_f64();
        let fp = built.task.queries.iter().find_map(|q| q.fp.as_ref());
        tr.span("bench.verify", |_| {
            let (space_size, entries) = fp.map_or((0, 0), |f| (f.space_size, f.entries.len()));
            rep.work += space_size as u64;
            // Every host address of the prefix, give or take the network
            // and broadcast addresses.
            rep.op(first_failure(&[(
                space_size + 2 >= 1 << (32 - inp.scan_prefix),
                format!("scan header space has {space_size} keys"),
            )]));
            digest.words([space_size as u64, entries as u64]);
        });
        rep.digest = digest.0;
    })
}
