//! Deterministic schedule generation.

use crate::params::{VarDistribution, WorkloadParams};
use causal_types::{OpKind, ScheduledOp, SimDuration, SimTime, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A complete multi-process schedule: `per_site[i]` is process `ap_i`'s
/// pre-generated event list, sorted by issue time.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// One operation list per process.
    pub per_site: Vec<Vec<ScheduledOp>>,
    /// Events at indices `< warmup_events` within each process are warm-up.
    pub warmup_events: usize,
    /// The parameters that generated this schedule.
    pub params: WorkloadParams,
}

impl Schedule {
    /// Total number of operations across all processes.
    pub fn total_ops(&self) -> usize {
        self.per_site.iter().map(|v| v.len()).sum()
    }

    /// Total number of write operations across all processes.
    pub fn total_writes(&self) -> usize {
        self.per_site
            .iter()
            .flatten()
            .filter(|op| op.kind.is_write())
            .count()
    }
}

/// Precomputed CDF for Zipf sampling over `q` ranks.
fn zipf_cdf(q: usize, theta: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(q);
    let mut acc = 0.0;
    for rank in 1..=q {
        acc += 1.0 / (rank as f64).powf(theta);
        cdf.push(acc);
    }
    let total = acc;
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// Generate the per-process schedules for `params`. Deterministic in
/// `params.seed`; each process derives its own sub-seed so schedules are
/// independent of iteration order.
pub fn generate(params: &WorkloadParams) -> Schedule {
    params.validate().expect("invalid workload parameters");
    // The pickers must not disturb each other's RNG draw sequence: Uniform
    // consumes one `gen_range`, Zipf one `gen::<f64>()` — exactly as before
    // Hotspot existed — so pre-existing schedules stay byte-identical.
    let zipf = match params.var_dist {
        VarDistribution::Zipf { theta } if theta > 0.0 => Some(zipf_cdf(params.q, theta)),
        _ => None,
    };
    let hotspot = match params.var_dist {
        VarDistribution::Hotspot { hot_frac, hot_prob } => {
            let hot = ((params.q as f64 * hot_frac).ceil() as usize).clamp(1, params.q);
            Some((hot, hot_prob))
        }
        _ => None,
    };

    let per_site = (0..params.n)
        .map(|site| {
            // Decorrelate per-process streams with a SplitMix-style mix.
            let sub_seed = params
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(site as u64 + 1);
            let mut rng = StdRng::seed_from_u64(sub_seed);
            let mut t = SimTime::ZERO;
            (0..params.events_per_process)
                .map(|_| {
                    let delay = rng.gen_range(params.min_delay_ms..=params.max_delay_ms);
                    t += SimDuration::from_millis(delay);
                    let var = match (&zipf, hotspot) {
                        (Some(cdf), _) => {
                            let u: f64 = rng.gen();
                            let rank = cdf.partition_point(|&c| c < u);
                            VarId::from(rank.min(params.q - 1))
                        }
                        (None, Some((hot, hot_prob))) => {
                            if rng.gen_bool(hot_prob) || hot == params.q {
                                VarId::from(rng.gen_range(0..hot))
                            } else {
                                VarId::from(rng.gen_range(hot..params.q))
                            }
                        }
                        (None, None) => VarId::from(rng.gen_range(0..params.q)),
                    };
                    let kind = if rng.gen_bool(params.w_rate) {
                        OpKind::Write {
                            var,
                            data: rng.gen(),
                        }
                    } else {
                        OpKind::Read { var }
                    };
                    ScheduledOp { at: t, kind }
                })
                .collect()
        })
        .collect();

    Schedule {
        per_site,
        warmup_events: params.warmup_events(),
        params: *params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn schedule_shape_matches_params() {
        let p = WorkloadParams::paper(5, 0.5, 42);
        let s = generate(&p);
        assert_eq!(s.per_site.len(), 5);
        assert!(s.per_site.iter().all(|ops| ops.len() == 600));
        assert_eq!(s.total_ops(), 3000);
        assert_eq!(s.warmup_events, 90);
    }

    #[test]
    fn schedules_are_deterministic_in_seed() {
        let p = WorkloadParams::paper(4, 0.3, 7);
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a.per_site, b.per_site);
        let c = generate(&WorkloadParams::paper(4, 0.3, 8));
        assert_ne!(a.per_site, c.per_site, "different seed, different schedule");
    }

    #[test]
    fn issue_times_are_increasing_with_paper_gaps() {
        let p = WorkloadParams::paper(3, 0.5, 9);
        let s = generate(&p);
        for ops in &s.per_site {
            for w in ops.windows(2) {
                let gap = (w[1].at - w[0].at).as_nanos();
                assert!(gap >= 5_000_000, "gap below 5ms");
                assert!(gap <= 2_005_000_000, "gap above 2005ms");
            }
        }
    }

    #[test]
    fn empirical_write_rate_tracks_target() {
        for target in [0.2, 0.5, 0.8] {
            let p = WorkloadParams::paper(10, target, 11);
            let s = generate(&p);
            let got = s.total_writes() as f64 / s.total_ops() as f64;
            assert!((got - target).abs() < 0.03, "target {target}, got {got}");
        }
    }

    #[test]
    fn extreme_write_rates() {
        let all_writes = generate(&WorkloadParams::small(2, 1.0, 1));
        assert_eq!(all_writes.total_writes(), all_writes.total_ops());
        let all_reads = generate(&WorkloadParams::small(2, 0.0, 1));
        assert_eq!(all_reads.total_writes(), 0);
    }

    #[test]
    fn uniform_variables_cover_the_space() {
        let p = WorkloadParams::paper(5, 0.5, 3);
        let s = generate(&p);
        let mut seen = vec![false; p.q];
        for op in s.per_site.iter().flatten() {
            seen[op.kind.var().index()] = true;
        }
        let covered = seen.iter().filter(|&&b| b).count();
        assert!(covered > 95, "3000 uniform draws must cover ~all of q=100");
    }

    #[test]
    fn hotspot_concentrates_on_the_hot_prefix() {
        let mut p = WorkloadParams::paper(5, 0.5, 3);
        p.var_dist = VarDistribution::Hotspot {
            hot_frac: 0.05,
            hot_prob: 0.9,
        };
        let s = generate(&p);
        let hot: usize = s
            .per_site
            .iter()
            .flatten()
            .filter(|op| op.kind.var().index() < 5)
            .count();
        let frac = hot as f64 / s.total_ops() as f64;
        assert!(
            (frac - 0.9).abs() < 0.05,
            "hot-set share {frac} should be ≈ 0.9"
        );
        // Cold variables are still exercised.
        let mut seen = vec![false; p.q];
        for op in s.per_site.iter().flatten() {
            seen[op.kind.var().index()] = true;
        }
        assert!(seen[5..].iter().filter(|&&b| b).count() > 50);
    }

    #[test]
    fn full_width_hotspot_degenerates_to_uniform_coverage() {
        let mut p = WorkloadParams::paper(5, 0.5, 3);
        p.var_dist = VarDistribution::Hotspot {
            hot_frac: 1.0,
            hot_prob: 0.1,
        };
        let s = generate(&p);
        let mut seen = vec![false; p.q];
        for op in s.per_site.iter().flatten() {
            seen[op.kind.var().index()] = true;
        }
        assert!(seen.iter().filter(|&&b| b).count() > 95);
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let mut p = WorkloadParams::paper(5, 0.5, 3);
        p.var_dist = VarDistribution::Zipf { theta: 1.2 };
        let s = generate(&p);
        let mut counts = vec![0usize; p.q];
        for op in s.per_site.iter().flatten() {
            counts[op.kind.var().index()] += 1;
        }
        let head: usize = counts[..10].iter().sum();
        let tail: usize = counts[90..].iter().sum();
        assert!(
            head > 5 * tail.max(1),
            "zipf head {head} must dominate tail {tail}"
        );
    }

    proptest! {
        #[test]
        fn prop_schedule_well_formed(n in 1usize..8, w in 0.0f64..=1.0, seed in 0u64..1000) {
            let p = WorkloadParams::small(n, w, seed);
            let s = generate(&p);
            prop_assert_eq!(s.per_site.len(), n);
            for ops in &s.per_site {
                prop_assert_eq!(ops.len(), p.events_per_process);
                // Times strictly increase (positive gaps).
                for w2 in ops.windows(2) {
                    prop_assert!(w2[0].at < w2[1].at);
                }
                // Every variable is in range.
                for op in ops {
                    prop_assert!(op.kind.var().index() < p.q);
                }
            }
        }
    }
}
