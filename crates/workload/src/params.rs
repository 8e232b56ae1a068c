//! Workload parameters.

use causal_types::{Error, Result, MAX_VARS};

/// How target variables are drawn.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum VarDistribution {
    /// Uniform over the `q` variables — the paper's setting.
    Uniform,
    /// Zipf with exponent `theta` (rank-1 most popular). An extension used
    /// by the `ablation_zipf` bench; `theta = 0` degenerates to uniform.
    Zipf {
        /// Skew exponent (`≈ 0.99` models typical key-value workloads).
        theta: f64,
    },
    /// A two-tier hotspot: accesses hit a small "hot" prefix of the
    /// variable space with high probability and the cold remainder
    /// uniformly otherwise. Unlike Zipf's smooth decay this concentrates
    /// conflicts on a handful of variables — the worst case for
    /// `LastWriteOn` slot churn in the soak scenarios.
    Hotspot {
        /// Fraction of the variable space that is hot (`0 < hot_frac ≤ 1`;
        /// at least one variable is always hot).
        hot_frac: f64,
        /// Probability an access targets the hot set.
        hot_prob: f64,
    },
}

/// Parameters of one simulated workload.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct WorkloadParams {
    /// Number of processes / sites (`n`).
    pub n: usize,
    /// Number of shared variables (`q`). The paper uses 100.
    pub q: usize,
    /// Operations per process. The paper runs `600·n` events in total, i.e.
    /// 600 per process.
    pub events_per_process: usize,
    /// Probability that an operation is a write: `w_rate = w / (w + r)`.
    pub w_rate: f64,
    /// Minimum inter-event delay, milliseconds (paper: 5).
    pub min_delay_ms: u64,
    /// Maximum inter-event delay, milliseconds (paper: 2005).
    pub max_delay_ms: u64,
    /// Fraction of each process's leading events excluded from measurement
    /// (paper: 0.15).
    pub warmup_frac: f64,
    /// Variable selection distribution.
    pub var_dist: VarDistribution,
    /// Modeled payload length attached to each written value, bytes. Not
    /// counted as metadata; used by payload-aware analyses (§V-C).
    pub payload_len: u32,
    /// RNG seed. Runs with equal seeds generate identical schedules.
    pub seed: u64,
}

impl WorkloadParams {
    /// The paper's benchmark setting for `n` processes at a given write
    /// rate: `q = 100`, 600 events per process, delays U[5 ms, 2005 ms],
    /// 15 % warm-up, uniform variable choice.
    pub fn paper(n: usize, w_rate: f64, seed: u64) -> Self {
        WorkloadParams {
            n,
            q: 100,
            events_per_process: 600,
            w_rate,
            min_delay_ms: 5,
            max_delay_ms: 2005,
            warmup_frac: 0.15,
            var_dist: VarDistribution::Uniform,
            payload_len: 0,
            seed,
        }
    }

    /// A miniature variant for fast tests: same shape, far fewer events.
    pub fn small(n: usize, w_rate: f64, seed: u64) -> Self {
        WorkloadParams {
            events_per_process: 60,
            ..Self::paper(n, w_rate, seed)
        }
    }

    /// Soak-test base setting: the paper's shape (`q = 100`) but a dense
    /// operation stream (delays U[1 ms, 10 ms] instead of U[5 ms, 2005 ms])
    /// so multi-million-event memory soaks stay tractable in virtual time.
    /// Callers set `events_per_process` and `var_dist` per scenario.
    pub fn soak(n: usize, w_rate: f64, seed: u64) -> Self {
        WorkloadParams {
            min_delay_ms: 1,
            max_delay_ms: 10,
            ..Self::paper(n, w_rate, seed)
        }
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if self.n == 0 {
            return Err(Error::InvalidConfig("n must be positive".into()));
        }
        if self.q == 0 {
            return Err(Error::InvalidConfig("q must be positive".into()));
        }
        if self.q > MAX_VARS {
            return Err(Error::InvalidConfig(format!(
                "q must be at most {MAX_VARS}, got {}",
                self.q
            )));
        }
        if !(0.0..=1.0).contains(&self.w_rate) {
            return Err(Error::InvalidConfig(format!(
                "w_rate must be in [0, 1], got {}",
                self.w_rate
            )));
        }
        if self.min_delay_ms > self.max_delay_ms {
            return Err(Error::InvalidConfig(
                "min_delay_ms must not exceed max_delay_ms".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.warmup_frac) {
            return Err(Error::InvalidConfig("warmup_frac must be in [0, 1)".into()));
        }
        match self.var_dist {
            VarDistribution::Uniform => {}
            VarDistribution::Zipf { theta } => {
                if theta.is_nan() || theta < 0.0 {
                    return Err(Error::InvalidConfig("zipf theta must be ≥ 0".into()));
                }
            }
            VarDistribution::Hotspot { hot_frac, hot_prob } => {
                if !(hot_frac > 0.0 && hot_frac <= 1.0) {
                    return Err(Error::InvalidConfig(format!(
                        "hotspot hot_frac must be in (0, 1], got {hot_frac}"
                    )));
                }
                if !(0.0..=1.0).contains(&hot_prob) || hot_prob.is_nan() {
                    return Err(Error::InvalidConfig(format!(
                        "hotspot hot_prob must be in [0, 1], got {hot_prob}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Number of leading events per process excluded from measurement.
    pub fn warmup_events(&self) -> usize {
        (self.events_per_process as f64 * self.warmup_frac).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_section_iv() {
        let p = WorkloadParams::paper(40, 0.5, 1);
        assert_eq!(p.q, 100);
        assert_eq!(p.events_per_process, 600);
        assert_eq!(p.min_delay_ms, 5);
        assert_eq!(p.max_delay_ms, 2005);
        assert_eq!(p.warmup_events(), 90, "15% of 600");
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let mut p = WorkloadParams::paper(5, 0.5, 1);
        p.w_rate = 1.5;
        assert!(p.validate().is_err());
        let mut p = WorkloadParams::paper(5, 0.5, 1);
        p.n = 0;
        assert!(p.validate().is_err());
        let mut p = WorkloadParams::paper(5, 0.5, 1);
        p.min_delay_ms = 10_000;
        assert!(p.validate().is_err());
        let mut p = WorkloadParams::paper(5, 0.5, 1);
        p.var_dist = VarDistribution::Zipf { theta: f64::NAN };
        assert!(p.validate().is_err());
    }

    #[test]
    fn soak_preset_is_dense_but_paper_shaped() {
        let p = WorkloadParams::soak(8, 0.5, 1);
        assert_eq!(p.q, 100);
        assert_eq!((p.min_delay_ms, p.max_delay_ms), (1, 10));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn hotspot_validation() {
        let mut p = WorkloadParams::paper(5, 0.5, 1);
        p.var_dist = VarDistribution::Hotspot {
            hot_frac: 0.1,
            hot_prob: 0.9,
        };
        assert!(p.validate().is_ok());
        p.var_dist = VarDistribution::Hotspot {
            hot_frac: 0.0,
            hot_prob: 0.9,
        };
        assert!(p.validate().is_err(), "empty hot set");
        p.var_dist = VarDistribution::Hotspot {
            hot_frac: 1.5,
            hot_prob: 0.9,
        };
        assert!(p.validate().is_err(), "hot_frac above 1");
        p.var_dist = VarDistribution::Hotspot {
            hot_frac: 0.1,
            hot_prob: 1.5,
        };
        assert!(p.validate().is_err(), "hot_prob above 1");
        p.var_dist = VarDistribution::Hotspot {
            hot_frac: 0.1,
            hot_prob: f64::NAN,
        };
        assert!(p.validate().is_err(), "NaN hot_prob");
    }
}
