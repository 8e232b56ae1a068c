//! Closed-loop load generation for the live serving path.
//!
//! A [`LoadProfile`] describes a fleet of synthetic clients: each site
//! hosts `clients_per_site` of them, and every client issues one
//! operation, waits for it to complete (a remote read blocks until its RM
//! returns), thinks for a jittered interval, and issues the next — the
//! closed-loop discipline real causal-store benchmarks use, where offered
//! load self-limits under back-pressure instead of queueing unboundedly.
//!
//! A site is one sequential process in the paper's model, so its clients
//! are multiplexed on the site's thread: while one client blocks in a
//! remote fetch, its siblings wait their turn. Think time is what keeps a
//! site's clients from degenerating into a single busy loop.
//!
//! The loop only schedules: the node times each operation and records its
//! completion latency into its own metrics, which the run merges.

use causal_types::{OpKind, SiteId, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The offered-load shape for a serving run.
#[derive(Clone, Debug)]
pub struct LoadProfile {
    /// Closed-loop clients multiplexed on each site's thread.
    pub clients_per_site: usize,
    /// Operations each client issues before retiring.
    pub ops_per_client: usize,
    /// Mean think time between a completion and the client's next issue;
    /// each gap is drawn uniformly from `[0.5, 1.5] ×` this mean.
    pub think: Duration,
    /// Fraction of operations that are writes.
    pub w_rate: f64,
    /// Number of variables (uniform access).
    pub q: usize,
    /// Base seed; every (site, client) pair derives its own stream.
    pub seed: u64,
    /// Time-bounded mode: when set, a client retires once its next issue
    /// would fall past this offset from run start, whether or not its
    /// operation budget is spent. `ops_per_client` then acts as a safety
    /// cap (set it high), and [`LoadProfile::total_ops`] is an upper
    /// bound rather than an exact count.
    pub duration: Option<Duration>,
}

impl LoadProfile {
    /// Total operations the whole fleet will issue across `n` sites — the
    /// exact count in budget mode, an upper bound when `duration` is set.
    pub fn total_ops(&self, n: usize) -> usize {
        n * self.clients_per_site * self.ops_per_client
    }
}

/// One synthetic client: its RNG stream, its next issue instant (as an
/// offset from run start), and its remaining operation budget.
struct Client {
    rng: StdRng,
    next_due: Duration,
    remaining: usize,
    think: Duration,
}

/// The closed-loop clients hosted by one site, in issue-ready form.
pub struct ClosedLoop {
    clients: Vec<Client>,
    q: usize,
    w_rate: f64,
    deadline: Option<Duration>,
}

impl ClosedLoop {
    /// Build `profile`'s client fleet for `site`.
    pub fn new(profile: &LoadProfile, site: SiteId) -> Self {
        assert!(profile.q > 0, "load profile needs at least one variable");
        assert!(
            (0.0..=1.0).contains(&profile.w_rate),
            "write rate must be a probability"
        );
        let clients = (0..profile.clients_per_site)
            .map(|c| {
                // Same golden-ratio mixing the workload generator uses for
                // per-site streams, extended with the client index so every
                // client draws an independent sequence.
                let sub_seed = profile
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(site.index() as u64 + 1)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(c as u64 + 1);
                let mut rng = StdRng::seed_from_u64(sub_seed);
                // Stagger first issues across one think interval so the
                // fleet does not fire in lockstep at t=0.
                let first = jitter(&mut rng, profile.think) / 2;
                Client {
                    rng,
                    next_due: first,
                    remaining: profile.ops_per_client,
                    think: profile.think,
                }
            })
            .collect();
        ClosedLoop {
            clients,
            q: profile.q,
            w_rate: profile.w_rate,
            deadline: profile.duration,
        }
    }

    /// Whether a client is still eligible to issue: budget left and — in
    /// time-bounded mode — its next issue scheduled before the deadline.
    fn eligible(&self, c: &Client) -> bool {
        c.remaining > 0 && self.deadline.is_none_or(|d| c.next_due < d)
    }

    /// When the next client is due to issue (offset from run start);
    /// `None` once every client has retired (budget spent, or next issue
    /// past the profile's deadline).
    pub fn next_due(&self) -> Option<Duration> {
        self.clients
            .iter()
            .filter(|c| self.eligible(c))
            .map(|c| c.next_due)
            .min()
    }

    /// Draw the due client's next operation. Only valid while
    /// [`ClosedLoop::next_due`] returns `Some`; returns the operation and
    /// the issuing client's index (hand it back via
    /// [`ClosedLoop::completed`]).
    pub fn pop(&mut self) -> (OpKind, usize) {
        let idx = self
            .clients
            .iter()
            .enumerate()
            .filter(|(_, c)| self.eligible(c))
            .min_by_key(|(_, c)| c.next_due)
            .map(|(i, _)| i)
            .expect("pop called on an exhausted loop");
        let c = &mut self.clients[idx];
        c.remaining -= 1;
        let var = VarId::from(c.rng.gen_range(0..self.q));
        let kind = if c.rng.gen_bool(self.w_rate) {
            OpKind::Write {
                var,
                data: c.rng.gen(),
            }
        } else {
            OpKind::Read { var }
        };
        (kind, idx)
    }

    /// `client`'s operation completed at `now_off`: schedule its next
    /// issue one think interval later.
    pub fn completed(&mut self, client: usize, now_off: Duration) {
        let c = &mut self.clients[client];
        c.next_due = now_off + jitter(&mut c.rng, c.think);
    }
}

/// A uniform draw from `[0.5, 1.5] × mean` (or exactly zero think time).
fn jitter(rng: &mut StdRng, mean: Duration) -> Duration {
    let mean_ns = mean.as_nanos() as u64;
    if mean_ns == 0 {
        return Duration::ZERO;
    }
    Duration::from_nanos(rng.gen_range(mean_ns / 2..=mean_ns + mean_ns / 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> LoadProfile {
        LoadProfile {
            clients_per_site: 3,
            ops_per_client: 5,
            think: Duration::from_millis(2),
            w_rate: 0.4,
            q: 10,
            seed: 42,
            duration: None,
        }
    }

    #[test]
    fn fleet_issues_exactly_its_budget() {
        let mut lp = ClosedLoop::new(&profile(), SiteId::from(0usize));
        let mut issued = 0;
        while lp.next_due().is_some() {
            let (_, c) = lp.pop();
            lp.completed(c, Duration::from_millis(issued as u64));
            issued += 1;
        }
        assert_eq!(issued, 15, "3 clients x 5 ops each");
    }

    #[test]
    fn sites_draw_distinct_operation_streams() {
        let ops = |site: usize| {
            let mut lp = ClosedLoop::new(&profile(), SiteId::from(site));
            let mut out = Vec::new();
            while lp.next_due().is_some() {
                let (k, c) = lp.pop();
                lp.completed(c, Duration::ZERO);
                out.push(k);
            }
            out
        };
        assert_ne!(ops(0), ops(1), "per-site sub-seeding must decorrelate");
        assert_eq!(ops(0), ops(0), "same seed must replay identically");
    }

    #[test]
    fn duration_bound_retires_clients_at_the_deadline() {
        let mut p = profile();
        p.ops_per_client = usize::MAX / 2; // effectively unbounded budget
        p.duration = Some(Duration::from_millis(20));
        let mut lp = ClosedLoop::new(&p, SiteId::from(0usize));
        let mut issued = 0u64;
        let mut now = Duration::ZERO;
        while let Some(due) = lp.next_due() {
            assert!(
                due < Duration::from_millis(20),
                "no issue past the deadline"
            );
            let (_, c) = lp.pop();
            now = now.max(due);
            lp.completed(c, now);
            issued += 1;
            assert!(issued < 10_000, "the deadline must terminate the loop");
        }
        // ~2 ms mean think over a 20 ms window, 3 clients: a handful of
        // ops each, not zero and nowhere near the budget cap.
        assert!(issued >= 3, "every client gets at least its first issue");
    }

    #[test]
    fn zero_think_time_is_legal() {
        let mut p = profile();
        p.think = Duration::ZERO;
        p.clients_per_site = 1;
        let mut lp = ClosedLoop::new(&p, SiteId::from(0usize));
        assert_eq!(lp.next_due(), Some(Duration::ZERO));
        let (_, c) = lp.pop();
        lp.completed(c, Duration::from_micros(7));
        assert_eq!(lp.next_due(), Some(Duration::from_micros(7)));
    }
}
