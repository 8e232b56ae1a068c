//! The periodic ticks: durability checkpoints and causal-stability
//! heartbeat, frontier advance and garbage collection.

use super::Sim;
use crate::kernel::SimEvent;
use causal_obs::EventKind;
use causal_proto::StableCut;
use causal_types::{SimDuration, SiteId};

impl Sim<'_> {
    /// Schedule a periodic `tick` to fire `after` from now.
    pub(super) fn arm_tick(&mut self, after: SimDuration, tick: SimEvent) {
        self.ticks_armed += 1;
        self.heap.push(self.now + after, tick);
    }

    /// The tick being handled left the heap; report whether it should be
    /// re-armed. A tick keeps ticking only while the run is otherwise
    /// live — some event that is not itself a periodic tick is pending —
    /// so the cadence never keeps a quiescent system awake, and two
    /// cadences never keep each other awake.
    fn tick_fired(&mut self) -> bool {
        self.ticks_armed -= 1;
        self.heap.len() > self.ticks_armed
    }

    pub(super) fn on_checkpoint_tick(&mut self) {
        let rearm = self.tick_fired();
        self.checkpoint_dirty();
        if rearm {
            let every = self.cfg.durability.checkpoint_every;
            let every = every.expect("checkpoint tick without an interval");
            self.arm_tick(every, SimEvent::CheckpointTick);
        }
    }

    pub(super) fn on_stability_tick(&mut self) {
        let rearm = self.tick_fired();
        let up = match self.chaos.as_ref() {
            Some(c) => c.up(),
            None => vec![true; self.n],
        };
        let live = || SiteId::all(up.len()).filter(|s| up[s.index()]);
        let stab = self.stability.as_mut();
        let stab = stab.expect("stability tick without a plan");
        stab.heartbeat(&up);
        let advanced = stab.advance();
        self.metrics.stability_lag.record(stab.lag() as f64);
        let (gc, heartbeat_every) = (stab.plan.gc, stab.plan.heartbeat_every);
        for (origin, clock) in &advanced {
            self.emit(*origin, EventKind::FrontierAdvance { clock: *clock });
        }
        if gc {
            // Each live member collects behind *its own* — gossip-lagged,
            // hence always ≤ true — frontier; the stable counts are global
            // (exact), which is safe for the same reason: both only ever
            // under-approximate stability.
            for s in live() {
                let stab = self.stability.as_mut().expect("checked above");
                let cut = StableCut {
                    clocks: stab.site_frontier(s),
                    counts: stab.stable_counts(),
                };
                let stats = self.sites[s.index()].site_mut().gc_stable(&cut);
                if !stats.is_empty() {
                    let (log_entries, slots) = (stats.log_entries as u64, stats.slots as u64);
                    stab.gc_log_entries += log_entries;
                    stab.gc_slots += slots;
                    self.emit(s, EventKind::GcRun { log_entries, slots });
                }
            }
            // A frontier advance licenses stable checkpoints: the fresh
            // image folds the just-collected state and every WAL segment
            // behind it is deleted, so the durable footprint tracks the
            // unstable window too.
            if !advanced.is_empty() {
                self.checkpoint_dirty();
            }
            let stab = self.stability.as_mut().expect("checked above");
            // Harness-side retention keyed on stable writes can go too —
            // except while a checker history is recorded, because a
            // post-crash redelivery of even a stable write re-applies and
            // must stay deduplicated in the history.
            if self.history.is_none() {
                let gf = stab.global_frontier();
                if let Some(c) = self.chaos.as_mut() {
                    c.applied_seen.retain(|(_, w)| w.clock > gf[w.site.index()]);
                }
                for d in &mut self.sites {
                    d.gc_receipts(gf);
                }
            }
            let down_member = stab.members().iter().zip(&up).any(|(&m, &up)| m && !up);
            if advanced.is_empty() && down_member {
                stab.gc_stalled_ticks += 1;
            }
        }
        // Retained-metadata estimate (protocol meta + WAL): feeds the peak
        // gauge and the soft-cap backpressure decision.
        let sites = self.sites.iter();
        let mut retained: u64 = sites
            .map(|d| d.site().local_meta_size(&self.cfg.size_model))
            .sum();
        if let Some(stores) = self.chaos.as_ref().and_then(|c| c.stores.as_ref()) {
            retained += stores.iter().map(|st| st.retained_bytes()).sum::<u64>();
        }
        let stab = self.stability.as_mut().expect("checked above");
        let was_over = stab.over_cap;
        stab.sample_retained(retained);
        let backpressure = stab.over_cap && !was_over;
        let overdue = stab.overdue_scan(self.now);
        if backpressure {
            self.emit(SiteId::from(0), EventKind::Backpressure { retained });
        }
        for (s, w) in overdue {
            let (origin, clock) = (w.site, w.clock);
            self.emit(s, EventKind::BufferedOverdue { origin, clock });
        }
        if rearm {
            self.arm_tick(heartbeat_every, SimEvent::StabilityTick);
        }
    }
}
