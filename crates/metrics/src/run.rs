//! Per-run metric aggregation.

use crate::registry::SiteRegistry;
use crate::stats::{Histogram, MessageStats};
use causal_types::MsgKind;
use serde::{Deserialize, Serialize};

metrics_struct! {
    /// Everything measured during one simulation run.
    ///
    /// Two parallel message accumulators are kept: `measured` only counts
    /// traffic attributable to post-warm-up operations (the paper stores
    /// "experimental data ... after the first 15 % operation events to eliminate
    /// the side effect in startup"), while `all` covers the entire run (used for
    /// conservation checks in tests).
    pub struct RunMetrics {
        /// Post-warm-up traffic.
        pub measured: MessageStats => merge,
        /// Whole-run traffic.
        pub all: MessageStats => merge,
        /// Post-warm-up write operations issued.
        pub writes: u64 => sum,
        /// Post-warm-up read operations issued.
        pub reads: u64 => sum,
        /// Post-warm-up reads that needed a remote fetch.
        pub remote_reads: u64 => sum,
        /// Piggybacked dependency-structure entry counts sampled per SM
        /// (Opt-Track log entries, CRP tuples; `n`/`n²` for the clock
        /// protocols). Diagnoses the paper's `d` parameter.
        pub sm_entries: Histogram => merge,
        /// Updates applied across all sites (whole run).
        pub applies: u64 => sum,
        /// Largest pending-buffer population observed at any site.
        pub max_pending: usize => max,
        /// Virtual nanoseconds between an update's receipt and its apply
        /// (0 for updates applied on arrival). False causality — waiting on
        /// dependencies that are not real `→co` dependencies — shows up here.
        pub apply_latency_ns: Histogram => merge,
        /// Channel transit time per message, virtual nanoseconds (simulator
        /// runs only; reflects the latency model, partitions included).
        pub transit_ns: Histogram => merge,
        /// Data-frame retransmissions performed by the reliable transport
        /// (zero on a lossless network or when the transport is bypassed).
        pub retransmissions: u64 => sum,
        /// Frames discarded by the receiver as duplicates (already-delivered
        /// sequence numbers — fault-injected dups and spurious retransmits).
        pub dup_drops: u64 => sum,
        /// Ack frames sent by the transport.
        pub ack_count: u64 => sum,
        /// Wire bytes of those ack frames.
        pub ack_bytes: u64 => sum,
        /// Transport-envelope overhead bytes added to data frames (sequence
        /// numbers and incarnations), original sends and retransmissions alike.
        pub envelope_bytes: u64 => sum,
        /// Frames destroyed in transit by the fault plan.
        pub fault_drops: u64 => sum,
        /// Frames duplicated in transit by the fault plan.
        pub fault_dups: u64 => sum,
        /// Frames dropped because their destination site was crashed or the
        /// frame addressed a dead incarnation (stale epoch).
        pub crash_drops: u64 => sum,
        /// Sync-handshake frames exchanged during crash recoveries.
        pub sync_count: u64 => sum,
        /// Wire bytes of the sync handshake (ledgers + state snapshots).
        pub sync_bytes: u64 => sum,
        /// Virtual nanoseconds from each crash's recovery instant until the
        /// recovering site finished installing peer state.
        pub recovery_ns: Histogram => merge,
        /// Records appended to write-ahead logs (durable-storage model).
        pub wal_appends: u64 => sum,
        /// Modeled bytes of those WAL records.
        pub wal_bytes: u64 => sum,
        /// Protocol-state checkpoints taken.
        pub checkpoints: u64 => sum,
        /// Modeled bytes of checkpoint images written.
        pub checkpoint_bytes: u64 => sum,
        /// Recoveries that rebuilt state locally by WAL replay (checkpoint +
        /// log) instead of the full peer rebuild.
        pub recovery_replays: u64 => sum,
        /// Snapshot bytes *saved* by delta sync: full-snapshot size minus the
        /// delta actually shipped, summed over all delta-sync responses.
        pub delta_sync_saved_bytes: u64 => sum,
        /// Remote fetches re-issued to an alternate replica after the serving
        /// replica missed the fetch deadline.
        pub fetch_failovers: u64 => sum,
        /// Reads abandoned after every candidate replica missed the deadline —
        /// the run degrades (the read returns nothing) instead of hanging.
        pub degraded_reads: u64 => sum,
        /// Recoveries finished in degraded mode: a sync deadline expired before
        /// every expected peer responded (correlated-failure overlap).
        pub degraded_recoveries: u64 => sum,
        /// Records dropped by fail-soft WAL loads (torn-tail truncation).
        pub wal_truncated: u64 => sum,
        /// Membership view changes installed (epoch bumps: joins, leaves,
        /// migrations).
        pub view_changes: u64 => sum,
        /// View changes force-installed at the quiescence deadline (in-flight
        /// deliveries still pending — availability was chosen over waiting).
        pub views_forced: u64 => sum,
        /// Sites that joined the view (state-transfer bootstraps).
        pub joins: u64 => sum,
        /// Sites that left the view (graceful drains and fail-stop leaves).
        pub leaves: u64 => sum,
        /// Variables whose replica set was migrated live.
        pub migrations: u64 => sum,
        /// Modeled wire bytes of membership state transfers (join bootstraps
        /// and migration snapshots).
        pub churn_transfer_bytes: u64 => sum,
        /// Membership transfers that completed degraded: the donor died
        /// mid-transfer and no replacement held the state.
        pub churn_transfers_degraded: u64 => sum,
        /// Virtual nanoseconds from each view-change proposal to its install
        /// (the quiescence window).
        pub view_change_ns: Histogram => merge,
        /// Remote-fetch round-trip time, virtual nanoseconds (issue → return,
        /// including failover re-issues' tail).
        pub fetch_rtt_ns: Histogram => merge,
        /// Updates flagged by the stuck-buffer watchdog: parked past the
        /// overdue deadline without applying (each counted once).
        pub buffered_overdue: u64 => sum,
        /// Stability watermark rows exchanged (piggybacks + heartbeats).
        pub gossip_rows: u64 => sum,
        /// Modeled bytes of those rows (`8n` per row).
        pub gossip_bytes: u64 => sum,
        /// KS-log entries reclaimed behind the stable frontier.
        pub gc_log_entries: u64 => sum,
        /// Materialized `LastWriteOn` slots reclaimed behind the frontier.
        pub gc_slots: u64 => sum,
        /// Stability ticks where the frontier could not advance while some
        /// member was down — the expected GC pause under failure.
        pub gc_stalled_ticks: u64 => sum,
        /// Writes deferred because retained metadata exceeded the soft cap.
        pub backpressure_events: u64 => sum,
        /// Peak retained metadata estimate (protocol state + WAL bytes)
        /// sampled at stability ticks.
        pub retained_meta_peak: u64 => max,
        /// Peak count of writes issued but not yet globally stable.
        pub unstable_peak: u64 => max,
        /// WAL segments sealed (filled past the segment size limit).
        pub wal_segments_sealed: u64 => sum,
        /// Bytes of fully-checkpointed WAL segments deleted by truncation.
        pub wal_deleted_bytes: u64 => sum,
        /// Stability lag — max over origins of (issued − stable frontier) —
        /// sampled at every stability tick.
        pub stability_lag: Histogram => merge,
        /// Live-transport connection failures survived without taking the run
        /// down: frames refused because the peer socket died, oversized or
        /// corrupt frames that tore a connection down cleanly, and sends
        /// raced against a peer that already processed `Stop`. Zero on the
        /// simulator and on a healthy live run.
        pub transport_conn_errors: u64 => sum,
        /// Multi-update batch frames flushed by the per-destination batcher
        /// (zero when batching is off; lanes that flush a single update send
        /// it as a plain SM and do not count here).
        pub batch_flushes: u64 => sum,
        /// Updates that travelled inside a batch frame (≥ 2 per flush).
        pub batched_sms: u64 => sum,
        /// Modeled wire bytes saved by batching: the sum, per flush, of what
        /// the lane's updates would have cost as individual SMs minus the
        /// batch frame actually charged.
        pub batch_bytes_saved: u64 => sum,
        /// OS threads spawned by the live runtime for the run: the scheduler
        /// workers, on either fabric (they drive their sockets themselves).
        /// The coordinator is the caller's thread and is not counted. Zero on
        /// the simulator.
        pub threads_spawned: u64 => sum,
        /// `write(2)` calls issued by the TCP fabric's coalescing flushes —
        /// each syscall may carry many frames, so `all` frame counts divided
        /// by this is the amortisation factor. Zero on the channel fabric and
        /// the simulator.
        pub syscall_writes: u64 => sum,
        /// Frames those writes carried. A multicast's copies toward one peer
        /// worker share a frame, so this is at most — and under write-heavy
        /// load far below — the cross-worker share of `all`'s message count.
        pub transport_frames: u64 => sum,
        /// Flushes of a TCP endpoint that ended with the socket refusing bytes
        /// (`WouldBlock`), leaving a tail for a later pass — back-pressure from
        /// a peer that reads slower than this side writes. Zero on a healthy
        /// paced run, on the channel fabric and on the simulator.
        pub transport_write_stalls: u64 => sum,
        /// Deepest per-site backlog observed by the worker scheduler: the most
        /// frames one taken inbox batch held for one site.
        pub mailbox_depth_peak: u64 => max,
        /// Wall-clock nanoseconds from each closed-loop client operation's
        /// issue to its completion (live `serve` runs only).
        pub op_latency_ns: Histogram => merge,
        /// Per-site breakdown of the counters above (sends, delivers, applies,
        /// buffering, retransmits, dwell, fetch RTT).
        pub per_site: SiteRegistry => merge,
    }
}

impl RunMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one remote-fetch round trip (run total + per-site).
    pub fn record_fetch_rtt(&mut self, site_index: usize, ns: f64) {
        self.fetch_rtt_ns.record(ns);
        self.per_site.site_mut(site_index).fetch_rtt_ns.record(ns);
    }

    /// Record a message. `measured` marks post-warm-up attribution.
    pub fn record_msg(&mut self, kind: MsgKind, meta_bytes: u64, measured: bool) {
        self.all.record(kind, meta_bytes);
        if measured {
            self.measured.record(kind, meta_bytes);
        }
    }

    /// Site `site` sent the `k` copies of one multicast (`k = 1` for a
    /// unicast or a batch frame), `meta_bytes` each: the traffic totals and
    /// the site's send count, recorded once however many copies there are.
    /// `k = 0` records nothing.
    pub fn record_sends(
        &mut self,
        site: usize,
        kind: MsgKind,
        meta_bytes: u64,
        measured: bool,
        k: u64,
    ) {
        if k == 0 {
            return;
        }
        self.all.record_n(kind, meta_bytes, k);
        if measured {
            self.measured.record_n(kind, meta_bytes, k);
        }
        self.per_site.site_mut(site).sends += k;
    }

    /// A lane flushed `sms ≥ 2` updates as one batch frame that cost
    /// `saved` bytes less than the same updates sent alone.
    pub fn record_batch_flush(&mut self, sms: u64, saved: u64) {
        self.batch_flushes += 1;
        self.batched_sms += sms;
        self.batch_bytes_saved += saved;
    }

    /// Site `site` applied an update; `dwell_ns` is its receipt-to-apply
    /// time (`None` for the site's own writes, which have no receipt and
    /// do not contribute to the apply-latency statistics).
    pub fn record_apply(&mut self, site: usize, dwell_ns: Option<u64>) {
        self.applies += 1;
        let s = self.per_site.site_mut(site);
        s.applies += 1;
        if let Some(ns) = dwell_ns {
            s.dwell_ns.record(ns as f64);
            self.apply_latency_ns.record(ns as f64);
        }
    }

    /// One message reached site `site`'s protocol layer, leaving
    /// `buffered` more updates parked than before and `pending` parked in
    /// total.
    pub fn record_delivery(&mut self, site: usize, buffered: u64, pending: usize) {
        let s = self.per_site.site_mut(site);
        s.delivers += 1;
        s.buffered += buffered;
        self.max_pending = self.max_pending.max(pending);
    }

    /// Record an issued operation (post-warm-up only).
    pub fn record_op(&mut self, is_write: bool, remote: bool) {
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
            if remote {
                self.remote_reads += 1;
            }
        }
    }

    /// The empirical write rate over measured operations.
    pub fn w_rate(&self) -> f64 {
        let total = self.writes + self.reads;
        if total == 0 {
            0.0
        } else {
            self.writes as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_attribution() {
        let mut m = RunMetrics::new();
        m.record_msg(MsgKind::Sm, 100, false); // warm-up traffic
        m.record_msg(MsgKind::Sm, 200, true);
        assert_eq!(m.all.count(MsgKind::Sm), 2);
        assert_eq!(m.measured.count(MsgKind::Sm), 1);
        assert_eq!(m.measured.bytes(MsgKind::Sm), 200);
    }

    /// The per-copy rule `record_sends` replaced: one message, one send.
    fn record_send(m: &mut RunMetrics, site: usize, kind: MsgKind, bytes: u64, measured: bool) {
        m.record_msg(kind, bytes, measured);
        m.per_site.site_mut(site).sends += 1;
    }

    proptest::proptest! {
        #[test]
        fn prop_record_sends_equals_k_record_sends(
            sends in proptest::collection::vec(
                (0usize..4, 0usize..3, 0u64..5_000, proptest::prelude::any::<bool>(), 0u64..6),
                0..40,
            ),
        ) {
            let (mut once, mut each) = (RunMetrics::new(), RunMetrics::new());
            for &(site, kind, bytes, measured, k) in &sends {
                let kind = MsgKind::ALL[kind];
                once.record_sends(site, kind, bytes, measured, k);
                (0..k).for_each(|_| record_send(&mut each, site, kind, bytes, measured));
            }
            proptest::prop_assert_eq!(once.all, each.all);
            proptest::prop_assert_eq!(once.measured, each.measured);
            for site in 0..4 {
                let sends = |m: &RunMetrics| m.per_site.site(site).map(|s| s.sends);
                proptest::prop_assert_eq!(sends(&once), sends(&each));
            }
        }
    }

    #[test]
    fn op_bookkeeping_and_w_rate() {
        let mut m = RunMetrics::new();
        m.record_op(true, false);
        m.record_op(false, true);
        m.record_op(false, false);
        assert_eq!(m.writes, 1);
        assert_eq!(m.reads, 2);
        assert_eq!(m.remote_reads, 1);
        assert!((m.w_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RunMetrics::new();
        a.record_msg(MsgKind::Rm, 50, true);
        a.record_op(true, false);
        let mut b = RunMetrics::new();
        b.record_msg(MsgKind::Rm, 70, true);
        b.record_op(false, true);
        b.max_pending = 9;
        a.merge(&b);
        assert_eq!(a.measured.count(MsgKind::Rm), 2);
        assert_eq!(a.measured.bytes(MsgKind::Rm), 120);
        assert_eq!(a.writes, 1);
        assert_eq!(a.reads, 1);
        assert_eq!(a.max_pending, 9);
    }

    /// The fold rule of every field, stated a second time: the struct
    /// pattern below has no `..`, so a field added to [`RunMetrics`] does
    /// not compile until it is given a rule here too.
    #[test]
    fn merge_folds_every_field_by_its_declared_rule() {
        macro_rules! want {
            (sum, $a:expr, $b:expr) => {
                $a + $b
            };
            (max, $a:expr, $b:expr) => {
                $a.max($b)
            };
        }
        macro_rules! check {
            (counters { $($field:ident: $rule:ident,)* } histograms { $($stat:ident,)* }) => {{
                let (mut a, mut b) = (RunMetrics::new(), RunMetrics::new());
                // Distinct values per field; the larger side alternates so
                // a `max` that always kept one side would show.
                let sides = |i: u64| if i % 2 == 0 { (100 + i, 1000 + i) } else { (1000 + i, 100 + i) };
                let mut i = 0;
                $( i += 1; (a.$field, b.$field) = sides(i); )*
                (a.max_pending, b.max_pending) = (7, 3);
                $(
                    a.$stat.record(4.0);
                    b.$stat.record(1.0);
                    b.$stat.record(10.0);
                )*
                a.record_msg(MsgKind::Sm, 10, true);
                b.record_msg(MsgKind::Sm, 20, false);
                a.per_site.site_mut(0).sends = 1;
                b.per_site.site_mut(1).sends = 2;

                a.merge(&b);
                let mut i = 0;
                $(
                    i += 1;
                    let (x, y) = sides(i);
                    assert_eq!(a.$field, want!($rule, x, y), stringify!($field));
                )*
                assert_eq!(a.max_pending, 7);
                $(
                    assert_eq!(a.$stat.count(), 3, stringify!($stat));
                    assert!((a.$stat.mean() - 5.0).abs() < 1e-12, stringify!($stat));
                    assert_eq!(a.$stat.min(), Some(1.0), stringify!($stat));
                    assert_eq!(a.$stat.max(), Some(10.0), stringify!($stat));
                    // The merged tail covers both sides: the median is this
                    // side's sample, the p99 the other side's largest.
                    assert_eq!(a.$stat.quantile(0.5), Some(4.0), stringify!($stat));
                    assert_eq!(a.$stat.quantile(0.99), Some(10.0), stringify!($stat));
                )*
                assert_eq!(a.all.bytes(MsgKind::Sm), 30);
                assert_eq!(a.measured.bytes(MsgKind::Sm), 10);
                assert_eq!(a.per_site.len(), 2);
                let RunMetrics {
                    $($field: _,)*
                    $($stat: _,)*
                    max_pending: _,
                    measured: _,
                    all: _,
                    per_site: _,
                } = a;
            }};
        }
        check! {
            counters {
                writes: sum,
                reads: sum,
                remote_reads: sum,
                applies: sum,
                retransmissions: sum,
                dup_drops: sum,
                ack_count: sum,
                ack_bytes: sum,
                envelope_bytes: sum,
                fault_drops: sum,
                fault_dups: sum,
                crash_drops: sum,
                sync_count: sum,
                sync_bytes: sum,
                wal_appends: sum,
                wal_bytes: sum,
                checkpoints: sum,
                checkpoint_bytes: sum,
                recovery_replays: sum,
                delta_sync_saved_bytes: sum,
                fetch_failovers: sum,
                degraded_reads: sum,
                degraded_recoveries: sum,
                wal_truncated: sum,
                view_changes: sum,
                views_forced: sum,
                joins: sum,
                leaves: sum,
                migrations: sum,
                churn_transfer_bytes: sum,
                churn_transfers_degraded: sum,
                buffered_overdue: sum,
                gossip_rows: sum,
                gossip_bytes: sum,
                gc_log_entries: sum,
                gc_slots: sum,
                gc_stalled_ticks: sum,
                backpressure_events: sum,
                retained_meta_peak: max,
                unstable_peak: max,
                wal_segments_sealed: sum,
                wal_deleted_bytes: sum,
                transport_conn_errors: sum,
                batch_flushes: sum,
                batched_sms: sum,
                batch_bytes_saved: sum,
                threads_spawned: sum,
                syscall_writes: sum,
                transport_frames: sum,
                transport_write_stalls: sum,
                mailbox_depth_peak: max,
            }
            histograms {
                sm_entries,
                apply_latency_ns,
                transit_ns,
                recovery_ns,
                view_change_ns,
                fetch_rtt_ns,
                stability_lag,
                op_latency_ns,
            }
        }
    }

    /// Two nodes' fetch round trips and apply dwells, merged as the
    /// runtime's `drive` merges them: the result is the pooled samples'
    /// histogram, so the mean, the extremes and the tail are theirs.
    #[test]
    fn merged_means_match_the_replayed_mean_formula_and_moments_are_exact() {
        let nodes: [&[u64]; 2] = [&[1_000, 3_000, 8_000], &[500, 2_500]];
        let mut merged = RunMetrics::new();
        let mut pooled = Histogram::new();
        for (site, samples) in nodes.iter().enumerate() {
            let mut node = RunMetrics::new();
            for &ns in *samples {
                node.record_fetch_rtt(site, ns as f64);
                node.record_apply(site, Some(ns * 2));
                pooled.record(ns as f64);
            }
            merged.merge(&node);
        }
        assert_eq!(merged.fetch_rtt_ns, pooled);
        assert_eq!(merged.fetch_rtt_ns.mean(), 3_000.0);
        assert_eq!(merged.apply_latency_ns.mean(), 6_000.0);
        assert_eq!(merged.fetch_rtt_ns.min(), Some(500.0));
        assert_eq!(merged.fetch_rtt_ns.quantile(0.99), Some(8_000.0));
        assert_eq!(merged.apply_latency_ns.max(), Some(16_000.0));
    }

    #[test]
    fn batching_counters_merge_and_default_to_zero() {
        let fresh = RunMetrics::new();
        assert_eq!(fresh.batch_flushes, 0);
        assert_eq!(fresh.batched_sms, 0);
        assert_eq!(fresh.batch_bytes_saved, 0);
        let mut a = RunMetrics::new();
        a.batch_flushes = 2;
        a.batched_sms = 7;
        a.batch_bytes_saved = 500;
        let mut b = RunMetrics::new();
        b.batch_flushes = 3;
        b.batched_sms = 11;
        b.batch_bytes_saved = 1500;
        a.merge(&b);
        assert_eq!(a.batch_flushes, 5);
        assert_eq!(a.batched_sms, 18);
        assert_eq!(a.batch_bytes_saved, 2000);
    }

    #[test]
    fn conn_error_counter_defaults_to_zero_and_merges() {
        let fresh = RunMetrics::new();
        assert_eq!(fresh.transport_conn_errors, 0);
        let mut a = RunMetrics::new();
        a.transport_conn_errors = 2;
        let mut b = RunMetrics::new();
        b.transport_conn_errors = 3;
        a.merge(&b);
        assert_eq!(a.transport_conn_errors, 5);
    }

    #[test]
    fn empty_w_rate_is_zero() {
        assert_eq!(RunMetrics::new().w_rate(), 0.0);
    }

    #[test]
    fn transport_counters_merge() {
        let mut a = RunMetrics::new();
        a.retransmissions = 3;
        a.fault_drops = 2;
        a.sync_bytes = 100;
        let mut b = RunMetrics::new();
        b.retransmissions = 4;
        b.dup_drops = 1;
        b.ack_count = 9;
        b.ack_bytes = 90;
        b.envelope_bytes = 240;
        b.fault_dups = 5;
        b.crash_drops = 6;
        b.sync_count = 7;
        b.recovery_ns.record(1_000.0);
        a.merge(&b);
        assert_eq!(a.retransmissions, 7);
        assert_eq!(a.dup_drops, 1);
        assert_eq!(a.ack_count, 9);
        assert_eq!(a.ack_bytes, 90);
        assert_eq!(a.envelope_bytes, 240);
        assert_eq!(a.fault_drops, 2);
        assert_eq!(a.fault_dups, 5);
        assert_eq!(a.crash_drops, 6);
        assert_eq!(a.sync_count, 7);
        assert_eq!(a.sync_bytes, 100);
        assert_eq!(a.recovery_ns.count(), 1);
    }

    #[test]
    fn fetch_rtt_lands_in_totals_and_per_site() {
        let mut m = RunMetrics::new();
        m.record_fetch_rtt(2, 1_000.0);
        m.record_fetch_rtt(2, 3_000.0);
        m.record_fetch_rtt(0, 500.0);
        assert_eq!(m.fetch_rtt_ns.count(), 3);
        assert_eq!(m.fetch_rtt_ns.quantile(0.99), Some(3_000.0));
        assert_eq!(m.per_site.site(2).unwrap().fetch_rtt_ns.count(), 2);
        assert_eq!(m.per_site.site(0).unwrap().fetch_rtt_ns.count(), 1);

        let mut other = RunMetrics::new();
        other.record_fetch_rtt(1, 2_000.0);
        other.per_site.site_mut(1).sends = 4;
        m.merge(&other);
        assert_eq!(m.fetch_rtt_ns.count(), 4);
        assert_eq!(m.per_site.site(1).unwrap().fetch_rtt_ns.count(), 1);
        assert_eq!(m.per_site.site(1).unwrap().sends, 4);
    }

    #[test]
    fn durability_counters_merge() {
        let mut a = RunMetrics::new();
        a.wal_appends = 10;
        a.checkpoints = 2;
        a.fetch_failovers = 1;
        let mut b = RunMetrics::new();
        b.wal_appends = 5;
        b.wal_bytes = 500;
        b.checkpoint_bytes = 400;
        b.recovery_replays = 1;
        b.delta_sync_saved_bytes = 123;
        b.degraded_reads = 2;
        b.degraded_recoveries = 1;
        a.merge(&b);
        assert_eq!(a.wal_appends, 15);
        assert_eq!(a.wal_bytes, 500);
        assert_eq!(a.checkpoints, 2);
        assert_eq!(a.checkpoint_bytes, 400);
        assert_eq!(a.recovery_replays, 1);
        assert_eq!(a.delta_sync_saved_bytes, 123);
        assert_eq!(a.fetch_failovers, 1);
        assert_eq!(a.degraded_reads, 2);
        assert_eq!(a.degraded_recoveries, 1);
    }

    #[test]
    fn stability_counters_merge() {
        let mut a = RunMetrics::new();
        a.buffered_overdue = 1;
        a.gossip_rows = 10;
        a.retained_meta_peak = 900;
        a.unstable_peak = 5;
        a.stability_lag.record(4.0);
        let mut b = RunMetrics::new();
        b.buffered_overdue = 2;
        b.gossip_rows = 20;
        b.gossip_bytes = 640;
        b.gc_log_entries = 30;
        b.gc_slots = 12;
        b.gc_stalled_ticks = 3;
        b.backpressure_events = 1;
        b.retained_meta_peak = 700;
        b.unstable_peak = 8;
        b.wal_segments_sealed = 4;
        b.wal_deleted_bytes = 4_096;
        b.stability_lag.record(6.0);
        a.merge(&b);
        assert_eq!(a.buffered_overdue, 3);
        assert_eq!(a.gossip_rows, 30);
        assert_eq!(a.gossip_bytes, 640);
        assert_eq!(a.gc_log_entries, 30);
        assert_eq!(a.gc_slots, 12);
        assert_eq!(a.gc_stalled_ticks, 3);
        assert_eq!(a.backpressure_events, 1);
        assert_eq!(a.retained_meta_peak, 900, "peaks max, not sum");
        assert_eq!(a.unstable_peak, 8);
        assert_eq!(a.wal_segments_sealed, 4);
        assert_eq!(a.wal_deleted_bytes, 4_096);
        assert_eq!(a.stability_lag.count(), 2);
        assert!((a.stability_lag.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn churn_counters_merge() {
        let mut a = RunMetrics::new();
        a.wal_truncated = 2;
        a.view_changes = 3;
        a.joins = 1;
        a.view_change_ns.record(5_000.0);
        let mut b = RunMetrics::new();
        b.wal_truncated = 1;
        b.view_changes = 2;
        b.views_forced = 1;
        b.joins = 1;
        b.leaves = 2;
        b.migrations = 4;
        b.churn_transfer_bytes = 1_234;
        b.churn_transfers_degraded = 1;
        b.view_change_ns.record(7_000.0);
        a.merge(&b);
        assert_eq!(a.wal_truncated, 3);
        assert_eq!(a.view_changes, 5);
        assert_eq!(a.views_forced, 1);
        assert_eq!(a.joins, 2);
        assert_eq!(a.leaves, 2);
        assert_eq!(a.migrations, 4);
        assert_eq!(a.churn_transfer_bytes, 1_234);
        assert_eq!(a.churn_transfers_degraded, 1);
        assert_eq!(a.view_change_ns.count(), 2);
    }
}
