//! Per-run metric aggregation.

use crate::quantile::P2Quantile;
use crate::registry::SiteRegistry;
use crate::stats::{MessageStats, StatAccum};
use causal_types::MsgKind;
use serde::{Deserialize, Serialize};

/// Everything measured during one simulation run.
///
/// Two parallel message accumulators are kept: `measured` only counts
/// traffic attributable to post-warm-up operations (the paper stores
/// "experimental data ... after the first 15 % operation events to eliminate
/// the side effect in startup"), while `all` covers the entire run (used for
/// conservation checks in tests).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Post-warm-up traffic.
    pub measured: MessageStats,
    /// Whole-run traffic.
    pub all: MessageStats,
    /// Post-warm-up write operations issued.
    pub writes: u64,
    /// Post-warm-up read operations issued.
    pub reads: u64,
    /// Post-warm-up reads that needed a remote fetch.
    pub remote_reads: u64,
    /// Piggybacked dependency-structure entry counts sampled per SM
    /// (Opt-Track log entries, CRP tuples; `n`/`n²` for the clock
    /// protocols). Diagnoses the paper's `d` parameter.
    pub sm_entries: StatAccum,
    /// Updates applied across all sites (whole run).
    pub applies: u64,
    /// Largest pending-buffer population observed at any site.
    pub max_pending: usize,
    /// Virtual nanoseconds between an update's receipt and its apply
    /// (0 for updates applied on arrival). False causality — waiting on
    /// dependencies that are not real `→co` dependencies — shows up here.
    pub apply_latency_ns: StatAccum,
    /// Pending-buffer population sampled after every delivery event.
    pub pending_samples: StatAccum,
    /// Channel transit time per message, virtual nanoseconds (simulator
    /// runs only; reflects the latency model, partitions included).
    pub transit_ns: StatAccum,
    /// p99 of the apply latency (streaming P² estimate) — tail buffering
    /// that the mean hides.
    pub apply_latency_p99: P2Quantile,
    /// Data-frame retransmissions performed by the reliable transport
    /// (zero on a lossless network or when the transport is bypassed).
    pub retransmissions: u64,
    /// Frames discarded by the receiver as duplicates (already-delivered
    /// sequence numbers — fault-injected dups and spurious retransmits).
    pub dup_drops: u64,
    /// Ack frames sent by the transport.
    pub ack_count: u64,
    /// Wire bytes of those ack frames.
    pub ack_bytes: u64,
    /// Transport-envelope overhead bytes added to data frames (sequence
    /// numbers and incarnations), original sends and retransmissions alike.
    pub envelope_bytes: u64,
    /// Frames destroyed in transit by the fault plan.
    pub fault_drops: u64,
    /// Frames duplicated in transit by the fault plan.
    pub fault_dups: u64,
    /// Frames dropped because their destination site was crashed or the
    /// frame addressed a dead incarnation (stale epoch).
    pub crash_drops: u64,
    /// Sync-handshake frames exchanged during crash recoveries.
    pub sync_count: u64,
    /// Wire bytes of the sync handshake (ledgers + state snapshots).
    pub sync_bytes: u64,
    /// Virtual nanoseconds from each crash's recovery instant until the
    /// recovering site finished installing peer state.
    pub recovery_ns: StatAccum,
    /// Records appended to write-ahead logs (durable-storage model).
    pub wal_appends: u64,
    /// Modeled bytes of those WAL records.
    pub wal_bytes: u64,
    /// Protocol-state checkpoints taken.
    pub checkpoints: u64,
    /// Modeled bytes of checkpoint images written.
    pub checkpoint_bytes: u64,
    /// Recoveries that rebuilt state locally by WAL replay (checkpoint +
    /// log) instead of the full peer rebuild.
    pub recovery_replays: u64,
    /// Snapshot bytes *saved* by delta sync: full-snapshot size minus the
    /// delta actually shipped, summed over all delta-sync responses.
    pub delta_sync_saved_bytes: u64,
    /// Remote fetches re-issued to an alternate replica after the serving
    /// replica missed the fetch deadline.
    pub fetch_failovers: u64,
    /// Reads abandoned after every candidate replica missed the deadline —
    /// the run degrades (the read returns nothing) instead of hanging.
    pub degraded_reads: u64,
    /// Recoveries finished in degraded mode: a sync deadline expired before
    /// every expected peer responded (correlated-failure overlap).
    pub degraded_recoveries: u64,
    /// Records dropped by fail-soft WAL loads (torn-tail truncation).
    pub wal_truncated: u64,
    /// Membership view changes installed (epoch bumps: joins, leaves,
    /// migrations).
    pub view_changes: u64,
    /// View changes force-installed at the quiescence deadline (in-flight
    /// deliveries still pending — availability was chosen over waiting).
    pub views_forced: u64,
    /// Sites that joined the view (state-transfer bootstraps).
    pub joins: u64,
    /// Sites that left the view (graceful drains and fail-stop leaves).
    pub leaves: u64,
    /// Variables whose replica set was migrated live.
    pub migrations: u64,
    /// Modeled wire bytes of membership state transfers (join bootstraps
    /// and migration snapshots).
    pub churn_transfer_bytes: u64,
    /// Membership transfers that completed degraded: the donor died
    /// mid-transfer and no replacement held the state.
    pub churn_transfers_degraded: u64,
    /// Virtual nanoseconds from each view-change proposal to its install
    /// (the quiescence window).
    pub view_change_ns: StatAccum,
    /// Remote-fetch round-trip time, virtual nanoseconds (issue → return,
    /// including failover re-issues' tail).
    pub fetch_rtt_ns: StatAccum,
    /// p99 of the fetch RTT (streaming P² estimate).
    pub fetch_rtt_p99: P2Quantile,
    /// Updates flagged by the stuck-buffer watchdog: parked past the
    /// overdue deadline without applying (each counted once).
    pub buffered_overdue: u64,
    /// Stability watermark rows exchanged (piggybacks + heartbeats).
    pub gossip_rows: u64,
    /// Modeled bytes of those rows (`8n` per row).
    pub gossip_bytes: u64,
    /// KS-log entries reclaimed behind the stable frontier.
    pub gc_log_entries: u64,
    /// Materialized `LastWriteOn` slots reclaimed behind the frontier.
    pub gc_slots: u64,
    /// Stability ticks where the frontier could not advance while some
    /// member was down — the expected GC pause under failure.
    pub gc_stalled_ticks: u64,
    /// Writes deferred because retained metadata exceeded the soft cap.
    pub backpressure_events: u64,
    /// Peak retained metadata estimate (protocol state + WAL bytes)
    /// sampled at stability ticks.
    pub retained_meta_peak: u64,
    /// Peak count of writes issued but not yet globally stable.
    pub unstable_peak: u64,
    /// WAL segments sealed (filled past the segment size limit).
    pub wal_segments_sealed: u64,
    /// Bytes of fully-checkpointed WAL segments deleted by truncation.
    pub wal_deleted_bytes: u64,
    /// Stability lag — max over origins of (issued − stable frontier) —
    /// sampled at every stability tick.
    pub stability_lag: StatAccum,
    /// p99 of the stability lag (streaming P² estimate).
    pub stability_lag_p99: P2Quantile,
    /// Live-transport connection failures survived without taking the run
    /// down: frames refused because the peer socket died, oversized or
    /// corrupt frames that tore a connection down cleanly, and sends
    /// raced against a peer that already processed `Stop`. Zero on the
    /// simulator and on a healthy live run.
    pub transport_conn_errors: u64,
    /// Multi-update batch frames flushed by the per-destination batcher
    /// (zero when batching is off; lanes that flush a single update send
    /// it as a plain SM and do not count here).
    pub batch_flushes: u64,
    /// Updates that travelled inside a batch frame (≥ 2 per flush).
    pub batched_sms: u64,
    /// Modeled wire bytes saved by batching: the sum, per flush, of what
    /// the lane's updates would have cost as individual SMs minus the
    /// batch frame actually charged.
    pub batch_bytes_saved: u64,
    /// OS threads spawned by the live runtime for the run: the scheduler
    /// workers, on either fabric (they drive their sockets themselves).
    /// The coordinator is the caller's thread and is not counted. Zero on
    /// the simulator.
    pub threads_spawned: u64,
    /// `write(2)` calls issued by the TCP fabric's coalescing flushes —
    /// each syscall may carry many frames, so `all` frame counts divided
    /// by this is the amortisation factor. Zero on the channel fabric and
    /// the simulator.
    pub syscall_writes: u64,
    /// Frames those writes carried. A multicast's copies toward one peer
    /// worker share a frame, so this is at most — and under write-heavy
    /// load far below — the cross-worker share of `all`'s message count.
    pub transport_frames: u64,
    /// Flushes of a TCP endpoint that ended with the socket refusing bytes
    /// (`WouldBlock`), leaving a tail for a later pass — back-pressure from
    /// a peer that reads slower than this side writes. Zero on a healthy
    /// paced run, on the channel fabric and on the simulator.
    pub transport_write_stalls: u64,
    /// Deepest per-site mailbox backlog observed by the worker scheduler
    /// when it picked a site up (frames waiting in the crossbeam channel).
    pub mailbox_depth_peak: u64,
    /// Per-site breakdown of the counters above (sends, delivers, applies,
    /// buffering, retransmits, dwell, fetch RTT).
    pub per_site: SiteRegistry,
}

impl Default for RunMetrics {
    fn default() -> Self {
        RunMetrics {
            measured: MessageStats::default(),
            all: MessageStats::default(),
            writes: 0,
            reads: 0,
            remote_reads: 0,
            sm_entries: StatAccum::default(),
            applies: 0,
            max_pending: 0,
            apply_latency_ns: StatAccum::default(),
            pending_samples: StatAccum::default(),
            transit_ns: StatAccum::default(),
            apply_latency_p99: P2Quantile::new(0.99),
            retransmissions: 0,
            dup_drops: 0,
            ack_count: 0,
            ack_bytes: 0,
            envelope_bytes: 0,
            fault_drops: 0,
            fault_dups: 0,
            crash_drops: 0,
            sync_count: 0,
            sync_bytes: 0,
            recovery_ns: StatAccum::default(),
            wal_appends: 0,
            wal_bytes: 0,
            checkpoints: 0,
            checkpoint_bytes: 0,
            recovery_replays: 0,
            delta_sync_saved_bytes: 0,
            fetch_failovers: 0,
            degraded_reads: 0,
            degraded_recoveries: 0,
            wal_truncated: 0,
            view_changes: 0,
            views_forced: 0,
            joins: 0,
            leaves: 0,
            migrations: 0,
            churn_transfer_bytes: 0,
            churn_transfers_degraded: 0,
            view_change_ns: StatAccum::default(),
            fetch_rtt_ns: StatAccum::default(),
            fetch_rtt_p99: P2Quantile::new(0.99),
            buffered_overdue: 0,
            gossip_rows: 0,
            gossip_bytes: 0,
            gc_log_entries: 0,
            gc_slots: 0,
            gc_stalled_ticks: 0,
            backpressure_events: 0,
            retained_meta_peak: 0,
            unstable_peak: 0,
            wal_segments_sealed: 0,
            wal_deleted_bytes: 0,
            stability_lag: StatAccum::default(),
            stability_lag_p99: P2Quantile::new(0.99),
            transport_conn_errors: 0,
            batch_flushes: 0,
            batched_sms: 0,
            batch_bytes_saved: 0,
            threads_spawned: 0,
            syscall_writes: 0,
            transport_frames: 0,
            transport_write_stalls: 0,
            mailbox_depth_peak: 0,
            per_site: SiteRegistry::new(),
        }
    }
}

impl RunMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one apply latency sample (mean + p99 together).
    pub fn record_apply_latency(&mut self, ns: f64) {
        self.apply_latency_ns.record(ns);
        self.apply_latency_p99.record(ns);
    }

    /// Record one stability-lag sample (mean + p99 together).
    pub fn record_stability_lag(&mut self, lag: f64) {
        self.stability_lag.record(lag);
        self.stability_lag_p99.record(lag);
    }

    /// Record one remote-fetch round trip (run total + per-site, mean + p99).
    pub fn record_fetch_rtt(&mut self, site_index: usize, ns: f64) {
        self.fetch_rtt_ns.record(ns);
        self.fetch_rtt_p99.record(ns);
        self.per_site.site_mut(site_index).fetch_rtt_ns.record(ns);
    }

    /// Record a message. `measured` marks post-warm-up attribution.
    pub fn record_msg(&mut self, kind: MsgKind, meta_bytes: u64, measured: bool) {
        self.all.record(kind, meta_bytes);
        if measured {
            self.measured.record(kind, meta_bytes);
        }
    }

    /// Site `site` sent one protocol message (one copy of a multicast, or
    /// one batch frame): the traffic totals and the site's send count.
    pub fn record_send(&mut self, site: usize, kind: MsgKind, meta_bytes: u64, measured: bool) {
        self.record_msg(kind, meta_bytes, measured);
        self.per_site.site_mut(site).sends += 1;
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
            s.record_dwell(ns as f64);
            self.record_apply_latency(ns as f64);
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
        self.pending_samples.record(pending as f64);
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

    /// Fold another run's metrics into this one (multi-seed averaging keeps
    /// totals; derive means at presentation time).
    pub fn merge(&mut self, other: &RunMetrics) {
        self.measured.merge(&other.measured);
        self.all.merge(&other.all);
        self.writes += other.writes;
        self.reads += other.reads;
        self.remote_reads += other.remote_reads;
        self.applies += other.applies;
        self.max_pending = self.max_pending.max(other.max_pending);
        self.retransmissions += other.retransmissions;
        self.dup_drops += other.dup_drops;
        self.ack_count += other.ack_count;
        self.ack_bytes += other.ack_bytes;
        self.envelope_bytes += other.envelope_bytes;
        self.fault_drops += other.fault_drops;
        self.fault_dups += other.fault_dups;
        self.crash_drops += other.crash_drops;
        self.sync_count += other.sync_count;
        self.sync_bytes += other.sync_bytes;
        self.wal_appends += other.wal_appends;
        self.wal_bytes += other.wal_bytes;
        self.checkpoints += other.checkpoints;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.recovery_replays += other.recovery_replays;
        self.delta_sync_saved_bytes += other.delta_sync_saved_bytes;
        self.fetch_failovers += other.fetch_failovers;
        self.degraded_reads += other.degraded_reads;
        self.degraded_recoveries += other.degraded_recoveries;
        self.wal_truncated += other.wal_truncated;
        self.view_changes += other.view_changes;
        self.views_forced += other.views_forced;
        self.joins += other.joins;
        self.leaves += other.leaves;
        self.migrations += other.migrations;
        self.churn_transfer_bytes += other.churn_transfer_bytes;
        self.churn_transfers_degraded += other.churn_transfers_degraded;
        self.buffered_overdue += other.buffered_overdue;
        self.gossip_rows += other.gossip_rows;
        self.gossip_bytes += other.gossip_bytes;
        self.gc_log_entries += other.gc_log_entries;
        self.gc_slots += other.gc_slots;
        self.gc_stalled_ticks += other.gc_stalled_ticks;
        self.backpressure_events += other.backpressure_events;
        self.retained_meta_peak = self.retained_meta_peak.max(other.retained_meta_peak);
        self.unstable_peak = self.unstable_peak.max(other.unstable_peak);
        self.wal_segments_sealed += other.wal_segments_sealed;
        self.wal_deleted_bytes += other.wal_deleted_bytes;
        self.transport_conn_errors += other.transport_conn_errors;
        self.batch_flushes += other.batch_flushes;
        self.batched_sms += other.batched_sms;
        self.batch_bytes_saved += other.batch_bytes_saved;
        self.threads_spawned += other.threads_spawned;
        self.syscall_writes += other.syscall_writes;
        self.transport_frames += other.transport_frames;
        self.transport_write_stalls += other.transport_write_stalls;
        self.mailbox_depth_peak = self.mailbox_depth_peak.max(other.mailbox_depth_peak);
        self.per_site.merge(&other.per_site);
        // StatAccum cannot merge exactly without the raw moments; fold the
        // other's summary as a weighted contribution.
        for (mine, theirs) in [
            (&mut self.sm_entries, &other.sm_entries),
            (&mut self.apply_latency_ns, &other.apply_latency_ns),
            (&mut self.pending_samples, &other.pending_samples),
            (&mut self.transit_ns, &other.transit_ns),
            (&mut self.recovery_ns, &other.recovery_ns),
            (&mut self.view_change_ns, &other.view_change_ns),
            (&mut self.fetch_rtt_ns, &other.fetch_rtt_ns),
            (&mut self.stability_lag, &other.stability_lag),
        ] {
            for _ in 0..theirs.count() {
                mine.record(theirs.mean());
            }
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
        assert_eq!(m.fetch_rtt_p99.estimate(), Some(3_000.0));
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
        a.record_stability_lag(4.0);
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
        b.record_stability_lag(6.0);
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
