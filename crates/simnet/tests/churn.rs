//! Dynamic membership under churn: epoch'd view changes, state-transfer
//! bootstrap for joiners, graceful and fail-stop leaves, and live placement
//! rebalancing — all while the workload runs, for every protocol.
//!
//! The paper's protocols assume a static site set; these tests exercise the
//! membership layer grafted on top: a view change proposes, the system
//! quiesces (new operations hold, in-flight deliveries drain), the view
//! installs at an epoch boundary, and causality must hold across every
//! epoch.

use causal_checker::check;
use causal_obs::EventKind;
use causal_proto::ProtocolKind;
use causal_simnet::{run, CrashWindow, DurabilityPlan, SimConfig};
use causal_types::{SimDuration, SimTime, SiteId};
use causal_workload::ChurnPlan;

const ALL: [(ProtocolKind, bool); 5] = [
    (ProtocolKind::FullTrack, true),
    (ProtocolKind::OptTrack, true),
    (ProtocolKind::HbTrack, true),
    (ProtocolKind::OptTrackCrp, false),
    (ProtocolKind::OptP, false),
];

fn cfg_for(kind: ProtocolKind, partial: bool, n: usize, seed: u64) -> SimConfig {
    let cfg = if partial {
        SimConfig::paper_partial(kind, n, 0.5, seed)
    } else {
        SimConfig::paper_full(kind, n, 0.5, seed)
    };
    cfg.small().with_history()
}

#[test]
fn all_protocols_survive_scripted_churn() {
    // One of everything: a join bootstrapped by state transfer, a live
    // migration, a graceful leave and a fail-stop leave — while the
    // workload runs.
    let plan = ChurnPlan::parse("join:7@5s;migrate:3:0->7@20s;leave:2@40s;crash-leave:4@60s")
        .expect("valid spec");
    for (kind, partial) in ALL {
        let cfg = cfg_for(kind, partial, 8, 301).with_churn(plan.clone());
        let r = run(&cfg);
        assert_eq!(r.final_pending, 0, "{kind}: churned run must drain");
        assert_eq!(r.metrics.view_changes, 4, "{kind}");
        assert_eq!(r.metrics.joins, 1, "{kind}");
        assert_eq!(r.metrics.leaves, 2, "{kind}");
        assert_eq!(r.metrics.migrations, 1, "{kind}");
        assert!(
            r.metrics.churn_transfer_bytes > 0,
            "{kind}: the join bootstrap ships state"
        );
        let v = check(r.history.as_ref().unwrap());
        assert!(v.protocol_clean(), "{kind}: {:?}", v.examples);
    }
}

#[test]
fn scripted_churn_is_clean_across_seeds() {
    // The donor-crash acceptance bar: ≥3 seeds, every protocol, zero
    // causal violations.
    let plan = ChurnPlan::parse("join:7@5s;leave:1@30s;migrate:9:3->5@50s").expect("valid spec");
    for seed in [11, 12, 13] {
        for (kind, partial) in ALL {
            let cfg = cfg_for(kind, partial, 8, seed).with_churn(plan.clone());
            let r = run(&cfg);
            assert_eq!(r.final_pending, 0, "{kind}/{seed}");
            let v = check(r.history.as_ref().unwrap());
            assert!(v.protocol_clean(), "{kind}/{seed}: {:?}", v.examples);
        }
    }
}

#[test]
fn joiner_executes_its_full_schedule_after_bootstrap() {
    // Ops scheduled before the join are not dropped: they defer and run
    // once the bootstrap completes, so availability is preserved.
    let plan = ChurnPlan::parse("join:5@10s").expect("valid spec");
    let cfg = cfg_for(ProtocolKind::OptTrack, true, 6, 302).with_churn(plan);
    let per_process = cfg.workload.events_per_process;
    let r = run(&cfg);
    assert_eq!(r.metrics.joins, 1);
    let h = r.history.as_ref().unwrap();
    assert_eq!(
        h.ops()[5].len(),
        per_process,
        "the joiner runs every scheduled op after its bootstrap"
    );
    let v = check(h);
    assert!(v.protocol_clean(), "{:?}", v.examples);
}

#[test]
fn graceful_leave_drains_and_seals_the_departed_site() {
    let plan = ChurnPlan::parse("leave:2@30s").expect("valid spec");
    let cfg = cfg_for(ProtocolKind::FullTrack, true, 6, 303).with_churn(plan);
    let r = run(&cfg);
    assert_eq!(r.final_pending, 0);
    assert_eq!(r.metrics.leaves, 1);
    let h = r.history.as_ref().unwrap();
    assert!(
        h.sealed()[2].is_some(),
        "the departed site's history is sealed at the view change"
    );
    // The leaver stops mid-schedule: ops past the departure never run.
    assert!(h.ops()[2].len() < 60, "ops at the leaver stop at departure");
    let v = check(h);
    assert!(v.protocol_clean(), "{:?}", v.examples);
}

#[test]
fn crash_leave_loses_volatile_state_but_stays_causal() {
    // Fail-stop departure: volatile state dies at the proposal instant,
    // the view ratifies the removal at the epoch boundary. Survivors
    // fast-forward past the dead site's writes and causality holds.
    for (kind, partial) in [(ProtocolKind::OptTrack, true), (ProtocolKind::OptP, false)] {
        let plan = ChurnPlan::parse("crash-leave:3@25s").expect("valid spec");
        let cfg = cfg_for(kind, partial, 6, 304).with_churn(plan);
        let r = run(&cfg);
        assert_eq!(r.final_pending, 0, "{kind}");
        assert_eq!(r.metrics.leaves, 1, "{kind}");
        let v = check(r.history.as_ref().unwrap());
        assert!(v.protocol_clean(), "{kind}: {:?}", v.examples);
    }
}

#[test]
fn crash_leave_of_a_site_blocked_in_a_remote_fetch_releases_the_read() {
    // The leaver's application is waiting for an RM when it fails: the
    // crash clears the protocol's fetch state, the read never returns, and
    // the view change must release it without asking the protocol again.
    let leaver = SiteId(2);
    for kind in [
        ProtocolKind::FullTrack,
        ProtocolKind::OptTrack,
        ProtocolKind::HbTrack,
    ] {
        let traced = |at_ms: u64| {
            let plan = ChurnPlan::parse(&format!("crash-leave:2@{at_ms}ms")).expect("valid spec");
            let cfg = cfg_for(kind, true, 6, 305).with_churn(plan);
            let mut r = run(&cfg.with_trace());
            let events = r.trace.take().expect("recorded");
            (r, events)
        };
        // A departure after the workload ends shows when the leaver's
        // fetches are in flight; the run is identical up to the crash.
        let (_, events) = traced(10_000_000);
        let mut issued = None;
        let mut blocked_at = Vec::new();
        for ev in events.iter().filter(|ev| ev.site == leaver) {
            match ev.kind {
                EventKind::FetchIssue { .. } => issued = Some(ev.t),
                EventKind::FetchDone { .. } => {
                    let at_ms = issued.take().expect("issued before done") / 1_000_000 + 1;
                    if at_ms * 1_000_000 < ev.t {
                        blocked_at.push(at_ms);
                    }
                }
                _ => {}
            }
        }
        assert!(blocked_at.len() >= 3, "{kind}: the leaver fetches remotely");
        for at_ms in blocked_at.into_iter().take(3) {
            let (r, events) = traced(at_ms);
            let mut mine = events.iter().filter(|ev| ev.site == leaver);
            let before_crash: Vec<_> = mine
                .by_ref()
                .take_while(|ev| ev.kind != EventKind::Crash)
                .collect();
            let last_fetch = before_crash.iter().rev().find_map(|ev| match ev.kind {
                EventKind::FetchIssue { .. } => Some(true),
                EventKind::FetchDone { .. } => Some(false),
                _ => None,
            });
            assert_eq!(
                last_fetch,
                Some(true),
                "{kind}@{at_ms}ms: blocked at the crash"
            );
            assert_eq!(r.metrics.leaves, 1, "{kind}@{at_ms}ms");
            assert_eq!(r.final_pending, 0, "{kind}@{at_ms}ms");
            let v = check(r.history.as_ref().unwrap());
            assert!(v.protocol_clean(), "{kind}@{at_ms}ms: {:?}", v.examples);
        }
    }
}

#[test]
fn migration_rehomes_a_variable_without_violations() {
    // Under partial replication the migration actually moves a replica
    // (state transfer + placement override); the moved-to site must serve
    // the variable and causality must hold across the cutover.
    let plan = ChurnPlan::parse("migrate:0:0->4@20s;migrate:1:1->5@20s").expect("valid spec");
    let cfg = cfg_for(ProtocolKind::OptTrack, true, 6, 305).with_churn(plan);
    let r = run(&cfg);
    assert_eq!(r.final_pending, 0);
    assert_eq!(r.metrics.migrations, 2);
    let v = check(r.history.as_ref().unwrap());
    assert!(v.protocol_clean(), "{:?}", v.examples);
}

#[test]
fn donor_crash_mid_transfer_ends_in_degraded_quiescence() {
    // The joiner's bootstrap donors all crash right after the SyncReqs go
    // out (before any response can arrive): the join must time out into a
    // degraded transfer — no hang, no panic — and the run still drains
    // once the donors recover.
    let plan = ChurnPlan::parse("join:2@80s").expect("valid spec");
    let mut cfg = cfg_for(ProtocolKind::OptTrack, true, 3, 306).with_churn(plan);
    // Keep the workload short so the wire is quiet at the join: the view
    // installs (and the SyncReqs leave) at exactly 80 s.
    cfg.workload.events_per_process = 20;
    // Both donors die 1 ms later — faster than any channel delivery — and
    // stay down past the joiner's whole sync window.
    cfg.crashes = (0..2)
        .map(|s| CrashWindow {
            site: SiteId(s),
            start: SimTime::from_millis(80_001),
            end: SimTime::from_millis(95_000),
        })
        .collect();
    let r = run(&cfg);
    assert_eq!(r.final_pending, 0, "degraded quiescence, not a hang");
    assert_eq!(r.metrics.joins, 1);
    assert!(
        r.metrics.degraded_recoveries >= 1,
        "the joiner must come up degraded after the sync deadline"
    );
    assert!(
        r.metrics.churn_transfers_degraded >= 1,
        "the missing donors are accounted as a degraded transfer"
    );
    let v = check(r.history.as_ref().unwrap());
    assert!(v.protocol_clean(), "{:?}", v.examples);
}

#[test]
fn churned_runs_are_deterministic() {
    let plan = ChurnPlan::parse("join:7@5s;migrate:3:0->7@20s;leave:2@40s").expect("valid spec");
    let cfg = cfg_for(ProtocolKind::OptTrack, true, 8, 307).with_churn(plan);
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a.duration, b.duration);
    assert_eq!(a.metrics.all.total_count(), b.metrics.all.total_count());
    assert_eq!(a.metrics.all.total_bytes(), b.metrics.all.total_bytes());
    assert_eq!(a.metrics.view_changes, b.metrics.view_changes);
    assert_eq!(
        a.metrics.churn_transfer_bytes,
        b.metrics.churn_transfer_bytes
    );
    assert_eq!(a.final_local_meta, b.final_local_meta);
    assert_eq!(
        a.history.as_ref().unwrap().applies(),
        b.history.as_ref().unwrap().applies()
    );
}

#[test]
fn poisson_churn_is_clean_for_every_protocol() {
    for (kind, partial) in ALL {
        let mut cfg = cfg_for(kind, partial, 6, 308);
        // ~4 events over the first 40 s of virtual time.
        let plan = ChurnPlan::poisson(308, 6, cfg.workload.q, 0.1, SimTime::from_millis(40_000));
        cfg = cfg.with_churn(plan);
        let r = run(&cfg);
        assert_eq!(r.final_pending, 0, "{kind}");
        let v = check(r.history.as_ref().unwrap());
        assert!(v.protocol_clean(), "{kind}: {:?}", v.examples);
    }
}

#[test]
fn churn_composes_with_wal_durability_and_crashes() {
    // Membership churn, a WAL-backed crash recovery, and a torn WAL tail
    // in one run: the torn record is truncated (fail-soft), the recovery
    // replays, and the view changes still install cleanly.
    let plan = ChurnPlan::parse("join:5@10s;leave:1@50s").expect("valid spec");
    let mut cfg = cfg_for(ProtocolKind::OptTrack, true, 6, 309).with_churn(plan);
    cfg.durability = DurabilityPlan {
        wal: true,
        checkpoint_every: Some(SimDuration::from_millis(500)),
        fetch_deadline: Some(SimDuration::from_millis(300)),
        lose_media: Vec::new(),
        torn_tail: vec![SiteId(3)],
    };
    cfg.crashes = vec![CrashWindow {
        site: SiteId(3),
        start: SimTime::from_millis(25_000),
        end: SimTime::from_millis(30_000),
    }];
    let r = run(&cfg);
    assert_eq!(r.final_pending, 0);
    assert_eq!(r.metrics.joins, 1);
    assert_eq!(r.metrics.leaves, 1);
    assert!(
        r.metrics.wal_truncated >= 1,
        "the torn tail is truncated, not fatal"
    );
    let v = check(r.history.as_ref().unwrap());
    assert!(v.protocol_clean(), "{:?}", v.examples);
}

#[test]
fn view_change_latency_is_recorded() {
    let plan = ChurnPlan::parse("leave:2@30s").expect("valid spec");
    let cfg = cfg_for(ProtocolKind::OptP, false, 6, 310).with_churn(plan);
    let r = run(&cfg);
    assert_eq!(r.metrics.view_changes, 1);
    assert_eq!(r.metrics.view_change_ns.count(), 1);
    // The two-phase change takes at least one poll to quiesce a busy wire,
    // and never longer than the forced-install deadline.
    assert!(r.metrics.view_change_ns.max().unwrap() <= 2_000_000_000.0);
}

#[test]
fn an_invalid_plan_panics_before_the_run_starts() {
    let plan = ChurnPlan::parse("migrate:3:0->9@5s").expect("parses; validation is separate");
    let cfg = cfg_for(ProtocolKind::OptTrack, true, 6, 311).with_churn(plan);
    let r = std::panic::catch_unwind(|| run(&cfg));
    assert!(r.is_err(), "out-of-range migrate target must be rejected");
}
