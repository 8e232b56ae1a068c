//! Structured-trace correctness: tracing must observe the run without
//! perturbing it, cover the causally significant transitions, and survive a
//! JSONL round trip.

use causal_obs::{parse_jsonl, to_jsonl, EventKind, TraceEvent};
use causal_proto::ProtocolKind;
use causal_simnet::{run, CrashWindow, DurabilityPlan, FaultPlan, SimConfig};
use causal_types::{SimDuration, SimTime, SiteId};

fn traced(cfg: &SimConfig) -> (causal_simnet::SimResult, Vec<TraceEvent>) {
    let mut r = run(&cfg.clone().with_trace());
    let events = r.trace.take().expect("recorded");
    (r, events)
}

#[test]
fn tracing_does_not_perturb_the_run() {
    for (kind, partial) in [
        (ProtocolKind::FullTrack, true),
        (ProtocolKind::OptTrack, true),
        (ProtocolKind::OptP, false),
    ] {
        let cfg = if partial {
            SimConfig::paper_partial(kind, 6, 0.5, 7)
        } else {
            SimConfig::paper_full(kind, 6, 0.5, 7)
        }
        .small()
        .with_history();
        let base = run(&cfg);
        let (tr, events) = traced(&cfg);
        assert!(!events.is_empty(), "{kind}: empty trace");
        assert_eq!(base.duration, tr.duration, "{kind}: duration diverged");
        assert_eq!(
            base.metrics.applies, tr.metrics.applies,
            "{kind}: applies diverged"
        );
        assert_eq!(
            base.metrics.all.total_count(),
            tr.metrics.all.total_count(),
            "{kind}: message count diverged"
        );
        assert_eq!(
            base.history
                .as_ref()
                .map(|h| (h.total_ops(), h.total_applies())),
            tr.history
                .as_ref()
                .map(|h| (h.total_ops(), h.total_applies())),
            "{kind}: history diverged"
        );
    }
}

#[test]
fn trace_timestamps_are_nondecreasing() {
    let cfg = SimConfig::paper_partial(ProtocolKind::OptTrack, 6, 0.5, 3).small();
    let (_, events) = traced(&cfg);
    for w in events.windows(2) {
        assert!(
            w[0].t <= w[1].t,
            "trace out of order: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn every_apply_references_a_traced_write() {
    // Causal-chain integrity: each applied update must name a (origin,
    // clock) that the trace saw being written, so a post-hoc tool can walk
    // apply → write chains without dangling references.
    let cfg = SimConfig::paper_partial(ProtocolKind::FullTrack, 6, 0.5, 11).small();
    let (_, events) = traced(&cfg);
    let writes: Vec<(u16, u64)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Write { clock, .. } => Some((e.site.0, clock)),
            _ => None,
        })
        .collect();
    assert!(!writes.is_empty());
    let mut applies = 0;
    for e in &events {
        if let EventKind::Apply { origin, clock, .. } = e.kind {
            applies += 1;
            assert!(
                writes.contains(&(origin.0, clock)),
                "apply of untraced write s{}@{clock}",
                origin.0
            );
        }
    }
    assert!(applies > 0, "no applies traced");
}

#[test]
fn chaos_runs_trace_faults_and_recovery() {
    let mut cfg = SimConfig::paper_partial(ProtocolKind::OptTrack, 6, 0.5, 5).small();
    cfg.faults = FaultPlan::uniform(0.05, 0.01);
    cfg.crashes = vec![CrashWindow {
        site: SiteId(0),
        start: SimTime::from_millis(500),
        end: SimTime::from_millis(1_200),
    }];
    cfg.durability = DurabilityPlan {
        wal: true,
        checkpoint_every: Some(SimDuration::from_millis(250)),
        fetch_deadline: Some(SimDuration::from_millis(150)),
        lose_media: Vec::new(),
        torn_tail: Vec::new(),
    };
    let (r, events) = traced(&cfg);
    assert_eq!(r.final_pending, 0);
    let has = |f: &dyn Fn(&EventKind) -> bool| events.iter().any(|e| f(&e.kind));
    assert!(has(&|k| matches!(k, EventKind::Crash)));
    assert!(has(&|k| matches!(k, EventKind::Recover { .. })));
    assert!(has(&|k| matches!(k, EventKind::RecoveryDone { .. })));
    assert!(has(&|k| matches!(k, EventKind::WalAppend { .. })));
    assert!(has(&|k| matches!(k, EventKind::Checkpoint { .. })));
    assert!(has(&|k| matches!(k, EventKind::SyncReq { .. })));
    assert!(has(&|k| matches!(k, EventKind::SyncResp { .. })));
    // 5% loss over a full run always retransmits at least once.
    assert!(has(&|k| matches!(k, EventKind::Retransmit { .. })));
    // The per-site registry mirrors the trace: retransmit counters light up.
    let retrans: u64 = r.metrics.per_site.iter().map(|s| s.retransmits).sum();
    assert_eq!(retrans, r.metrics.retransmissions);
}

#[test]
fn traces_survive_a_jsonl_round_trip() {
    let cfg = SimConfig::paper_partial(ProtocolKind::OptTrack, 6, 0.5, 9).small();
    let (_, events) = traced(&cfg);
    let text = to_jsonl(&events);
    let back = parse_jsonl(&text).expect("parses");
    assert_eq!(back, events);
}

#[test]
fn per_site_registry_is_populated_without_tracing() {
    // Registry counters feed sweep columns, so they must be live even when
    // no trace is recorded.
    let cfg = SimConfig::paper_partial(ProtocolKind::FullTrack, 6, 0.5, 2).small();
    let r = run(&cfg);
    assert_eq!(r.metrics.per_site.len(), 6);
    let sends: u64 = r.metrics.per_site.iter().map(|s| s.sends).sum();
    let delivers: u64 = r.metrics.per_site.iter().map(|s| s.delivers).sum();
    let applies: u64 = r.metrics.per_site.iter().map(|s| s.applies).sum();
    assert!(sends > 0, "no per-site sends");
    assert_eq!(sends, delivers, "lossless run: every send delivers");
    assert_eq!(applies, r.metrics.applies);
}
