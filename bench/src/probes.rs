//! Probes: tight timed loops over public functions of single layers, at
//! the shapes the workload's replay produced.

use crate::replay::Shapes;
use crate::report::median;
use causal_checker::History;
use causal_clocks::{Log, MatrixClock, PruneConfig, VectorClock};
use causal_metrics::{OpLatency, RunMetrics};
use causal_multicast::{BatchPolicy, DestBatcher, Offer};
use causal_proto::Msg;
use causal_simnet::{EventHeap, SimEvent};
use causal_types::{MsgKind, SimTime, SiteId, VarId, WriteId};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Timed batches per probe; the median batch is reported.
const BATCHES: usize = 5;
/// Smallest batch worth timing.
const BATCH_FLOOR: Duration = Duration::from_millis(20);

/// Median nanoseconds per call of `step` over `BATCHES` batches. `step`
/// receives a running index so it can walk its inputs. The batch size is
/// doubled until one batch lasts `BATCH_FLOOR`, so total time grows with
/// the iteration count and the clock's grain does not show.
fn ns_per_call(mut step: impl FnMut(usize)) -> f64 {
    let mut iters = 64usize;
    let mut i = 0usize;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            step(i);
            i = i.wrapping_add(1);
        }
        if t.elapsed() >= BATCH_FLOOR {
            break;
        }
        iters *= 2;
    }
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                step(i);
                i = i.wrapping_add(1);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_call)
}

/// As `ns_per_call`, for a step that consumes a prepared input: `prepare`
/// builds a pool outside the clock, `step` uses each pool slot once, and
/// the pool is rebuilt between batches.
fn ns_per_call_prepared<T>(pool: usize, prepare: impl Fn(usize) -> T, step: impl Fn(T)) -> f64 {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let inputs: Vec<T> = (0..pool).map(&prepare).collect();
            let t = Instant::now();
            for x in inputs {
                step(x);
            }
            t.elapsed().as_nanos() as f64 / pool as f64
        })
        .collect();
    median(&per_call)
}

/// Inputs consumed per batch by the prepared probes.
const POOL: usize = 4096;

/// `Log::merge` of one sampled piggyback into another (`None` when the
/// workload's protocol carries no KS log).
pub fn log_merge_ns(shapes: &Shapes) -> Option<f64> {
    let logs = &shapes.logs;
    if logs.len() < 2 {
        return None;
    }
    let cfg = PruneConfig::default();
    Some(ns_per_call_prepared(
        POOL,
        |i| (Log::clone(&logs[i % logs.len()]), i),
        |(mut local, i)| {
            local.merge(&logs[(i + 1) % logs.len()], cfg);
            black_box(local);
        },
    ))
}

/// `Log::prune_applied` with the receiver having applied everything the
/// log mentions (the common case on arrival).
pub fn log_prune_ns(shapes: &Shapes, n: usize) -> Option<f64> {
    let logs = &shapes.logs;
    if logs.is_empty() {
        return None;
    }
    let applied: Vec<Vec<u64>> = logs
        .iter()
        .map(|l| {
            let mut v = vec![0u64; n];
            for e in l.iter() {
                v[e.origin.index()] = v[e.origin.index()].max(e.clock);
            }
            v
        })
        .collect();
    Some(ns_per_call_prepared(
        POOL,
        |i| (Log::clone(&logs[i % logs.len()]), i),
        |(mut log, i)| {
            log.prune_applied(SiteId::from(i % n), &applied[i % logs.len()]);
            black_box(log);
        },
    ))
}

pub fn matrix_merge_ns(shapes: &Shapes) -> Option<f64> {
    let ms = &shapes.matrices;
    if ms.len() < 2 {
        return None;
    }
    let mut acc = MatrixClock::clone(&ms[0]);
    Some(ns_per_call(|i| {
        acc.merge_max(black_box(&ms[i % ms.len()]));
        black_box(&acc);
    }))
}

pub fn vector_merge_ns(shapes: &Shapes) -> Option<f64> {
    let vs = &shapes.vectors;
    if vs.len() < 2 {
        return None;
    }
    let mut acc = VectorClock::clone(&vs[0]);
    Some(ns_per_call(|i| {
        acc.merge_max(black_box(&vs[i % vs.len()]));
        black_box(&acc);
    }))
}

/// `DestBatcher::offer` per SM under the runtime's windowed policy (64
/// updates per lane), flush included: `n - 1` destination lanes fed round
/// robin, so one offer in 64 drains its lane.
pub fn offer_flush_ns(n: usize) -> f64 {
    let mut b: DestBatcher<u64> = DestBatcher::new(BatchPolicy::by_count(64));
    ns_per_call(|i| {
        if let Offer::Flush(items) = b.offer(SiteId::from(i % (n - 1)), i as u64, 100) {
            black_box(items);
        }
    })
}

/// `OpLatency::record` behind the mutex the runtime shares (uncontended
/// here: the lock's own cost, not the waiting).
pub fn oplatency_record_ns() -> f64 {
    let lat = Mutex::new(OpLatency::new());
    ns_per_call(|i| {
        lat.lock()
            .expect("probe mutex")
            .record(5_000.0 + (i % 997) as f64 * 31.0);
    })
}

pub fn record_msg_ns() -> f64 {
    let mut m = RunMetrics::new();
    let kinds = [MsgKind::Sm, MsgKind::Sm, MsgKind::Fm, MsgKind::Rm];
    let out = ns_per_call(|i| m.record_msg(kinds[i % 4], 300 + (i % 64) as u64, true));
    black_box(m.all.total_bytes());
    out
}

/// `History::record_write` / `record_read` / `record_apply` in the mix a
/// serving site produces (one op record, several applies).
pub fn history_record_ns(n: usize) -> f64 {
    // A fresh history per batch bounds memory; the `Vec` growth it pays is
    // what a live run pays too.
    ns_per_call_prepared(
        8,
        |_| History::new(n),
        |mut h| {
            for i in 0..POOL {
                let site = SiteId::from(i % n);
                let w = WriteId::new(site, i as u64 + 1);
                match i % 4 {
                    0 => h.record_write(site, w, VarId::from(i % 100)),
                    1 => h.record_read(site, VarId::from(i % 100), Some(w), site),
                    _ => h.record_apply(site, w),
                }
            }
            black_box(h);
        },
    ) / POOL as f64
}

/// `EventHeap` push + pop at a steady depth of 4096 events (a paper-scale
/// run keeps a few thousand deliveries and op timers queued).
pub fn heap_push_pop_ns() -> f64 {
    let mut heap = EventHeap::new();
    let ev = |i: usize| SimEvent::Deliver {
        from: SiteId::from(i % 40),
        to: SiteId::from((i + 1) % 40),
        msg: Msg::Fm(causal_proto::Fm {
            var: VarId::from(i % 100),
        }),
        measured: true,
        sent_at: SimTime::from_nanos(0),
    };
    for i in 0..4096usize {
        heap.push(SimTime::from_nanos(1 + (i as u64 * 7919) % 100_000), ev(i));
    }
    ns_per_call(|i| {
        let (at, e) = heap.pop().expect("heap stays full");
        black_box(e);
        heap.push(
            SimTime::from_nanos(at.as_nanos() + 1 + (i as u64 * 7919) % 100_000),
            ev(i),
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_time_grows_with_work() {
        let light = ns_per_call(|i| {
            black_box(i);
        });
        let heavy = ns_per_call(|i| {
            let mut x = i as u64;
            for _ in 0..2_000 {
                x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            black_box(x);
        });
        assert!(heavy > 10.0 * light, "black_box failed: {light} vs {heavy}");
    }

    #[test]
    fn shape_probes_report_absence() {
        let empty = Shapes::default();
        assert!(log_merge_ns(&empty).is_none());
        assert!(matrix_merge_ns(&empty).is_none());
        assert!(vector_merge_ns(&empty).is_none());
    }
}
