//! Differential tests: the frontier-sweep checker in [`crate::verify`]
//! against the quadratic oracle in [`crate::reference`] and the
//! transitive-closure count in [`crate::bruteforce`], on random histories
//! of a small causally consistent, partially replicated store — valid
//! ones, and the same ones after the corruptions a buggy protocol or a
//! broken recorder would cause.

use crate::bruteforce::delivery_inversions_bruteforce;
use crate::history::{History, OpRecord};
use crate::{reference, verify};
use causal_types::{SiteId, VarId, WriteId};
use proptest::prelude::*;

/// SplitMix64: the histories are a function of one `u64`, so a failing
/// case is replayed by its seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// A history in editable form.
#[derive(Clone)]
struct Recording {
    ops: Vec<Vec<OpRecord>>,
    applies: Vec<Vec<WriteId>>,
}

impl Recording {
    fn history(&self) -> History {
        let mut h = History::new(self.ops.len());
        for (i, ops) in self.ops.iter().enumerate() {
            let site = SiteId::from(i);
            for op in ops {
                match *op {
                    OpRecord::Write { write, var } => h.record_write(site, write, var),
                    OpRecord::Read {
                        var,
                        read_from,
                        served_by,
                    } => h.record_read(site, var, read_from, served_by),
                }
            }
        }
        for (k, seq) in self.applies.iter().enumerate() {
            for w in seq {
                h.record_apply(SiteId::from(k), *w);
            }
        }
        h
    }

    fn writes(&self) -> Vec<WriteId> {
        let ops = self.ops.iter().flatten();
        ops.filter_map(|op| match *op {
            OpRecord::Write { write, .. } => Some(write),
            OpRecord::Read { .. } => None,
        })
        .collect()
    }
}

/// One write of the model store: where it goes and what it depends on.
struct ModelWrite {
    id: WriteId,
    var: usize,
    /// `past[l]` = writes of process `l` in the causal past (own included).
    past: Vec<u64>,
}

/// A causally consistent store: `n` sites, each variable replicated at a
/// random non-empty subset of them. A replica applies an update only once
/// every causally preceding write destined to it is applied (so `fifo ==
/// delivery == 0`); a writer applies its own update at once, and a
/// non-replica reads through a remote replica without waiting for anything
/// — which is how the published protocols come by their stale reads and
/// own-write races, and how this model does.
struct Model {
    replicas: Vec<Vec<usize>>,
    writes: Vec<ModelWrite>,
    /// Per process: its causal past so far.
    past: Vec<Vec<u64>>,
    /// Per site and variable: the latest applied write (index in `writes`).
    value: Vec<Vec<Option<usize>>>,
    /// Per site and write index: applied there.
    applied: Vec<Vec<bool>>,
    /// Updates sent but not yet applied: (destination, write index).
    in_flight: Vec<(usize, usize)>,
    rec: Recording,
}

impl Model {
    fn apply(&mut self, k: usize, j: usize) {
        self.applied[k][j] = true;
        self.value[k][self.writes[j].var] = Some(j);
        self.rec.applies[k].push(self.writes[j].id);
    }

    /// Apply one in-flight update whose causal predecessors destined to
    /// the same site are all applied there (a causally minimal one always
    /// qualifies), starting the search at a random position.
    fn deliver(&mut self, rng: &mut Rng) {
        let start = rng.below(self.in_flight.len());
        let pick = (0..self.in_flight.len())
            .map(|o| (start + o) % self.in_flight.len())
            .find(|&p| {
                let (k, j) = self.in_flight[p];
                let w = &self.writes[j];
                self.writes.iter().enumerate().all(|(d, dep)| {
                    let precedes = d != j && w.past[dep.id.site.index()] >= dep.id.clock;
                    !precedes || !self.replicas[dep.var].contains(&k) || self.applied[k][d]
                })
            })
            .expect("a causally minimal update is deliverable");
        let (k, j) = self.in_flight.swap_remove(pick);
        self.apply(k, j);
    }

    fn write(&mut self, i: usize, x: usize) {
        self.past[i][i] += 1;
        let id = WriteId::new(SiteId::from(i), self.past[i][i]);
        let j = self.writes.len();
        self.writes.push(ModelWrite {
            id,
            var: x,
            past: self.past[i].clone(),
        });
        let var = VarId(x as u32);
        self.rec.ops[i].push(OpRecord::Write { write: id, var });
        self.applied.iter_mut().for_each(|a| a.push(false));
        for k in self.replicas[x].clone() {
            if k == i {
                self.apply(i, j);
            } else {
                self.in_flight.push((k, j));
            }
        }
    }

    fn read(&mut self, rng: &mut Rng, i: usize, x: usize) {
        let at = &self.replicas[x];
        let server = if at.contains(&i) {
            i
        } else {
            at[rng.below(at.len())]
        };
        let seen = self.value[server][x];
        if let Some(j) = seen {
            for (a, b) in self.past[i].iter_mut().zip(&self.writes[j].past) {
                *a = (*a).max(*b);
            }
        }
        self.rec.ops[i].push(OpRecord::Read {
            var: VarId(x as u32),
            read_from: seen.map(|j| self.writes[j].id),
            served_by: SiteId::from(server),
        });
    }
}

/// Record a random execution of the [`Model`]: `steps` client operations
/// and update deliveries interleaved, then every update still in flight.
fn valid_recording(rng: &mut Rng, n: usize, q: usize, steps: usize) -> Recording {
    let replicas = (0..q)
        .map(|_| {
            let mut r: Vec<usize> = (0..n).filter(|_| rng.chance(40)).collect();
            if r.is_empty() {
                r.push(rng.below(n));
            }
            r
        })
        .collect();
    let mut m = Model {
        replicas,
        writes: Vec::new(),
        past: vec![vec![0; n]; n],
        value: vec![vec![None; q]; n],
        applied: vec![Vec::new(); n],
        in_flight: Vec::new(),
        rec: Recording {
            ops: vec![Vec::new(); n],
            applies: vec![Vec::new(); n],
        },
    };
    for _ in 0..steps {
        if !m.in_flight.is_empty() && rng.chance(55) {
            m.deliver(rng);
        } else if rng.chance(45) {
            m.write(rng.below(n), rng.below(q));
        } else {
            let (i, x) = (rng.below(n), rng.below(q));
            m.read(rng, i, x);
        }
    }
    while !m.in_flight.is_empty() {
        m.deliver(rng);
    }
    m.rec
}

/// Corrupt `rec` in one of the ways a protocol bug or a broken recorder
/// would. Returns which, or `None` when it had nothing to act on.
fn mutate(rng: &mut Rng, rec: &mut Recording) -> Option<usize> {
    let n = rec.ops.len();
    let writes = rec.writes();
    let k = rng.below(n);
    let reads: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (0..rec.ops[i].len()).map(move |p| (i, p)))
        .filter(|&(i, p)| matches!(rec.ops[i][p], OpRecord::Read { .. }))
        .collect();
    let kind = rng.below(9);
    match kind {
        // Apply-order corruptions at site k.
        0 if rec.applies[k].len() >= 2 => {
            let p = rng.below(rec.applies[k].len() - 1);
            rec.applies[k].swap(p, p + 1);
        }
        1 if !rec.applies[k].is_empty() => {
            let p = rng.below(rec.applies[k].len());
            rec.applies[k].remove(p);
        }
        2 if !rec.applies[k].is_empty() => {
            let p = rng.below(rec.applies[k].len());
            let at = p + rng.below(rec.applies[k].len() - p + 1);
            let w = rec.applies[k][p];
            rec.applies[k].insert(at, w);
        }
        // An apply of a write nobody issued.
        3 => {
            let at = rng.below(rec.applies[k].len() + 1);
            let ghost = WriteId::new(SiteId::from(rng.below(n)), 1_000 + rng.next() % 5);
            rec.applies[k].insert(at, ghost);
        }
        // Read corruptions: an older or foreign-variable write (any issued
        // write will do: it is one or the other, or from the reader's
        // future), a never-issued write, or ⊥.
        4..=6 if !reads.is_empty() => {
            let (i, p) = reads[rng.below(reads.len())];
            let OpRecord::Read { read_from, .. } = &mut rec.ops[i][p] else {
                unreachable!("filtered to reads");
            };
            *read_from = match kind {
                4 if !writes.is_empty() => Some(writes[rng.below(writes.len())]),
                5 => Some(WriteId::new(SiteId::from(rng.below(n)), 500)),
                _ => None,
            };
        }
        // A write recorded under an out-of-sequence clock — with every
        // mention of it renamed to match, or (8) left dangling.
        7 | 8 if !writes.is_empty() => {
            let old = writes[rng.below(writes.len())];
            let count = writes.iter().filter(|w| w.site == old.site).count() as u64;
            let clock = match rng.below(3) {
                0 => count + 1,
                1 => count + 1 + rng.next() % 1_000,
                _ => u64::MAX,
            };
            let new = WriteId::new(old.site, clock);
            for op in rec.ops.iter_mut().flatten() {
                match op {
                    OpRecord::Write { write, .. } if *write == old => *write = new,
                    OpRecord::Read { read_from, .. } if kind == 7 && *read_from == Some(old) => {
                        *read_from = Some(new)
                    }
                    _ => {}
                }
            }
            if kind == 7 {
                for w in rec.applies.iter_mut().flatten().filter(|w| **w == old) {
                    *w = new;
                }
            }
        }
        _ => return None,
    }
    Some(kind)
}

/// The contract of the rewrite: every count identical while FIFO holds;
/// once it does not (the sweep leans on FIFO-sorted columns), the same
/// `fifo` count and the same verdict.
fn assert_same_verdict(h: &History, tag: &str) -> verify::Violations {
    let (new, old) = (verify::check(h), reference::check(h));
    assert_eq!(new.fifo, old.fifo, "{tag}: fifo");
    assert_eq!(new.protocol_clean(), old.protocol_clean(), "{tag}: verdict");
    if old.fifo == 0 {
        let counts = |v: &verify::Violations| {
            [
                v.delivery,
                v.reads_from,
                v.stale_reads,
                v.own_write_races,
                v.unresolved,
                v.out_of_view,
            ]
        };
        assert_eq!(
            counts(&new),
            counts(&old),
            "{tag}: new {new} vs reference {old}"
        );
    }
    new
}

/// Pairwise inversions (brute force) and per-(apply, origin) misses (the
/// sweep) count the same defect in different units: every miss is at least
/// one inverted pair, and neither is zero unless the other is.
fn assert_agrees_with_bruteforce(h: &History, v: &verify::Violations, tag: &str) {
    if v.fifo == 0 {
        let (fast, brute) = (
            v.delivery + v.own_write_races,
            delivery_inversions_bruteforce(h),
        );
        assert!(
            fast <= brute,
            "{tag}: {fast} misses but {brute} inverted pairs"
        );
        assert_eq!(
            fast == 0,
            brute == 0,
            "{tag}: fast {fast}, brute force {brute}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn differential_valid_histories_get_the_reference_verdict(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (n, q) = (2 + rng.below(7), 1 + rng.below(6));
        let steps = 20 + rng.below(200);
        let rec = valid_recording(&mut rng, n, q, steps);
        let h = rec.history();
        let tag = format!("seed {seed:#x}");
        let v = assert_same_verdict(&h, &tag);
        prop_assert!(v.protocol_clean(), "{tag}: the model store is causally consistent: {v:?}");
        assert_agrees_with_bruteforce(&h, &v, &tag);
    }

    #[test]
    fn differential_corrupted_histories_get_the_reference_verdict(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (n, q) = (2 + rng.below(7), 1 + rng.below(6));
        let steps = 20 + rng.below(200);
        let mut rec = valid_recording(&mut rng, n, q, steps);
        let mut tag = format!("seed {seed:#x}");
        // Apply-order corruptions (kinds 0–2) keep every id resolvable,
        // which the brute-force count needs.
        let mut resolvable = true;
        for _ in 0..1 + rng.below(3) {
            let Some(kind) = mutate(&mut rng, &mut rec) else { continue };
            tag.push_str(&format!(" m{kind}"));
            resolvable &= kind <= 2;
            let h = rec.history();
            let v = assert_same_verdict(&h, &tag);
            if resolvable {
                assert_agrees_with_bruteforce(&h, &v, &tag);
            }
        }
    }
}

/// The brute-force cross-validation on histories of 3 000 and more
/// operations (the closure is quadratic, so not in the property above).
#[test]
fn differential_bruteforce_agrees_on_3000_op_histories() {
    for seed in 0..4u64 {
        let mut rng = Rng(seed);
        let rec = valid_recording(&mut rng, 6, 12, 7_500);
        assert!(rec.ops.iter().map(Vec::len).sum::<usize>() >= 3_000);
        let h = rec.history();
        let v = assert_same_verdict(&h, &format!("seed {seed}"));
        assert!(v.protocol_clean(), "{v:?}");
        assert_agrees_with_bruteforce(&h, &v, &format!("seed {seed}"));
        // And with one site's applies reversed: both must scream.
        let mut bad = rec.clone();
        bad.applies[0].reverse();
        let h = bad.history();
        let v = assert_same_verdict(&h, &format!("seed {seed} reversed"));
        assert!(v.fifo + v.delivery + v.own_write_races > 0);
        assert!(delivery_inversions_bruteforce(&h) > 0);
    }
}
