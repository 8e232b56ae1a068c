//! The generators of the paper's §V tables and figures, and of the
//! extensions read off the same cells.
//!
//! Every generator returns a [`Table`] whose rows are the series the paper
//! plots (figures) or prints (tables); [`crate::artifacts::ARTIFACTS`]
//! names each one, the cells it reads and the values the paper prints,
//! which Tables II–IV show beside the measured ones, so the output doubles
//! as the EXPERIMENTS.md comparison.

use crate::analytic;
use crate::harness::{paper_cfg, run_units, slug};
use crate::sweep::{Cell, Ctx, Scale, BASE_SEED, N_GRID, N_GRID_FULL, W_GRID};
use causal_metrics::Table;
use causal_proto::ProtocolKind;
use causal_types::MsgKind;

/// Figs. 1 and 5 — the ratio of total message meta-data bytes, `a` / `b`,
/// as a function of `n`, one column per write rate.
pub fn ratio(c: &Ctx, title: &str, [a, b]: [ProtocolKind; 2], ns: &[usize]) -> Table {
    let mut t = Table::new(title, &["n", "ratio w=0.2", "ratio w=0.5", "ratio w=0.8"]);
    for &n in ns {
        let mut cells = vec![n.to_string()];
        for w in W_GRID {
            let ratio = c.cell(a, n, w).total_bytes / c.cell(b, n, w).total_bytes;
            cells.push(format!("{ratio:.3}"));
        }
        t.push_row(cells);
    }
    t
}

/// Figs. 2–4 — average SM / RM / FM meta-data bytes vs `n` for both partial
/// protocols, at one write rate.
pub fn fig2_4(c: &Ctx, w_rate: f64) -> Table {
    let mut t = Table::new(
        format!(
            "Figs. 2–4 — average message meta-data bytes, partial replication, w_rate = {w_rate}"
        ),
        &[
            "n",
            "OptTrack SM",
            "OptTrack RM",
            "FullTrack SM",
            "FullTrack RM",
            "FM (both)",
        ],
    );
    for n in N_GRID {
        let ot = c.cell(ProtocolKind::OptTrack, n, w_rate);
        let ft = c.cell(ProtocolKind::FullTrack, n, w_rate);
        t.push_row(vec![
            n.to_string(),
            format!("{:.1}", ot.avg(MsgKind::Sm)),
            format!("{:.1}", ot.avg(MsgKind::Rm)),
            format!("{:.1}", ft.avg(MsgKind::Sm)),
            format!("{:.1}", ft.avg(MsgKind::Rm)),
            format!("{:.1}", ot.avg(MsgKind::Fm)),
        ]);
    }
    t
}

/// Table II — average SM and RM space overhead (KB) for Full-Track and
/// Opt-Track beside the paper's, five values (one per `n`) for each
/// protocol, kind and write rate.
pub fn table2(c: &Ctx, paper: &[f64]) -> Table {
    let mut t = Table::new(
        "Table II — average SM and RM meta-data (KB), partial replication (measured | paper)",
        &[
            "protocol", "msg", "w_rate", "n=5", "n=10", "n=20", "n=30", "n=40",
        ],
    );
    let mut paper = paper.chunks(N_GRID.len());
    for protocol in [ProtocolKind::OptTrack, ProtocolKind::FullTrack] {
        for kind in [MsgKind::Sm, MsgKind::Rm] {
            for w in W_GRID {
                let paper = paper.next().expect("a printed row");
                let mut cells = vec![protocol.to_string(), kind.to_string(), format!("{w}")];
                for (n, p) in N_GRID.iter().zip(paper) {
                    let kb = c.cell(protocol, *n, w).avg(kind) / 1000.0;
                    cells.push(format!("{kb:.3} | {p:.3}"));
                }
                t.push_row(cells);
            }
        }
    }
    t
}

/// Figs. 6–8 — average SM meta-data bytes vs `n` for both full-replication
/// protocols, at one write rate.
pub fn fig6_8(c: &Ctx, w_rate: f64) -> Table {
    let mut t = Table::new(
        format!("Figs. 6–8 — average SM meta-data bytes, full replication, w_rate = {w_rate}"),
        &[
            "n",
            "Opt-Track-CRP SM",
            "optP SM",
            "optP analytic (209+10n)",
        ],
    );
    for n in N_GRID_FULL {
        let crp = c
            .cell(ProtocolKind::OptTrackCrp, n, w_rate)
            .avg(MsgKind::Sm);
        let op = c.cell(ProtocolKind::OptP, n, w_rate).avg(MsgKind::Sm);
        t.push_row(vec![
            n.to_string(),
            format!("{crp:.1}"),
            format!("{op:.1}"),
            format!("{}", 209 + 10 * n),
        ]);
    }
    t
}

/// Table III — average SM bytes for Opt-Track-CRP per write rate, and
/// optP's at w = 0.5, beside the paper's four values per `n`.
pub fn table3(c: &Ctx, paper: &[f64]) -> Table {
    let mut t = Table::new(
        "Table III — average SM meta-data (bytes), full replication (measured | paper)",
        &["n", "w=0.2", "w=0.5", "w=0.8", "optP"],
    );
    for (n, paper) in N_GRID_FULL.into_iter().zip(paper.chunks(4)) {
        let crp = W_GRID.map(|w| (ProtocolKind::OptTrackCrp, w));
        let columns = crp.into_iter().chain([(ProtocolKind::OptP, 0.5)]);
        let mut cells = vec![n.to_string()];
        for ((protocol, w), p) in columns.zip(paper) {
            let sm = c.cell(protocol, n, w).avg(MsgKind::Sm);
            cells.push(format!("{sm:.1} | {p}"));
        }
        t.push_row(cells);
    }
    t
}

/// Table IV — total message count, Opt-Track-CRP (full) vs Opt-Track
/// (partial), on identical schedules, beside the paper's two counts per
/// `(n, w)` and the eq. (2) prediction.
pub fn table4(c: &Ctx, paper: &[f64]) -> Table {
    let mut t = Table::new(
        "Table IV — total message count: full (Opt-Track-CRP) vs partial (Opt-Track), (measured | paper)",
        &["n", "w_rate", "full repl.", "partial repl.", "partial wins?", "eq.(2) predicts"],
    );
    let mut paper = paper.chunks(2);
    for n in N_GRID {
        for w in W_GRID {
            let [pf, pp] = paper.next().expect("a printed row") else {
                panic!("two printed counts per row");
            };
            let full = c.cell(ProtocolKind::OptTrackCrp, n, w).total_count;
            let part = c.cell(ProtocolKind::OptTrack, n, w).total_count;
            t.push_row(vec![
                n.to_string(),
                format!("{w}"),
                format!("{full:.0} | {pf}"),
                format!("{part:.0} | {pp}"),
                format!("{}", part < full),
                format!("{}", analytic::partial_wins(n, w)),
            ]);
        }
    }
    t
}

/// The `n`s eq. (2) is checked at, each with a write rate just below and
/// just above its crossover.
fn eq2_points() -> impl Iterator<Item = (usize, f64, [f64; 2])> {
    [5usize, 10, 20, 40].into_iter().map(|n| {
        let th = analytic::crossover_w_rate(n);
        (n, th, [(th - 0.08).max(0.02), (th + 0.08).min(0.98)])
    })
}

/// The cells [`eq2`] reads: both Opt-Track variants at each point.
pub fn eq2_cells() -> Vec<Cell> {
    let protocols = [ProtocolKind::OptTrack, ProtocolKind::OptTrackCrp];
    let points = eq2_points().flat_map(|(n, _, ws)| ws.map(|w| (n, w)));
    points
        .flat_map(|(n, w)| protocols.map(|p| (p, n, w)))
        .collect()
}

/// Eq. (1)/(2) — the analytic crossover write rate per `n`, validated
/// against simulation just below and above the threshold.
pub fn eq2(c: &Ctx) -> Table {
    let mut t = Table::new(
        "Eq. (2) — crossover write rate 2/(n+1): partial replication wins above it",
        &[
            "n",
            "threshold",
            "below: partial/full msgs",
            "above: partial/full msgs",
        ],
    );
    for (n, th, [below, above]) in eq2_points() {
        let ratio = |w: f64| {
            let part = c.cell(ProtocolKind::OptTrack, n, w).total_count;
            let full = c.cell(ProtocolKind::OptTrackCrp, n, w).total_count;
            part / full
        };
        t.push_row(vec![
            n.to_string(),
            format!("{th:.3}"),
            format!("{:.3} (>1 expected)", ratio(below)),
            format!("{:.3} (<1 expected)", ratio(above)),
        ]);
    }
    t
}

/// Extension experiment — false causality: HB-Track (happened-before,
/// merge-at-receipt) vs Full-Track (`→co`, merge-at-read) on identical
/// schedules. Their messages are byte-identical; the difference is *delay*:
/// HB-Track parks updates behind dependencies that are not real. This
/// quantifies the paper's claim that Full-Track "primarily reduces the
/// false causality in the partial replica system".
///
/// The default WAN latency (20–80 ms) is negligible next to the paper's
/// multi-second operation gaps, so this experiment uses a slow wide-area
/// network (0.1–1.5 s one-way, overlapping the operation cadence) where
/// message reordering across senders actually occurs.
pub fn ext_false_causality(c: &Ctx) -> Table {
    use causal_simnet::LatencyModel;

    let mut t = Table::new(
        "Extension — false causality under slow WAN (0.1–1.5 s): HB-Track vs Full-Track",
        &[
            "n",
            "w_rate",
            "FT latency (ms)",
            "HB latency (ms)",
            "HB / FT",
            "HB p99 (ms)",
            "FT max parked",
            "HB max parked",
        ],
    );
    let events = match c.scale {
        Scale::Paper => 300,
        Scale::Quick => 100,
    };
    // One row per (n, w): its Full-Track unit, then its HB-Track unit.
    let units: Vec<(usize, f64, ProtocolKind)> = [10usize, 20, 40]
        .into_iter()
        .flat_map(|n| [0.2, 0.8].map(|w| (n, w)))
        .flat_map(|(n, w)| [ProtocolKind::FullTrack, ProtocolKind::HbTrack].map(|p| (n, w, p)))
        .collect();
    let cfg = |&(n, w, protocol): &(usize, f64, ProtocolKind)| {
        let mut cfg = paper_cfg(protocol, n, w, BASE_SEED);
        cfg.workload.events_per_process = events;
        cfg.latency = LatencyModel::Uniform {
            min_micros: 100_000,
            max_micros: 1_500_000,
        };
        cfg
    };
    let tag = |&(n, w, protocol): &(usize, f64, ProtocolKind)| {
        format!("falseco-{}-n{n}-w{w}", slug(protocol))
    };
    let results = run_units(c.jobs, &units, cfg, tag, None);
    for (pair, runs) in units.chunks(2).zip(results.chunks(2)) {
        let (n, w, _) = pair[0];
        let (ft, hb) = (&runs[0].metrics, &runs[1].metrics);
        let ft_lat = ft.apply_latency_ns.mean() / 1e6;
        let hb_lat = hb.apply_latency_ns.mean() / 1e6;
        let hb_p99 = hb.apply_latency_ns.quantile(0.99).unwrap_or(0.0) / 1e6;
        t.push_row(vec![
            n.to_string(),
            format!("{w}"),
            format!("{ft_lat:.2}"),
            format!("{hb_lat:.2}"),
            if ft_lat < 0.01 {
                "∞ (FT ≈ 0)".to_string()
            } else {
                format!("{:.1}×", hb_lat / ft_lat)
            },
            format!("{hb_p99:.1}"),
            ft.max_pending.to_string(),
            hb.max_pending.to_string(),
        ]);
    }
    t
}

/// Extension experiment — amortized dependency-structure size: the mean
/// number of records piggybacked per SM, per protocol. Chandra et al.
/// (cited in §V-A) showed the KS log amortizes to ≈O(n); this regenerates
/// that analysis on our workloads.
pub fn ext_log_size(c: &Ctx) -> Table {
    let mut t = Table::new(
        "Extension — mean piggybacked records per SM (matrix cells / log entries / vector slots)",
        &[
            "n",
            "Full-Track (n²)",
            "Opt-Track",
            "Opt-Track / n",
            "CRP (d+1)",
            "optP (n)",
        ],
    );
    for n in N_GRID {
        let ft = c.cell(ProtocolKind::FullTrack, n, 0.5).sm_entries;
        let ot = c.cell(ProtocolKind::OptTrack, n, 0.5).sm_entries;
        let crp = c.cell(ProtocolKind::OptTrackCrp, n, 0.5).sm_entries;
        let op = c.cell(ProtocolKind::OptP, n, 0.5).sm_entries;
        t.push_row(vec![
            n.to_string(),
            format!("{ft:.0}"),
            format!("{ot:.1}"),
            format!("{:.2}", ot / n as f64),
            format!("{crp:.2}"),
            format!("{op:.0}"),
        ]);
    }
    t
}

/// Extension experiment — per-site causality-metadata *storage* at
/// quiescence. The paper observes that Full-Track's piggyback cost "is also
/// incurred at each site" as storage; this measures the local control-state
/// footprint (clocks, logs, LastWriteOn) for all four protocols.
pub fn ext_storage(c: &Ctx) -> Table {
    let mut t = Table::new(
        "Extension — mean per-site metadata storage at quiescence (KB), w_rate = 0.5",
        &["n", "Full-Track", "Opt-Track", "Opt-Track-CRP", "optP"],
    );
    for n in N_GRID {
        let ft = c.cell(ProtocolKind::FullTrack, n, 0.5).local_meta_mean;
        let ot = c.cell(ProtocolKind::OptTrack, n, 0.5).local_meta_mean;
        let crp = c.cell(ProtocolKind::OptTrackCrp, n, 0.5).local_meta_mean;
        let op = c.cell(ProtocolKind::OptP, n, 0.5).local_meta_mean;
        t.push_row(vec![
            n.to_string(),
            format!("{:.2}", ft / 1000.0),
            format!("{:.2}", ot / 1000.0),
            format!("{:.2}", crp / 1000.0),
            format!("{:.2}", op / 1000.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use crate::artifacts::{quick, ARTIFACTS};
    use causal_metrics::Table;

    /// The artifact `name`, from the cells every test of the crate shares.
    fn render(name: &str) -> Table {
        let a = ARTIFACTS.iter().find(|a| a.name == name).expect(name);
        (a.table)(quick(), a.printed)
    }

    #[test]
    fn fig1_ratios_fall_with_n() {
        let t = render("fig1");
        assert_eq!(t.len(), 5);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let first: f64 = rows[0].split(',').nth(2).unwrap().parse().unwrap();
        let last: f64 = rows[4].split(',').nth(2).unwrap().parse().unwrap();
        assert!(
            last < first,
            "Opt-Track's advantage must grow with n ({first} → {last})"
        );
        assert!(last < 0.5, "at n=40 the ratio must be well below 1");
    }

    #[test]
    fn table4_matches_eq2_prediction() {
        let t = render("table4");
        for line in t.to_csv().lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(
                cols[4], cols[5],
                "empirical winner must match eq.(2): {line}"
            );
        }
    }

    #[test]
    fn fig6_8_crp_beats_optp_at_large_n() {
        let t = render("fig8");
        let csv = t.to_csv();
        let last = csv.lines().last().unwrap();
        let cols: Vec<&str> = last.split(',').collect();
        let crp: f64 = cols[1].parse().unwrap();
        let optp: f64 = cols[2].parse().unwrap();
        assert!(crp < optp, "CRP must beat optP at n=40 ({crp} vs {optp})");
    }

    #[test]
    fn eq2_table_brackets_threshold() {
        let t = render("eq2");
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn storage_table_orders_protocols() {
        let t = render("storage");
        // At n = 40 (last row): Full-Track > Opt-Track > optP ordering on
        // storage, CRP smallest.
        let last = t.to_csv().lines().last().unwrap().to_string();
        let cols: Vec<f64> = last
            .split(',')
            .skip(1)
            .map(|c| c.parse().unwrap())
            .collect();
        let (ft, ot, crp, op) = (cols[0], cols[1], cols[2], cols[3]);
        assert!(ft > ot, "matrix storage must exceed log storage");
        assert!(crp < op, "CRP storage must undercut optP");
        assert!(crp < ot);
    }

    #[test]
    fn logsize_shows_amortized_linear_log() {
        let t = render("logsize");
        for line in t.to_csv().lines().skip(2) {
            let cols: Vec<&str> = line.split(',').collect();
            let per_n: f64 = cols[3].parse().unwrap();
            assert!(
                per_n < 4.0,
                "Opt-Track log must stay a small multiple of n, got {per_n}"
            );
        }
    }

    #[test]
    fn falseco_shows_hb_track_penalty() {
        let t = render("falseco");
        let mut hb_worse = 0;
        for line in t.to_csv().lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            let ft: f64 = cols[2].parse().unwrap();
            let hb: f64 = cols[3].parse().unwrap();
            if hb > ft {
                hb_worse += 1;
            }
        }
        assert!(hb_worse >= 4, "HB-Track must wait longer in most cells");
    }
}
