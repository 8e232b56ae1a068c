//! One generator per table / figure of the paper's §V.
//!
//! Every generator returns a [`Table`] whose rows are the series the paper
//! plots (figures) or prints (tables); the `repro` binary renders them to
//! stdout and CSV. Paper reference values are included as columns where the
//! paper publishes exact numbers (Tables II–IV), so the output doubles as
//! the EXPERIMENTS.md comparison.

use crate::analytic;
use crate::harness::paper_cfg;
use crate::sweep::Sweep;
use causal_metrics::Table;
use causal_proto::ProtocolKind;
use causal_types::MsgKind;

/// Fig. 1 — ratio of total message meta-data bytes, Opt-Track / Full-Track,
/// as a function of `n`, one column per write rate.
pub fn fig1(sw: &mut Sweep) -> Table {
    let mut t = Table::new(
        "Fig. 1 — total meta-data ratio, Opt-Track / Full-Track (partial replication)",
        &["n", "ratio w=0.2", "ratio w=0.5", "ratio w=0.8"],
    );
    for n in Sweep::N_GRID {
        let mut cells = vec![n.to_string()];
        for w in Sweep::W_GRID {
            let ot = sw.cell(ProtocolKind::OptTrack, n, w).total_bytes;
            let ft = sw.cell(ProtocolKind::FullTrack, n, w).total_bytes;
            cells.push(format!("{:.3}", ot / ft));
        }
        t.push_row(cells);
    }
    t
}

/// Figs. 2–4 — average SM / RM / FM meta-data bytes vs `n` for both partial
/// protocols, at one write rate.
pub fn fig2_4(sw: &mut Sweep, w_rate: f64) -> Table {
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
    for n in Sweep::N_GRID {
        let ot = sw.cell(ProtocolKind::OptTrack, n, w_rate).clone();
        let ft = sw.cell(ProtocolKind::FullTrack, n, w_rate).clone();
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

/// Paper reference values for Table II (KB): `(protocol, kind, w_rate) → n
/// series`. Used in the rendered comparison.
fn table2_paper(protocol: ProtocolKind, kind: MsgKind, w: f64) -> [f64; 5] {
    match (protocol, kind, (w * 10.0) as u32) {
        (ProtocolKind::OptTrack, MsgKind::Sm, 2) => [0.489, 0.828, 1.512, 2.241, 2.783],
        (ProtocolKind::OptTrack, MsgKind::Sm, 5) => [0.464, 0.715, 1.125, 1.442, 1.976],
        (ProtocolKind::OptTrack, MsgKind::Sm, 8) => [0.450, 0.627, 0.914, 1.194, 1.475],
        (ProtocolKind::OptTrack, MsgKind::Rm, 2) => [0.432, 0.774, 1.530, 2.351, 3.184],
        (ProtocolKind::OptTrack, MsgKind::Rm, 5) => [0.436, 0.702, 1.235, 1.656, 2.197],
        (ProtocolKind::OptTrack, MsgKind::Rm, 8) => [0.555, 0.632, 0.948, 1.288, 1.599],
        (ProtocolKind::FullTrack, MsgKind::Sm, 2) => [0.518, 1.252, 3.870, 8.028, 13.547],
        (ProtocolKind::FullTrack, MsgKind::Sm, 5) => [0.522, 1.271, 3.975, 8.127, 14.033],
        (ProtocolKind::FullTrack, MsgKind::Sm, 8) => [0.524, 1.275, 3.988, 8.410, 14.157],
        (ProtocolKind::FullTrack, MsgKind::Rm, 2) => [0.493, 1.220, 3.817, 7.959, 13.461],
        (ProtocolKind::FullTrack, MsgKind::Rm, 5) => [0.497, 1.205, 3.941, 8.117, 13.983],
        (ProtocolKind::FullTrack, MsgKind::Rm, 8) => [0.499, 1.250, 3.966, 8.369, 14.099],
        _ => unreachable!("no paper reference for this cell"),
    }
}

/// Table II — average SM and RM space overhead (KB) for Full-Track and
/// Opt-Track, with the paper's values alongside.
pub fn table2(sw: &mut Sweep) -> Table {
    let mut t = Table::new(
        "Table II — average SM and RM meta-data (KB), partial replication (measured | paper)",
        &[
            "protocol", "msg", "w_rate", "n=5", "n=10", "n=20", "n=30", "n=40",
        ],
    );
    for protocol in [ProtocolKind::OptTrack, ProtocolKind::FullTrack] {
        for kind in [MsgKind::Sm, MsgKind::Rm] {
            for w in Sweep::W_GRID {
                let paper = table2_paper(protocol, kind, w);
                let mut cells = vec![protocol.to_string(), kind.to_string(), format!("{w}")];
                for (i, n) in Sweep::N_GRID.iter().enumerate() {
                    let c = sw.cell(protocol, *n, w).avg(kind);
                    cells.push(format!("{:.3} | {:.3}", c / 1000.0, paper[i]));
                }
                t.push_row(cells);
            }
        }
    }
    t
}

/// Fig. 5 — ratio of total SM meta-data bytes, Opt-Track-CRP / optP, as a
/// function of `n`, one column per write rate.
pub fn fig5(sw: &mut Sweep) -> Table {
    let mut t = Table::new(
        "Fig. 5 — total SM meta-data ratio, Opt-Track-CRP / optP (full replication)",
        &["n", "ratio w=0.2", "ratio w=0.5", "ratio w=0.8"],
    );
    for n in Sweep::N_GRID_FULL {
        let mut cells = vec![n.to_string()];
        for w in Sweep::W_GRID {
            let crp = sw.cell(ProtocolKind::OptTrackCrp, n, w).total_bytes;
            let op = sw.cell(ProtocolKind::OptP, n, w).total_bytes;
            cells.push(format!("{:.3}", crp / op));
        }
        t.push_row(cells);
    }
    t
}

/// Figs. 6–8 — average SM meta-data bytes vs `n` for both full-replication
/// protocols, at one write rate.
pub fn fig6_8(sw: &mut Sweep, w_rate: f64) -> Table {
    let mut t = Table::new(
        format!("Figs. 6–8 — average SM meta-data bytes, full replication, w_rate = {w_rate}"),
        &[
            "n",
            "Opt-Track-CRP SM",
            "optP SM",
            "optP analytic (209+10n)",
        ],
    );
    for n in Sweep::N_GRID_FULL {
        let crp = sw
            .cell(ProtocolKind::OptTrackCrp, n, w_rate)
            .avg(MsgKind::Sm);
        let op = sw.cell(ProtocolKind::OptP, n, w_rate).avg(MsgKind::Sm);
        t.push_row(vec![
            n.to_string(),
            format!("{crp:.1}"),
            format!("{op:.1}"),
            format!("{}", 209 + 10 * n),
        ]);
    }
    t
}

/// Paper reference values for Table III (bytes).
fn table3_paper(n: usize) -> (f64, f64, f64, f64) {
    match n {
        5 => (287.3, 277.5, 272.9, 259.0),
        10 => (300.3, 284.3, 278.2, 309.0),
        20 => (315.5, 294.9, 288.3, 409.0),
        30 => (327.1, 305.2, 298.4, 509.0),
        35 => (332.8, 310.1, 303.4, 559.0),
        40 => (338.4, 315.3, 308.4, 609.0),
        _ => unreachable!(),
    }
}

/// Table III — average SM bytes for Opt-Track-CRP per write rate, with optP
/// and the paper's values.
pub fn table3(sw: &mut Sweep) -> Table {
    let mut t = Table::new(
        "Table III — average SM meta-data (bytes), full replication (measured | paper)",
        &["n", "w=0.2", "w=0.5", "w=0.8", "optP"],
    );
    for n in Sweep::N_GRID_FULL {
        let (p2, p5, p8, popt) = table3_paper(n);
        let c2 = sw.cell(ProtocolKind::OptTrackCrp, n, 0.2).avg(MsgKind::Sm);
        let c5 = sw.cell(ProtocolKind::OptTrackCrp, n, 0.5).avg(MsgKind::Sm);
        let c8 = sw.cell(ProtocolKind::OptTrackCrp, n, 0.8).avg(MsgKind::Sm);
        let copt = sw.cell(ProtocolKind::OptP, n, 0.5).avg(MsgKind::Sm);
        t.push_row(vec![
            n.to_string(),
            format!("{c2:.1} | {p2}"),
            format!("{c5:.1} | {p5}"),
            format!("{c8:.1} | {p8}"),
            format!("{copt:.1} | {popt}"),
        ]);
    }
    t
}

/// Paper reference values for Table IV: `(full, partial)` message counts.
fn table4_paper(n: usize, w: f64) -> (u64, u64) {
    match (n, (w * 10.0) as u32) {
        (5, 2) => (2_036, 3_208),
        (5, 5) => (4_960, 3_463),
        (5, 8) => (8_004, 3_764),
        (10, 2) => (8_910, 8_297),
        (10, 5) => (22_266, 10_234),
        (10, 8) => (35_892, 12_156),
        (20, 2) => (38_057, 22_808),
        (20, 5) => (95_114, 35_668),
        (20, 8) => (151_905, 48_128),
        (30, 2) => (86_826, 42_600),
        (30, 5) => (217_181, 75_679),
        (30, 8) => (347_304, 108_810),
        (40, 2) => (156_156, 69_405),
        (40, 5) => (390_039, 130_572),
        (40, 8) => (624_390, 192_883),
        _ => unreachable!(),
    }
}

/// Table IV — total message count, Opt-Track-CRP (full) vs Opt-Track
/// (partial), on identical schedules, with the paper's values and the
/// eq. (2) prediction.
pub fn table4(sw: &mut Sweep) -> Table {
    let mut t = Table::new(
        "Table IV — total message count: full (Opt-Track-CRP) vs partial (Opt-Track), (measured | paper)",
        &["n", "w_rate", "full repl.", "partial repl.", "partial wins?", "eq.(2) predicts"],
    );
    for n in Sweep::N_GRID {
        for w in Sweep::W_GRID {
            let (pf, pp) = table4_paper(n, w);
            let full = sw.cell(ProtocolKind::OptTrackCrp, n, w).total_count;
            let part = sw.cell(ProtocolKind::OptTrack, n, w).total_count;
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

/// Eq. (1)/(2) — the analytic crossover write rate per `n`, validated
/// against simulation just below and above the threshold.
pub fn eq2(sw: &mut Sweep) -> Table {
    let mut t = Table::new(
        "Eq. (2) — crossover write rate 2/(n+1): partial replication wins above it",
        &[
            "n",
            "threshold",
            "below: partial/full msgs",
            "above: partial/full msgs",
        ],
    );
    for n in [5usize, 10, 20, 40] {
        let th = analytic::crossover_w_rate(n);
        let below = (th - 0.08).max(0.02);
        let above = (th + 0.08).min(0.98);
        let ratio = |sw: &mut Sweep, w: f64| {
            let part = sw.cell(ProtocolKind::OptTrack, n, w).total_count;
            let full = sw.cell(ProtocolKind::OptTrackCrp, n, w).total_count;
            part / full
        };
        let rb = ratio(sw, below);
        let ra = ratio(sw, above);
        t.push_row(vec![
            n.to_string(),
            format!("{th:.3}"),
            format!("{rb:.3} (>1 expected)"),
            format!("{ra:.3} (<1 expected)"),
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
pub fn ext_false_causality(sw: &mut Sweep) -> Table {
    use causal_simnet::{run, LatencyModel};

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
    let events = match sw.scale() {
        crate::sweep::Scale::Paper => 300,
        crate::sweep::Scale::Quick => 100,
    };
    let cell = |protocol: ProtocolKind, n: usize, w: f64| {
        let mut cfg = paper_cfg(protocol, n, w, sw.base_seed);
        cfg.workload.events_per_process = events;
        cfg.latency = LatencyModel::Uniform {
            min_micros: 100_000,
            max_micros: 1_500_000,
        };
        let r = run(&cfg);
        assert_eq!(r.final_pending, 0);
        (
            r.metrics.apply_latency_ns.mean() / 1e6,
            r.metrics.apply_latency_ns.quantile(0.99).unwrap_or(0.0) / 1e6,
            r.metrics.max_pending,
        )
    };
    for n in [10usize, 20, 40] {
        for w in [0.2, 0.8] {
            let (ft_lat, _ft_p99, ft_park) = cell(ProtocolKind::FullTrack, n, w);
            let (hb_lat, hb_p99, hb_park) = cell(ProtocolKind::HbTrack, n, w);
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
                ft_park.to_string(),
                hb_park.to_string(),
            ]);
        }
    }
    t
}

/// Extension experiment — amortized dependency-structure size: the mean
/// number of records piggybacked per SM, per protocol. Chandra et al.
/// (cited in §V-A) showed the KS log amortizes to ≈O(n); this regenerates
/// that analysis on our workloads.
pub fn ext_log_size(sw: &mut Sweep) -> Table {
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
    for n in Sweep::N_GRID {
        let ft = sw.cell(ProtocolKind::FullTrack, n, 0.5).sm_entries;
        let ot = sw.cell(ProtocolKind::OptTrack, n, 0.5).sm_entries;
        let crp = sw.cell(ProtocolKind::OptTrackCrp, n, 0.5).sm_entries;
        let op = sw.cell(ProtocolKind::OptP, n, 0.5).sm_entries;
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
pub fn ext_storage(sw: &mut Sweep) -> Table {
    let mut t = Table::new(
        "Extension — mean per-site metadata storage at quiescence (KB), w_rate = 0.5",
        &["n", "Full-Track", "Opt-Track", "Opt-Track-CRP", "optP"],
    );
    for n in Sweep::N_GRID {
        let ft = sw.cell(ProtocolKind::FullTrack, n, 0.5).local_meta_mean;
        let ot = sw.cell(ProtocolKind::OptTrack, n, 0.5).local_meta_mean;
        let crp = sw.cell(ProtocolKind::OptTrackCrp, n, 0.5).local_meta_mean;
        let op = sw.cell(ProtocolKind::OptP, n, 0.5).local_meta_mean;
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
    use super::*;
    use crate::sweep::Scale;

    /// One quick-scale sweep shared by the generator tests (each generator
    /// re-simulates missing cells on demand; Quick keeps this fast).
    fn sweep() -> Sweep {
        Sweep::new(Scale::Quick)
    }

    #[test]
    fn fig1_ratios_fall_with_n() {
        let mut sw = sweep();
        let t = fig1(&mut sw);
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
        let mut sw = sweep();
        let t = table4(&mut sw);
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
        let mut sw = sweep();
        let t = fig6_8(&mut sw, 0.8);
        let csv = t.to_csv();
        let last = csv.lines().last().unwrap();
        let cols: Vec<&str> = last.split(',').collect();
        let crp: f64 = cols[1].parse().unwrap();
        let optp: f64 = cols[2].parse().unwrap();
        assert!(crp < optp, "CRP must beat optP at n=40 ({crp} vs {optp})");
    }

    #[test]
    fn eq2_table_brackets_threshold() {
        let mut sw = sweep();
        let t = eq2(&mut sw);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn storage_table_orders_protocols() {
        let mut sw = sweep();
        let t = ext_storage(&mut sw);
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
        let mut sw = sweep();
        let t = ext_log_size(&mut sw);
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
        let mut sw = sweep();
        let t = ext_false_causality(&mut sw);
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
