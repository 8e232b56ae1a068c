//! Every artifact `repro` makes, declared once in [`ARTIFACTS`]: its
//! subcommand, where the paper shows it, the `(protocol, n, w_rate)` cells
//! it reads, the values the paper prints for it and the generator that
//! makes its table. `repro` runs the union of the selected rows' cells in
//! one pass ([`Ctx::new`]), then asks each row for its table; the
//! extension sweeps declare no cells and run their own units.

use crate::figures::{self, ratio};
use crate::sweep::{grid, Cell, Ctx, N_GRID, N_GRID_FULL, W_GRID};
use crate::{batching, chaos, churn, durability, scale, serve, soak};
use causal_metrics::Table;
use causal_proto::ProtocolKind::{self, FullTrack, OptP, OptTrack, OptTrackCrp};

/// What `--out` writes for an artifact besides its CSV.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A plot: its gnuplot data and script too.
    Figure,
    /// A table: the CSV alone.
    Table,
}

/// One artifact: a row of [`ARTIFACTS`].
pub struct Artifact {
    /// Its `repro` subcommand, and the stem of its files under `--out`.
    pub name: &'static str,
    /// Figure or table.
    pub kind: Kind,
    /// Where the paper shows it: `Fig. 1`, `Table II`, or `extension`.
    pub paper: &'static str,
    /// The cells it reads; none for a sweep that runs its own units.
    pub cells: fn() -> Vec<Cell>,
    /// The values the paper prints, in the order the table shows them;
    /// empty where the paper prints none.
    pub printed: &'static [f64],
    /// Its table, from a context holding its cells, and `printed`.
    pub table: fn(&Ctx, &[f64]) -> Table,
}

/// A table of [`Artifact`]s, one row each:
/// `"table3" Table "Table III" cells, [printed values] => table;`, the
/// bracketed values only where the paper prints some.
macro_rules! artifacts {
    ($($name:literal $kind:ident $paper:literal $cells:expr, $([$($v:literal),*])? => $table:expr;)*) => {
        &[$(Artifact {
            name: $name,
            kind: Kind::$kind,
            paper: $paper,
            cells: $cells,
            printed: &[$($($v as f64),*)?],
            table: $table,
        }),*]
    };
}

const PARTIAL: [ProtocolKind; 2] = [OptTrack, FullTrack];
const FULL: [ProtocolKind; 2] = [OptTrackCrp, OptP];

/// Every artifact, in the order `repro all` makes them.
pub const ARTIFACTS: &[Artifact] = artifacts! {
    "fig1" Figure "Fig. 1" || grid(&PARTIAL, &N_GRID, &W_GRID), => |c, _| ratio(c,
        "Fig. 1 — total meta-data ratio, Opt-Track / Full-Track (partial replication)",
        PARTIAL, &N_GRID);
    "fig2" Figure "Fig. 2" || grid(&PARTIAL, &N_GRID, &[0.2]), => |c, _| figures::fig2_4(c, 0.2);
    "fig3" Figure "Fig. 3" || grid(&PARTIAL, &N_GRID, &[0.5]), => |c, _| figures::fig2_4(c, 0.5);
    "fig4" Figure "Fig. 4" || grid(&PARTIAL, &N_GRID, &[0.8]), => |c, _| figures::fig2_4(c, 0.8);
    // KB, n = 5 … 40, per protocol, kind and w_rate.
    "table2" Table "Table II" || grid(&PARTIAL, &N_GRID, &W_GRID), [
        0.489, 0.828, 1.512, 2.241, 2.783, // Opt-Track SM, w = 0.2
        0.464, 0.715, 1.125, 1.442, 1.976,
        0.450, 0.627, 0.914, 1.194, 1.475,
        0.432, 0.774, 1.530, 2.351, 3.184, // Opt-Track RM
        0.436, 0.702, 1.235, 1.656, 2.197,
        0.555, 0.632, 0.948, 1.288, 1.599,
        0.518, 1.252, 3.870, 8.028, 13.547, // Full-Track SM
        0.522, 1.271, 3.975, 8.127, 14.033,
        0.524, 1.275, 3.988, 8.410, 14.157,
        0.493, 1.220, 3.817, 7.959, 13.461, // Full-Track RM
        0.497, 1.205, 3.941, 8.117, 13.983,
        0.499, 1.250, 3.966, 8.369, 14.099
    ] => figures::table2;
    "fig5" Figure "Fig. 5" || grid(&FULL, &N_GRID_FULL, &W_GRID), => |c, _| ratio(c,
        "Fig. 5 — total SM meta-data ratio, Opt-Track-CRP / optP (full replication)",
        FULL, &N_GRID_FULL);
    "fig6" Figure "Fig. 6" || grid(&FULL, &N_GRID_FULL, &[0.2]), => |c, _| figures::fig6_8(c, 0.2);
    "fig7" Figure "Fig. 7" || grid(&FULL, &N_GRID_FULL, &[0.5]), => |c, _| figures::fig6_8(c, 0.5);
    "fig8" Figure "Fig. 8" || grid(&FULL, &N_GRID_FULL, &[0.8]), => |c, _| figures::fig6_8(c, 0.8);
    // Bytes, per n: Opt-Track-CRP at w = 0.2, 0.5, 0.8, then optP.
    "table3" Table "Table III" || [grid(&[OptTrackCrp], &N_GRID_FULL, &W_GRID),
        grid(&[OptP], &N_GRID_FULL, &[0.5])].concat(), [
        287.3, 277.5, 272.9, 259, // n = 5
        300.3, 284.3, 278.2, 309,
        315.5, 294.9, 288.3, 409,
        327.1, 305.2, 298.4, 509,
        332.8, 310.1, 303.4, 559,
        338.4, 315.3, 308.4, 609
    ] => figures::table3;
    // Messages, per (n, w_rate): full, then partial replication.
    "table4" Table "Table IV" || grid(&[OptTrackCrp, OptTrack], &N_GRID, &W_GRID), [
        2_036, 3_208, 4_960, 3_463, 8_004, 3_764, // n = 5
        8_910, 8_297, 22_266, 10_234, 35_892, 12_156,
        38_057, 22_808, 95_114, 35_668, 151_905, 48_128,
        86_826, 42_600, 217_181, 75_679, 347_304, 108_810,
        156_156, 69_405, 390_039, 130_572, 624_390, 192_883
    ] => figures::table4;
    "eq2" Table "Eq. (2)" figures::eq2_cells, => |c, _| figures::eq2(c);
    "falseco" Table "extension" Vec::new, => |c, _| figures::ext_false_causality(c);
    "logsize" Table "extension" || grid(&ProtocolKind::ALL, &N_GRID, &[0.5]), => |c, _| figures::ext_log_size(c);
    "storage" Table "extension" || grid(&ProtocolKind::ALL, &N_GRID, &[0.5]), => |c, _| figures::ext_storage(c);
    "chaos" Table "extension" Vec::new, => |c, _| chaos::chaos_overhead(c.scale, 10, c.jobs, c.trace_dir.as_deref());
    "durability" Table "extension" Vec::new, => |c, _| durability::durability_sweep(c.scale, 10, c.jobs, c.trace_dir.as_deref());
    "churn" Table "extension" Vec::new, => |c, _| churn::churn_sweep(c.scale, c.jobs);
    "batching" Table "extension" Vec::new, => |c, _| batching::batching_sweep(c.scale, c.jobs);
    "soak" Table "extension" Vec::new, => |c, _| soak::soak_sweep(c.scale, c.jobs);
    "serve" Table "extension" Vec::new, => |c, _| serve::serve_sweep(c.scale);
    "scale" Table "extension" Vec::new, => |c, _| scale::scale_sweep(c.scale);
};

/// Every cell some artifact declares, each once, at quick scale on four
/// workers: one run shared by the tests of the crate.
#[cfg(test)]
pub(crate) fn quick() -> &'static Ctx {
    static CTX: std::sync::OnceLock<Ctx> = std::sync::OnceLock::new();
    CTX.get_or_init(|| Ctx::new(crate::Scale::Quick, 4, None, &every_cell()))
}

#[cfg(test)]
fn every_cell() -> Vec<Cell> {
    ARTIFACTS.iter().flat_map(|a| (a.cells)()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each artifact that reads cells renders from the cells it declares
    /// and no other (an undeclared one panics), showing each value the
    /// paper prints once; and the declared cells come out bit-identical
    /// on one worker and on four.
    #[test]
    fn every_artifact_renders_from_its_declared_cells_at_any_job_count() {
        let shared = quick();
        for a in ARTIFACTS.iter().filter(|a| !(a.cells)().is_empty()) {
            let t = (a.table)(&shared.only(&(a.cells)()), a.printed);
            assert!(!t.is_empty(), "{}", a.name);
            let shown = t.to_csv().matches(" | ").count();
            assert_eq!(shown, a.printed.len(), "{}: printed values shown", a.name);
        }
        let one = Ctx::new(crate::Scale::Quick, 1, None, &every_cell());
        for (p, n, w) in every_cell() {
            let (seq, par) = (one.cell(p, n, w), shared.cell(p, n, w));
            assert_eq!(seq.fingerprint(), par.fingerprint(), "{p} n={n} w={w}");
        }
    }
}
