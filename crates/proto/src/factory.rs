//! Protocol selection and construction.

use crate::full_track::FullTrack;
use crate::hb_track::HbTrack;
use crate::opt_track::OptTrack;
use crate::opt_track_crp::OptTrackCrp;
use crate::optp::OptP;
use crate::replica::Replica;
use crate::replication::Replication;
use crate::site::ProtocolSite;
use causal_clocks::PruneConfig;
use causal_types::SiteId;
use std::fmt;
use std::sync::Arc;

/// The five bundled protocols: the paper's four and the HB-Track baseline.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProtocolKind {
    /// Full-Track — partial replication, matrix clock (§III-A).
    FullTrack,
    /// Opt-Track — partial replication, KS log (§III-B).
    OptTrack,
    /// Opt-Track-CRP — full replication, 2-tuple log (§III-C).
    OptTrackCrp,
    /// optP — full replication, vector clock (Baldoni et al. \[13\]).
    OptP,
    /// HB-Track — happened-before baseline that merges clocks at receipt,
    /// exhibiting the false causality Full-Track eliminates (extension; not
    /// one of the paper's four measured protocols).
    HbTrack,
}

impl ProtocolKind {
    /// The paper's four measured protocols, in its presentation order
    /// (HB-Track, the bundled fifth, is an extension and is left out).
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::FullTrack,
        ProtocolKind::OptTrack,
        ProtocolKind::OptTrackCrp,
        ProtocolKind::OptP,
    ];

    /// `true` for the protocols that operate under partial replication.
    pub fn supports_partial(self) -> bool {
        matches!(
            self,
            ProtocolKind::FullTrack | ProtocolKind::OptTrack | ProtocolKind::HbTrack
        )
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProtocolKind::FullTrack => "Full-Track",
            ProtocolKind::OptTrack => "Opt-Track",
            ProtocolKind::OptTrackCrp => "Opt-Track-CRP",
            ProtocolKind::OptP => "optP",
            ProtocolKind::HbTrack => "HB-Track",
        })
    }
}

/// Per-site protocol construction options.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProtocolConfig {
    /// Pruning switches for Opt-Track (ignored by the other protocols).
    pub prune: PruneConfig,
}

/// Build one site's protocol state machine.
///
/// Panics if a full-replication protocol is paired with a partial placement
/// (the protocols' constructors enforce their own requirements).
pub fn build_site(
    kind: ProtocolKind,
    site: SiteId,
    repl: Arc<dyn Replication>,
    cfg: ProtocolConfig,
) -> Box<dyn ProtocolSite> {
    match kind {
        ProtocolKind::FullTrack => Box::new(Replica::new(site, repl, FullTrack::new)),
        ProtocolKind::OptTrack => Box::new(Replica::new(site, repl, |r| {
            OptTrack::with_prune(r, cfg.prune)
        })),
        ProtocolKind::OptTrackCrp => Box::new(Replica::new(site, repl, OptTrackCrp::new)),
        ProtocolKind::OptP => Box::new(Replica::new(site, repl, OptP::new)),
        ProtocolKind::HbTrack => Box::new(Replica::new(site, repl, HbTrack::new)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::FullReplication;

    #[test]
    fn factory_builds_matching_kinds() {
        let repl: Arc<dyn Replication> = Arc::new(FullReplication::new(3));
        for kind in ProtocolKind::ALL {
            let site = build_site(kind, SiteId(0), repl.clone(), ProtocolConfig::default());
            assert_eq!(site.kind(), kind);
            assert_eq!(site.n(), 3);
            assert_eq!(site.site(), SiteId(0));
            assert_eq!(site.pending_len(), 0);
        }
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(ProtocolKind::FullTrack.to_string(), "Full-Track");
        assert_eq!(ProtocolKind::OptTrack.to_string(), "Opt-Track");
        assert_eq!(ProtocolKind::OptTrackCrp.to_string(), "Opt-Track-CRP");
        assert_eq!(ProtocolKind::OptP.to_string(), "optP");
    }

    #[test]
    fn partial_support_flags() {
        assert!(ProtocolKind::FullTrack.supports_partial());
        assert!(ProtocolKind::OptTrack.supports_partial());
        assert!(!ProtocolKind::OptTrackCrp.supports_partial());
        assert!(!ProtocolKind::OptP.supports_partial());
    }
}
