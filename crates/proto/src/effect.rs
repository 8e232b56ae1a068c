//! Effects emitted by protocol state machines.

use crate::msg::Msg;
use causal_types::{SiteId, VarId, VersionedValue, WriteId};

/// An externally visible consequence of a protocol step.
/// [`crate::SiteDriver`] interprets these on behalf of its harness (the
/// simulator or the threaded runtime): `Send` goes through the lanes to the
/// transport, `Applied` and `FetchDone` feed the execution history used for
/// metrics and consistency checking.
#[derive(Clone, PartialEq, Debug)]
pub enum Effect {
    /// Transmit `msg` to site `to` over the FIFO channel.
    Send {
        /// Destination site.
        to: SiteId,
        /// The message to deliver.
        msg: Msg,
    },
    /// An update was applied to the local replica of `var` (an
    /// `apply_i(w_j(x_h)v)` event in the paper's event taxonomy).
    Applied {
        /// The variable whose replica was updated.
        var: VarId,
        /// The write that was applied.
        write: WriteId,
    },
    /// A previously issued remote fetch completed; the pending read returns
    /// `value` (a `return_i(x_h, v)` event).
    FetchDone {
        /// The fetched variable.
        var: VarId,
        /// The fetched value, `None` for `⊥`.
        value: Option<VersionedValue>,
    },
}

/// Outcome of [`crate::ProtocolSite::read`].
#[derive(Clone, PartialEq, Debug)]
pub enum ReadResult {
    /// The variable is locally replicated; its current value (or `⊥`) is
    /// returned immediately.
    Local(Option<VersionedValue>),
    /// The variable is not replicated here. An FM was produced for the
    /// predesignated replica; the read blocks until the matching
    /// [`Effect::FetchDone`] is emitted by
    /// [`crate::ProtocolSite::on_message`].
    Fetch {
        /// The serving replica.
        target: SiteId,
        /// The fetch message to transmit.
        msg: Msg,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Fm;

    #[test]
    fn effects_are_comparable_for_test_assertions() {
        let a = Effect::Applied {
            var: VarId(1),
            write: WriteId::new(SiteId(0), 1),
        };
        assert_eq!(a.clone(), a);
        let f = ReadResult::Fetch {
            target: SiteId(2),
            msg: Msg::Fm(Fm { var: VarId(1) }),
        };
        assert_ne!(
            f,
            ReadResult::Local(None),
            "fetch and local results are distinct"
        );
    }
}
