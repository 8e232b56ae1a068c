//! One declaration per metrics struct.

/// Declare a metrics struct whose every field names the rule that folds
/// another instance's value into it. `Default` and `merge` are generated
/// from that one list, so neither can miss a field:
///
/// * `sum` — a counter: the two add;
/// * `max` — a peak: the larger survives;
/// * `merge` — an accumulator with an exact `merge` of its own
///   (`MessageStats`, `StatAccum`, `SiteRegistry`);
/// * `p99` — a streaming P² estimate of the 99th percentile. Five markers
///   cannot be combined with five others: `merge` drops the other side's
///   and keeps this side's estimate.
macro_rules! metrics_struct {
    (@init p99) => { $crate::quantile::P2Quantile::new(0.99) };
    (@init $rule:ident) => { Default::default() };
    (@fold sum, $mine:expr, $theirs:expr) => { $mine += $theirs };
    (@fold max, $mine:expr, $theirs:expr) => { $mine = $mine.max($theirs) };
    (@fold merge, $mine:expr, $theirs:expr) => { $mine.merge(&$theirs) };
    (@fold p99, $mine:expr, $theirs:expr) => {};
    (
        $(#[$struct_meta:meta])*
        pub struct $name:ident {
            $( $(#[$meta:meta])* pub $field:ident: $ty:ty => $rule:ident, )*
        }
    ) => {
        $(#[$struct_meta])*
        #[derive(Clone, Debug, Serialize, Deserialize)]
        pub struct $name {
            $( $(#[$meta])* pub $field: $ty, )*
        }

        impl Default for $name {
            fn default() -> Self {
                $name {
                    $( $field: metrics_struct!(@init $rule), )*
                }
            }
        }

        impl $name {
            /// Fold `other` into this one, each field under its declared
            /// rule: counters add, peaks keep the larger, accumulators
            /// merge exactly, P² tails keep this side's estimate.
            pub fn merge(&mut self, other: &$name) {
                $( metrics_struct!(@fold $rule, self.$field, other.$field); )*
            }
        }
    };
}
