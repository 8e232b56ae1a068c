//! One declaration per metrics struct.

/// Declare a metrics struct whose every field names the rule that folds
/// another instance's value into it. `Default` and `merge` are generated
/// from that one list, so neither can miss a field:
///
/// * `sum` — a counter: the two add;
/// * `max` — a peak: the larger survives;
/// * `merge` — an accumulator with an exact `merge` of its own
///   (`MessageStats`, `Histogram`, `SiteRegistry`).
macro_rules! metrics_struct {
    (@fold sum, $mine:expr, $theirs:expr) => { $mine += $theirs };
    (@fold max, $mine:expr, $theirs:expr) => { $mine = $mine.max($theirs) };
    (@fold merge, $mine:expr, $theirs:expr) => { $mine.merge(&$theirs) };
    (
        $(#[$struct_meta:meta])*
        pub struct $name:ident {
            $( $(#[$meta:meta])* pub $field:ident: $ty:ty => $rule:ident, )*
        }
    ) => {
        $(#[$struct_meta])*
        #[derive(Clone, Debug, Default, Serialize, Deserialize)]
        pub struct $name {
            $( $(#[$meta])* pub $field: $ty, )*
        }

        impl $name {
            /// Fold `other` into this one, each field under its declared
            /// rule: counters add, peaks keep the larger, accumulators
            /// merge exactly.
            pub fn merge(&mut self, other: &$name) {
                $( metrics_struct!(@fold $rule, self.$field, other.$field); )*
            }
        }
    };
}
