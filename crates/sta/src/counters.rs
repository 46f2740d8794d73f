//! Plain work-counter groups, declared once.

/// Declares a plain group of `usize` work counters: the struct with its
/// field docs, `Debug, Clone, Copy, Default, PartialEq, Eq`, and the
/// field-wise `since`/`merged` pair every counter sink relies on.
#[macro_export]
macro_rules! counter_group {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident: usize,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: usize,)+
        }

        impl $name {
            /// The increments since `baseline` (an earlier snapshot of
            /// the same counters).
            pub fn since(&self, baseline: &$name) -> $name {
                $name {
                    $($field: self.$field - baseline.$field,)+
                }
            }

            /// The field-wise sum of two counter sets, for accumulating
            /// per-run increments into a service-lifetime total.
            pub fn merged(&self, other: &$name) -> $name {
                $name {
                    $($field: self.$field + other.$field,)+
                }
            }
        }
    };
}
