//! [`counters!`](crate::counters!): a counter struct declared once, and its
//! sum and fold generated from that one declaration.

/// Wraps a struct whose fields are all `u64` or
/// [`SimDuration`](crate::SimDuration), kept as written (attributes, docs,
/// names, visibilities), and generates `values(&self) -> [u64; N]` (every
/// field in declaration order, a duration in ns) and `add(&mut self, &Self)`
/// (field by field).
#[macro_export]
macro_rules! counters {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $name {
            /// Every counter in declaration order, a duration in ns.
            pub fn values(&self) -> [u64; [$(stringify!($field)),*].len()] {
                [$(u64::from(self.$field)),*]
            }

            /// Adds `other`'s counters to these, field by field.
            pub fn add(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::SimDuration;

    crate::counters! {
        #[derive(Debug, Clone, Default, PartialEq)]
        struct Mixed {
            first: u64,
            /// A duration between two plain counters.
            pub(crate) waited: SimDuration,
            last: u64,
        }
    }

    #[test]
    fn values_are_in_declaration_order_and_add_sums_every_field() {
        let one = |first, ns, last| Mixed {
            first,
            waited: SimDuration::from_nanos(ns),
            last,
        };
        let mut a = one(3, 2_000, 7);
        assert_eq!(a.values(), [3, 2_000, 7]);
        assert_eq!(Mixed::default().values(), [0; 3]);
        a.add(&one(10, 20, 300));
        assert_eq!(a, one(13, 2_020, 307));
        a.add(&Mixed::default());
        assert_eq!(a.values(), [13, 2_020, 307]);
    }
}
