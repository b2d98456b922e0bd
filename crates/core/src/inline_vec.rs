//! An in-repo inline small-vector for segment lists.
//!
//! Nearly every index entry holds one segment (only values past the
//! per-page budget split), and the global index keeps one entry per
//! live KVP, so the list's footprint is the index's footprint.
//! [`InlineVec`] keeps up to `N` elements inside the struct and moves to
//! a `Vec` only when a blob actually splits beyond that: the common
//! path never allocates, and a spilled list grows like any `Vec` (one
//! allocation per growth step, one pointer hop to the elements). No
//! `unsafe`: the inline buffer requires `T: Copy + Default` and unused
//! slots simply hold `T::default()`.

use std::ops::{Deref, DerefMut};

/// Inline with a `u32` length, or spilled. The two states share their
/// bytes, which is what keeps `InlineVec<SegLoc, 1>` at 32 B (pinned
/// through `IndexEntry`'s size assertion in `index.rs`).
#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline { len: u32, buf: [T; N] },
    Heap(Vec<T>),
}

/// A vector storing up to `N` elements inline, spilling to the heap
/// beyond that.
///
/// # Example
///
/// ```
/// use kvssd_core::inline_vec::InlineVec;
///
/// let mut v: InlineVec<u32, 2> = InlineVec::new();
/// v.push(1);
/// v.push(2);
/// assert!(!v.spilled());
/// v.push(3); // exceeds the inline capacity
/// assert!(v.spilled());
/// assert_eq!(v.as_slice(), &[1, 2, 3]);
/// ```
#[derive(Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize>(Repr<T, N>);

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector (no heap allocation).
    pub fn new() -> Self {
        InlineVec(Repr::Inline {
            len: 0,
            buf: [T::default(); N],
        })
    }

    /// Appends an element, spilling to the heap past `N` elements.
    pub fn push(&mut self, value: T) {
        match &mut self.0 {
            Repr::Heap(v) => v.push(value),
            Repr::Inline { len, buf } => match buf.get_mut(*len as usize) {
                Some(slot) => {
                    *slot = value;
                    *len += 1;
                }
                None => {
                    let mut v = Vec::with_capacity(N + 1);
                    v.extend_from_slice(buf);
                    v.push(value);
                    self.0 = Repr::Heap(v);
                }
            },
        }
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Heap(v) => v,
            Repr::Inline { len, buf } => &buf[..*len as usize],
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Heap(v) => v,
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the vector has spilled to the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }

    /// Copies the elements into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        if v.len() <= N {
            let mut out = Self::new();
            for x in v {
                out.push(x);
            }
            out
        } else {
            InlineVec(Repr::Heap(v))
        }
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        // Representation-independent: spilled-then-shrunk and inline
        // vectors with equal contents compare equal.
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        assert!(v.is_empty());
        v.push(10);
        v.push(20);
        assert_eq!(v.len(), 2);
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[10, 20]);
    }

    #[test]
    fn spills_past_capacity_and_keeps_order() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        for i in 0..5 {
            v.push(i);
        }
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn slice_ops_via_deref() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        v.push(1);
        v.push(2);
        v[0] = 9;
        assert_eq!(v[0], 9);
        assert_eq!(v.get(1), Some(&2));
        assert_eq!(v.iter().sum::<u32>(), 11);
    }

    #[test]
    fn equality_ignores_representation() {
        let a: InlineVec<u32, 2> = vec![1, 2].into();
        let mut b: InlineVec<u32, 2> = InlineVec::new();
        b.push(1);
        b.push(2);
        assert_eq!(a, b);
        let c: InlineVec<u32, 2> = vec![1, 2, 3].into();
        assert!(c.spilled());
        assert_ne!(a, c);
    }

    #[test]
    fn from_vec_round_trips() {
        let v: InlineVec<u32, 2> = vec![7, 8, 9].into();
        assert_eq!(v.to_vec(), vec![7, 8, 9]);
        let small: InlineVec<u32, 2> = vec![7].into();
        assert!(!small.spilled());
        assert_eq!(small.to_vec(), vec![7]);
    }

    #[test]
    fn capacity_one_pushes_across_the_boundary() {
        let mut v: InlineVec<u32, 1> = InlineVec::new();
        assert!(v.is_empty() && !v.spilled());
        v.push(7);
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[7]);
        v.push(8);
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[7, 8]);
        for i in 9..20 {
            v.push(i);
        }
        assert_eq!(v.len(), 13);
        assert_eq!(v.to_vec(), (7..20).collect::<Vec<u32>>());
    }

    #[test]
    fn capacity_one_from_vec_at_each_side_of_the_boundary() {
        let empty: InlineVec<u32, 1> = Vec::new().into();
        assert!(empty.is_empty() && !empty.spilled());
        let one: InlineVec<u32, 1> = vec![5].into();
        assert!(!one.spilled());
        assert_eq!(one.as_slice(), &[5]);
        let two: InlineVec<u32, 1> = vec![5, 6].into();
        assert!(two.spilled());
        assert_eq!(two.as_slice(), &[5, 6]);
        // Same contents, other representation.
        let mut pushed: InlineVec<u32, 1> = InlineVec::new();
        pushed.push(5);
        pushed.push(6);
        assert_eq!(two, pushed);
    }

    #[test]
    fn spilled_vector_mutates_and_clones() {
        let mut v: InlineVec<u32, 1> = vec![1, 2, 3].into();
        v.as_mut_slice()[2] = 30;
        v[0] = 10;
        let copy = v.clone();
        v[1] = 20;
        assert_eq!(copy.as_slice(), &[10, 2, 30], "clone is independent");
        assert_eq!(v.as_slice(), &[10, 20, 30]);
        assert!(copy.spilled());
        let mut inline: InlineVec<u32, 1> = vec![4].into();
        inline.as_mut_slice()[0] = 40;
        assert_eq!(inline.clone().as_slice(), &[40]);
    }
}
