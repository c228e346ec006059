//! Fixed-width bitsets.
//!
//! The active tracking phase maintains a *per-thread access bitmap* with one
//! bit per shared page (§4.2 of the paper). [`FixedBitset`] is that bitmap:
//! a dense `u64`-word bitset sized at construction, with the intersection
//! count (`|pages(t1) ∩ pages(t2)|`) that defines thread correlation as a
//! first-class word-parallel operation.

use std::fmt;

/// A dense bitset with a fixed number of bits.
///
/// ```
/// use acorr_mem::FixedBitset;
/// let mut a = FixedBitset::new(200);
/// let mut b = FixedBitset::new(200);
/// a.insert(3);
/// a.insert(130);
/// b.insert(130);
/// assert_eq!(a.intersection_count(&b), 1);
/// assert_eq!(a.count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FixedBitset {
    len: usize,
    words: Vec<u64>,
}

impl FixedBitset {
    /// Creates an empty bitset able to hold `len` bits.
    pub fn new(len: usize) -> Self {
        FixedBitset {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Number of bits this set can hold.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Sets bit `i`. Returns whether the bit was newly set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit — a word fill, so arming all pages of a node costs
    /// `len / 64` stores instead of `len` flag writes.
    pub fn insert_all(&mut self) {
        self.words.fill(!0);
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last = !0u64 >> (64 - rem);
            }
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of bits set in both `self` and `other` — the thread
    /// correlation of two access bitmaps.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different lengths.
    pub fn intersection_count(&self, other: &FixedBitset) -> usize {
        assert_eq!(self.len, other.len, "bitset lengths differ");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Sets every bit that is set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different lengths.
    pub fn union_with(&mut self, other: &FixedBitset) {
        assert_eq!(self.len, other.len, "bitset lengths differ");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// True when every bit of `self` is also set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different lengths.
    pub fn is_subset(&self, other: &FixedBitset) -> bool {
        assert_eq!(self.len, other.len, "bitset lengths differ");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }
}

impl fmt::Display for FixedBitset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, bit) in self.iter_ones().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{bit}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for FixedBitset {
    /// Builds a set sized to the largest element (plus one).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().max().map_or(0, |m| m + 1);
        let mut set = FixedBitset::new(len);
        for i in items {
            set.insert(i);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_sim::{forall, DetRng};
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove() {
        let mut s = FixedBitset::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert is not fresh");
        assert!(s.contains(0) && s.contains(129));
        assert!(!s.contains(64));
        s.remove(129);
        assert!(!s.contains(129));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn clear_and_empty() {
        let mut s = FixedBitset::new(10);
        assert!(s.is_empty());
        s.insert(5);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn insert_all_sets_exactly_len_bits() {
        for len in [0usize, 1, 63, 64, 65, 130, 256] {
            let mut s = FixedBitset::new(len);
            s.insert_all();
            assert_eq!(s.count(), len, "len={len}");
            assert_eq!(
                s.iter_ones().collect::<Vec<_>>(),
                (0..len).collect::<Vec<_>>()
            );
            s.clear();
            assert!(s.is_empty());
        }
    }

    #[test]
    fn intersection_counts_across_words() {
        let mut a = FixedBitset::new(256);
        let mut b = FixedBitset::new(256);
        for i in (0..256).step_by(3) {
            a.insert(i);
        }
        for i in (0..256).step_by(5) {
            b.insert(i);
        }
        // Multiples of 15 under 256: 0,15,...,255 → 18 values.
        assert_eq!(a.intersection_count(&b), (0..256).step_by(15).count());
    }

    #[test]
    fn union_and_subset() {
        let mut a = FixedBitset::new(70);
        let mut b = FixedBitset::new(70);
        a.insert(1);
        b.insert(69);
        let mut u = a.clone();
        u.union_with(&b);
        assert!(a.is_subset(&u));
        assert!(b.is_subset(&u));
        assert!(!u.is_subset(&a));
        assert_eq!(u.count(), 2);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut s = FixedBitset::new(200);
        for i in [199, 0, 63, 64, 65] {
            s.insert(i);
        }
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 65, 199]);
    }

    #[test]
    fn from_iterator_sizes_itself() {
        let s: FixedBitset = [3usize, 7, 100].into_iter().collect();
        assert_eq!(s.len(), 101);
        assert_eq!(s.count(), 3);
        assert!(s.contains(100));
    }

    #[test]
    fn display_lists_bits() {
        let s: FixedBitset = [1usize, 4].into_iter().collect();
        assert_eq!(s.to_string(), "{1,4}");
        assert_eq!(FixedBitset::new(8).to_string(), "{}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        FixedBitset::new(8).contains(8);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mismatched_lengths_panic() {
        FixedBitset::new(8).intersection_count(&FixedBitset::new(9));
    }

    /// A set of fewer than `len` values below `bound`, and its bitset.
    fn set(rng: &mut DetRng, len: usize, bound: usize) -> (BTreeSet<usize>, FixedBitset) {
        let xs: BTreeSet<usize> = (0..rng.index(len)).map(|_| rng.index(bound)).collect();
        let mut s = FixedBitset::new(bound);
        for &x in &xs {
            s.insert(x);
        }
        (xs, s)
    }

    fn two(rng: &mut DetRng) -> [(BTreeSet<usize>, FixedBitset); 2] {
        [set(rng, 64, 512), set(rng, 64, 512)]
    }

    /// Intersection count never exceeds either operand's count and is
    /// symmetric.
    #[test]
    fn intersection_bounded_and_symmetric() {
        forall(256, 0, two, |[(xs, a), (ys, b)]| {
            let i = a.intersection_count(b);
            assert!(i <= a.count() && i <= b.count());
            assert_eq!(i, b.intersection_count(a));
            assert_eq!(i, xs.intersection(ys).count());
        });
    }

    /// Union is the LUB: both operands are subsets and its count equals
    /// the set-union cardinality.
    #[test]
    fn union_is_least_upper_bound() {
        forall(256, 0, two, |[(xs, a), (ys, b)]| {
            let mut u = a.clone();
            u.union_with(b);
            assert!(a.is_subset(&u));
            assert!(b.is_subset(&u));
            assert_eq!(u.count(), xs.union(ys).count());
        });
    }

    /// iter_ones round-trips the inserted set, in ascending order.
    #[test]
    fn iter_ones_round_trips() {
        let one = |rng: &mut DetRng| set(rng, 50, 300);
        forall(256, 0, one, |(xs, s)| {
            let got: Vec<usize> = s.iter_ones().collect();
            let want: Vec<usize> = xs.iter().copied().collect();
            assert_eq!(got, want);
        });
    }
}
