//! A minimal fixed-capacity bitset over `u64` blocks.
//!
//! The coherent-closure fixpoint keeps one predecessor set per execution
//! step; for executions of a few thousand steps that is a few megabytes of
//! densely packed bits, and the fixpoint's inner loop is bulk `OR`s. A
//! hand-rolled bitset keeps the crate dependency-free and lets us expose
//! exactly the bulk operations the closure needs ([`BitSet::union_with`],
//! [`BitSet::union_with_returning_changed`]).

const BLOCK_BITS: usize = 64;

/// A fixed-capacity set of `usize` values in `0..len`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    blocks: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set with capacity for values in `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            blocks: vec![0; len.div_ceil(BLOCK_BITS)],
            len,
        }
    }

    /// The capacity (one more than the largest storable value).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `i`, returning whether it was newly inserted.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of capacity {}", self.len);
        let block = &mut self.blocks[i / BLOCK_BITS];
        let mask = 1u64 << (i % BLOCK_BITS);
        let fresh = *block & mask == 0;
        *block |= mask;
        fresh
    }

    /// Removes `i`, returning whether it was present. Like
    /// [`BitSet::contains`], an index past the capacity is simply absent.
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        let block = &mut self.blocks[i / BLOCK_BITS];
        let mask = 1u64 << (i % BLOCK_BITS);
        let present = *block & mask != 0;
        *block &= !mask;
        present
    }

    /// Tests membership of `i`.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.blocks[i / BLOCK_BITS] & (1u64 << (i % BLOCK_BITS)) != 0
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.blocks.iter_mut().for_each(|b| *b = 0);
    }

    /// Number of elements in the set.
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// `self |= other`.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// `self |= other`, returning whether `self` changed.
    pub fn union_with_returning_changed(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            let merged = *a | b;
            changed |= merged != *a;
            *a = merged;
        }
        changed
    }

    /// Whether `self` and `other` share any element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .any(|(a, b)| a & b != 0)
    }

    /// Whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over set elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }
}

impl Default for BitSet {
    /// An empty set with zero capacity.
    fn default() -> Self {
        BitSet::new(0)
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects elements into a set sized to fit the largest one.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().max().map_or(0, |m| m + 1);
        let mut set = BitSet::new(len);
        for i in items {
            set.insert(i);
        }
        set
    }
}

/// Iterator over the elements of a [`BitSet`].
pub struct Iter<'a> {
    set: &'a BitSet,
    block_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.block_idx * BLOCK_BITS + bit);
            }
            self.block_idx += 1;
            if self.block_idx >= self.set.blocks.len() {
                return None;
            }
            self.current = self.set.blocks[self.block_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(200);
        assert!(!s.contains(3));
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(s.insert(199));
        assert_eq!(s.count(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.contains(3));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(10));
        assert!(!s.contains(1000));
    }

    #[test]
    fn out_of_range_remove_is_false() {
        let mut s = BitSet::new(10);
        s.insert(9);
        assert!(!s.remove(10));
        assert!(!s.remove(1000));
        assert_eq!(s.count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn out_of_range_insert_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn union_and_change_detection() {
        let mut a = BitSet::new(128);
        let mut b = BitSet::new(128);
        a.insert(1);
        b.insert(1);
        b.insert(127);
        assert!(a.union_with_returning_changed(&b));
        assert!(!a.union_with_returning_changed(&b));
        assert!(a.contains(127));
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn iter_in_order() {
        let mut s = BitSet::new(300);
        for &i in &[299, 0, 64, 65, 128] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 64, 65, 128, 299]);
    }

    #[test]
    fn subset_and_intersects() {
        let a: BitSet = [1usize, 5, 9].into_iter().collect();
        let mut b = BitSet::new(a.capacity());
        b.insert(5);
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.intersects(&b));
        b.clear();
        assert!(!a.intersects(&b));
        assert!(b.is_subset(&a));
    }

    #[test]
    fn from_iterator_sizes_to_fit() {
        let s: BitSet = [7usize, 2].into_iter().collect();
        assert_eq!(s.capacity(), 8);
        assert!(s.contains(7));
        assert!(s.contains(2));
        assert!(!s.contains(3));
    }

    #[test]
    fn empty_set() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn clear_empties() {
        let mut s: BitSet = [0usize, 1, 2].into_iter().collect();
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
    }
}
