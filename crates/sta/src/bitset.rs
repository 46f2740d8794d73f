//! A dense fixed-capacity bitset for hot-loop dirty marks.
//!
//! The sizing stack keeps per-vertex boolean maps on its hottest paths
//! (the TILOS sensitivity cache's validity and path marks). A
//! `Vec<bool>` spends a byte per vertex; at 100k gates that is 100 KB of
//! cache traffic per map. [`DenseBitSet`] packs the same marks 64 per
//! word, so the whole map for a 100k-gate circuit fits in ~12.5 KB —
//! small enough to stay resident while the bump loop churns.

/// A fixed-capacity set of `usize` indices packed 64 per word.
#[derive(Debug, Clone, Default)]
pub struct DenseBitSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseBitSet {
    /// An empty set over the index range `0..len`.
    pub fn new(len: usize) -> Self {
        DenseBitSet {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// The capacity (exclusive upper bound on member indices).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Whether `i` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "bitset index {i} out of range {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Inserts `i`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bitset index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Removes `i`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bitset index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let present = *w & bit != 0;
        *w &= !bit;
        present
    }

    /// Removes every member (capacity is unchanged).
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut s = DenseBitSet::new(130);
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(!s.insert(0), "second insert is a no-op");
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        for i in [0usize, 63, 64, 129] {
            assert!(s.contains(i), "{i}");
        }
        assert!(!s.contains(65));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
        s.clear();
        for i in [0usize, 63, 129] {
            assert!(!s.contains(i), "{i}");
        }
        assert_eq!(s.capacity(), 130);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let s = DenseBitSet::new(10);
        let _ = s.contains(10);
    }
}
