//! The set of sequence numbers a consumer has archived for one host.
//!
//! Daemon seqs are dense from 0, so membership is a bitmap indexed by
//! seq — one bit per message ever received, ~190 KB over a
//! 1.5 M-sample soak where a `HashSet<u64>` held tens of MB — plus a
//! sparse set for outliers, so that a hostile `$seq
//! 18446744073709551615` cannot size an allocation. Answers are exact:
//! there is no window.

use std::collections::HashSet;

/// A seq this far past the bitmap's end goes to the overflow set
/// instead of growing the bitmap to reach it.
const BITMAP_REACH: u64 = 1 << 16;

/// An exact set of `u64` sequence numbers, compact when they are dense
/// from 0.
#[derive(Default)]
pub(crate) struct SeqSet {
    bits: Vec<u64>,
    /// Seqs that arrived [`BITMAP_REACH`] or more past the bitmap's end.
    overflow: HashSet<u64>,
    max: Option<u64>,
}

impl SeqSet {
    /// The highest seq inserted.
    pub(crate) fn max(&self) -> Option<u64> {
        self.max
    }

    pub(crate) fn contains(&self, seq: u64) -> bool {
        let word = usize::try_from(seq / 64)
            .ok()
            .and_then(|w| self.bits.get(w));
        word.is_some_and(|w| w & (1 << (seq % 64)) != 0) || self.overflow.contains(&seq)
    }

    /// Add `seq`; false if it was already there.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        if self.contains(seq) {
            return false;
        }
        self.max = self.max.max(Some(seq));
        let end = self.bits.len() as u64 * 64;
        if seq >= end.saturating_add(BITMAP_REACH) {
            return self.overflow.insert(seq);
        }
        // Within reach of a Vec that exists: the index fits a usize.
        let word = (seq / 64) as usize;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        if let Some(w) = self.bits.get_mut(word) {
            *w |= 1 << (seq % 64);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dense_seqs_cost_a_bit_each() {
        let mut s = SeqSet::default();
        for seq in 0..100_000u64 {
            assert!(s.insert(seq));
        }
        assert!(!s.insert(99_999));
        assert_eq!(s.bits.len(), 100_000usize.div_ceil(64));
        assert!(s.overflow.is_empty());
        assert_eq!(s.max(), Some(99_999));
    }

    #[test]
    fn a_hostile_seq_sizes_nothing() {
        let mut s = SeqSet::default();
        assert!(s.insert(3));
        for seq in [u64::MAX, u64::MAX - 1, 1 << 40, 64 + BITMAP_REACH] {
            assert!(s.insert(seq));
            assert!(!s.insert(seq));
            assert!(s.contains(seq) && !s.contains(seq - 2));
        }
        assert_eq!(s.bits.len(), 1, "the bitmap did not grow towards them");
        assert_eq!(s.max(), Some(u64::MAX));
        // The last seq still within reach grows it, by 8 KiB at most.
        assert!(s.insert(63 + BITMAP_REACH));
        assert_eq!(s.bits.len() as u64, 1 + BITMAP_REACH / 64);
        // The bitmap now spans a seq the overflow set holds: still one
        // answer.
        assert!(s.contains(64 + BITMAP_REACH) && !s.insert(64 + BITMAP_REACH));
    }

    proptest! {
        /// Exactly a `HashSet`, for any arrival order of dense, sparse
        /// and edge-of-reach seqs.
        #[test]
        fn matches_a_hash_set(
            picks in collection::vec((0u64..6, 0u64..300), 1..200),
        ) {
            let mut ours = SeqSet::default();
            let mut model = HashSet::new();
            for (kind, n) in picks {
                let seq = match kind {
                    0..=2 => n,
                    3 => BITMAP_REACH - 150 + n,
                    4 => 3 * BITMAP_REACH + n * 64,
                    _ => u64::MAX - n,
                };
                prop_assert_eq!(ours.insert(seq), model.insert(seq), "insert {}", seq);
                for probe in [seq, seq.wrapping_add(1), seq.wrapping_sub(1), n] {
                    prop_assert_eq!(ours.contains(probe), model.contains(&probe), "{}", probe);
                }
                prop_assert_eq!(ours.max(), model.iter().max().copied());
            }
        }
    }
}
