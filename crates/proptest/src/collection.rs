//! Collection strategies: `vec` and `btree_set`.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A size bound for generated collections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeRange {
    min: usize,
    /// Exclusive upper bound.
    max: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(range: Range<usize>) -> Self {
        assert!(range.start < range.end, "empty collection size range");
        SizeRange {
            min: range.start,
            max: range.end,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> Self {
        SizeRange {
            min: exact,
            max: exact + 1,
        }
    }
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        self.min + rng.next_below((self.max - self.min) as u64) as usize
    }
}

/// Generates `Vec`s whose length lies in `size` and whose elements come
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let len = self.size.pick(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// Generates `BTreeSet`s with at most `size.end - 1` elements (duplicates
/// collapse, as in the real framework).
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`btree_set`].
#[derive(Debug, Clone)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let len = self.size.pick(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    #[test]
    fn vec_respects_size_range() {
        let strat = vec(0u8..255, 2..7);
        let mut rng = TestRng::for_case(0);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((2..7).contains(&v.len()));
        }
    }

    #[test]
    fn btree_set_collapses_duplicates() {
        let strat = btree_set(0u8..2, 5..6);
        let mut rng = TestRng::for_case(1);
        let s = strat.generate(&mut rng);
        assert!(s.len() <= 2);
    }

    #[test]
    fn exact_size_from_usize() {
        let strat = vec(0u8..10, 4usize);
        let mut rng = TestRng::for_case(2);
        assert_eq!(strat.generate(&mut rng).len(), 4);
    }
}
