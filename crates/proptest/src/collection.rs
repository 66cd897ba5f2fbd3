//! Collection strategies (`prop::collection::vec`).

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A length specification: an exact size or a half-open range.
#[derive(Debug, Clone)]
pub struct SizeRange {
    min: usize,
    /// Exclusive upper bound.
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end,
        }
    }
}

/// The strategy returned by [`vec`](fn@vec).
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.max - self.size.min) as u64;
        let len = self.size.min
            + if span > 0 {
                rng.below(span) as usize
            } else {
                0
            };
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A `Vec` whose length is drawn from `size` and whose elements come from
/// `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    #[test]
    fn vec_lengths_in_range() {
        let mut rng = TestRng::seed_from_u64(7);
        let s = vec(0f64..1.0, 2..5);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
        let exact = vec(0u32..9, 8);
        assert_eq!(exact.generate(&mut rng).len(), 8);
    }
}
