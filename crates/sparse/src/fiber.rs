//! Fibers: compressed rows or columns.
//!
//! Following the paper (§2.1, terminology shared with GAMMA), a *fiber* is
//! one compressed row (CSR) or column (CSC): a list of `(coordinate, value)`
//! duples sorted by coordinate.
//!
//! Storage is struct-of-arrays: one `Vec<u32>` of coordinates and one
//! `Vec<f32>` of values. The merger-reduction hot loops touch only the
//! coordinate stream (one cache line holds 16 coordinates instead of 8
//! interleaved duples), and value moves are contiguous `f32` copies —
//! branch-predictable, cache-dense and auto-vectorizable. The [`Element`]
//! duple remains the API unit: iteration yields `Element`s by value.

use crate::{Element, Value};

/// An owned fiber: a coordinate-sorted list of [`Element`]s in
/// struct-of-arrays layout.
///
/// The sorted-by-coordinate invariant is maintained by construction and is
/// what allows the merger-reduction network to merge fibers with a single
/// comparator per tree node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fiber {
    coords: Vec<u32>,
    values: Vec<Value>,
}

impl Fiber {
    /// Creates an empty fiber.
    pub fn new() -> Self {
        Self {
            coords: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an empty fiber with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            coords: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Builds a fiber from elements that are already coordinate-sorted.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if coordinates are not strictly increasing.
    pub fn from_sorted(elems: Vec<Element>) -> Self {
        debug_assert!(
            elems.windows(2).all(|w| w[0].coord < w[1].coord),
            "fiber coordinates must be strictly increasing"
        );
        let mut coords = Vec::with_capacity(elems.len());
        let mut values = Vec::with_capacity(elems.len());
        for e in elems {
            coords.push(e.coord);
            values.push(e.value);
        }
        Self { coords, values }
    }

    /// Builds a fiber directly from its coordinate and value arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays differ in length; panics in debug builds if
    /// coordinates are not strictly increasing.
    pub fn from_parts(coords: Vec<u32>, values: Vec<Value>) -> Self {
        assert_eq!(coords.len(), values.len(), "coord/value arrays must match");
        debug_assert!(
            coords.windows(2).all(|w| w[0] < w[1]),
            "fiber coordinates must be strictly increasing"
        );
        Self { coords, values }
    }

    /// Builds a fiber from arbitrary elements, sorting by coordinate and
    /// accumulating values on duplicate coordinates.
    ///
    /// ```
    /// use flexagon_sparse::{Element, Fiber};
    /// let f = Fiber::from_unsorted(vec![
    ///     Element::new(3, 1.0),
    ///     Element::new(1, 2.0),
    ///     Element::new(3, 4.0),
    /// ]);
    /// assert_eq!(f.len(), 2);
    /// assert_eq!(f.get(3), Some(5.0));
    /// ```
    pub fn from_unsorted(mut elems: Vec<Element>) -> Self {
        elems.sort_by_key(|e| e.coord);
        let mut out = Fiber::with_capacity(elems.len());
        for e in elems {
            match out.coords.last() {
                Some(&last) if last == e.coord => {
                    *out.values.last_mut().expect("parallel arrays") += e.value;
                }
                _ => {
                    out.coords.push(e.coord);
                    out.values.push(e.value);
                }
            }
        }
        out
    }

    /// Number of non-zero elements in the fiber.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Returns `true` when the fiber holds no elements.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Appends an element whose coordinate must exceed the current last.
    ///
    /// # Panics
    ///
    /// Panics if `elem.coord` is not strictly greater than the last
    /// coordinate currently in the fiber.
    pub fn push(&mut self, elem: Element) {
        if let Some(&last) = self.coords.last() {
            assert!(
                elem.coord > last,
                "push would break fiber ordering: {} after {}",
                elem.coord,
                last
            );
        }
        self.coords.push(elem.coord);
        self.values.push(elem.value);
    }

    /// Looks up the value at `coord`, if present.
    pub fn get(&self, coord: u32) -> Option<Value> {
        self.coords
            .binary_search(&coord)
            .ok()
            .map(|i| self.values[i])
    }

    /// Borrowed view of the elements.
    pub fn as_view(&self) -> FiberView<'_> {
        FiberView {
            coords: &self.coords,
            values: &self.values,
        }
    }

    /// Iterates over the elements in coordinate order.
    pub fn iter(&self) -> ElementIter<'_> {
        self.as_view().iter()
    }

    /// The coordinate array.
    pub fn coords(&self) -> &[u32] {
        &self.coords
    }

    /// The value array (parallel to [`Fiber::coords`]).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consumes the fiber, returning the elements as a vector of duples.
    pub fn into_inner(self) -> Vec<Element> {
        self.coords
            .into_iter()
            .zip(self.values)
            .map(|(c, v)| Element::new(c, v))
            .collect()
    }

    /// Removes all elements, keeping the allocations.
    pub fn clear(&mut self) {
        self.coords.clear();
        self.values.clear();
    }

    /// Returns a fiber with every value scaled by `factor`.
    ///
    /// This is the per-multiplier operation of the streaming phase in the
    /// Outer-Product and Gustavson dataflows: one stationary scalar times an
    /// entire streaming fiber.
    #[must_use]
    pub fn scaled(&self, factor: Value) -> Fiber {
        let mut out = Fiber::with_capacity(self.len());
        out.scale_from(self.as_view(), factor);
        out
    }

    /// Replaces the contents with `view` scaled by `factor`, reusing the
    /// existing allocations — the zero-allocation form of [`Fiber::scaled`]
    /// used by the engine's streaming loops.
    pub fn scale_from(&mut self, view: FiberView<'_>, factor: Value) {
        self.coords.clear();
        self.coords.extend_from_slice(view.coords);
        self.values.clear();
        self.values.extend(view.values.iter().map(|&v| v * factor));
    }

    /// Replaces the contents with an unscaled copy of `view`, reusing the
    /// existing allocations — the recycled-buffer form of
    /// [`FiberView::to_fiber`] used by the sorted-run accumulators.
    pub fn clone_from_view(&mut self, view: FiberView<'_>) {
        self.coords.clear();
        self.coords.extend_from_slice(view.coords);
        self.values.clear();
        self.values.extend_from_slice(view.values);
    }

    /// Dot product against another fiber (sorted intersection).
    ///
    /// This is the Inner-Product dataflow's core operation; the returned
    /// count is the number of effectual multiplications (intersected pairs).
    pub fn dot(&self, other: &Fiber) -> (Value, usize) {
        self.as_view().dot(other.as_view())
    }
}

impl FromIterator<Element> for Fiber {
    /// Collects elements, sorting and accumulating duplicates.
    fn from_iter<I: IntoIterator<Item = Element>>(iter: I) -> Self {
        Fiber::from_unsorted(iter.into_iter().collect())
    }
}

impl Extend<Element> for Fiber {
    /// Extends the fiber; elements are re-sorted and duplicates accumulated.
    fn extend<I: IntoIterator<Item = Element>>(&mut self, iter: I) {
        let mut all: Vec<Element> = std::mem::take(self).into_inner();
        all.extend(iter);
        *self = Fiber::from_unsorted(all);
    }
}

impl<'a> IntoIterator for &'a Fiber {
    type Item = Element;
    type IntoIter = ElementIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for Fiber {
    type Item = Element;
    type IntoIter = std::iter::Map<
        std::iter::Zip<std::vec::IntoIter<u32>, std::vec::IntoIter<Value>>,
        fn((u32, Value)) -> Element,
    >;
    fn into_iter(self) -> Self::IntoIter {
        fn make(pair: (u32, Value)) -> Element {
            Element::new(pair.0, pair.1)
        }
        self.coords.into_iter().zip(self.values).map(make)
    }
}

/// A borrowed, coordinate-sorted span of elements in struct-of-arrays form.
///
/// `FiberView` is the zero-copy unit handed to the networks: tile readers
/// produce views into the L1 structures without copying element data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiberView<'a> {
    coords: &'a [u32],
    values: &'a [Value],
}

impl<'a> FiberView<'a> {
    /// Wraps parallel coordinate/value slices that are already sorted.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length; panics in debug builds if
    /// coordinates are not strictly increasing.
    pub fn from_parts(coords: &'a [u32], values: &'a [Value]) -> Self {
        assert_eq!(coords.len(), values.len(), "coord/value slices must match");
        debug_assert!(
            coords.windows(2).all(|w| w[0] < w[1]),
            "fiber view coordinates must be strictly increasing"
        );
        Self { coords, values }
    }

    /// Wraps parallel slices without the ordering debug-check — for storage
    /// spans that are sorted per fiber but not globally (the compressed
    /// matrix's concatenated arrays), and for hot paths where the check is
    /// enforced upstream.
    pub(crate) fn from_parts_unchecked(coords: &'a [u32], values: &'a [Value]) -> Self {
        debug_assert_eq!(coords.len(), values.len(), "coord/value slices must match");
        Self { coords, values }
    }

    /// Number of elements in the view.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Returns `true` when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The coordinate slice.
    pub fn coords(&self) -> &'a [u32] {
        self.coords
    }

    /// The value slice (parallel to [`FiberView::coords`]).
    pub fn values(&self) -> &'a [Value] {
        self.values
    }

    /// The element at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn element(&self, i: usize) -> Element {
        Element::new(self.coords[i], self.values[i])
    }

    /// Looks up the value at `coord`, if present.
    pub fn get(&self, coord: u32) -> Option<Value> {
        self.coords
            .binary_search(&coord)
            .ok()
            .map(|i| self.values[i])
    }

    /// A sub-span of `len` elements starting at `start` — how the engine
    /// addresses one cluster's chunk of a stationary fiber without copying.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, len: usize) -> FiberView<'a> {
        FiberView {
            coords: &self.coords[start..start + len],
            values: &self.values[start..start + len],
        }
    }

    /// Iterates over the elements in coordinate order.
    pub fn iter(&self) -> ElementIter<'a> {
        ElementIter {
            coords: self.coords.iter(),
            values: self.values.iter(),
        }
    }

    /// Copies the view into an owned [`Fiber`].
    pub fn to_fiber(&self) -> Fiber {
        Fiber {
            coords: self.coords.to_vec(),
            values: self.values.to_vec(),
        }
    }

    /// Dot product with effectual-multiplication count (sorted intersection).
    pub fn dot(&self, other: FiberView<'_>) -> (Value, usize) {
        let (mut i, mut j) = (0, 0);
        let mut acc = 0.0;
        let mut work = 0;
        let (ac, bc) = (self.coords, other.coords);
        while i < ac.len() && j < bc.len() {
            match ac[i].cmp(&bc[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[i] * other.values[j];
                    work += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        (acc, work)
    }
}

impl<'a> IntoIterator for FiberView<'a> {
    type Item = Element;
    type IntoIter = ElementIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over a fiber's elements, yielding [`Element`] duples by value.
#[derive(Debug, Clone)]
pub struct ElementIter<'a> {
    coords: std::slice::Iter<'a, u32>,
    values: std::slice::Iter<'a, Value>,
}

impl Iterator for ElementIter<'_> {
    type Item = Element;

    fn next(&mut self) -> Option<Element> {
        let c = *self.coords.next()?;
        let v = *self.values.next()?;
        Some(Element::new(c, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.coords.size_hint()
    }
}

impl ExactSizeIterator for ElementIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(pairs: &[(u32, Value)]) -> Fiber {
        Fiber::from_sorted(pairs.iter().map(|&(c, v)| Element::new(c, v)).collect())
    }

    #[test]
    fn from_unsorted_sorts_and_accumulates() {
        let fb = Fiber::from_unsorted(vec![
            Element::new(5, 1.0),
            Element::new(2, 2.0),
            Element::new(5, 3.0),
        ]);
        assert_eq!(fb.len(), 2);
        assert_eq!(fb.get(2), Some(2.0));
        assert_eq!(fb.get(5), Some(4.0));
    }

    #[test]
    fn push_preserves_order() {
        let mut fb = Fiber::new();
        fb.push(Element::new(1, 1.0));
        fb.push(Element::new(4, 2.0));
        assert_eq!(fb.len(), 2);
    }

    #[test]
    #[should_panic(expected = "fiber ordering")]
    fn push_out_of_order_panics() {
        let mut fb = f(&[(4, 1.0)]);
        fb.push(Element::new(2, 1.0));
    }

    #[test]
    fn get_missing_coord_is_none() {
        assert_eq!(f(&[(1, 1.0), (3, 2.0)]).get(2), None);
    }

    #[test]
    fn soa_parts_are_parallel() {
        let fb = f(&[(1, 1.5), (7, 2.5)]);
        assert_eq!(fb.coords(), &[1, 7]);
        assert_eq!(fb.values(), &[1.5, 2.5]);
        let back = Fiber::from_parts(fb.coords().to_vec(), fb.values().to_vec());
        assert_eq!(back, fb);
    }

    #[test]
    fn dot_intersects_sorted_coords() {
        let a = f(&[(0, 1.0), (2, 2.0), (5, 3.0)]);
        let b = f(&[(1, 4.0), (2, 5.0), (5, 6.0)]);
        let (v, work) = a.dot(&b);
        assert_eq!(v, 2.0 * 5.0 + 3.0 * 6.0);
        assert_eq!(work, 2);
    }

    #[test]
    fn dot_with_empty_is_zero() {
        let a = f(&[(0, 1.0)]);
        let (v, work) = a.dot(&Fiber::new());
        assert_eq!(v, 0.0);
        assert_eq!(work, 0);
    }

    #[test]
    fn scaled_scales_all_values() {
        let a = f(&[(0, 1.0), (2, 2.0)]).scaled(3.0);
        assert_eq!(a.get(0), Some(3.0));
        assert_eq!(a.get(2), Some(6.0));
    }

    #[test]
    fn scale_from_reuses_and_matches_scaled() {
        let a = f(&[(0, 1.0), (2, 2.0), (9, 4.0)]);
        let mut scratch = f(&[(5, 5.0)]);
        scratch.scale_from(a.as_view(), 2.5);
        assert_eq!(scratch, a.scaled(2.5));
    }

    #[test]
    fn collect_from_iterator() {
        let fb: Fiber = vec![Element::new(2, 1.0), Element::new(0, 2.0)]
            .into_iter()
            .collect();
        assert_eq!(fb.coords()[0], 0);
    }

    #[test]
    fn extend_merges_duplicates() {
        let mut fb = f(&[(1, 1.0)]);
        fb.extend(vec![Element::new(1, 2.0), Element::new(0, 5.0)]);
        assert_eq!(fb.len(), 2);
        assert_eq!(fb.get(1), Some(3.0));
    }

    #[test]
    fn view_roundtrip() {
        let fb = f(&[(1, 1.0), (9, 2.0)]);
        let v = fb.as_view();
        assert_eq!(v.len(), 2);
        assert_eq!(v.to_fiber(), fb);
    }

    #[test]
    fn view_slice_addresses_chunks() {
        let fb = f(&[(0, 1.0), (3, 2.0), (5, 3.0), (9, 4.0)]);
        let chunk = fb.as_view().slice(1, 2);
        assert_eq!(chunk.len(), 2);
        assert_eq!(chunk.element(0), Element::new(3, 2.0));
        assert_eq!(chunk.element(1), Element::new(5, 3.0));
    }

    #[test]
    fn into_iterator_both_ways() {
        let fb = f(&[(0, 1.0), (1, 2.0)]);
        let borrowed: Vec<u32> = (&fb).into_iter().map(|e| e.coord).collect();
        assert_eq!(borrowed, vec![0, 1]);
        let owned: Vec<Value> = fb.into_iter().map(|e| e.value).collect();
        assert_eq!(owned, vec![1.0, 2.0]);
    }

    #[test]
    fn into_inner_preserves_order() {
        let fb = f(&[(2, 1.0), (4, 2.0)]);
        let elems = fb.into_inner();
        assert_eq!(elems, vec![Element::new(2, 1.0), Element::new(4, 2.0)]);
    }
}
