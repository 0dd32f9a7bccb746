"""Sparse-array (SA) vertex sets.

An SA stores the ``k`` elements of a set as integers, using
``W * k`` bits where ``W`` is the word size (paper Section 2 and
Figure 4).  Neighborhood SAs are sorted; auxiliary SAs may be unsorted
(paper Section 6.2.1 explicitly supports the unsorted-SA-vs-sorted-SA
intersection variant).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import SetError
from repro.sets.base import Representation, VertexSet

ELEMENT_DTYPE = np.int64
WORD_BITS = 32  # W in the paper's storage formulas


class SparseArray(VertexSet):
    """A vertex set stored as an integer array."""

    __slots__ = ("_elements", "_universe", "_sorted")

    def __init__(
        self,
        elements: Iterable[int] | np.ndarray,
        universe: int,
        *,
        sorted_: bool | None = None,
        _trusted: bool = False,
    ):
        arr = np.asarray(
            list(elements) if not isinstance(elements, np.ndarray) else elements,
            dtype=ELEMENT_DTYPE,
        )
        if arr.ndim != 1:  # a 1-D input is kept as is: no extra view per set
            arr = arr.ravel()
        if not _trusted:
            if arr.size and (arr.min() < 0 or arr.max() >= universe):
                raise SetError("element out of universe range")
            if np.unique(arr).size != arr.size:
                raise SetError("sparse array elements must be distinct")
        if sorted_ is None:
            sorted_ = bool(arr.size < 2 or np.all(arr[:-1] < arr[1:]))
        self._elements = arr
        self._universe = int(universe)
        self._sorted = bool(sorted_)

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls, universe: int) -> "SparseArray":
        return cls(np.empty(0, dtype=ELEMENT_DTYPE), universe, sorted_=True, _trusted=True)

    @classmethod
    def from_sorted(cls, arr: np.ndarray, universe: int) -> "SparseArray":
        """Wrap an already-sorted, distinct array without copying."""
        return cls(arr, universe, sorted_=True, _trusted=True)

    @classmethod
    def full(cls, universe: int) -> "SparseArray":
        return cls.from_sorted(np.arange(universe, dtype=ELEMENT_DTYPE), universe)

    # -- VertexSet interface ---------------------------------------------

    @property
    def universe(self) -> int:
        return self._universe

    @property
    def representation(self) -> Representation:
        if self._sorted:
            return Representation.SPARSE_SORTED
        return Representation.SPARSE_UNSORTED

    @property
    def cardinality(self) -> int:
        return int(self._elements.size)

    @property
    def is_sorted(self) -> bool:
        return self._sorted

    @property
    def elements(self) -> np.ndarray:
        """The raw element array in storage order (may be unsorted)."""
        return self._elements

    def to_array(self) -> np.ndarray:
        if self._sorted:
            return self._elements
        return np.sort(self._elements)

    def contains(self, x: int) -> bool:
        if self._sorted:
            i = np.searchsorted(self._elements, x)
            return bool(i < self._elements.size and self._elements[i] == x)
        return bool(np.any(self._elements == x))

    @property
    def storage_bits(self) -> int:
        return WORD_BITS * self.cardinality

    # -- mutation-as-new-value helpers ------------------------------------

    def with_element(self, x: int) -> "SparseArray":
        """``A | {x}``; keeps sortedness (O(|A|) data movement, as the
        paper notes for SA add/remove in Section 6.2.4)."""
        if not 0 <= x < self._universe:
            raise SetError("element out of universe range")
        if self.contains(x):
            return self
        if self._sorted:
            i = int(np.searchsorted(self._elements, x))
            arr = np.insert(self._elements, i, x)
            return SparseArray.from_sorted(arr, self._universe)
        return SparseArray(
            np.append(self._elements, x), self._universe, sorted_=False, _trusted=True
        )

    def without_element(self, x: int) -> "SparseArray":
        """``A \\ {x}``."""
        if not self.contains(x):
            return self
        arr = self._elements[self._elements != x]
        return SparseArray(arr, self._universe, sorted_=self._sorted, _trusted=True)

    def with_elements(self, xs: np.ndarray) -> "SparseArray":
        """Bulk ``A ∪ {x_1..x_k}``: one vectorized merge instead of k
        inserts (the functional half of the batched element-update
        instruction burst)."""
        xs = np.asarray(xs, dtype=ELEMENT_DTYPE).ravel()
        if xs.size == 0:
            return self
        if xs.size and (xs.min() < 0 or xs.max() >= self._universe):
            raise SetError("element out of universe range")
        new = np.setdiff1d(xs, self._elements)
        if new.size == 0:
            return self
        if self._sorted:
            merged = np.union1d(self._elements, new)
            return SparseArray.from_sorted(merged, self._universe)
        return SparseArray(
            np.concatenate([self._elements, new]),
            self._universe,
            sorted_=False,
            _trusted=True,
        )

    def without_elements(self, xs: np.ndarray) -> "SparseArray":
        """Bulk ``A \\ {x_1..x_k}``."""
        xs = np.asarray(xs, dtype=ELEMENT_DTYPE).ravel()
        if xs.size == 0:
            return self
        keep = ~np.isin(self._elements, xs)
        if keep.all():
            return self
        return SparseArray(
            self._elements[keep], self._universe, sorted_=self._sorted, _trusted=True
        )

    def contains_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=ELEMENT_DTYPE).ravel()
        if self._sorted:
            idx = np.searchsorted(self._elements, xs)
            inside = idx < self._elements.size
            out = np.zeros(xs.size, dtype=bool)
            out[inside] = self._elements[idx[inside]] == xs[inside]
            return out
        return np.isin(xs, self._elements)

    def shuffled(self, seed: int = 0) -> "SparseArray":
        """An unsorted permutation of this set (for tests and for
        exercising the unsorted-SA instruction variants)."""
        rng = np.random.default_rng(seed)
        return SparseArray(
            rng.permutation(self._elements),
            self._universe,
            sorted_=self._elements.size < 2,
            _trusted=True,
        )

    def __repr__(self) -> str:
        kind = "sorted" if self._sorted else "unsorted"
        return f"SparseArray({kind}, |A|={self.cardinality}, n={self._universe})"
