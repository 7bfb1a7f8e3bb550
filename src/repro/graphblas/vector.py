"""The opaque GraphBLAS vector container.

Storage strategy: a dense value array plus a dense boolean presence mask.
That is one legal GraphBLAS representation (implementations are free to
choose, which is the point of opaqueness); for HPCG all vectors are in
fact dense, so this choice gives numpy-speed kernels while still
supporting sparse semantics (absent entries) for the general API.

Mutation bumps a version counter.  Operations that cache derived data
keyed on a container (e.g. :class:`~repro.graphblas.matrix.Matrix`'s
per-mask row submatrices for RBGS colour masks) validate against the
version, so stale caches are impossible by construction.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.graphblas import types as gbtypes
from repro.graphblas.ops import BinaryOp
from repro.util.errors import DimensionMismatch, InvalidValue


class Vector:
    """A length-``n`` vector over one of the predefined domains.

    Do not touch attributes with a leading underscore from application
    code; they are backend storage.  The test suite enforces that the
    HPCG layer (``repro.hpcg``) never does.
    """

    __slots__ = ("_values", "_present", "_version", "_dense")

    def __init__(self, size: int, dtype=gbtypes.FP64):
        if size < 0:
            raise InvalidValue(f"vector size must be non-negative, got {size}")
        dt = gbtypes.as_dtype(dtype)
        self._values = np.zeros(size, dtype=dt)
        self._present = np.zeros(size, dtype=bool)
        self._version = 0
        self._dense = (-1, False)    # (version it was read at, answer)

    # --- constructors ------------------------------------------------------
    @classmethod
    def sparse(cls, size: int, dtype=gbtypes.FP64) -> "Vector":
        """An empty (all-absent) vector."""
        return cls(size, dtype)

    @classmethod
    def dense(cls, size: int, fill=0, dtype=gbtypes.FP64) -> "Vector":
        """A fully-present vector with every entry equal to ``fill``."""
        v = cls(size, dtype)
        v._values.fill(fill)
        v._present.fill(True)
        return v

    @classmethod
    def from_dense(cls, array: Iterable, dtype=None) -> "Vector":
        """A fully-present vector copying ``array``."""
        arr = np.asarray(array)
        dt = gbtypes.as_dtype(dtype if dtype is not None else arr.dtype)
        if arr.ndim != 1:
            raise InvalidValue(f"expected 1-D data, got shape {arr.shape}")
        v = cls(arr.shape[0], dt)
        v._values[:] = arr
        v._present.fill(True)
        return v

    @classmethod
    def from_coo(
        cls,
        indices: Iterable[int],
        values: Iterable,
        size: int,
        dtype=gbtypes.FP64,
        dup_op: Optional[BinaryOp] = None,
    ) -> "Vector":
        """Build from (index, value) pairs; ``dup_op`` combines duplicates.

        Without ``dup_op`` duplicate indices raise, matching
        ``GrB_Vector_build``'s default behaviour.
        """
        v = cls(size, dtype)
        v.build(indices, values, dup_op=dup_op)
        return v

    # --- basic properties ---------------------------------------------------
    @property
    def size(self) -> int:
        return self._values.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self._values.dtype

    @property
    def nvals(self) -> int:
        """Number of stored (present) entries."""
        return int(self._present.sum())

    @property
    def version(self) -> int:
        """Mutation counter (used for cache validation)."""
        return self._version

    def is_dense(self) -> bool:
        """True when every entry is present.  Cached on ``version``:
        every writer of the presence pattern bumps it."""
        if self._dense[0] != self._version:
            self._dense = (self._version, bool(self._present.all()))
        return self._dense[1]

    def _bump(self) -> None:
        self._version += 1

    # --- element access ------------------------------------------------------
    def extract_element(self, index: int):
        """Value at ``index``; ``None`` when absent (GrB_NO_VALUE)."""
        if not 0 <= index < self.size:
            raise InvalidValue(f"index {index} out of range [0, {self.size})")
        if not self._present[index]:
            return None
        return self._values[index].item()

    def set_element(self, index: int, value) -> None:
        if not 0 <= index < self.size:
            raise InvalidValue(f"index {index} out of range [0, {self.size})")
        self._values[index] = value
        self._present[index] = True
        self._bump()

    def remove_element(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise InvalidValue(f"index {index} out of range [0, {self.size})")
        self._present[index] = False
        self._values[index] = 0
        self._bump()

    # --- whole-container operations ------------------------------------------
    def clear(self) -> None:
        """Remove all entries (size is unchanged)."""
        self._values.fill(0)
        self._present.fill(False)
        self._bump()

    def fill(self, value) -> None:
        """Make the vector dense with every entry equal to ``value``.

        Equivalent to ``assign(v, None, value)``; provided as a method
        because HPCG zeroes work vectors constantly (``zc <- 0``).
        """
        self._values.fill(value)
        self._present.fill(True)
        self._bump()

    def build(
        self,
        indices: Iterable[int],
        values: Iterable,
        dup_op: Optional[BinaryOp] = None,
    ) -> None:
        """Populate an empty vector from coordinates."""
        if self.nvals:
            raise InvalidValue("build requires an empty vector; call clear() first")
        idx = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(values)
        if idx.shape != vals.shape:
            raise DimensionMismatch(
                f"indices shape {idx.shape} != values shape {vals.shape}"
            )
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            raise InvalidValue("build index out of range")
        unique, first_pos, counts = np.unique(idx, return_index=True, return_counts=True)
        if (counts > 1).any():
            if dup_op is None:
                raise InvalidValue("duplicate indices and no dup_op given")
            order = np.argsort(idx, kind="stable")
            sorted_idx = idx[order]
            sorted_vals = vals[order]
            boundaries = np.flatnonzero(np.diff(sorted_idx)) + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [idx.size]))
            for u, s, e in zip(sorted_idx[starts], starts, ends):
                acc = sorted_vals[s]
                for k in range(s + 1, e):
                    acc = dup_op(acc, sorted_vals[k])
                self._values[u] = acc
                self._present[u] = True
        else:
            self._values[idx] = vals
            self._present[idx] = True
        self._bump()

    def dup(self) -> "Vector":
        """Deep copy."""
        v = Vector(self.size, self.dtype)
        v._values[:] = self._values
        v._present[:] = self._present
        return v

    def resize(self, size: int) -> None:
        """Change the dimension (GrB_Vector_resize).

        Growing adds absent entries; shrinking discards entries past the
        new end.
        """
        if size < 0:
            raise InvalidValue(f"size must be non-negative, got {size}")
        old = self.size
        if size == old:
            return
        values = np.zeros(size, dtype=self.dtype)
        present = np.zeros(size, dtype=bool)
        keep = min(size, old)
        values[:keep] = self._values[:keep]
        present[:keep] = self._present[:keep]
        self._values = values
        self._present = present
        self._bump()

    # --- export ---------------------------------------------------------------
    def to_coo(self) -> Tuple[np.ndarray, np.ndarray]:
        """(indices, values) of the stored entries, index-sorted."""
        idx = np.flatnonzero(self._present)
        return idx, self._values[idx].copy()

    def to_dense(self, fill=0) -> np.ndarray:
        """Dense copy with absent entries set to ``fill``."""
        out = self._values.copy()
        if not self.is_dense():
            out[~self._present] = fill
        return out

    # --- dunder helpers ---------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Vector(size={self.size}, nvals={self.nvals}, dtype={self.dtype})"

    def __eq__(self, other) -> bool:
        """Structural and value equality (same size, pattern, values)."""
        if not isinstance(other, Vector):
            return NotImplemented
        return (
            self.size == other.size
            and bool(np.array_equal(self._present, other._present))
            and bool(
                np.array_equal(
                    self._values[self._present], other._values[other._present]
                )
            )
        )

    __hash__ = None  # mutable container
