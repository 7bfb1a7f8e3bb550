"""Container import/export: MatrixMarket-style text I/O and generators.

These utilities live at the I/O boundary, where GraphBLAS permits
non-opaque data exchange (``GrB_Matrix_build`` / ``extractTuples``).
Ingestion and export run inside ``io/*`` observability spans carrying
the container shape, so slow file I/O is attributable in trace diffs
and flamegraphs next to the kernels it feeds.
"""

from __future__ import annotations

import io as _io
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.graphblas.matrix import Matrix
from repro.graphblas.vector import Vector
from repro.util.errors import InvalidValue

#: The one MatrixMarket flavour :func:`mmread` accepts (tokens compared
#: case-insensitively, as the format specifies).
BANNER = ("%%matrixmarket", "matrix", "coordinate", "real", "general")


def mmwrite(target: Union[str, Path, _io.TextIOBase], A: Matrix, comment: str = "") -> None:
    """Write a matrix in MatrixMarket coordinate format (1-based)."""
    with obs.span("io/mmwrite", "io",
                  {"nrows": A.nrows, "ncols": A.ncols, "nnz": A.nvals}):
        rows, cols, vals = A.to_coo()
        lines = ["%%MatrixMarket matrix coordinate real general"]
        if comment:
            lines.extend(f"% {line}" for line in comment.splitlines())
        lines.append(f"{A.nrows} {A.ncols} {A.nvals}")
        lines.extend(
            f"{r + 1} {c + 1} {v:.17g}" for r, c, v in zip(rows, cols, vals)
        )
        text = "\n".join(lines) + "\n"
        if isinstance(target, (str, Path)):
            Path(target).write_text(text)
        else:
            target.write(text)


def mmread(source: Union[str, Path, _io.TextIOBase]) -> Matrix:
    """Read a MatrixMarket ``matrix coordinate real general`` file, as
    :func:`mmwrite` writes it.

    Any other banner (``symmetric``, ``pattern``, ``array``, ...) and any
    malformed size or entry line raise :class:`InvalidValue` naming what
    was found: reading a symmetric file as general would silently drop
    its upper triangle.
    """
    with obs.span("io/mmread", "io") as span:
        if isinstance(source, (str, Path)):
            text = Path(source).read_text()
        else:
            text = source.read()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("%%MatrixMarket"):
            raise InvalidValue("not a MatrixMarket file")
        if tuple(tok.lower() for tok in lines[0].split()) != BANNER:
            raise InvalidValue(
                f"unsupported MatrixMarket banner {lines[0].strip()!r}; "
                f"only 'matrix coordinate real general' is read")
        body = [ln for ln in lines[1:] if not ln.startswith("%")]
        try:
            nrows, ncols, nnz = (int(tok) for tok in body[0].split())
        except (IndexError, ValueError):
            found = repr(body[0].strip()) if body else "nothing"
            raise InvalidValue(
                f"malformed MatrixMarket size line: expected "
                f"'nrows ncols nnz', found {found}") from None
        if len(body) - 1 != nnz:
            raise InvalidValue(
                f"expected {nnz} entries, found {len(body) - 1}"
            )
        if span is not None:
            span.set(nrows=nrows, ncols=ncols, nnz=nnz)
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        try:
            for k, ln in enumerate(body[1:]):
                r, c, v = ln.split()
                rows[k], cols[k], vals[k] = int(r) - 1, int(c) - 1, float(v)
        except ValueError:
            raise InvalidValue(
                f"malformed MatrixMarket entry line: expected "
                f"'row col value', found {body[k + 1].strip()!r}") from None
        return Matrix.from_coo(rows, cols, vals, nrows, ncols)


def random_matrix(
    nrows: int,
    ncols: int,
    density: float,
    rng: Optional[np.random.Generator] = None,
    dtype=np.float64,
) -> Matrix:
    """A uniformly random sparse matrix (for tests and examples)."""
    if not 0 <= density <= 1:
        raise InvalidValue(f"density must be in [0, 1], got {density}")
    rng = rng or np.random.default_rng()
    nnz = int(round(density * nrows * ncols))
    flat = rng.choice(nrows * ncols, size=nnz, replace=False) if nnz else np.empty(0, dtype=np.int64)
    rows, cols = np.divmod(flat, ncols)
    vals = rng.standard_normal(nnz).astype(dtype)
    return Matrix.from_coo(rows, cols, vals, nrows, ncols)


def random_vector(
    size: int,
    density: float,
    rng: Optional[np.random.Generator] = None,
    dtype=np.float64,
) -> Vector:
    """A uniformly random sparse vector."""
    if not 0 <= density <= 1:
        raise InvalidValue(f"density must be in [0, 1], got {density}")
    rng = rng or np.random.default_rng()
    nnz = int(round(density * size))
    idx = rng.choice(size, size=nnz, replace=False) if nnz else np.empty(0, dtype=np.int64)
    vals = rng.standard_normal(nnz).astype(dtype)
    return Vector.from_coo(idx, vals, size, dtype=dtype)
