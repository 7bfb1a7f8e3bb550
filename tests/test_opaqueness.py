"""Architecture tests: the paper's central constraint, enforced.

The HPCG-on-GraphBLAS layer must treat containers as opaque — no access
to backend storage — while the Ref layer intentionally reaches inside.
These tests read the source files and fail if the boundary erodes.
"""

import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

# Backend-storage access patterns forbidden in the GraphBLAS-client layer.
FORBIDDEN = [
    r"\._values", r"\._present", r"\._csr", r"\.to_scipy\(",
    r"_transposed_csr",
    # the substrate layer's storage surface: a provider exposes the raw
    # CSR (cold-path escape), so reaching it from algorithm code is the
    # same boundary breach as touching ._csr directly
    r"_rows_substructure", r"\.provider\(",
]


def _violations(package: str, allowed_files=()):
    found = []
    for path in sorted((SRC / package).rglob("*.py")):
        if path.name in allowed_files:
            continue
        text = path.read_text()
        for pattern in FORBIDDEN:
            for match in re.finditer(pattern, text):
                line = text[: match.start()].count("\n") + 1
                found.append(f"{path.name}:{line}: {pattern}")
    return found


class TestOpaqueness:
    def test_hpcg_layer_never_touches_storage(self):
        violations = _violations("hpcg")
        assert not violations, (
            "HPCG-on-GraphBLAS must use only the public API:\n"
            + "\n".join(violations)
        )

    def test_ref_layer_does_touch_storage(self):
        """The contrast the paper studies: Ref is allowed inside."""
        text = (SRC / "ref" / "multigrid.py").read_text()
        assert "to_scipy" in text

    def test_experiments_layer_clean_of_vector_internals(self):
        # experiments may export matrices for the dist sims (to_scipy is
        # the documented I/O escape) but never poke Vector storage.
        violations = [
            v for v in _violations("experiments")
            if "._values" in v or "._present" in v
        ]
        assert not violations, violations


class TestPublicApi:
    def test_graphblas_all_exports_resolve(self):
        from repro import graphblas as grb
        for name in grb.__all__:
            assert hasattr(grb, name), name

    def test_hpcg_all_exports_resolve(self):
        import repro.hpcg as hpcg
        for name in hpcg.__all__:
            assert hasattr(hpcg, name), name

    def test_dist_all_exports_resolve(self):
        import repro.dist as dist
        for name in dist.__all__:
            assert hasattr(dist, name), name

    def test_version_string(self):
        assert re.match(r"^\d+\.\d+\.\d+$", repro.__version__)
