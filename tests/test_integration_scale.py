"""Larger end-to-end scenarios and the repetition protocol."""

import numpy as np
import pytest

from repro.hpcg import run_hpcg
from repro.hpcg.problem import generate_problem
from repro.ref import run_ref_hpcg


class TestRepetitions:
    def test_average_and_std(self):
        result = run_hpcg(nx=8, max_iters=5, mg_levels=3,
                          validate_symmetry=False, repetitions=3)
        assert len(result.repetition_seconds) == 3
        assert result.run_seconds == pytest.approx(
            sum(result.repetition_seconds) / 3
        )
        assert result.run_seconds_std >= 0.0

    def test_breakdown_shares_unchanged_by_repetitions(self):
        """The timers accumulate every repetition, and so does the
        denominator: three repetitions time the same steps three times
        each (counts, not wall-clock shares, which a cold first run
        skews)."""
        one = run_hpcg(nx=8, max_iters=5, mg_levels=3,
                       validate_symmetry=False, repetitions=1)
        three = run_hpcg(nx=8, max_iters=5, mg_levels=3,
                         validate_symmetry=False, repetitions=3)
        counts = {name: count for name, (_, count)
                  in one.timers.as_dict(counts=True).items()}
        assert {name: count for name, (_, count)
                in three.timers.as_dict(counts=True).items()} == {
            name: 3 * count for name, count in counts.items()}
        assert counts["mg/L0/rbgs"] == 2 * 5
        r3 = sum(r["rbgs"] for r in three.mg_level_breakdown())
        assert 0 < r3 <= 1.0

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            run_hpcg(nx=4, max_iters=2, mg_levels=2, repetitions=0,
                     validate_symmetry=False)


class TestAtScale:
    def test_24cubed_full_stack(self):
        """A 13.8k-unknown run through validation + 4-level MG."""
        result = run_hpcg(nx=24, max_iters=15, mg_levels=4)
        assert result.symmetry.passed
        # 15 MG-CG iterations contract the residual by ~6 orders here
        assert result.cg.relative_residual < 1e-5
        assert result.gflops > 0
        # every iteration smooths each level before and after its coarse
        # correction (the coarsest once) and transfers between them once
        counts = {name: count for name, (_, count)
                  in result.timers.as_dict(counts=True).items()
                  if name.startswith("mg/")}
        assert counts == {
            **{f"mg/L{i}/{step}": 15 for i in range(3)
               for step in ("spmv", "restrict", "prolong")},
            **{f"mg/L{i}/rbgs": 30 for i in range(3)}, "mg/L3/rbgs": 15}
        assert all(r["rbgs"] > 0 for r in result.mg_level_breakdown())

    def test_anisotropic_domain(self):
        """A 48x16x8 slab: all machinery works off-cube."""
        problem = generate_problem(48, 16, 8)
        result = run_hpcg(nx=0, problem=problem, max_iters=10, mg_levels=3,
                          validate_symmetry=True)
        assert result.symmetry.passed
        ref = run_ref_hpcg(nx=0, problem=problem, max_iters=10, mg_levels=3)
        np.testing.assert_allclose(result.cg.residuals, ref.cg.residuals,
                                   rtol=1e-12)

    def test_exact_solution_reached_at_scale(self):
        result = run_hpcg(nx=16, max_iters=200, tolerance=1e-12,
                          mg_levels=4, validate_symmetry=False)
        assert result.cg.converged
        np.testing.assert_allclose(
            result.cg.x.to_dense(), np.ones(4096), rtol=1e-8
        )
