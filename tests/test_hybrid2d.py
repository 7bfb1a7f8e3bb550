"""The executed 2D block distribution (paper §VII-B solution ii)."""

import numpy as np
import pytest

from repro.dist import Hybrid2DRun, HybridALPRun
from repro.hpcg.driver import run_hpcg
from repro.hpcg.problem import generate_problem
from repro.util.errors import InvalidValue
from test_dist_vcycle import computed   # a solve that is not a replay


@pytest.fixture(scope="module")
def prob():
    return generate_problem(8, 16, 16)  # divides for p=4 in all backends


class TestHybrid2D:
    def test_requires_square_node_count(self, prob):
        with pytest.raises(InvalidValue):
            Hybrid2DRun(prob, nprocs=6)

    def test_residuals_match_serial(self, prob):
        res = computed(Hybrid2DRun(prob, nprocs=4, mg_levels=3), max_iters=4)
        serial = run_hpcg(nx=0, problem=prob, max_iters=4, mg_levels=3,
                          validate_symmetry=False)
        np.testing.assert_allclose(res.residuals, serial.cg.residuals,
                                   rtol=1e-12)

    def test_max_send_matches_formula(self, prob):
        """Per-superstep send = n/√p (√p−1) values (paper formula)."""
        res = Hybrid2DRun(prob, nprocs=4, mg_levels=1).run_cg(
            max_iters=1, use_mg=False
        )
        n, q = prob.n, 2
        assert res.tracker.max_send_per_node() == n // q * (q - 1) * 8

    def test_less_traffic_than_1d(self, prob):
        res2d = Hybrid2DRun(prob, nprocs=4, mg_levels=3).run_cg(max_iters=2)
        res1d = HybridALPRun(prob, nprocs=4, mg_levels=3).run_cg(max_iters=2)
        assert res2d.comm_bytes < res1d.comm_bytes

    def test_twice_the_barriers_of_1d(self, prob):
        """The price of solution ii: two supersteps per mxv."""
        res2d = Hybrid2DRun(prob, nprocs=4, mg_levels=1).run_cg(
            max_iters=1, use_mg=False)
        res1d = HybridALPRun(prob, nprocs=4, mg_levels=1).run_cg(
            max_iters=1, use_mg=False)
        syncs_2d = sum(1 for s in res2d.tracker.supersteps
                       if s.label == "spmv2d")
        syncs_1d = sum(1 for s in res1d.tracker.supersteps
                       if s.label == "spmv")
        assert syncs_2d == 2 * syncs_1d

    def test_backend_name(self, prob):
        res = Hybrid2DRun(prob, nprocs=4, mg_levels=2).run_cg(max_iters=1)
        assert res.backend == "alp-2d"

    def test_comm_ratio_vs_1d_is_constant_factor_only(self):
        """Both distributions stay Θ(n): the 1D/2D per-node send ratio is
        (p−1)√p / (p(√p−1)) — 1.5 at p=4, 4/3 at p=9, tending to 1.
        This *is* the paper's point: solution ii "only partially
        alleviat[es] the communication bottleneck"."""
        ratios = {}
        for p, nx in ((4, (8, 16, 16)), (9, (24, 24, 24))):
            problem = generate_problem(*nx)
            r1 = HybridALPRun(problem, nprocs=p, mg_levels=1).run_cg(
                max_iters=1, use_mg=False)
            r2 = Hybrid2DRun(problem, nprocs=p, mg_levels=1).run_cg(
                max_iters=1, use_mg=False)
            ratios[p] = (r1.tracker.max_send_per_node()
                         / r2.tracker.max_send_per_node())
        assert ratios[4] == pytest.approx(1.5, rel=0.01)
        assert ratios[9] == pytest.approx(4.0 / 3.0, rel=0.01)
