"""The convergence-equivalence regenerator."""

import pytest

from repro.experiments import convergence


@pytest.fixture(scope="module")
def result():
    return convergence.run(nx=8, iterations=6, mg_levels=3, nprocs=4)


class TestConvergenceExperiment:
    def test_all_claims(self, result):
        claims = result.shape_claims()
        assert all(claims.values()), claims

    def test_exact_variants_identical(self, result):
        spread = result.max_relative_spread(
            ["alp", "ref", "dist-1d", "dist-ref", "dist-2d"]
        )
        assert spread < 1e-12

    def test_symgs_history_differs_from_rbgs(self, result):
        """Different smoothers: histories must NOT be identical (or the
        substitution study would be vacuous)."""
        assert result.histories["ref-symgs"] != result.histories["alp"]

    def test_render(self, result):
        text = convergence.render(result)
        assert "Convergence equivalence" in text and "FAIL" not in text

    def test_cli(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["convergence", "--iters", "3"]) == 0
        assert "Convergence" in capsys.readouterr().out


def test_every_dist_history_is_computed(monkeypatch):
    """A later simulated run on a problem whose dots are on record only
    prices; the regenerator gives each backend its own problem, so every
    dist history is the output of its own products."""
    from repro.dist import simulate

    products, per_run = [], []
    spmv, run_cg = simulate.compute_spmv, simulate.SimulatedDistRun.run_cg

    def counted_run_cg(self, *args, **kwargs):
        before = len(products)
        result = run_cg(self, *args, **kwargs)
        per_run.append((self.backend, len(products) - before,
                        result.replayed))
        return result

    monkeypatch.setattr(simulate, "compute_spmv", lambda *a:
                        products.append(1) or spmv(*a))
    monkeypatch.setattr(simulate.SimulatedDistRun, "run_cg", counted_run_cg)
    convergence.run(nx=8, iterations=3, mg_levels=3, nprocs=4)
    assert len(per_run) == 3
    assert all(calls > 0 and not replayed for _, calls, replayed in per_run)
