"""The fused fast paths: bit-exactness and fallback.

The fused-sweep contract, enforced per provider × colouring × sweep
order: :class:`RBGSSmoother`'s fast path (the provider's prebuilt
:class:`~repro.graphblas.substrate.base.ColorSweep`) must produce
iterates bit-identical — values *and* signed zeros — to the reference
Listing 2/3 transcription, whole CG residual histories included; the
``REPRO_FUSED=0`` kill switch must restore the reference path; and
``fused_spmv_waxpby`` must match the unfused pair bit for bit and
decline (return False) on every configuration it cannot serve.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import graphblas as grb
from repro.graphblas import fused as fused_mod
from repro.graphblas import substrate
from repro.graphblas.substrate import csr as csr_mod
from repro.graphblas.substrate.csr import CsrColorSweep, execute
from repro.hpcg.cg import CGWorkspace, pcg
from repro.hpcg.coloring import (
    color_masks, greedy_coloring, jones_plassmann_coloring, lattice_coloring,
)
from repro.hpcg.multigrid import MGPreconditioner, build_hierarchy
from repro.hpcg.problem import generate_problem
from repro.hpcg.smoothers import JacobiSmoother, RBGSSmoother
from repro.util.errors import InvalidValue

PROVIDERS = list(substrate.available())

common = settings(max_examples=20,
                  suppress_health_check=[HealthCheck.too_slow], deadline=None)


@pytest.fixture
def armed(monkeypatch):
    """For tests of the fast path itself: they run armed even in the CI
    leg that sets the kill switch for the whole file."""
    monkeypatch.delenv(fused_mod.ENV_FUSED, raising=False)


def assert_bit_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def smoother_pair(A, diag, masks):
    """(fused fast path, pinned reference transcription) smoothers."""
    return (
        RBGSSmoother(A, diag, masks, fused=True),
        RBGSSmoother(A, diag, masks, fused=False),
    )


def run_both(fused, ref, n, r, op, sweeps=2, z0=None):
    z0 = np.zeros(n) if z0 is None else z0
    z1 = grb.Vector.from_dense(z0)
    z2 = grb.Vector.from_dense(z0)
    if op == "smooth":
        fused.smooth(z1, r, sweeps=sweeps)
        ref.smooth(z2, r, sweeps=sweeps)
    else:
        for _ in range(sweeps):
            getattr(fused, op)(z1, r)
            getattr(ref, op)(z2, r)
    return z1.to_dense(), z2.to_dense()


# ---------------------------------------------------------------------------
# bit-exactness across providers, colourings, sweep orders
# ---------------------------------------------------------------------------

class TestFusedBitExact:
    @pytest.mark.parametrize("name", PROVIDERS)
    @pytest.mark.parametrize("op", ["forward", "backward", "smooth"])
    def test_stencil_lattice_coloring(self, problem8, rng, name, op):
        A = grb.Matrix.from_scipy(problem8.A.to_scipy(), substrate=name)
        masks = color_masks(lattice_coloring(problem8.grid))
        fused, ref = smoother_pair(A, problem8.A_diag, masks)
        assert fused.fused_active and not ref.fused_active
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        assert_bit_identical(*run_both(fused, ref, problem8.n, r, op))

    @pytest.mark.parametrize("name", PROVIDERS)
    def test_greedy_coloring(self, problem8, rng, name):
        A = grb.Matrix.from_scipy(problem8.A.to_scipy(), substrate=name)
        masks = color_masks(greedy_coloring(problem8.A))
        fused, ref = smoother_pair(A, problem8.A_diag, masks)
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        assert_bit_identical(*run_both(fused, ref, problem8.n, r, "smooth"))

    @pytest.mark.parametrize("name", PROVIDERS)
    def test_jones_plassmann_coloring(self, problem8, rng, name):
        A = grb.Matrix.from_scipy(problem8.A.to_scipy(), substrate=name)
        masks = color_masks(jones_plassmann_coloring(problem8.A, seed=5))
        fused, ref = smoother_pair(A, problem8.A_diag, masks)
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        assert_bit_identical(*run_both(fused, ref, problem8.n, r, "smooth"))

    @pytest.mark.parametrize("name", PROVIDERS)
    @pytest.mark.parametrize("op", ["forward", "backward", "smooth"])
    def test_red_black_7pt(self, rng, name, op):
        """Two colours, seven entries a row: the update outweighs the
        product, the case the colour-major layout gains most on."""
        problem = generate_problem(6, stencil="7pt")
        A = grb.Matrix.from_scipy(problem.A.to_scipy(), substrate=name)
        masks = color_masks(lattice_coloring(problem.grid, stencil="7pt"))
        assert len(masks) == 2
        fused, ref = smoother_pair(A, problem.A_diag, masks)
        r = grb.Vector.from_dense(rng.standard_normal(problem.n))
        assert_bit_identical(*run_both(fused, ref, problem.n, r, op))

    @pytest.mark.parametrize("name", PROVIDERS)
    @common
    @given(data=st.data())
    def test_random_operator_random_partition(self, name, data):
        """Random diagonally-present operators under arbitrary colour
        partitions (not necessarily independent sets, not necessarily
        covering — the fast path must match the transcription's
        semantics regardless), any of the three public operations,
        signed zeros strewn through the iterate and the rhs."""
        n = data.draw(st.integers(2, 24), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        ncolors = data.draw(st.integers(1, min(4, n)), label="ncolors")
        op = data.draw(st.sampled_from(["forward", "backward", "smooth"]),
                       label="op")
        sweeps = data.draw(st.integers(1, 3), label="sweeps")
        covering = data.draw(st.booleans(), label="covering")
        rng = np.random.default_rng(seed)
        csr = sp.random(n, n, density=0.3, random_state=rng, format="csr")
        # a nonzero diagonal: the smoother requires it, HPCG provides it
        csr = (csr + sp.diags(rng.uniform(1.0, 2.0, n))).tocsr()
        csr.sort_indices()
        # colour -1 = in no class: never relaxed
        colors = rng.integers(0 if covering else -1, ncolors, n)
        colors[:ncolors] = np.arange(ncolors)   # every class non-empty
        masks = color_masks(colors)
        A = grb.Matrix.from_scipy(csr, substrate=name)
        diag = grb.Vector.from_dense(csr.diagonal())
        fused, ref = smoother_pair(A, diag, masks)

        def signed_zero_laden():
            v = rng.standard_normal(n)
            v[rng.random(n) < 0.3] = 0.0
            v[rng.random(n) < 0.3] = -0.0
            return v

        r = grb.Vector.from_dense(signed_zero_laden())
        got, want = run_both(fused, ref, n, r, op, sweeps=sweeps,
                             z0=signed_zero_laden())
        assert_bit_identical(got, want)

    @pytest.mark.parametrize("name", PROVIDERS)
    def test_signed_zeros_survive(self, problem4, name):
        """-0.0-laden iterates and cancelling stencil entries: the fused
        path must keep the exact accumulation order, so values *and*
        signbits match the transcription (``assert_bit_identical``
        checks ``np.signbit`` everywhere — this test feeds inputs where
        zero signs can actually differ if an implementation pads)."""
        csr = problem4.A.to_scipy()
        A = grb.Matrix.from_scipy(csr, substrate=name)
        diag = grb.Vector.from_dense(csr.diagonal())
        masks = color_masks(lattice_coloring(problem4.grid))
        fused, ref = smoother_pair(A, diag, masks)
        n = problem4.n
        r_vals = np.zeros(n)
        r_vals[::2] = -0.0                           # signed-zero rhs
        z0 = np.zeros(n)
        z0[1::2] = -0.0                              # signed-zero iterate
        r = grb.Vector.from_dense(r_vals)
        z1 = grb.Vector.from_dense(z0.copy())
        z2 = grb.Vector.from_dense(z0.copy())
        fused.smooth(z1, r)
        ref.smooth(z2, r)
        assert_bit_identical(z1.to_dense(), z2.to_dense())

    @pytest.mark.parametrize("name", PROVIDERS)
    def test_cg_residual_history_byte_identical(self, name):
        """The acceptance criterion: whole CG+MG solves, same bytes,
        with the provider pinned through the entire MG hierarchy."""
        from repro.hpcg.problem import generate_problem

        problem = generate_problem(8, substrate=name)
        histories = []
        for fused in (True, False):
            hierarchy = build_hierarchy(problem, levels=3, fused=fused)
            x = problem.x0.dup()
            result = pcg(problem.A, problem.b, x,
                         preconditioner=MGPreconditioner(hierarchy),
                         max_iters=10)
            histories.append(result.residuals)
        assert histories[0] == histories[1]


# ---------------------------------------------------------------------------
# the kill switch and the fallback contract
# ---------------------------------------------------------------------------

class TestKillSwitch:
    def test_env_disables_fast_path(self, problem8, monkeypatch):
        monkeypatch.setenv(fused_mod.ENV_FUSED, "0")
        masks = color_masks(lattice_coloring(problem8.grid))
        s = RBGSSmoother(problem8.A, problem8.A_diag, masks)
        assert not s.fused_active
        j = JacobiSmoother(problem8.A, problem8.A_diag)
        assert not j.fused_active

    def test_env_off_matches_fused_results(self, problem8, rng, monkeypatch):
        masks = color_masks(lattice_coloring(problem8.grid))
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        z_fused = grb.Vector.dense(problem8.n, 0.0)
        RBGSSmoother(problem8.A, problem8.A_diag, masks).smooth(z_fused, r)
        monkeypatch.setenv(fused_mod.ENV_FUSED, "0")
        z_ref = grb.Vector.dense(problem8.n, 0.0)
        RBGSSmoother(problem8.A, problem8.A_diag, masks).smooth(z_ref, r)
        assert_bit_identical(z_fused.to_dense(), z_ref.to_dense())

    def test_explicit_param_beats_env(self, problem8, monkeypatch):
        monkeypatch.setenv(fused_mod.ENV_FUSED, "0")
        masks = color_masks(lattice_coloring(problem8.grid))
        s = RBGSSmoother(problem8.A, problem8.A_diag, masks, fused=True)
        assert s.fused_active

    @pytest.mark.usefixtures("armed")
    def test_kill_switch_applies_to_built_smoothers(self, problem8, rng,
                                                    monkeypatch):
        """REPRO_FUSED=0 is read per call: smoothers armed *before* the
        switch flips must fall back too (and stay bit-identical)."""
        masks = color_masks(lattice_coloring(problem8.grid))
        s = RBGSSmoother(problem8.A, problem8.A_diag, masks)
        assert s.fused_active
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        z1 = grb.Vector.dense(problem8.n, 0.0)
        s.smooth(z1, r)
        monkeypatch.setenv(fused_mod.ENV_FUSED, "0")
        z2 = grb.Vector.dense(problem8.n, 0.0)
        log = grb.backend.EventLog()
        with grb.backend.collect(log):
            s.smooth(z2, r)                       # reference path now
        assert log.count("fused_mxv_lambda") == 0
        assert log.count("mxv") > 0
        assert_bit_identical(z1.to_dense(), z2.to_dense())

    def test_plan_declines_sparse_vectors(self, problem8, rng):
        """A sparse z cannot take the fast path; the reference path's
        own semantics (presence checks) must apply instead."""
        masks = color_masks(lattice_coloring(problem8.grid))
        s = RBGSSmoother(problem8.A, problem8.A_diag, masks, fused=True)
        z = grb.Vector.sparse(problem8.n)            # all-absent
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        from repro.util.errors import InvalidValue
        with pytest.raises(InvalidValue):
            s.forward(z, r)                           # same error as reference


# ---------------------------------------------------------------------------
# plan invalidation: mutation rebuilds the sweep
# ---------------------------------------------------------------------------

class TestPlanInvalidation:
    @pytest.mark.usefixtures("armed")
    def test_set_substrate_rebuilds_sweep(self, problem8, rng):
        """set_substrate swaps providers without bumping the version;
        the plan must still notice and re-price in the new format."""
        masks = color_masks(lattice_coloring(problem8.grid))
        A = grb.Matrix.from_scipy(problem8.A.to_scipy(), substrate="csr")
        s = RBGSSmoother(A, problem8.A_diag, masks, fused=True)
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        z = grb.Vector.dense(problem8.n, 0.0)
        s.smooth(z, r)                            # builds the csr sweep
        A.set_substrate("sellcs")
        z1 = grb.Vector.dense(problem8.n, 0.0)
        log = grb.backend.EventLog()
        with grb.backend.collect(log):
            s.smooth(z1, r)
        assert {e.fmt for e in log.events} == {"sellcs"}
        z2 = grb.Vector.dense(problem8.n, 0.0)
        RBGSSmoother(A, problem8.A_diag, masks, fused=False).smooth(z2, r)
        assert_bit_identical(z1.to_dense(), z2.to_dense())

    def test_stale_plan_not_reused_after_mutation(self, problem4, rng):
        masks = color_masks(lattice_coloring(problem4.grid))
        A = grb.Matrix.from_scipy(problem4.A.to_scipy())
        diag = grb.diag(A)
        smoother = RBGSSmoother(A, diag, masks, fused=True)
        r = grb.Vector.from_dense(rng.standard_normal(problem4.n))
        z = grb.Vector.dense(problem4.n, 0.0)
        smoother.smooth(z, r)
        # scale one off-diagonal entry; diag vector unchanged
        i, j = int(A.to_coo()[0][1]), int(A.to_coo()[1][1])
        A.set_element(i, j, 3.25)
        ref = RBGSSmoother(A, diag, masks, fused=False)
        z1 = grb.Vector.dense(problem4.n, 0.0)
        z2 = grb.Vector.dense(problem4.n, 0.0)
        smoother.smooth(z1, r)
        ref.smooth(z2, r)
        assert_bit_identical(z1.to_dense(), z2.to_dense())


# ---------------------------------------------------------------------------
# inputs the colour-major fast path must refuse or survive
# ---------------------------------------------------------------------------

def masks_from_rows(n, classes):
    return [grb.Vector.from_coo(np.asarray(rows, dtype=np.int64),
                                np.ones(len(rows), dtype=bool), n, dtype=bool)
            for rows in classes]


@pytest.mark.usefixtures("armed")
@pytest.mark.parametrize("name", PROVIDERS)
class TestFastPathInputs:
    """Each case against ``fused=False``, bit for bit."""

    def pair(self, problem, name, masks):
        A = grb.Matrix.from_scipy(problem.A.to_scipy(), substrate=name)
        return smoother_pair(A, problem.A_diag, masks)

    def test_overlapping_masks_take_the_generic_sweep(self, problem4, rng,
                                                      name):
        """A row in two classes is legal input and no colouring: it is
        relaxed twice per direction, which one position in a
        colour-major order cannot express."""
        n = problem4.n
        masks = masks_from_rows(n, [range(0, 40), range(24, n)])
        fused, ref = self.pair(problem4, name, masks)
        r = grb.Vector.from_dense(rng.standard_normal(n))
        assert_bit_identical(*run_both(fused, ref, n, r, "smooth"))
        assert type(fused._plan._sweep) is substrate.ColorSweep

    def test_uncoloured_rows_are_left_alone(self, problem4, rng, name):
        n = problem4.n
        masks = masks_from_rows(n, [range(0, n, 3), range(1, n, 3)])
        fused, ref = self.pair(problem4, name, masks)
        r = grb.Vector.from_dense(rng.standard_normal(n))
        z0 = rng.standard_normal(n)
        z0[2::6] = -0.0
        got, want = run_both(fused, ref, n, r, "smooth", z0=z0)
        assert_bit_identical(got, want)
        assert_bit_identical(got[2::3], z0[2::3])
        if name == "csr" and substrate.registry.forced() is None:
            assert type(fused._plan._sweep) is not substrate.ColorSweep

    def test_empty_classes(self, problem4, rng, name):
        """Thin coarse grids leave parity classes empty."""
        n = problem4.n
        masks = masks_from_rows(n, [[], range(0, n, 2), [], range(1, n, 2),
                                    []])
        fused, ref = self.pair(problem4, name, masks)
        r = grb.Vector.from_dense(rng.standard_normal(n))
        for op in ("forward", "backward", "smooth"):
            assert_bit_identical(*run_both(fused, ref, n, r, op))

    def test_z_is_r_falls_back(self, problem4, rng, name):
        """The right-hand side changes under the sweep: a reordered
        copy of it taken at entry would be stale after one colour."""
        masks = color_masks(lattice_coloring(problem4.grid))
        fused, ref = self.pair(problem4, name, masks)
        z1 = grb.Vector.from_dense(rng.standard_normal(problem4.n))
        z2 = z1.dup()
        fused.smooth(z1, z1, sweeps=2)
        ref.smooth(z2, z2, sweeps=2)
        assert_bit_identical(z1.to_dense(), z2.to_dense())

    def test_non_square_operator(self, rng, name):
        """The smoother refuses it at construction either way; the plan
        on its own (rows relaxed against a longer iterate) keeps the
        natural-order arithmetic."""
        m, n = 6, 9
        dense = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5)
        dense[np.arange(m), np.arange(m)] = rng.uniform(1.0, 2.0, m)
        A = grb.Matrix.from_scipy(sp.csr_matrix(dense), substrate=name)
        diag = grb.Vector.from_dense(dense.diagonal().copy())
        masks = masks_from_rows(m, [range(0, m, 2), range(1, m, 2)])
        for fused in (True, False):
            with pytest.raises(InvalidValue, match="square"):
                RBGSSmoother(A, diag, masks, fused=fused)
        z0, rv = rng.standard_normal(n), rng.standard_normal(m)
        z = grb.Vector.from_dense(z0)
        plan = fused_mod.ColorSweepPlan(A, masks, diag)
        assert plan.run(z, grb.Vector.from_dense(rv), [0, 1, 0])
        want = z0.copy()
        for k in (0, 1, 0):
            rows = np.arange(k, m, 2)
            d = dense.diagonal()[rows]
            s = A.to_scipy()[rows, :] @ want
            want[rows] = (rv[rows] - s + want[rows] * d) / d
        assert_bit_identical(z.to_dense(), want)

    @pytest.mark.parametrize("order", [[0, 0, 3, 3, 0], [5, 2], [7],
                                       [1, 6, 1, 6, 1, 6], []])
    def test_order_with_repeats_or_a_subset(self, problem4, rng, name,
                                            order):
        masks = color_masks(lattice_coloring(problem4.grid))
        fused, ref = self.pair(problem4, name, masks)
        r = grb.Vector.from_dense(rng.standard_normal(problem4.n))
        z1 = grb.Vector.from_dense(rng.standard_normal(problem4.n))
        z2 = z1.dup()
        fused._sweep(z1, r, order)
        ref._sweep(z2, r, order)
        assert_bit_identical(z1.to_dense(), z2.to_dense())

    def test_single_steps_match_the_natural_order_sweep(self, problem4, rng,
                                                        name):
        """``step`` stays part of every sweep's surface, the
        colour-major one included."""
        prov = substrate.get(name)(problem4.A.to_scipy())
        rows = [np.flatnonzero(m._present)
                for m in color_masks(lattice_coloring(problem4.grid))]
        diag, r = problem4.A_diag.to_dense(), rng.standard_normal(problem4.n)
        z1 = rng.standard_normal(problem4.n)
        z2 = z1.copy()
        sweep = prov.gs_color_sweep(rows, diag)
        natural = substrate.ColorSweep(prov, rows, diag)
        assert sweep.ncolors == natural.ncolors == len(rows)
        for k in (3, 0, 3, 7):
            sweep.step(k, z1, r)
            natural.step(k, z2, r)
            assert_bit_identical(z1, z2)

    @pytest.mark.parametrize("mutator", ["waxpby", "set_element", "fill",
                                         "build"])
    def test_rhs_changed_between_calls(self, problem4, rng, name, mutator):
        """The sweep gathers ``r`` into its own colour-major workspace:
        whatever it keeps between calls, a change made through any
        public mutator must reach the next smooth."""
        n = problem4.n
        masks = color_masks(lattice_coloring(problem4.grid))
        fused, ref = self.pair(problem4, name, masks)
        r = grb.Vector.from_dense(rng.standard_normal(n))
        assert_bit_identical(*run_both(fused, ref, n, r, "smooth"))
        other = grb.Vector.from_dense(rng.standard_normal(n))
        if mutator == "waxpby":
            grb.waxpby(r, 0.5, r, -2.0, other)
        elif mutator == "set_element":
            r.set_element(n // 2, 17.25)
        elif mutator == "fill":
            r.fill(-3.5)
        else:
            r.clear()
            r.build(np.arange(n), rng.standard_normal(n))
        assert_bit_identical(*run_both(fused, ref, n, r, "smooth"))

    def test_fresh_rhs_objects_never_hit_a_stale_copy(self, problem4, rng,
                                                      name):
        """A dropped temporary's ``id()`` is recycled, at the same
        version (``test_is_linear_operator``'s pattern): a colour-major
        copy of ``r`` kept across calls under an ``(id, version)`` key
        serves the previous right-hand side here.  The sweep re-gathers
        ``r`` every run (keeping it measured 1.8 % on ``lap7-40``, under
        the bar set for the hazard); this pins that whatever replaces
        that must key on the container itself."""
        n = problem4.n
        masks = color_masks(lattice_coloring(problem4.grid))
        fused, ref = self.pair(problem4, name, masks)

        def apply(smoother, values):
            out = grb.Vector.dense(n, 0.0)
            smoother.smooth(out, grb.Vector.from_dense(values))
            return out.to_dense()       # the rhs is dropped on return

        inputs = [rng.standard_normal(n) for _ in range(8)]
        want = [apply(ref, values) for values in inputs]
        for values, expected in zip(inputs, want):
            assert_bit_identical(apply(fused, values), expected)


# ---------------------------------------------------------------------------
# Jacobi's fused update
# ---------------------------------------------------------------------------

class TestFusedJacobi:
    @pytest.mark.parametrize("name", PROVIDERS)
    def test_bit_identical(self, problem8, rng, name):
        A = grb.Matrix.from_scipy(problem8.A.to_scipy(), substrate=name)
        fused = JacobiSmoother(A, problem8.A_diag, fused=True)
        ref = JacobiSmoother(A, problem8.A_diag, fused=False)
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        z1 = grb.Vector.dense(problem8.n, 0.0)
        z2 = grb.Vector.dense(problem8.n, 0.0)
        fused.smooth(z1, r, sweeps=3)
        ref.smooth(z2, r, sweeps=3)
        assert_bit_identical(z1.to_dense(), z2.to_dense())


# ---------------------------------------------------------------------------
# honest pricing: the fused stream through the fused-traffic hooks
# ---------------------------------------------------------------------------

class TestFusedPricing:
    @pytest.mark.usefixtures("armed")
    def test_fused_events_tagged_and_cheaper(self, problem8, rng):
        masks = color_masks(lattice_coloring(problem8.grid))
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        totals = {}
        for fused in (True, False):
            s = RBGSSmoother(problem8.A, problem8.A_diag, masks, fused=fused)
            z = grb.Vector.dense(problem8.n, 0.0)
            log = grb.backend.EventLog()
            with grb.backend.collect(log):
                s.smooth(z, r)
            totals[fused] = log.total("bytes")
            if fused:
                assert log.count("fused_mxv_lambda") == 2 * len(masks)
                assert log.count("mxv") == 0
                assert all(e.fmt == problem8.A.substrate
                           for e in log.events)
        # fusion elides the workspace round trip: strictly fewer bytes
        assert totals[True] < totals[False]

    @pytest.mark.usefixtures("armed")
    @pytest.mark.parametrize("name", PROVIDERS)
    def test_one_run_emits_the_per_step_event_list(self, problem8, rng,
                                                   name):
        """One provider run per symmetric pass still reports one
        ``fused_mxv_lambda`` per colour step, in sweep order, priced as
        that colour's own substructure prices it."""
        A = grb.Matrix.from_scipy(problem8.A.to_scipy(), substrate=name)
        masks = color_masks(lattice_coloring(problem8.grid))
        s = RBGSSmoother(A, problem8.A_diag, masks, fused=True).set_level(2)
        z = grb.Vector.dense(problem8.n, 0.0)
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        log = grb.backend.EventLog()
        with grb.backend.collect(log):
            s.smooth(z, r)
        ncolors = len(masks)
        want = []
        for k in [*range(ncolors), *reversed(range(ncolors))]:
            sub = A.provider().extract_rows(np.flatnonzero(masks[k]._present))
            flops, nbytes = sub.fused_mxv_traffic(3)
            want.append(grb.backend.PerfEvent(
                "fused_mxv_lambda", sub.nrows, sub.nnz, flops, nbytes,
                "rbgs@L2", name))
        assert log.events == want
        assert all(type(v) is int for e in log.events
                   for v in (e.rows, e.nnz, e.flops, e.bytes))
        # the 8^3 stream as the per-step loop emitted it
        totals = {f: log.total(f) for f in ("rows", "nnz", "flops", "bytes")}
        assert totals == {
            "rows": 1024, "nnz": 21296, "flops": 46688,
            "bytes": {"csr": 288320, "sellcs": 394432,
                      "blocked": 629056}[name],
        }

    @pytest.mark.usefixtures("armed")
    def test_jacobi_fused_pricing(self, problem8, rng):
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        s = JacobiSmoother(problem8.A, problem8.A_diag, fused=True)
        z = grb.Vector.dense(problem8.n, 0.0)
        log = grb.backend.EventLog()
        with grb.backend.collect(log):
            s.smooth(z, r, sweeps=2)
        assert log.count("fused_mxv_lambda") == 2
        assert log.total("bytes") > 0


# ---------------------------------------------------------------------------
# the colour-major step: one product over rows that carry their update
# ---------------------------------------------------------------------------

STEP_EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0, -1.5]
moderate = st.floats(min_value=-1e100, max_value=1e100)


class TestColourMajorStep:
    @common
    @given(data=st.data())
    def test_step_is_the_four_op_formula(self, data):
        """``fill``, ``csr_matvec`` over rows of ``-A`` with ``+1`` at
        ``r_i`` and ``+d_i`` at ``z_i``, ``divide``: each colour step is
        ``((r - s) + z*d) / d`` bit for bit, signs of zero included, for
        signed zeros and subnormals in ``z`` and the operator, negative
        diagonals, and any ``r`` free of ``-0.0``; a zero iterate's first
        step (no product) too."""
        n = data.draw(st.integers(1, 16), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        csr = sp.random(n, n, density=0.4, random_state=rng, format="csr")
        csr.data = rng.choice([*STEP_EDGE, *rng.standard_normal(8)],
                              csr.nnz)
        d = np.array(data.draw(st.lists(
            st.floats(0.25, 4.0) | st.floats(-4.0, -0.25),
            min_size=n, max_size=n), label="d"))
        ncolors = data.draw(st.integers(1, min(3, n)), label="ncolors")
        colors = rng.integers(0, ncolors, n)
        colors[:ncolors] = np.arange(ncolors)
        rows = [np.flatnonzero(colors == c) for c in range(ncolors)]
        order = data.draw(st.lists(st.integers(0, ncolors - 1), max_size=6),
                          label="order")
        zero = data.draw(st.booleans(), label="zero")
        edge = st.sampled_from(STEP_EDGE) | moderate
        z = (np.zeros(n) if zero else np.array(data.draw(
            st.lists(edge, min_size=n, max_size=n), label="z")))
        r = np.array(data.draw(st.lists(edge, min_size=n, max_size=n),
                               label="r"))
        r[r == 0.0] = 0.0                   # +0.0 only: -0.0 is declined

        want = z.copy()
        with np.errstate(all="ignore"):
            for k in order:
                rk, dk = rows[k], d[rows[k]]
                s = csr[rk, :] @ want       # csr_matvec from +0.0
                want[rk] = (r[rk] - s + want[rk] * dk) / dk
            sweep = CsrColorSweep(csr, rows, d)
            got = np.full(n, 7.0)
            assert sweep.load(z, r)
            execute(sweep.program(order, zero))
            sweep.store(got)
        assert_bit_identical(got, want)

    def test_a_negative_zero_residual_is_declined(self, problem4, rng):
        """``+0.0 + (-0.0)`` is ``+0.0`` where ``-0.0 - (+0.0)`` is
        ``-0.0``: the sweep refuses such an ``r`` before touching
        anything, and the smoother's transcription serves it."""
        A = grb.Matrix.from_scipy(problem4.A.to_scipy(), substrate="csr")
        masks = color_masks(lattice_coloring(problem4.grid))
        fused, ref = smoother_pair(A, problem4.A_diag, masks)
        rv = rng.standard_normal(problem4.n)
        rv[::3] = -0.0
        sweep = fused.plan._current_sweep()
        before = sweep._x.tobytes()
        assert not sweep.run(np.zeros(problem4.n), rv, [0, 1])
        assert sweep._x.tobytes() == before
        assert not fused.plan.run(grb.Vector.dense(problem4.n),
                                  grb.Vector.from_dense(rv), [0])
        r = grb.Vector.from_dense(rv)
        assert_bit_identical(*run_both(fused, ref, problem4.n, r, "smooth"))


def rounding_kernel(contracts):
    """A ``csr_matvec`` stand-in that rounds ``a*x`` before its add, or
    (``contracts``) rounds ``acc + a*x`` once, as a fused multiply-add."""
    def matvec(rows, ncols, indptr, indices, data, x, y):
        for i in range(rows):
            acc = y[i]
            for j in range(indptr[i], indptr[i + 1]):
                a, v = data[j], x[indices[j]]
                acc = (float(Fraction(acc) + Fraction(a) * Fraction(v))
                       if contracts else acc + a * v)
            y[i] = acc
    return matvec


class TestRoundingProbe:
    @pytest.mark.parametrize("contracts", [False, True])
    def test_the_probe_tells_the_kernels_apart(self, monkeypatch,
                                               contracts):
        monkeypatch.setattr(csr_mod, "_csr_matvec",
                            rounding_kernel(contracts))
        assert csr_mod._contracts() is contracts

    def test_a_contracting_kernel_gets_no_colour_major_sweep(
            self, monkeypatch, problem8, rng):
        monkeypatch.setattr(csr_mod, "CONTRACTS", True)
        A = grb.Matrix.from_scipy(problem8.A.to_scipy(), substrate="csr")
        masks = color_masks(lattice_coloring(problem8.grid))
        fused, ref = smoother_pair(A, problem8.A_diag, masks)
        assert type(fused.plan._current_sweep()) is substrate.ColorSweep
        r = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        assert_bit_identical(*run_both(fused, ref, problem8.n, r, "smooth"))


# ---------------------------------------------------------------------------
# guards that keep the CSR lane fast: no per-colour gather, temporary or copy
# ---------------------------------------------------------------------------

def _held_bytes(obj, seen):
    """Bytes of every distinct array buffer reachable from ``obj``."""
    if obj is None or id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.base is None else _held_bytes(obj.base, seen)
    if isinstance(obj, (list, tuple)):
        return sum(_held_bytes(o, seen) for o in obj)
    return sum(_held_bytes(v, seen) for v in getattr(obj, "__dict__", {})
               .values())


@pytest.mark.skipif(
    substrate.registry.forced() is not None,
    reason="guards the default CSR lane on the numpy kernels")
@pytest.mark.usefixtures("armed")
class TestCsrLaneGuards:
    @staticmethod
    def warm_smoother(nx):
        problem = generate_problem(nx)
        masks = color_masks(lattice_coloring(problem.grid))
        s = RBGSSmoother(problem.A, problem.A_diag, masks, fused=True)
        z = grb.Vector.dense(problem.n, 0.0)
        r = grb.Vector.from_dense(np.linspace(-1.0, 1.0, problem.n))
        s.smooth(z, r)
        s.smooth(z, r)
        return problem, s, z, r

    @pytest.mark.parametrize("nx", [16, 24])
    def test_warm_smooth_allocates_a_constant(self, nx):
        """numpy reports array data to tracemalloc: a gather or a
        temporary per colour step shows up as bytes growing with n
        (12 992 at 16^3 and 42 176 at 24^3 before the colour-major
        sweep)."""
        _, s, z, r = self.warm_smoother(nx)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            s.smooth(z, r)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4096

    def test_sweep_holds_the_operator_once(self):
        """One reordered CSR (12 bytes an entry) plus a handful of
        n-vectors; per-colour copies kept beside it would double the
        first term (and cost 4.7 % of peak RSS at 32^3).  The operator it
        was built from is referenced, not copied: not counted."""
        problem, s, _, _ = self.warm_smoother(16)
        sweep = s._plan._sweep
        held = _held_bytes(sweep, {id(sweep._csr)})
        assert 0 < held <= 1.1 * (problem.A.nvals * 12 + 6 * problem.n * 8)


# ---------------------------------------------------------------------------
# the SpMV->waxpby fusion
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("armed")
class TestFusedSpmvWaxpby:
    def _unfused(self, alpha, x, beta, A, z):
        w = grb.Vector.dense(A.nrows)
        grb.mxv(w, None, A, z)
        grb.waxpby(w, alpha, x, beta, w)
        return w.to_dense()

    def test_bit_identical_to_unfused_pair(self, problem8):
        rng = np.random.default_rng(21)
        x = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        z = grb.Vector.from_dense(rng.standard_normal(problem8.n))
        w = grb.Vector.dense(problem8.n)
        assert fused_mod.fused_spmv_waxpby(w, 1.0, x, -1.0, problem8.A, z)
        expect = self._unfused(1.0, x, -1.0, problem8.A, z)
        assert w.to_dense().tobytes() == expect.tobytes()

    @pytest.mark.parametrize("kind", ["random", "signed-zeros", "huge"])
    def test_residual_coefficients_match(self, kind):
        """``(alpha, beta) = (1.0, -1.0)`` runs as one subtract; the
        general multiply-then-add expression must give the same bits,
        zero signs included, wherever no NaN is involved."""
        rng = np.random.default_rng(23)
        n = 257
        if kind == "random":
            xv, zv = rng.standard_normal(n), rng.standard_normal(n)
        elif kind == "signed-zeros":
            # every pairing of +-0.0 and a nonzero, cancellations included
            xv = rng.choice([0.0, -0.0, 1.5, -1.5], n)
            zv = rng.choice([0.0, -0.0, 1.5, -1.5], n)
        else:
            # huge but finite: differences that overflow to +-inf, and
            # exact cancellations at the top of the range
            big = np.finfo(np.float64).max
            xv = rng.choice([big, -big, big / 2, 1e-300, -0.0], n)
            zv = rng.choice([big, -big, big / 2, -1e-300, 0.0], n)
        # A = I, entries 1.0: the product is s = +0.0 + 1.0 * z
        A = grb.Matrix.from_scipy(sp.identity(n, format="csr"))
        w = grb.Vector.dense(n)
        s = 0.0 + 1.0 * zv
        with np.errstate(over="ignore"):
            assert fused_mod.fused_spmv_waxpby(
                w, 1.0, grb.Vector.from_dense(xv), -1.0, A,
                grb.Vector.from_dense(zv))
            want = np.multiply(xv, 1.0)
            want += -1.0 * s
        got = w.to_dense()
        assert not np.isnan(want).any()
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        # and a negative-zero product, which no accumulation from +0.0
        # yields: the identity the shortcut rests on, at the ufunc level
        s = np.where(rng.random(n) < 0.5, -0.0, s)
        with np.errstate(over="ignore"):
            general = np.multiply(xv, 1.0) + -1.0 * s
            special = np.subtract(xv, s)
        assert np.array_equal(special, general)
        assert np.array_equal(np.signbit(special), np.signbit(general))

    def test_declines_on_kill_switch(self, problem8, monkeypatch):
        monkeypatch.setenv(fused_mod.ENV_FUSED, "0")
        w = grb.Vector.dense(problem8.n)
        z = grb.Vector.dense(problem8.n, 1.0)
        assert not fused_mod.fused_spmv_waxpby(
            w, 1.0, w, -1.0, problem8.A, z)

    def test_declines_on_aliased_product_input(self, problem8):
        w = grb.Vector.dense(problem8.n, 1.0)
        assert not fused_mod.fused_spmv_waxpby(
            w, 1.0, w, -1.0, problem8.A, w)   # w is z

    def test_declines_on_sparse_vector(self, problem8):
        w = grb.Vector.dense(problem8.n)
        z = grb.Vector.sparse(problem8.n)
        assert not fused_mod.fused_spmv_waxpby(
            w, 1.0, problem8.b, -1.0, problem8.A, z)

    def test_declines_on_size_mismatch(self, problem8):
        w = grb.Vector.dense(problem8.n + 1)
        z = grb.Vector.dense(problem8.n, 1.0)
        assert not fused_mod.fused_spmv_waxpby(
            w, 1.0, w, -1.0, problem8.A, z)

    def test_declines_on_empty_rows(self):
        # an empty operator row would change output presence semantics
        A = grb.Matrix.from_coo(np.array([0]), np.array([0]),
                                np.array([2.0]), 3, 3)
        w = grb.Vector.dense(3)
        x = grb.Vector.dense(3, 1.0)
        z = grb.Vector.dense(3, 1.0)
        assert not fused_mod.fused_spmv_waxpby(w, 1.0, x, -1.0, A, z)

    def test_cg_history_invariant_under_fusion_switch(self, monkeypatch):
        from repro.hpcg.driver import run_hpcg

        histories = {}
        for tag, value in (("fused", "1"), ("unfused", "0")):
            monkeypatch.setenv(fused_mod.ENV_FUSED, value)
            histories[tag] = run_hpcg(8, max_iters=6,
                                      mg_levels=2).cg.residuals
        assert histories["fused"] == histories["unfused"]


# ---------------------------------------------------------------------------
# the CG workspace (the consumer-side allocation fix riding along)
# ---------------------------------------------------------------------------

class TestCGWorkspace:
    def test_reused_workspace_identical_solve(self, problem8):
        hierarchy = build_hierarchy(problem8, levels=2)
        precond = MGPreconditioner(hierarchy)
        ws = CGWorkspace(problem8.n)
        histories = []
        for _ in range(2):
            x = problem8.x0.dup()
            res = pcg(problem8.A, problem8.b, x, preconditioner=precond,
                      max_iters=8, workspace=ws)
            histories.append(res.residuals)
        x = problem8.x0.dup()
        fresh = pcg(problem8.A, problem8.b, x, preconditioner=precond,
                    max_iters=8)
        assert histories[0] == histories[1] == fresh.residuals

    def test_size_mismatch_raises(self, problem8):
        from repro.util.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            pcg(problem8.A, problem8.b, problem8.x0.dup(),
                max_iters=1, workspace=CGWorkspace(problem8.n + 1))
