"""Failure injection: broken inputs are rejected, and injected machine
faults (stragglers, heterogeneous speeds, message loss, node crashes)
are deterministic, priced honestly, and recovered from exactly."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import graphblas as grb
from repro import obs
from repro.dist import (
    Checkpoint,
    Crash,
    FaultInjector,
    FaultPlan,
    Hybrid2DRun,
    HybridALPRun,
    MessageLoss,
    NodeCrash,
    RefDistRun,
    Straggler,
)
from repro.dist.faults import losses
from repro.hpcg.cg import pcg
from repro.hpcg.coloring import color_masks, lattice_coloring
from repro.hpcg.multigrid import MGPreconditioner, build_hierarchy
from repro.hpcg.problem import generate_problem
from repro.hpcg.smoothers import RBGSSmoother
from repro.hpcg.symmetry import validate
from repro.ref.cg import ref_pcg
from repro.ref.sgs import RefRBGS, RefSymGS
from repro.util.errors import InvalidValue
from test_dist_vcycle import computed   # a solve that is not a replay

ALL_BACKENDS = (RefDistRun, HybridALPRun, Hybrid2DRun)


@pytest.fixture(scope="module")
def dist_problem():
    return generate_problem(8, 16, 16)


def _run(cls, problem, faults=None, max_iters=5, **kw):
    """One solve computing its numerics, so two histories compared are
    each the output of its own products."""
    return computed(cls(problem, 4, mg_levels=3, faults=faults, **kw),
                    max_iters=max_iters)


class TestBrokenOperators:
    def test_zero_diagonal_rejected_by_ref_smoothers(self):
        import scipy.sparse as sp
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(InvalidValue):
            RefSymGS(A)
        with pytest.raises(InvalidValue):
            RefRBGS(A, np.array([0, 1]))

    def test_missing_diagonal_detected_at_generation(self, monkeypatch):
        """If stencil assembly lost the diagonal, generation must fail."""
        import repro.hpcg.problem as problem_mod

        real = problem_mod.stencil_csr

        def broken(grid, stencil="27pt"):
            indptr, indices, data = real(grid, stencil)
            rows = np.repeat(np.arange(grid.npoints), np.diff(indptr))
            off = indices != rows
            kept = np.r_[0, np.cumsum(off)][indptr].astype(indptr.dtype)
            return kept, indices[off], data[off]

        monkeypatch.setattr(problem_mod, "stencil_csr", broken)
        with pytest.raises(InvalidValue):
            problem_mod.generate_problem(4)

    def test_asymmetric_operator_fails_validation(self):
        problem = generate_problem(4)
        # break symmetry in one entry
        A = problem.A.dup()
        rows, cols, _ = A.to_coo()
        off = np.flatnonzero(rows != cols)[0]
        A.set_element(int(rows[off]), int(cols[off]), 99.0)
        report = validate(A)
        assert not report.passed

    def test_invalid_coloring_breaks_gs_ordering(self):
        """A colouring that puts dependent rows in one class no longer
        reproduces sequential GS — the validator must catch it before a
        smoother is built from it."""
        from repro.hpcg.coloring import validate_coloring
        problem = generate_problem(4)
        bad = np.zeros(problem.n, dtype=np.int64)
        assert not validate_coloring(problem.A, bad)


class TestNumericalEdgeCases:
    @pytest.mark.parametrize("entry", ["hpcg.pcg", "ref_pcg", "dist"])
    def test_nan_rhs_is_a_one_line_error(self, entry):
        """A NaN in ``b`` fails at the first residual, in every CG
        transcription, instead of returning an all-NaN history."""
        problem = generate_problem(8)
        b = problem.b.to_dense()
        b[3] = np.nan
        with pytest.raises(InvalidValue,
                           match="non-finite initial residual") as err:
            if entry == "hpcg.pcg":
                pcg(problem.A, grb.Vector.from_dense(b), problem.x0.dup(),
                    max_iters=3)
            elif entry == "ref_pcg":
                ref_pcg(problem.A.to_scipy(), b, problem.x0.to_dense(),
                        max_iters=3)
            else:
                poisoned = dataclasses.replace(
                    problem, b=grb.Vector.from_dense(b))
                RefDistRun(poisoned, nprocs=2,
                           mg_levels=2).run_cg(max_iters=3)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("damage,iteration", [("negated", 1),
                                                  ("indefinite-diagonal", 3)])
    def test_indefinite_operator_is_a_one_line_error(self, damage, iteration):
        """``p'Ap <= 0`` with a non-zero residual stops every CG
        transcription with the same line, naming the iteration, instead
        of a diverging or NaN history."""
        problem = generate_problem(8)
        if damage == "negated":
            A = grb.Matrix.from_scipy(-problem.A.to_scipy())
        else:
            A = problem.A.dup()
            A.set_element(5, 5, -26.0)      # symmetric, one negative pivot
        broken = dataclasses.replace(problem, A=A, A_diag=grb.diag(A))
        messages = []
        for solve in (
            lambda: pcg(A, problem.b, problem.x0.dup(), max_iters=10),
            lambda: ref_pcg(A.to_scipy(), problem.b.to_dense(),
                            problem.x0.to_dense(), max_iters=10),
            lambda: RefDistRun(broken, nprocs=2, mg_levels=2).run_cg(
                max_iters=10, use_mg=False),
        ):
            with pytest.raises(InvalidValue,
                               match="not positive definite") as err:
                solve()
            messages.append(str(err.value))
        assert len(set(messages)) == 1 and "\n" not in messages[0]
        assert f"breakdown at iteration {iteration} " in messages[0]

    @pytest.mark.parametrize("max_iters,tolerance", [
        (-3, 0.0), (5, float("nan")), (5, -1.0), (5, float("inf"))])
    def test_bad_cg_limits_are_a_one_line_error(self, max_iters, tolerance):
        """A negative iteration budget or a tolerance outside ``[0, inf)``
        stops every CG transcription with the same line before any work,
        instead of running no iteration or falling back to fixed-iteration
        mode."""
        problem = generate_problem(8)
        messages = []
        for solve in (
            lambda: pcg(problem.A, problem.b, problem.x0.dup(),
                        max_iters=max_iters, tolerance=tolerance),
            lambda: ref_pcg(problem.A.to_scipy(), problem.b.to_dense(),
                            problem.x0.to_dense(), max_iters=max_iters,
                            tolerance=tolerance),
            lambda: RefDistRun(problem, nprocs=2, mg_levels=2).run_cg(
                max_iters=max_iters, tolerance=tolerance),
        ):
            with pytest.raises(InvalidValue, match="max_iters >= 0") as err:
                solve()
            messages.append(str(err.value))
        assert len(set(messages)) == 1 and "\n" not in messages[0]

    def test_indefinite_preconditioner_is_a_one_line_error(self):
        """``r'z < 0``: the preconditioner's fault, same line."""
        problem = generate_problem(4)
        with pytest.raises(InvalidValue, match="breakdown at iteration 1 "):
            pcg(problem.A, problem.b, problem.x0.dup(), max_iters=3,
                preconditioner=lambda z, r: grb.waxpby(z, -1.0, r, 0.0, r))
        with pytest.raises(InvalidValue, match="breakdown at iteration 1 "):
            ref_pcg(problem.A.to_scipy(), problem.b.to_dense(),
                    problem.x0.to_dense(), max_iters=3,
                    preconditioner=lambda z, r: np.negative(r, out=z))

    def test_huge_values_no_overflow_crash(self):
        import warnings
        problem = generate_problem(4)
        b = grb.Vector.dense(problem.n, 1e300)
        x = problem.x0.dup()
        with warnings.catch_warnings():
            # the norm of a 1e300-scaled residual overflows to inf by
            # design; the solver must keep going, not crash
            warnings.simplefilter("ignore", RuntimeWarning)
            res = pcg(problem.A, b, x, max_iters=5)
        assert res.iterations == 5  # ran to completion

    def test_zero_rhs_converges_to_zero(self):
        problem = generate_problem(4)
        b = grb.Vector.dense(problem.n, 0.0)
        x = problem.x0.dup()
        res = pcg(problem.A, b, x, max_iters=5, tolerance=1e-10)
        assert res.converged and res.iterations == 0
        np.testing.assert_array_equal(x.to_dense(), np.zeros(problem.n))

    def test_smoother_with_wrong_mask_count_still_valid(self):
        """Fewer colour classes (a coarser partition that is still a
        valid colouring... it is NOT for the stencil) — the smoother runs
        but symmetry validation exposes the broken Gauss-Seidel order is
        *not* exposed, since any colour partition yields a symmetric
        smoother; what breaks is convergence quality, checked here."""
        problem = generate_problem(8)
        good = color_masks(lattice_coloring(problem.grid))
        # a deliberately bad "colouring": one class with everything
        bad_mask = grb.Vector.from_coo(
            np.arange(problem.n), np.ones(problem.n, dtype=bool),
            problem.n, dtype=bool,
        )
        rng = np.random.default_rng(0)
        r = grb.Vector.from_dense(rng.standard_normal(problem.n))
        A = problem.A.to_scipy()

        z_good = grb.Vector.dense(problem.n, 0.0)
        RBGSSmoother(problem.A, problem.A_diag, good).smooth(z_good, r)
        res_good = np.linalg.norm(r.to_dense() - A @ z_good.to_dense())

        z_bad = grb.Vector.dense(problem.n, 0.0)
        RBGSSmoother(problem.A, problem.A_diag, [bad_mask]).smooth(z_bad, r)
        res_bad = np.linalg.norm(r.to_dense() - A @ z_bad.to_dense())
        # one-class "RBGS" degenerates to Jacobi: measurably weaker
        assert res_good < res_bad


class TestGoldenRegression:
    """Pin exact end-to-end numbers so silent numerical drift fails CI."""

    def test_residual_history_8cubed(self):
        problem = generate_problem(8)
        precond = MGPreconditioner(build_hierarchy(problem, levels=3))
        x = problem.x0.dup()
        res = pcg(problem.A, problem.b, x, preconditioner=precond,
                  max_iters=5)
        # golden values from the initial validated implementation:
        # normr0 = ||b|| = ||A @ 1|| for the 8^3 reference problem
        assert res.normr0 == pytest.approx(191.2694434560837, rel=1e-12)
        assert res.residuals[1] == pytest.approx(41.74241308287508, rel=1e-9)
        assert res.residuals[2] == pytest.approx(7.0594471115977715, rel=1e-9)
        ratios = np.array(res.residuals[1:]) / np.array(res.residuals[:-1])
        # MG-preconditioned CG contracts fast at every step here
        assert (ratios < 0.25).all()

    def test_iteration_counts_stable(self):
        problem = generate_problem(8)
        x = problem.x0.dup()
        plain = pcg(problem.A, problem.b, x, max_iters=200, tolerance=1e-8)
        precond = MGPreconditioner(build_hierarchy(problem, levels=3))
        x2 = problem.x0.dup()
        mg = pcg(problem.A, problem.b, x2, preconditioner=precond,
                 max_iters=200, tolerance=1e-8)
        assert plain.iterations == 12
        assert mg.iterations == 7


class TestFaultPlanSchema:
    def test_component_validation(self):
        with pytest.raises(InvalidValue):
            Straggler(node=0, factor=0.5)
        with pytest.raises(InvalidValue):
            Straggler(node=-1, factor=2.0)
        with pytest.raises(InvalidValue):
            Straggler(node=0, factor=2.0, start_superstep=5, end_superstep=5)
        with pytest.raises(InvalidValue):
            MessageLoss(rate=1.0)
        with pytest.raises(InvalidValue):
            MessageLoss(rate=0.1, max_retries=0)
        with pytest.raises(InvalidValue):
            Crash(node=0, superstep=-1)
        with pytest.raises(InvalidValue):
            Checkpoint(interval=0)
        with pytest.raises(InvalidValue):
            FaultPlan(node_speeds={0: 0.0})

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidValue, match="unknown key"):
            FaultPlan.from_dict({"seed": 1, "stragler": []})
        with pytest.raises(InvalidValue, match="unknown key"):
            FaultPlan.from_dict({"crashes": [{"node": 0, "when": 3}]})

    def test_bools_are_not_numbers(self):
        with pytest.raises(InvalidValue):
            FaultPlan.from_dict({"seed": True})
        with pytest.raises(InvalidValue):
            FaultPlan.from_dict(
                {"stragglers": [{"node": 0, "factor": True}]})

    def test_round_trip(self):
        plan = FaultPlan(
            seed=42,
            stragglers=(Straggler(1, 3.0, 10, 200),),
            node_speeds={0: 0.5, 2: 0.75},
            message_loss=MessageLoss(rate=0.2, max_retries=4, backoff=1e-5),
            crashes=(Crash(3, 500),),
            checkpoint=Checkpoint(interval=2),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_json_errors_become_invalid_value(self, tmp_path):
        with pytest.raises(InvalidValue, match="cannot read"):
            FaultPlan.from_json(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InvalidValue, match="not valid JSON"):
            FaultPlan.from_json(str(bad))

    def test_validate_for_ranges_and_survivors(self):
        FaultPlan(crashes=(Crash(1, 5),)).validate_for(4)
        with pytest.raises(InvalidValue, match="out of range"):
            FaultPlan(stragglers=(Straggler(4, 2.0),)).validate_for(4)
        with pytest.raises(InvalidValue, match="out of range"):
            FaultPlan(node_speeds={7: 0.5}).validate_for(4)
        with pytest.raises(InvalidValue, match="no survivors"):
            FaultPlan(crashes=tuple(
                Crash(i, 10) for i in range(4))).validate_for(4)

    @pytest.mark.parametrize("text,field", [
        ('{"stragglers": [{"node": 0, "factor": NaN}]}', "factor"),
        ('{"stragglers": [{"node": 0, "factor": Infinity}]}', "factor"),
        ('{"message_loss": {"rate": 0.1, "backoff": NaN}}', "backoff"),
        ('{"message_loss": {"rate": 0.1, "backoff": Infinity}}', "backoff"),
        ('{"node_speeds": {"1": Infinity}}', r"node_speeds\[1\]"),
        ('{"seed": -1}', "seed"),
        ('{"stragglers": null}', "stragglers"),
        ('{"crashes": null}', "crashes"),
        ('{"node_speeds": null}', "node_speeds"),
        ('{"node_speeds": {"0": 0.5, "00": 0.25}}', "node_speeds"),
    ], ids=["nan-factor", "inf-factor", "nan-backoff", "inf-backoff",
            "inf-speed", "negative-seed", "null-stragglers", "null-crashes",
            "null-node-speeds", "node-named-twice"])
    def test_what_json_reads_but_nothing_can_price_is_one_line_invalid_value(
            self, tmp_path, text, field):
        """``json`` reads ``NaN`` and ``Infinity``, ``null`` sections and
        repeated node ids; each is refused on load, naming the field,
        instead of pricing NaN or inf, failing later, or keeping one of
        two speeds."""
        path = tmp_path / "plan.json"
        path.write_text(text)
        with pytest.raises(InvalidValue, match=field) as exc:
            FaultPlan.from_json(str(path))
        assert "\n" not in str(exc.value)

    def test_empty_plan_is_inactive(self):
        assert not FaultPlan().active()
        assert FaultPlan(checkpoint=Checkpoint(1)).active()


class TestFaultFreeBitIdentity:
    """An inactive plan must leave the engine on the exact clean path."""

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    def test_empty_plan_bit_identical(self, dist_problem, cls):
        clean = _run(cls, dist_problem, faults=None)
        empty = _run(cls, dist_problem, faults=FaultPlan(seed=123))
        assert clean.residuals == empty.residuals
        assert clean.modelled_seconds == empty.modelled_seconds
        assert clean.comm_bytes == empty.comm_bytes
        assert empty.resilience is None
        # both are the one run_cg wrapper with no injector, so every
        # counter and every per-key total agrees, not just the headline
        assert clean.syncs == empty.syncs
        assert clean.comm_seconds == empty.comm_seconds
        assert clean.exposed_comm_seconds == empty.exposed_comm_seconds
        assert clean.timers.as_dict(counts=True) \
            == empty.timers.as_dict(counts=True)
        assert clean.comm_timers.as_dict(counts=True) \
            == empty.comm_timers.as_dict(counts=True)


class TestSeededDeterminism:
    def test_same_seed_same_run(self, dist_problem):
        plan = FaultPlan(
            seed=11,
            stragglers=(Straggler(0, 2.5, 50, 300),),
            message_loss=MessageLoss(rate=0.3, max_retries=3),
        )
        a = _run(RefDistRun, dist_problem, faults=plan)
        b = _run(RefDistRun, dist_problem, faults=plan)
        assert a.residuals == b.residuals
        assert a.modelled_seconds == b.modelled_seconds
        assert a.resilience["events"] == b.resilience["events"]
        assert a.resilience["exchange_retries"] \
            == b.resilience["exchange_retries"]

    def test_different_seed_different_losses(self, dist_problem):
        def retries(seed):
            plan = FaultPlan(seed=seed,
                             message_loss=MessageLoss(rate=0.4))
            return _run(RefDistRun, dist_problem,
                        faults=plan).resilience["exchange_retries"]

        assert retries(1) != retries(2)


class TestKeyedRetryDraws:
    """A lossy exchange's retry count is a pure function of the plan's
    seed and the exchange's ordinal among the run's lossy exchanges."""

    @given(seed=st.integers(0, 2 ** 64 - 1),
           rate=st.sampled_from([0.0, 0.2, 0.5, 0.9]), cap=st.integers(1, 4),
           first=st.integers(0, 10 ** 9),
           sizes=st.lists(st.integers(0, 50), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_a_count_is_a_function_of_the_seed_and_the_ordinal(
            self, seed, rate, cap, first, sizes):
        """Any blocks of ordinals, drawn in any order by any injector of
        the plan, read what one block of them reads, within [0, cap]."""
        plan = FaultPlan(seed=seed, message_loss=MessageLoss(
            rate, max_retries=cap))
        whole = FaultInjector(plan, 4).retry_counts(sum(sizes), first)
        blocks = list(zip(np.cumsum([first] + sizes[:-1]).tolist(), sizes))
        inj = FaultInjector(plan, 4)
        drawn = [inj.retry_counts(size, start)
                 for start, size in reversed(blocks)]
        assert np.array_equal(np.concatenate(drawn[::-1]), whole)
        assert whole.min(initial=0) >= 0 and whole.max(initial=0) <= cap
        assert rate > 0 or not whole.any()

    @pytest.mark.parametrize("rate, cap", [(0.2, 4), (0.7, 2)])
    def test_counts_follow_the_capped_geometric_law(self, rate, cap):
        """Over 10^5 exchanges the mean count and the share that hit the
        cap lie within 4 sigma of the law's: ``rate**k * (1 - rate)``
        below the cap, ``rate**cap`` at it."""
        n = 10 ** 5
        counts = FaultInjector(FaultPlan(seed=17, message_loss=MessageLoss(
            rate, max_retries=cap)), 4).retry_counts(n)
        k = np.arange(cap + 1)
        law = np.append(rate ** k[:-1] * (1 - rate), rate ** cap)
        mean = law @ k
        assert abs(counts.mean() - mean) <= 4 * np.sqrt(
            (law @ k ** 2 - mean ** 2) / n)
        capped = rate ** cap
        assert abs((counts == cap).mean() - capped) <= 4 * np.sqrt(
            capped * (1 - capped) / n)

    @pytest.mark.parametrize("plan", [
        FaultPlan(seed=5, message_loss=MessageLoss(0.3)),
        FaultPlan(seed=7, checkpoint=Checkpoint(2),
                  message_loss=MessageLoss(0.3),
                  crashes=(Crash(2, 20), Crash(3, 300)))],
        ids=["loss", "crash+loss"])
    def test_a_run_reads_the_counts_of_its_exchanges_in_booking_order(
            self, dist_problem, plan):
        """Booked in one stretch (untraced), a stretch a program (traced)
        or cut by a crash and re-executed on the survivors, a run's lossy
        exchanges read ordinals 0, 1, 2, ... in booking order: the losses
        it lists are the nonzero counts, in turn."""
        run = RefDistRun(dist_problem, 4, mg_levels=3, faults=plan)
        with obs.disabled():
            computed_ = run.run_cg(max_iters=10)
            priced = run.run_cg(max_iters=10)
        with obs.run():
            traced = run.run_cg(max_iters=10)
        counts = FaultInjector(plan, 4).retry_counts(10 ** 4)
        lost = counts[counts > 0].tolist()
        for result in (computed_, priced, traced):
            retries = [event["detail"]["retries"]
                       for event in result.resilience["events"]
                       if event["kind"] == "message_loss"]
            assert len(retries) > 10
            assert retries == lost[:len(retries)]
            assert result.resilience["recoveries"] == len(plan.crashes)

    def test_a_warm_faulted_run_books_its_events_in_blocks(
            self, dist_problem, python_calls):
        """An untraced warm lossy run records no event one by one and
        lays its retries out without sorting its terms; an untraced
        checkpointed run records none of its checkpoints one by one."""
        lossy = RefDistRun(dist_problem, 4, mg_levels=3, faults=FaultPlan(
            seed=5, message_loss=MessageLoss(0.3)))
        kept = RefDistRun(dist_problem, 4, mg_levels=3,
                          faults=FaultPlan(checkpoint=Checkpoint(1)))
        record, argsort = (FaultInjector.record.__code__,
                           np.argsort.__wrapped__.__code__)
        with obs.disabled():
            for run in (lossy, kept):
                run.run_cg(max_iters=6)         # keeps the programs
            assert python_calls(lambda: lossy.run_cg(max_iters=6),
                                code=record) == 0
            assert python_calls(lambda: lossy.run_cg(max_iters=6),
                                code=argsort) == 0
            assert python_calls(lambda: kept.run_cg(max_iters=6),
                                code=record) == 0
            assert lossy.run_cg(max_iters=6).resilience[
                "exchange_retries"] > 0
            assert kept.run_cg(max_iters=6).resilience["checkpoints"] == 5


class TestLossBlocks:
    """Booked losses are one block, listed only when
    ``events`` is read: it reads back exactly as the events recorded one
    at a time, among the other records in their order, and with an
    ``on_event`` callback (the engine's, when obs is on) every event is
    recorded and handed over as it lands."""

    @given(rate=st.sampled_from([0.2, 0.5, 0.9]), cap=st.integers(1, 4),
           seed=st.integers(0, 2 ** 16),
           blocks=st.lists(st.integers(1, 40), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_a_block_reads_as_its_events_recorded_in_turn(
            self, rate, cap, seed, blocks):
        plan = FaultPlan(seed=seed, message_loss=MessageLoss(
            rate, max_retries=cap))
        booked, handed, recorded = FaultInjector(plan, 4), [], \
            FaultInjector(plan, 4)
        called = FaultInjector(plan, 4)
        called.on_event = handed.append
        step = 0
        for i, n in enumerate(blocks):
            drawn = booked.retry_counts(n)
            assert np.array_equal(called.retry_counts(n), drawn)
            lost = np.flatnonzero(drawn)
            steps = step + lost + (drawn.cumsum() - drawn)[lost]
            if len(lost):
                for inj in (booked, called):
                    inj.exchange_retries += int(drawn.sum())
                    inj.book(functools.partial(
                        losses, steps, [f"x{i}"] * len(lost), drawn[lost]),
                        {"message_loss": len(lost)})
            for at, retries in zip(steps.tolist(), drawn[lost].tolist()):
                recorded.record("message_loss", at, label=f"x{i}",
                                retries=retries)
            recorded.exchange_retries += int(drawn.sum())
            step += n + int(drawn.sum())
            for inj in (booked, called, recorded):
                inj.record("checkpoint", step, iteration=i)
            step += 1
        want = [e.as_dict() for e in recorded.events]
        for inj in (booked, called):
            assert [e.as_dict() for e in inj.events] == want
            assert inj.injected_counts() == recorded.injected_counts()
            assert inj.exchange_retries == recorded.exchange_retries
        assert handed == called.events

    def test_a_lossy_run_hands_every_event_to_the_trace(self, dist_problem):
        """Untraced, a run books its loss events in blocks; traced, every
        event reaches the trace; both summaries read the same."""
        plan = FaultPlan(seed=5, message_loss=MessageLoss(0.3))
        run = RefDistRun(dist_problem, 4, mg_levels=3, faults=plan)
        with obs.disabled():
            run.run_cg(max_iters=1)                 # keeps the tapes
            booked = run.run_cg(max_iters=10)
        with obs.run() as ctx:
            traced = run.run_cg(max_iters=10)
        events = booked.resilience["events"]
        assert [e["kind"] for e in events].count("message_loss") > 10
        for key in ("events", "injected", "exchange_retries"):
            assert booked.resilience[key] == traced.resilience[key], key
        assert [{k: v for k, v in span.args.items() if k != "instant"}
                for span in ctx.tracer.spans
                if span.name.startswith("fault/")] == events


class TestDegradedButCorrect:
    """Faults slow the modelled clock but never touch the numerics."""

    def test_straggler_prices_but_preserves_residuals(self, dist_problem):
        clean = _run(RefDistRun, dist_problem)
        slow = _run(RefDistRun, dist_problem, faults=FaultPlan(
            stragglers=(Straggler(1, 4.0),)))
        assert slow.residuals == clean.residuals
        assert slow.modelled_seconds > clean.modelled_seconds
        assert slow.resilience["injected"].get("straggler", 0) > 0

    def test_transient_cheaper_than_permanent(self, dist_problem):
        transient = _run(RefDistRun, dist_problem, faults=FaultPlan(
            stragglers=(Straggler(1, 4.0, 0, 100),)))
        permanent = _run(RefDistRun, dist_problem, faults=FaultPlan(
            stragglers=(Straggler(1, 4.0),)))
        assert transient.modelled_seconds < permanent.modelled_seconds
        assert transient.residuals == permanent.residuals

    def test_heterogeneous_speeds(self, dist_problem):
        clean = _run(HybridALPRun, dist_problem)
        hetero = _run(HybridALPRun, dist_problem, faults=FaultPlan(
            node_speeds={1: 0.5}))
        assert hetero.residuals == clean.residuals
        assert hetero.modelled_seconds > clean.modelled_seconds

    def test_message_loss_retries_priced(self, dist_problem):
        clean = _run(RefDistRun, dist_problem)
        lossy = _run(RefDistRun, dist_problem, faults=FaultPlan(
            seed=3, message_loss=MessageLoss(rate=0.5, max_retries=4)))
        assert lossy.residuals == clean.residuals
        assert lossy.resilience["exchange_retries"] > 0
        assert lossy.modelled_seconds > clean.modelled_seconds
        # retries are real supersteps pointing back at the original
        retry_steps = [s for s in lossy.tracker.supersteps
                       if s.retry_of is not None]
        assert len(retry_steps) == lossy.resilience["exchange_retries"]
        assert lossy.syncs > clean.syncs


class TestCrashRecovery:
    """Checkpoint/restart on every backend: the survivor run must land
    on exactly the clean residual history, at an honestly higher cost."""

    PLAN = FaultPlan(seed=7, crashes=(Crash(1, 400),),
                     checkpoint=Checkpoint(interval=2))

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    def test_crash_recovers_exactly(self, dist_problem, cls):
        clean = _run(cls, dist_problem)
        faulted = _run(cls, dist_problem, faults=self.PLAN)
        assert faulted.residuals == clean.residuals
        assert faulted.modelled_seconds > clean.modelled_seconds
        r = faulted.resilience
        assert r["recoveries"] == 1
        assert r["initial_nprocs"] == 4
        assert r["final_nprocs"] < 4
        assert r["checkpoints"] >= 1
        assert r["checkpoint_seconds"] > 0
        assert r["reexecuted_iterations"] >= 0
        kinds = {e["kind"] for e in r["events"]}
        assert {"crash", "checkpoint", "recovery"} <= kinds
        assert faulted.nprocs == r["final_nprocs"]
        assert "[faults:" in faulted.summary()

    @staticmethod
    def _snapshot(result):
        """What a run priced and counted (residuals compared apart)."""
        return (result.nprocs, result.syncs, result.comm_bytes,
                result.tracker.total_h, result.modelled_seconds,
                result.comm_seconds, result.exposed_comm_seconds,
                result.timers.as_dict(counts=True), result.resilience)

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    def test_backend_object_is_reusable_after_a_recovery(self, dist_problem,
                                                         cls):
        """Recovery builds the survivors' communication record on a copy:
        the crashed run's own node count, partitions and plans are as
        constructed, so the same object runs again — faulted or clean —
        exactly like a fresh one."""
        run = cls(dist_problem, 4, mg_levels=3, faults=self.PLAN)
        first = computed(run, max_iters=5)
        again = computed(run, max_iters=5)
        assert first.resilience["recoveries"] == 1
        assert again.residuals == first.residuals
        assert self._snapshot(again) == self._snapshot(first)
        assert run.nprocs == 4
        # ... and, with the plan taken off, like a fresh clean object
        run.faults = None
        clean = _run(cls, dist_problem)
        after = computed(run, max_iters=5)
        assert after.residuals == clean.residuals
        assert self._snapshot(after) == self._snapshot(clean)

    @pytest.mark.parametrize("cls", ALL_BACKENDS)
    def test_survivors_share_the_level_numerics(self, dist_problem, cls):
        """Operator, colouring, smoother blocks and injection indices do
        not depend on the node count: a survivor run borrows its
        parent's (same objects) and partitions anew."""
        run = cls(dist_problem, 4, mg_levels=3, faults=self.PLAN)
        survivor = run._respawn(3)
        assert survivor.nprocs < 4 and run.nprocs == 4
        for mine, theirs in zip(run.levels, survivor.levels):
            assert theirs is not mine
            for name in ("A", "colors", "smoother", "color_rows",
                         "injection", "grid"):
                assert getattr(theirs, name) is getattr(mine, name), name
            assert theirs.partition is not mine.partition
        # borrowed, never written: a recovery leaves every operator as is
        before = [level.A.data.copy() for level in run.levels]
        assert run.run_cg(max_iters=5).resilience["recoveries"] == 1
        for level, data in zip(run.levels, before):
            np.testing.assert_array_equal(level.A.data, data)

    def test_indivisible_survivor_count_falls_back_without_building(
            self, monkeypatch):
        """3 survivors do not factor into the grid: the geometric attempt
        must be turned down by the divisibility check alone — no level is
        constructed, no halo derived for it — before BFS partitions, once
        per problem: a second recovery takes the survivors' record."""
        import repro.dist.refdist as refdist
        import repro.dist.simulate as simulate

        # a fresh problem: no earlier run has built a survivors' record
        run = RefDistRun(generate_problem(8, 16, 16), 4, mg_levels=3)
        built = []
        monkeypatch.setattr(
            simulate.SimLevel, "__init__",
            lambda self, *a, **k: built.append("level"))
        halo_for_owners = refdist.halo_for_owners
        monkeypatch.setattr(
            refdist, "halo_for_owners",
            lambda *a, **k: built.append("halo") or halo_for_owners(*a, **k))
        survivor = run._respawn(3)
        assert survivor._partition_kind == "bfs"
        assert built == ["halo"] * 3          # one per level, all for BFS
        assert all(level.partition is None for level in survivor.levels)
        assert run._respawn(3).levels is survivor.levels
        assert built == ["halo"] * 3
        # ... while a count that still factors keeps the boxes
        assert run._respawn(2)._partition_kind == "grid3d"

    def test_crash_without_checkpoint_restarts(self, dist_problem):
        clean = _run(RefDistRun, dist_problem)
        faulted = _run(RefDistRun, dist_problem, faults=FaultPlan(
            seed=7, crashes=(Crash(1, 400),)))
        assert faulted.residuals == clean.residuals
        r = faulted.resilience
        assert r["recoveries"] == 1
        assert r["checkpoints"] == 0
        # no snapshot to roll back to: every finished iteration re-runs
        assert r["reexecuted_iterations"] > 0
        assert faulted.modelled_seconds > clean.modelled_seconds

    def test_checkpoint_only_plan_adds_overhead(self, dist_problem):
        # a loop, not a parametrisation, so the test keeps its id
        for cls in ALL_BACKENDS:
            clean = _run(cls, dist_problem)
            ckpt = _run(cls, dist_problem, faults=FaultPlan(
                checkpoint=Checkpoint(interval=1)))
            assert ckpt.residuals == clean.residuals
            assert ckpt.modelled_seconds > clean.modelled_seconds
            assert ckpt.resilience["checkpoints"] == 4
            assert ckpt.resilience["recoveries"] == 0
            # the faulted run is the clean loop plus its checkpoint
            # supersteps and nothing else
            assert ckpt.modelled_seconds == pytest.approx(
                clean.modelled_seconds
                + ckpt.resilience["checkpoint_seconds"], rel=1e-12), cls

    def test_injector_crash_bookkeeping(self):
        plan = FaultPlan(crashes=(Crash(2, 5),))
        inj = FaultInjector(plan, 4)
        for step in range(5):
            inj.check_crash(step)
        with pytest.raises(NodeCrash) as exc:
            inj.check_crash(5)
        assert exc.value.node == 2
        assert inj.alive_count == 3
        assert 2 not in inj.alive
