"""The autotuning subsystem: profiles, cache, consumers.

The contracts this file enforces:

* **round-trip** — save → load → re-save is byte-identical, and a
  schema-version mismatch is rejected cleanly;
* **consumers** — ``BSPMachine.from_profile`` prices a trace exactly
  like the equivalent hand-built machine, and profile-priced simulated
  runs keep bit-identical numerics (the pricing source must never
  touch the mathematics).
"""

import json
import os

import numpy as np
import pytest

from repro.dist import (
    BSPMachine,
    CommTracker,
    Hybrid2DRun,
    HybridALPRun,
    RefDistRun,
    bsp_time,
)
from repro.perf import ALP_PROFILE, MachineSpec, Placement, ScalingModel
from repro.tune import (
    MachineProfile,
    ProfileVersionError,
    cache,
    synthetic_profile,
)
from repro.tune.profile import SCHEMA_VERSION
from repro.util.errors import InvalidValue


@pytest.fixture()
def tmp_cache(tmp_path, monkeypatch):
    """An isolated, empty REPRO_TUNE_CACHE for each test."""
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    cache.invalidate()
    yield tmp_path
    cache.invalidate()


# ---------------------------------------------------------------------------
# profile round-trip and schema versioning
# ---------------------------------------------------------------------------

class TestProfileRoundTrip:
    def test_save_load_resave_byte_identical(self, tmp_path):
        prof = synthetic_profile()
        path = str(tmp_path / "p.json")
        prof.save(path)
        first = open(path, "rb").read()
        reloaded = MachineProfile.load(path)
        assert reloaded == prof
        reloaded.save(path)
        assert open(path, "rb").read() == first

    def test_schema_version_mismatch_raises(self):
        data = synthetic_profile().to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ProfileVersionError, match="schema version"):
            MachineProfile.from_dict(data)

    def test_missing_key_raises(self):
        data = synthetic_profile().to_dict()
        del data["triad_bandwidth"]
        with pytest.raises(InvalidValue, match="missing"):
            MachineProfile.from_dict(data)

    def test_unknown_key_raises(self):
        data = synthetic_profile().to_dict()
        data["frobnication_rate"] = 1.0
        with pytest.raises(InvalidValue, match="unknown"):
            MachineProfile.from_dict(data)

    def test_not_json_raises(self):
        with pytest.raises(InvalidValue, match="JSON"):
            MachineProfile.loads("not json {")

    def test_field_validation(self):
        with pytest.raises(InvalidValue):
            synthetic_profile(triad_bandwidth=-1.0)
        with pytest.raises(InvalidValue):
            synthetic_profile(overlap_efficiency=1.5)
        with pytest.raises(InvalidValue):
            synthetic_profile(net_bandwidth=0.0)

    def test_summary_mentions_rates(self):
        text = synthetic_profile().summary()
        assert "triad bandwidth" in text
        assert "BSP g" in text
        # synthetic profiles are stamped at the epoch
        assert "measured 1970-01-01 00:00 UTC" in text


# ---------------------------------------------------------------------------
# cache behaviour
# ---------------------------------------------------------------------------

class TestCache:
    def test_save_and_current(self, tmp_cache):
        assert cache.current_profile() is None
        prof = synthetic_profile()
        path = cache.save_profile(prof)
        assert path == str(tmp_cache / cache.PROFILE_FILENAME)
        assert cache.current_profile() == prof
        # memoised: same object on the second read
        assert cache.current_profile() is cache.current_profile()

    def test_clear(self, tmp_cache):
        cache.save_profile(synthetic_profile())
        assert cache.clear() is True
        assert cache.current_profile() is None
        assert cache.clear() is False

    def test_load_profile_raises_when_missing(self, tmp_cache):
        with pytest.raises(InvalidValue, match="no machine profile"):
            cache.load_profile()

    def test_corrupt_file_soft_none_strict_raise(self, tmp_cache):
        path = cache.profile_path()
        with open(path, "w") as fh:
            fh.write("{ not json")
        assert cache.current_profile() is None
        with pytest.raises(InvalidValue):
            cache.load_profile()

    def test_version_mismatch_soft_none(self, tmp_cache):
        current = synthetic_profile().to_dict()
        # files left behind by earlier releases: schema v2 still carried
        # the per-substrate rate tables; v3 is rejected on its version
        v2 = {**current, "schema_version": 2,
              "spmv_rates": {"csr": {"uniform": 4e9}},
              "rbgs_rates": {"csr": 3e9}}
        for data in ({**current, "schema_version": SCHEMA_VERSION + 7},
                     v2, {**current, "schema_version": 3}):
            with open(cache.profile_path(), "w") as fh:
                json.dump(data, fh)
            assert cache.current_profile() is None
            with pytest.raises(ProfileVersionError):
                cache.load_profile()

    def test_default_location_under_home(self, monkeypatch):
        monkeypatch.delenv(cache.ENV_VAR, raising=False)
        assert cache.cache_dir().startswith(os.path.expanduser("~"))


# ---------------------------------------------------------------------------
# profile-driven machine constructors
# ---------------------------------------------------------------------------

class TestFromProfile:
    def test_bsp_machine_fields(self):
        prof = synthetic_profile()
        m = BSPMachine.from_profile(prof)
        assert m.name == "profile:synthetic"
        assert m.mem_bandwidth == prof.triad_bandwidth
        assert m.net_bandwidth == prof.net_bandwidth
        assert m.latency == prof.latency
        assert m.overlap_efficiency == prof.overlap_efficiency
        custom = BSPMachine.from_profile(prof, name="n", overlap_efficiency=0.5)
        assert custom.name == "n" and custom.overlap_efficiency == 0.5

    def test_bsp_time_matches_hand_built_machine(self):
        prof = synthetic_profile()
        from_prof = BSPMachine.from_profile(prof)
        by_hand = BSPMachine(
            name="hand",
            mem_bandwidth=prof.triad_bandwidth,
            net_bandwidth=prof.net_bandwidth,
            latency=prof.latency,
            overlap_efficiency=prof.overlap_efficiency,
        )
        tracker = CommTracker(4)
        rng = np.random.default_rng(3)
        for step in range(6):
            for dst in range(1, 4):
                tracker.send(0, dst, int(rng.integers(64, 4096)),
                             label="probe")
            if step % 2:
                handle = tracker.post()
                handle.overlap(float(rng.integers(1024, 1 << 20)))
                tracker.wait(handle)
            else:
                tracker.sync()
        work = [float(rng.integers(1 << 10, 1 << 22)) for _ in range(6)]
        for use_overlap in (True, False):
            assert (bsp_time(from_prof, tracker.supersteps, work,
                             use_overlap)
                    == bsp_time(by_hand, tracker.supersteps, work,
                                use_overlap))

    def test_refdist_run_numerics_unchanged(self, problem8):
        """Profile pricing changes modelled time only — residuals stay
        bit-identical to the Table-II preset run."""
        prof = synthetic_profile()
        preset = RefDistRun(problem8, nprocs=2, mg_levels=2,
                            comm_mode="eager").run_cg(max_iters=3)
        priced = RefDistRun(problem8, nprocs=2, mg_levels=2,
                            machine=BSPMachine.from_profile(prof),
                            comm_mode="eager").run_cg(max_iters=3)
        np.testing.assert_array_equal(preset.residuals, priced.residuals)
        assert priced.machine == "profile:synthetic"
        assert "priced by profile:synthetic" in priced.summary()
        assert priced.modelled_seconds != preset.modelled_seconds

    def test_machine_spec_scaling_model(self):
        prof = synthetic_profile()
        spec = MachineSpec.from_profile(prof)
        assert spec.attained_bandwidth == prof.triad_bandwidth
        assert spec.physical_cores == max(prof.cores, 1)
        model = ScalingModel(spec, ALP_PROFILE)
        t = model.time_for_bytes(1e9, Placement(1, 1))
        assert t > 0


# ---------------------------------------------------------------------------
# the micro-benchmark suite (smoke budget) and the CLI
# ---------------------------------------------------------------------------

class TestMicrobench:
    @pytest.fixture(scope="class")
    def measured(self):
        from repro.tune import microbench
        return microbench.measure(microbench.SMOKE)

    def test_profile_valid_and_reloadable(self, measured, tmp_path):
        assert measured.fast is True
        assert measured.triad_bandwidth > 1e8
        assert measured.net_bandwidth > 0
        assert measured.latency >= 0
        assert 0.0 <= measured.overlap_efficiency <= 1.0
        path = str(tmp_path / "measured.json")
        measured.save(path)
        assert MachineProfile.load(path) == measured

    def test_measured_profile_prices_a_run(self, measured, problem8):
        machine = BSPMachine.from_profile(measured)
        res = RefDistRun(problem8, nprocs=2, mg_levels=2,
                         machine=machine).run_cg(max_iters=2)
        assert res.modelled_seconds > 0
        assert res.machine == f"profile:{measured.name}"


class TestCli:
    def test_measure_show_clear(self, tmp_cache, capsys):
        from repro.tune.__main__ import main

        assert main(["measure", "--smoke", "--name", "ci-smoke"]) == 0
        out = capsys.readouterr().out
        assert "ci-smoke" in out and "saved to" in out
        assert cache.current_profile() is not None
        assert main(["show"]) == 0
        assert "ci-smoke" in capsys.readouterr().out
        assert main(["clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert cache.current_profile() is None
        assert main(["show"]) == 1
        assert "error" in capsys.readouterr().err

    def test_measure_out_path(self, tmp_cache, tmp_path, capsys):
        from repro.tune.__main__ import main

        out_path = str(tmp_path / "elsewhere.json")
        assert main(["measure", "--smoke", "--out", out_path]) == 0
        capsys.readouterr()
        assert MachineProfile.load(out_path).schema_version == SCHEMA_VERSION

    def test_scale_without_profile_errors(self, tmp_cache, capsys):
        from repro.tune.__main__ import main

        assert main(["scale"]) == 1
        assert "error" in capsys.readouterr().err

    def test_scale_smoke(self, tmp_cache, capsys):
        from repro.tune.__main__ import main

        cache.save_profile(synthetic_profile())
        rc = main(["scale", "--local-nx", "8", "--iters", "1",
                   "--mg-levels", "2", "--nodes", "2,3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Ref profile/preset" in out
        assert "shape claims (preset):" in out
        assert "shape claims (profile):" in out

    def test_scale_bad_nodes(self, tmp_cache, capsys):
        from repro.tune.__main__ import main

        cache.save_profile(synthetic_profile())
        assert main(["scale", "--nodes", "two,three"]) == 1
        assert "comma-separated" in capsys.readouterr().err


class TestScaleComparison:
    def test_pricing_differs_numerics_do_not(self, tmp_cache):
        """The two sweeps run identical problems; only the machine
        pricing moves the seconds."""
        from repro.tune import scale

        prof = synthetic_profile()
        comp = scale.run_scale(prof, local_nx=8, iterations=1,
                               mg_levels=2, nodes=(2, 3))
        assert comp.preset.ns == comp.measured.ns
        assert comp.measured_machine.mem_bandwidth == prof.triad_bandwidth
        # the synthetic profile is a far slower machine than Table II
        for pre, mea in zip(comp.preset.ref_seconds,
                            comp.measured.ref_seconds):
            assert mea > pre

    def test_unknown_preset_rejected(self):
        from repro.tune import scale

        with pytest.raises(InvalidValue):
            scale.run_scale(synthetic_profile(), preset="riscv")


class TestDistProfilePull:
    """Nothing is pulled: a cached profile prices a run only when it is
    passed as ``machine=`` / ``overlap_efficiency=``."""

    def test_cached_profile_changes_nothing(self, tmp_cache, problem8,
                                            monkeypatch):
        """The thread lane and every unpinned backend's modelled seconds
        are the same with an extreme profile in the cache as with an
        empty cache."""
        from repro.graphblas.substrate import threads

        monkeypatch.delenv(threads.ENV_VAR, raising=False)

        def observe():
            seen = {"threads": threads.resolve()}
            for cls in (RefDistRun, HybridALPRun, Hybrid2DRun):
                for mode in ("eager", "overlap"):
                    run = cls(problem8, nprocs=4, mg_levels=2,
                              comm_mode=mode)
                    res = run.run_cg(max_iters=2)
                    seen[cls.backend, mode] = (
                        res.modelled_seconds, res.comm_seconds,
                        res.exposed_comm_seconds, run.overlap_efficiency)
            return seen

        empty = observe()
        cache.save_profile(synthetic_profile(
            triad_bandwidth=1e6, net_bandwidth=1e3, latency=1.0,
            overlap_efficiency=0.0))
        assert cache.current_profile() is not None
        assert observe() == empty
        assert empty["threads"] == 1

    def test_no_profile_keeps_preset(self, tmp_cache, problem8):
        run = RefDistRun(problem8, nprocs=2, mg_levels=2)
        assert run.machine.overlap_efficiency == 1.0

    def test_explicit_machine_wins(self, tmp_cache, problem8):
        from repro.dist.bsp import ARM_CLUSTER_NODE

        cache.save_profile(synthetic_profile(overlap_efficiency=0.37))
        run = RefDistRun(problem8, nprocs=2, mg_levels=2,
                         machine=ARM_CLUSTER_NODE)
        assert run.machine.overlap_efficiency == 1.0

    def test_explicit_efficiency_wins(self, tmp_cache, problem8):
        cache.save_profile(synthetic_profile(overlap_efficiency=0.37))
        run = RefDistRun(problem8, nprocs=2, mg_levels=2,
                         overlap_efficiency=0.5)
        assert run.machine.overlap_efficiency == 0.5
