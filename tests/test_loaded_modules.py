"""What a solve loads: the default paths map no linear-algebra or HTTP
stack.

``scipy.sparse.linalg`` brings ``scipy.linalg`` and LAPACK (~10 MB RSS)
and ``repro.obs.live`` brings ``http.server`` (~2 MB).  Only the exact
SYMGS smoother needs the first and only the telemetry endpoint the
second, so each loads at its first use.  Checked in a fresh interpreter:
the test process has long since loaded all of them.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

UNUSED = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph",
          "http.server")

SCRIPT = textwrap.dedent(f"""
    import sys

    import repro, repro.hpcg, repro.dist, repro.obs
    from repro.dist import RefDistRun
    from repro.hpcg.driver import run_hpcg
    from repro.hpcg.problem import generate_problem

    run_hpcg(nx=8, max_iters=2)
    RefDistRun(generate_problem(8), 2, mg_levels=3).run_cg(2)
    loaded = [name for name in {UNUSED!r} if name in sys.modules]
    assert loaded == [], loaded

    # the lazy names still resolve, as attributes and as imports
    import repro.obs as obs
    from repro.obs.live import LiveServer
    assert obs.LiveServer is LiveServer
    from repro.obs import live
    assert live.context_source is obs.context_source
    assert "http.server" in sys.modules

    # SYMGS imports its solver on use, and sweeps as it always did:
    # triangular solves on the (D + L) and (D + U) splits
    import numpy as np
    import scipy.sparse as sp
    from repro.ref.sgs import RefSymGS
    A = generate_problem(4).A.to_scipy()
    smoother = RefSymGS(A)
    assert "scipy.sparse.linalg" in sys.modules
    from scipy.sparse.linalg import spsolve_triangular
    rng = np.random.default_rng(7)
    r, z0 = rng.standard_normal(A.shape[0]), rng.standard_normal(A.shape[0])
    want = spsolve_triangular(sp.tril(A, format="csr"),
                              r - sp.triu(A, k=1, format="csr") @ z0,
                              lower=True)
    z = smoother.forward(z0.copy(), r)
    assert z.tobytes() == want.tobytes()
    want = spsolve_triangular(sp.triu(A, format="csr"),
                              r - sp.tril(A, k=-1, format="csr") @ z,
                              lower=False)
    assert smoother.backward(z.copy(), r).tobytes() == want.tobytes()
    print("ok")
""")


def test_a_solve_loads_no_linear_algebra_or_http_stack():
    env = {**os.environ, "PYTHONPATH":
           str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
