"""Provider registry, forcing, and the one substrate-selection rule.

Selection order — this module is the only place that knows it:

1. an explicit request (``Matrix(..., substrate="sellcs")``,
   ``Matrix.set_substrate``, ``generate_problem(substrate=)``) always
   wins — algorithm studies need to pin a format;
2. the ``REPRO_SUBSTRATE`` environment variable forces every
   *unpinned* matrix onto one provider — the CI lever proving the
   algorithm layer is substrate-independent (empty or ``auto`` means
   unset);
3. otherwise CSR.  The performance ledger (``benchmarks/ledger``)
   measures every provider on every workload and has none where a
   padded format beats CSR, so nothing inspects the matrix to pick one.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple, Type

import scipy.sparse as sp

from repro.graphblas.substrate.base import KernelProvider
from repro.graphblas.substrate.blocked import BlockedDenseProvider
from repro.graphblas.substrate.csr import CsrProvider
from repro.graphblas.substrate.sellcs import SellCSigmaProvider
from repro.util.errors import InvalidValue

ENV_VAR = "REPRO_SUBSTRATE"

_REGISTRY: Dict[str, Type[KernelProvider]] = {}


def register(cls: Type[KernelProvider],
             replace: bool = False) -> Type[KernelProvider]:
    """Add a provider class under ``cls.name`` (usable as a decorator).

    Name collisions raise — silently shadowing a built-in (especially
    ``csr``, the bit-exactness reference) would reroute every fallback
    path through foreign code.  Pass ``replace=True`` to do it on
    purpose.
    """
    if not cls.name or cls.name == "abstract":
        raise InvalidValue("provider classes must define a unique name")
    if cls.name.lower() == "auto":
        raise InvalidValue(
            f"{cls.name!r} is reserved: {ENV_VAR}=auto means unset"
        )
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls and not replace:
        raise InvalidValue(
            f"substrate {cls.name!r} is already registered "
            f"({existing.__name__}); pass replace=True to override"
        )
    _REGISTRY[cls.name] = cls
    return cls


def available() -> Tuple[str, ...]:
    """Registered provider names, registration order."""
    return tuple(_REGISTRY)


def get(name: str) -> Type[KernelProvider]:
    """The provider class registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidValue(
            f"unknown substrate {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None


def forced() -> Optional[str]:
    """The ``REPRO_SUBSTRATE`` override, validated; None when unset/auto."""
    name = os.environ.get(ENV_VAR, "").strip()
    if name.lower() in ("", "auto"):
        return None
    get(name)  # raise on typos rather than silently ignoring the force
    return name


def resolve(csr: sp.csr_matrix, request: Optional[str] = None) -> str:
    """Apply the selection order: explicit pin > environment force > CSR.

    When observability is enabled every call records its decision —
    which provider was chosen and which rung fired (``pin``, ``env`` or
    ``default``) — on the run manifest (see
    :func:`repro.obs.record_selection`).  Free when observability is
    off: one lazy import + one stack read.
    """
    if request is not None:
        get(request)
        chosen, reason = request, "pin"
    else:
        chosen, reason = forced(), "env"
        if chosen is None:
            chosen, reason = CsrProvider.name, "default"
    from repro import obs

    if obs.enabled():
        obs.record_selection(
            nrows=int(csr.shape[0]), ncols=int(csr.shape[1]),
            nnz=int(csr.nnz), request=request, chosen=chosen, reason=reason,
        )
    return chosen


def make(csr: sp.csr_matrix, request: Optional[str] = None) -> KernelProvider:
    """Build the provider :func:`resolve` selects for ``csr``."""
    return get(resolve(csr, request))(csr)


register(CsrProvider)
register(SellCSigmaProvider)
register(BlockedDenseProvider)
