"""Deterministic fault injection for the summary store.

The store claims that damage costs warm-start entries, never correctness:
a torn write or a corrupt frame drops the affected lines, counted, and the
analysis falls back to native exploration.  That claim is only worth
anything if it is *exercised*, which is what this module is for: a seeded
injection registry whose fault sites are wired into the production code
paths (``parallel/store.py``, ``parallel/serialize.py``) and driven by the
chaos tests under ``tests/chaos/``.

Design constraints, in order:

1. **Determinism.**  Every fault decision is a pure function of
   ``(seed, site, ident)`` hashed through blake2b -- no RNG state, no wall
   clock.  Re-running a chaos test with the same seed replays the
   identical fault schedule.
2. **Zero cost when off.**  Production call sites guard on a single
   module-global; with no plan installed a fault hook is one ``None``
   comparison.
3. **Output preservation.**  Both sites only damage stored data, and a
   dropped cache entry or store line degrades to native exploration,
   never to a wrong answer.

Fault sites:

``torn-store-write``
    :meth:`PersistentSummaryStore.dump` truncates the written file at a
    roll-derived byte offset (simulating a torn OS-level write).
``corrupt-frame``
    :func:`encode_cache_entries` mangles one encoded entry (the decoder
    must skip it, counted, never adopt it).

Spec strings (``REPRO_FAULTS`` or explicit) look like
``seed:6,torn:0.3,corrupt:0.3`` -- short aliases map to the site names
above.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from typing import Dict, Optional

#: Canonical fault-site names.
FAULT_SITES = ("torn-store-write", "corrupt-frame")

#: Short spec keys accepted in ``REPRO_FAULTS`` strings.
SPEC_ALIASES = {
    "torn": "torn-store-write",
    "corrupt": "corrupt-frame",
}


class FaultPlan:
    """One deterministic fault schedule.

    Args:
        seed: folded into every roll; same seed -> same schedule.
        rates: canonical site name -> firing probability in ``[0, 1]``.
    """

    def __init__(self, seed: int = 0, rates: Optional[Dict[str, float]] = None):
        self.seed = int(seed)
        self.rates: Dict[str, float] = {}
        for site, rate in (rates or {}).items():
            canonical = SPEC_ALIASES.get(site, site)
            if canonical not in FAULT_SITES:
                raise ValueError(f"Unknown fault site {site!r}")
            self.rates[canonical] = float(rate)
        self._suspend = 0

    # -- deterministic rolls ---------------------------------------------------

    def roll(self, site: str, ident: str) -> float:
        """A uniform value in ``[0, 1)``, pure in (seed, site, ident)."""
        # The empty middle field keeps every recorded seed's schedule.
        material = f"{self.seed}||{site}|{ident}".encode("utf-8")
        digest = hashlib.blake2b(material, digest_size=8).digest()
        return int.from_bytes(digest, "big") / float(1 << 64)

    def fires(self, site: str, ident: str) -> bool:
        """Whether ``site`` fires for ``ident`` under this plan (never while
        suspended)."""
        if self._suspend:
            return False
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        return self.roll(site, ident) < rate


def parse_spec(spec: str) -> FaultPlan:
    """Parse a ``seed:6,torn:0.3,corrupt:0.3`` style schedule string."""
    seed = 0
    rates: Dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError(f"Malformed fault spec item {part!r} (expected key:value)")
        key, _, value = part.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "seed":
            seed = int(value)
        else:
            canonical = SPEC_ALIASES.get(key, key)
            if canonical not in FAULT_SITES:
                raise ValueError(f"Unknown fault site {key!r} in spec {spec!r}")
            rates[canonical] = float(value)
    return FaultPlan(seed=seed, rates=rates)


def plan_from_env(default: Optional[str] = None) -> Optional[FaultPlan]:
    """Build a plan from ``REPRO_FAULTS`` (or ``default``); None when unset."""
    spec = os.environ.get("REPRO_FAULTS", default)
    if not spec:
        return None
    return parse_spec(spec)


# -- the installed plan (module-global; fast-path guarded) ---------------------

_ACTIVE: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` as the process's active fault schedule (None clears)."""
    global _ACTIVE
    _ACTIVE = plan


def clear() -> None:
    install(None)


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def fires(site: str, ident: str) -> bool:
    """Production-side hook: does ``site`` fire for ``ident`` right now?"""
    plan = _ACTIVE
    if plan is None:
        return False
    return plan.fires(site, ident)


@contextmanager
def injected(plan: FaultPlan):
    """Install ``plan`` for the duration of the block (restores the previous)."""
    previous = _ACTIVE
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


@contextmanager
def suspended():
    """Temporarily silence the active plan (used for clean oracle runs).

    Chaos differential tests compute their serial oracle *inside* an
    installed plan; this guarantees the oracle run sees zero injected
    faults without uninstalling the schedule the faulted leg needs.
    """
    plan = _ACTIVE
    if plan is not None:
        plan._suspend += 1
    try:
        yield
    finally:
        if plan is not None:
            plan._suspend -= 1
