"""Deterministic crash injection for the persistence write paths.

Durability code that is only exercised by real power loss is untestable,
so every write path in :mod:`repro.storage` is threaded with *named crash
points* — `reach()` calls at the instants where a process death would
leave interestingly-partial on-disk state (temp file written but not
renamed, journal record written but not fsynced, segments published but
the manifest not yet, …).  A :class:`CrashInjector` armed with a
:class:`CrashSpec` kills the operation at a chosen visit of a chosen
point by raising :class:`SimulatedCrash`; the recovery test matrix then
re-opens the store directory exactly as a restarted process would and
asserts retrieval is bit-identical to the no-crash oracle.

Crash model, stated honestly: raising at a crash point models a process
that dies *after* every preceding write reached the OS (the state an
fsync-ordered protocol must already survive).  Lost or torn buffered
writes — the power-loss case — are modelled separately by the torn-write
tests, which truncate a journal tail or bit-flip segment bytes and assert
the checksummed framing detects and contains the damage.

Determinism contract (mirrors :class:`repro.service.faults.FaultPlan`):
the same ``(spec, seed)`` kills the same visit of the same point, run
after run.  A default-constructed spec (:meth:`CrashSpec.none`) injects
nothing and is bit-transparent.
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

__all__ = [
    "SimulatedCrash",
    "CrashSpec",
    "CrashInjector",
    "NO_CRASH",
    "crash_point",
    "all_crash_points",
    "derive_seed",
]


class SimulatedCrash(BaseException):
    """An injected process death.

    Deliberately a :class:`BaseException` (like ``KeyboardInterrupt``) so
    no ``except Exception`` recovery path in the code under test can
    swallow it — a real ``kill -9`` cannot be caught either.
    """

    def __init__(self, point: str, visit: int):
        super().__init__(f"simulated crash at {point!r} (visit #{visit})")
        self.point = point
        self.visit = visit


# ----------------------------------------------------------------------
# The crash-point registry
# ----------------------------------------------------------------------
# Write-path modules register their points at import time; the recovery
# test matrix parametrizes over ``all_crash_points()`` so adding a new
# point to a write path automatically adds it to the battery.
_REGISTRY: Dict[str, str] = {}
_REGISTRY_LOCK = threading.Lock()


def crash_point(name: str, doc: str) -> str:
    """Register (idempotently) a named crash point; returns ``name``."""
    with _REGISTRY_LOCK:
        _REGISTRY.setdefault(name, doc)
    return name


def all_crash_points() -> Tuple[str, ...]:
    """Every registered crash point, sorted (the test matrix's axis)."""
    with _REGISTRY_LOCK:
        return tuple(sorted(_REGISTRY))


def describe_crash_point(name: str) -> str:
    with _REGISTRY_LOCK:
        return _REGISTRY[name]


def derive_seed(*parts) -> int:
    """A stable 63-bit seed from arbitrary labels (no salted ``hash()``).

    The one seed derivation: fault schedules, crash draws and scenario
    substreams all key their RNGs through it.
    """
    key = ":".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class CrashSpec:
    """Which crash points fire, and at which visit.

    * ``at`` — exact schedule: ``{point name: 1-based visit index}``; the
      injector raises on exactly that visit of that point.
    * ``rate`` — each visit of every point independently crashes with
      this probability, drawn from a seeded per-point RNG (fuzzing mode;
      the exact schedule is still reproducible from ``seed``).
    """

    at: Mapping[str, int] = field(default_factory=dict)
    rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"crash rate must be in [0, 1], got {self.rate}")
        for point, visit in self.at.items():
            if visit < 1:
                raise ValueError(f"visit index must be >= 1, got {visit} for {point!r}")

    @classmethod
    def none(cls) -> "CrashSpec":
        """The no-crash spec: injects nothing, bit-transparent."""
        return cls()

    @classmethod
    def nth(cls, point: str, visit: int = 1) -> "CrashSpec":
        """Crash at the ``visit``-th time ``point`` is reached."""
        return cls(at={point: visit})

    @property
    def is_noop(self) -> bool:
        return not self.at and self.rate == 0.0


class CrashInjector:
    """One store's crash schedule: counts visits, raises on the fatal one.

    Thread-safe; visit counters are per point name.  After the injector
    has crashed once it goes inert (a dead process stops reaching crash
    points), so recovery code re-using the same injector cannot be killed
    by a stale schedule — tests arm a fresh injector per planned crash.
    """

    def __init__(self, spec: CrashSpec = None):
        self.spec = spec if spec is not None else CrashSpec.none()
        self._lock = threading.Lock()
        self._visits: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}
        self.crashed: str = ""  # the point that fired, if any

    def reach(self, point: str) -> None:
        """Account one visit of ``point``; raise if the schedule says die."""
        if self.spec.is_noop:
            return
        with self._lock:
            if self.crashed:
                return
            visit = self._visits.get(point, 0) + 1
            self._visits[point] = visit
            fatal = self.spec.at.get(point) == visit
            if not fatal and self.spec.rate > 0.0:
                rng = self._rngs.get(point)
                if rng is None:
                    rng = random.Random(derive_seed(self.spec.seed, point))
                    self._rngs[point] = rng
                fatal = rng.random() < self.spec.rate
            if fatal:
                self.crashed = point
        if fatal:
            raise SimulatedCrash(point, visit)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._visits)


#: The shared inert injector — write paths default to it, costing one
#: attribute load and a falsy check per crash point.
NO_CRASH = CrashInjector(CrashSpec.none())
