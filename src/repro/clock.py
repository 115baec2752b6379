"""The wall-clock seam: every ambient time read flows through here.

Determinism contract (enforced by ``repro.analysis`` / the ``wall-clock``
lint rule): production code in the checked packages (``core``, ``engine``,
``oracle``, ``serve``) never reads the wall clock directly —
no ``time.time()``, ``time.monotonic()``, ``time.perf_counter()`` or
``time.sleep()`` call sites.  Instead, components take an injectable
``clock`` (and, where they block, a ``sleep``) whose *default* is the
:func:`monotonic` / :func:`sleep` pair defined here.  This module is the
single allowlisted wall-clock call site in the tree, which buys two
things:

* **auditable determinism** — a reviewer (or the linter) can prove that
  estimates and oracle accounting never depend on time by inspecting one
  module, because everything else either receives a clock explicitly or
  defaults to this seam;
* **freezable time** — tests and the chaos harness swap in a
  :class:`ManualClock`, so deadline expiry, SLO timestamps and journal
  ordering can be driven deterministically (frozen, stepped, or raced)
  without a single real sleep.

``Clock`` is just ``Callable[[], float]``: seconds from an arbitrary
origin, comparable only against the same clock (the serving layer uses
monotonic semantics — never wall-time-of-day — so NTP steps cannot move
deadlines).
"""

from __future__ import annotations

import time as _time
from typing import Callable

__all__ = ["Clock", "SleepFn", "monotonic", "sleep", "ManualClock"]

#: The clock interface: a zero-argument callable returning seconds.
Clock = Callable[[], float]

#: The sleep interface: blocks the calling thread for ``seconds``.
SleepFn = Callable[[float], None]


def monotonic() -> float:
    """Seconds on the process monotonic clock (the production default)."""
    return _time.monotonic()


def sleep(seconds: float) -> None:
    """Block the calling thread (the production default sleep)."""
    _time.sleep(seconds)


class ManualClock:
    """A virtual clock for tests: time moves only when told to.

    Usable as both a ``clock`` (call it) and a ``sleep`` seam (pass
    :meth:`sleep`, which *advances* the clock instead of blocking), so a
    retry loop under test completes instantly while observing exactly the
    backoff schedule it would in production.  ``advance`` with no argument
    freezes time entirely — a frozen clock never expires a deadline.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float = 0.0) -> float:
        if seconds < 0:
            raise ValueError(f"cannot advance a clock backwards: {seconds}")
        self._now += float(seconds)
        return self._now

    def sleep(self, seconds: float) -> None:
        """A sleep seam that advances the virtual clock instead of blocking."""
        if seconds > 0:
            self.advance(seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ManualClock(now={self._now})"
