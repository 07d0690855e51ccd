"""Shared test wiring.

Setting ``REPRO_SANITIZE=1`` in the environment runs the whole test
session under the DMAsan shadow-state sanitizer
(:mod:`repro.analysis.sanitizer`): every test gets a fresh
:class:`DmaSanitizer` installed for its duration, and a test fails if
the workload it simulated breached any cross-layer DMA invariant.

If the operator asked for sanitizing but the hooks cannot be armed —
the analysis package fails to import, or installing the session does
not actually activate it — the run must abort loudly.  Skipping here
would report a green "sanitized" run that never sanitized anything.

Tests that *deliberately* provoke violations (the sanitizer's own
tests) open an inner ``hooks.session`` of their own, so the session-wide
observer never sees their events.
"""

from __future__ import annotations

import os

import pytest

SANITIZE = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")

try:
    from repro.analysis import hooks
    from repro.analysis.sanitizer import DmaSanitizer
except Exception as exc:  # pragma: no cover - exercised only when broken
    if SANITIZE:
        raise pytest.UsageError(
            f"REPRO_SANITIZE=1 but the DMAsan hooks failed to import: {exc!r}; "
            "refusing to run a silently unsanitized session"
        )
    hooks = None
    DmaSanitizer = None


@pytest.fixture(autouse=SANITIZE)
def _dma_sanitizer(request):
    """Session-wide DMAsan: one fresh sanitizer per test, fail on violations."""
    san = DmaSanitizer()
    with hooks.session(san):
        if hooks.active is not san:
            pytest.fail(
                "REPRO_SANITIZE=1 but repro.analysis.hooks did not activate "
                "the session sanitizer; refusing to run silently unsanitized",
                pytrace=False,
            )
        yield san
        san.final_check()
    if san.violations:
        pytest.fail(san.summary(), pytrace=False)


@pytest.fixture
def force_pool(monkeypatch):
    """Let the fork pool engage on any box; return an executor reporting
    the mode it ran in.

    The pool engages only above two usable cores, so on a 1- or 2-core
    box ``jobs > 1`` quietly stays in-process and a "parallel" identity
    test never leaves the process.  With ``runner.usable_cpus`` patched
    to 4, ``execute(cells, jobs)`` runs uncached and returns
    ``(fragments, report.mode)``; ``run_many`` sees the patch too.
    """
    from repro.experiments import runner

    monkeypatch.setattr(runner, "usable_cpus", lambda: 4)

    def execute(cells, jobs):
        report = runner.RunReport(jobs=jobs)
        fragments = runner.execute_cells(cells, jobs=jobs, cache=False,
                                         report=report)
        return fragments, report.mode

    return execute
