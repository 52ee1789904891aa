"""Developer tooling that ships with the library (opt-in at runtime).

* :mod:`repro.devtools.sanitizer` — the simulation sanitizer: after
  every event it re-derives the scheduler's correctness invariants from
  first principles and fails loudly on the first divergence.
* :mod:`repro.devtools.smoke` — a small deterministic DollyMP run used
  by CI as the sanitizer-enabled smoke test
  (``python -m repro.devtools.smoke``).
* :mod:`repro.devtools.replay_smoke` — the replay-determinism smoke:
  records a DollyMP run's decision trace, JSONL round-trips it, replays
  it against a fresh cluster and diffs the results bit-for-bit
  (``python -m repro.devtools.replay_smoke``).
* :mod:`repro.devtools.fault_smoke`, :mod:`repro.devtools.service_smoke`
  and :mod:`repro.devtools.trace_smoke` — the fault-injection,
  service-mode and trace-ingestion CI gates.

Checks that compare production against a second implementation do not
live here: the scalar reference paths are test-only
(``tests/reference.py``), and the batched-engine equivalence runs in
``tests/integration/test_batched_equivalence.py``.

The static half of the tooling lives outside the package in
``tools/repro_lint`` so that importing ``repro`` never pulls it in.
"""

from repro.devtools.sanitizer import (
    InvariantKind,
    SanitizerError,
    SanitizerViolation,
    SimulationSanitizer,
)

__all__ = [
    "InvariantKind",
    "SanitizerError",
    "SanitizerViolation",
    "SimulationSanitizer",
]
