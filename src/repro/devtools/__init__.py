"""Developer tooling that ships with the library (opt-in at runtime).

* :mod:`repro.devtools.sanitizer` — the simulation sanitizer: after
  every event it re-derives the scheduler's correctness invariants from
  first principles and fails loudly on the first divergence.

Checks that compare production against a second implementation or a
second delivery do not live here: the scalar reference paths are
test-only (``tests/reference.py``), the batched-engine equivalence runs
in ``tests/integration/test_batched_equivalence.py``, and the rerun,
replay, ingest, service and restore identities run in
``tests/integration/test_identity_matrix.py``.

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
