"""The name of the execution engine, for benchmark records.

The simulated pipeline has one execution path, the interpreter in
:mod:`repro.cpu.pipeline`.  This function exists only because
``perfbench/worker.py`` records an ``engine`` field in every result; a
later change to the benchmark can drop that field and this module.
"""

from __future__ import annotations

__all__ = ["default_engine"]


def default_engine() -> str:
    """Always ``"interpreter"``, the only engine."""
    return "interpreter"
