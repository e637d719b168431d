"""Experiment harnesses — one module per paper figure/table.

Every module exposes ``run(fidelity=...)`` returning a structured result
object with a ``format()`` method that prints the same rows/series the paper
reports.  ``repro.experiments.runner`` provides a CLI over all of them:

.. code-block:: console

   $ stretch-repro --list
   $ stretch-repro fig09 --fidelity quick

Set the environment variable ``REPRO_FIDELITY`` to any registered tier —
``quick`` (default) or ``full`` trade runtime for statistical tightness,
``surrogate`` answers partitioned-ROB sweeps from a fitted UIPC surrogate
with a reported error bound — and ``REPRO_NO_CACHE=1`` to disable the
on-disk simulation cache.  New tiers register via
:func:`~repro.experiments.common.register_fidelity`.
"""

from repro.experiments.common import (
    Fidelity,
    fidelity_names,
    register_fidelity,
)

__all__ = [
    "Fidelity",
    "fidelity_names",
    "register_fidelity",
]
