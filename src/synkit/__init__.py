"""synkit: postural-synergy grasping and manipulation toolkit.

Subpackages cover the full desk-scale pipeline: synergy subspace
extraction (``synergy``), probabilistic trajectory encoding
(``encoding``), kernelized movement-primitive regression (``kmp``),
point-cloud perception (``perception``), contact-force adaptation
(``force``), reproduction metrics (``evaluation``), synthetic data
(``synthetic``), and end-to-end orchestration (``pipeline``, ``cli``).
``cli`` is not imported with the package, so ``python -m synkit.cli`` runs
it fresh.
"""

from . import (  # noqa: F401
    encoding,
    errors,
    evaluation,
    force,
    kmp,
    perception,
    pipeline,
    synergy,
    synthetic,
)

__version__ = "0.1.0"
