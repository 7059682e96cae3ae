"""deepcheck — the parsed-source substrate and the checkpoint contract.

* :mod:`core` — :class:`ModuleIndex`: every module parsed once, class
  resolution, the attribute-mutation model, bounded ``self.``-helper
  closures;
* :mod:`statecheck` — proves the snapshot()/restore() contract covers
  every run-time-mutated attribute (recovery bitwiseness).

Both run inside ``repro lint`` (:func:`repro.analysis.repolint.lint_index`).
See DESIGN.md "Static guarantees".
"""

from repro.analysis.deepcheck.core import ModuleIndex
from repro.analysis.deepcheck.statecheck import check_state

__all__ = ["ModuleIndex", "check_state"]
