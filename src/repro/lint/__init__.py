"""``repro lint`` — AST-based enforcement of the project's written contracts.

The codebase rests on invariants that ordinary linters cannot see: every
engine must be bit-exact, the picklable span cores must stay ctypes-free,
library failures must speak the :mod:`repro.errors` taxonomy, and
observability must never run per slot.  Each contract is a named
:class:`~repro.lint.engine.Rule` with ``file:line`` diagnostics and an
inline ``# repro-lint: disable=RULE`` escape hatch; the committed tree
lints clean, and CI keeps it that way.

Public API::

    from repro.lint import lint_paths, all_rules
    findings, stats = lint_paths(["src/repro"])  # every rule, whole tree
"""

from repro.lint.diagnostics import (  # noqa: F401
    Finding,
    LintStats,
    findings_document,
    render_findings,
)
from repro.lint.engine import (  # noqa: F401
    Rule,
    all_rules,
    lint_paths,
    rule_names,
)
