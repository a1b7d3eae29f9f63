"""Built-in rule set.

Importing this package registers every built-in rule with the registry.
New rules go in a module here (or anywhere, as long as it is imported
from this ``__init__``) and register themselves with ``@rule``.
"""

from repro.lint.rules import api as api  # noqa: F401
from repro.lint.rules import determinism as determinism  # noqa: F401
from repro.lint.rules import perf as perf  # noqa: F401
from repro.lint.rules import protocol as protocol  # noqa: F401
