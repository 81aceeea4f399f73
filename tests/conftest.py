"""Load the whole package before any test runs.

Hypothesis draws example constants from every loaded non-test module, so
without this the examples a test sees would depend on which package modules
the tests collected before it happened to import.  `subshot.cli` imports
every module of the package but the `python -m subshot` entry point.
"""

import subshot.cli  # noqa: F401
