"""Test-session setup.

When a hypothesis property fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to suggest an explicit example. That module
imports ``libcst``, which warns a DeprecationWarning on import (it uses
``mypy_extensions.TypedDict``); under ``filterwarnings = ["error"]`` the
warning becomes an exception the plugin does not catch, and the whole run
ends with INTERNALERROR instead of reporting the failure. Importing the
module once here, with that warning ignored, leaves it cached for the plugin.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin skips the suggestion itself
        pass
