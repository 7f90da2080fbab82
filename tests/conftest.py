"""Session setup shared by every test file."""

import warnings

# When a property test fails, Hypothesis's failure report imports its
# patch writer, which imports libcst, whose use of mypy_extensions.TypedDict
# raises a DeprecationWarning. Under `-W error` that warning would end the
# whole session with INTERNALERROR instead of reporting the one failure, so
# the patch writer is imported here, once, with that warning silenced.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional; without it nothing warns
        pass
