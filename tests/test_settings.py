"""The repository's pytest settings, run on small test files of their own.

Each case runs pytest (``pytester``) under a copy of this repository's
``pyproject.toml``.  The Hypothesis case runs in a fresh interpreter:
a warning that a plugin's lazy import raises only once per process would
not show in-process.
"""

import pathlib

PYPROJECT = (pathlib.Path(__file__).parent.parent / "pyproject.toml").read_text()


def run_under_settings(pytester, source: str, fresh: bool = False):
    pytester.makepyprojecttoml(PYPROJECT)
    path = pytester.makepyfile(test_case=source)
    run = pytester.runpytest_subprocess if fresh else pytester.runpytest
    return run("-p", "no:cacheprovider", str(path))


def test_falsified_hypothesis_test_is_a_failure(pytester):
    # Hypothesis then writes its failure patch, which imports libcst
    result = run_under_settings(pytester, """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_falsified(x):
            assert x < 10
    """, fresh=True)
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_falsified(*", "*x=10,*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
    assert "INTERNALERROR" not in result.stderr.str()


def test_a_deprecation_warning_is_an_error(pytester):
    result = run_under_settings(pytester, """
        import warnings

        def test_deprecated():
            warnings.warn("this call is deprecated", DeprecationWarning)
    """)
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*DeprecationWarning: this call is deprecated*"])
