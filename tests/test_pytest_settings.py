"""The suite's own pytest settings: a failing property test must report its
falsifying example under the warnings filters in pyproject.toml."""

import tomllib
from pathlib import Path

pytest_plugins = ["pytester"]

SETTINGS = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())


def test_a_failing_property_test_reports_its_example(pytester):
    filters = SETTINGS["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makepyprojecttoml(
        "[tool.pytest.ini_options]\nfilterwarnings = [" + ", ".join(map(repr, filters)) + "]\n"
    )
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(n):
            assert n < 10
        """
    )
    result = pytester.runpytest_subprocess()
    result.assert_outcomes(failed=1)
    assert "Falsifying example" in result.stdout.str()
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
