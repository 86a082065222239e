"""Fixtures shared by more than one test module."""

import pytest

from chirped_bath import cli


@pytest.fixture(scope="session")
def figures_dir(tmp_path_factory):
    """All shipped presets regenerated once per session, shared by the
    acceptance criteria and the cross-route checks."""
    out = tmp_path_factory.mktemp("figures")
    assert cli.main(["paper-figures", "--out", str(out)]) == 0
    return out
