"""Fixtures shared by more than one test module."""

import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from chirped_bath import cli


def pytest_configure(config):
    """Hypothesis caches the constants it reads from local source files
    under its home directory, ./.hypothesis by default, from test collection
    on; keep that in a directory removed when the run ends."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@pytest.fixture(scope="session")
def figures_dir(tmp_path_factory):
    """All shipped presets regenerated once per session, shared by the
    acceptance criteria and the cross-route checks."""
    out = tmp_path_factory.mktemp("figures")
    assert cli.main(["paper-figures", "--out", str(out)]) == 0
    return out
