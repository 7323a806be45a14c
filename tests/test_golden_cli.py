"""Every command of ``golden_cli.COMMANDS`` prints the recorded bytes.

The exit code and the sha256 of stdout and of stderr of each must equal
its entry in ``golden_cli.json``; a failure names the platform that wrote
the file.  See ``golden_cli.py`` for how to rewrite it.
"""

import json

import pytest
from golden_cli import COMMANDS, GOLDEN, platform_name, run

RECORDED = json.loads(GOLDEN.read_text())


def test_file_lists_every_command():
    assert [entry["argv"] for entry in RECORDED["commands"]] == COMMANDS


@pytest.mark.parametrize("entry", RECORDED["commands"], ids=lambda entry: " ".join(entry["argv"]))
def test_output_is_recorded(entry):
    assert run(entry["argv"]) == entry, f"recorded on {RECORDED['platform']}, run on {platform_name()}"
