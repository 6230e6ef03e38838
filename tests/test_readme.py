"""The README's library quick start and the demos run as written."""

from __future__ import annotations

import glob
import os
import re
import runpy
import shutil

import pytest

from longplan import report

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    assert float(printed[1]) == pytest.approx(2 / 3, rel=1e-12)  # h / (h + r)


DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path, capsys):
    # a copy runs, so that a demo writing next to itself writes to tmp_path
    copy = shutil.copy(demo, tmp_path)
    runpy.run_path(copy, run_name="__main__")
    assert capsys.readouterr().out


def test_readme_lists_every_config_key():
    # the keys parse_config accepts come from the config dataclasses, so a
    # field added to one must be documented, and a documented key must parse
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("### Config file", 1)[1]
    listed = re.findall(r"`(\w+)`", section.split("Keys:", 1)[1].split("The hazard's", 1)[0])
    accepted = {**report._RUN_KEYS, **report._LIFECYCLE_KEYS, **report._HAZARD_KEYS}
    assert len(listed) == len(set(listed)) == 27
    assert set(listed) == set(accepted)
