"""Keep the campaign self-test out of a whole-repository pytest run.

The self-test starts child processes and takes about 20 s, so it runs
only when pytest is pointed at this directory or a file in it
(``pytest benchmarks/campaign``), not as part of the tier-1 suite.
"""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent


def _names_this_directory(arg: str) -> bool:
    path = Path(arg.split("::")[0]).resolve()
    return path == HERE or HERE in path.parents


def pytest_ignore_collect(collection_path, config):
    if HERE not in collection_path.parents:
        return None
    if any(_names_this_directory(arg) for arg in config.args):
        return None
    return True
