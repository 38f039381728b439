"""The `pythonpath` setting in pyproject.toml puts `src/` on the path of
the test process; export it to the CLI subprocesses the tests start too,
so that a bare `python -m pytest` needs no PYTHONPATH."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
