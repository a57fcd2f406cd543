"""Let `python -m melinlab` subprocesses import the in-tree package.

`pythonpath = ["src"]` in pyproject.toml covers the test process only;
exporting the same directory covers the CLI subprocesses, so a bare
`pytest` from the repository root needs no installed copy.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
