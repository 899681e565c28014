"""Where the benchmark runs: the checkout root, its sources and its outputs.

The benchmark measures the package in the checkout it sits in, never an
installed copy, so the import is checked against the checkout's src/.
Child interpreters get the same sources and a bytecode cache under the
benchmark's own directory, warmed before any timing, because installed
users do not recompile the package on every call.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
PYCACHE = BENCH_DIR / ".pycache"
OUT = BENCH_DIR / "out"


class CheckoutError(RuntimeError):
    """The directory the benchmark sits in does not hold the package sources."""


def import_trisect():
    """Import trisect from the checkout's src/ and return the package."""
    init = SRC / "trisect" / "__init__.py"
    if not init.is_file():
        raise CheckoutError(f"no package sources at {init}")
    if not FIXTURES.is_dir():
        raise CheckoutError(f"no fixtures directory at {FIXTURES}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import trisect

    if Path(trisect.__file__).resolve() != init.resolve():
        raise CheckoutError(f"trisect imported from {trisect.__file__}, not {init}")
    return trisect


def child_env() -> dict:
    """Environment for child interpreters: checkout sources, cached bytecode."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env
