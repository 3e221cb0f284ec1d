"""Shared test settings and fixtures.

Property tests draw their examples from a fixed seed and keep no example
database, so every run of the suite checks the same inputs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import bonereg

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def fresh_python():
    """run(code, *args): stdout of code run with args by a new interpreter
    that imports the bonereg under test."""
    src = str(Path(bonereg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(code: str, *args) -> str:
        return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                              capture_output=True, text=True, check=True).stdout
    return run
