"""Puts the benchmark modules and the checkout's cmmsim on the path, and
gives each test a scratch directory inside the checkout."""

import os
import shutil
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))


@pytest.fixture
def workdir(request):
    """A fresh scratch directory inside the checkout's ignored work area."""
    path = os.path.join(ROOT, ".perfbench_work", "tests", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)
