"""Fixtures shared by the test modules."""

import pytest

import catgcn.data


@pytest.fixture(params=[None, 64], ids=["default-budget", "64-byte-budget"])
def setup_budget(request, monkeypatch):
    """Run a test at the default `SETUP_CHUNK_BYTES` and again at 64 bytes, where
    the loader's windows end every line or two and the bag sorts take a bag or
    a few at a time, so window edges fall inside the test's own small inputs."""
    if request.param is not None:
        monkeypatch.setattr(catgcn.data, "SETUP_CHUNK_BYTES", request.param)
    return catgcn.data.SETUP_CHUNK_BYTES
