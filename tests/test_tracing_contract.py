"""The names perfbench's tracer wraps in emr exist, and it puts them back.

perfbench/tracing.py patches names that ``emr.pipeline`` imports and two
``KnowledgeStore`` methods; renaming or deleting one of them here breaks the
traced benchmark, so the contract is checked with the unit tests.
"""

import importlib
from pathlib import Path

import pytest

import emr.config
import emr.pipeline as pipeline
from emr.store import KnowledgeStore


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    return importlib.import_module("tracing")


def test_traced_install_wraps_every_name_and_uninstall_restores_it(tracing):
    names = [(pipeline, name) for name in (*tracing.PIPELINE_CALLS, "load_pnm", "emit_metrics")]
    names += [(KnowledgeStore, name) for name in tracing.STORE_METHODS]
    names.append((emr.config, "parse_config"))
    originals = {(owner, name): owner.__dict__[name] for owner, name in names}

    tracer = tracing.Tracer()
    tracer.install(traced=True)
    try:
        unwrapped = [name for (owner, name), fn in originals.items() if owner.__dict__[name] is fn]
    finally:
        tracer.uninstall()
    assert unwrapped == []
    assert {key: key[0].__dict__[key[1]] for key in originals} == originals
