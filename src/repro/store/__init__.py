"""repro.store: the content-addressed artifact store and build graph.

PR 8's refactor of the model-processing pipeline into explicit build
stages.  The PIM→PSM transform (:mod:`repro.mda.engine`) keys its
output by the content fingerprints of the model and profiles it reads,
persists it in an :class:`ArtifactStore`, and records a node in the
store's :class:`BuildGraph`.  The store keeps transform, model, result
and report artifacts.  Generated code is not stored (older stores may
hold ``codegen`` artifacts nothing reads; ``repro store gc --kind
codegen`` evicts them), nor are compiled state machines: the
in-process memo of :func:`repro.statemachines.compile_machine_cached`
is their only cache.

Activation
----------
Stages consult the process-wide *active store*:

>>> from repro.store import ArtifactStore, set_active_store
>>> set_active_store(ArtifactStore("/tmp/mystore"))   # doctest: +SKIP

``set_active_store(None)`` disables persistence (every stage then
rebuilds).  When no store has been set explicitly and the
``REPRO_STORE`` environment variable names a directory, the first
consumer auto-activates a store there.  Forked pool workers inherit
their parent's active store.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from ..errors import StoreError

if TYPE_CHECKING:
    from .artifacts import ArtifactStore

#: Environment variable naming the store root.
STORE_ENV = "REPRO_STORE"

#: The submodule that provides each public name, resolved on first
#: access by :func:`__getattr__`, so a process that never touches a
#: store (``repro simulate`` without ``--store`` or ``$REPRO_STORE``)
#: loads none of them.
_LAZY_NAMES = {
    "ArtifactStore": "artifacts", "ENVELOPE_VERSION": "artifacts",
    "canonical_json": "artifacts", "default_store_root": "artifacts",
    "BUILT": "graph", "REUSED": "graph", "BuildGraph": "graph",
    "BuildNode": "graph",
    "MODEL_KIND": "registry", "ModelRegistry": "registry",
}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY_NAMES[name]}", __name__),
                       name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: The process-wide active store; ``False`` = "not resolved yet" so the
#: env-var probe runs once, not on every cache lookup.
_ACTIVE = False


def set_active_store(store: Optional[ArtifactStore]
                     ) -> Optional[ArtifactStore]:
    """Install the store every pipeline stage consults; returns the
    previous one (None when persistence was off)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = store
    return previous if previous is not False else None


def get_active_store() -> Optional[ArtifactStore]:
    """The active store, auto-activating from ``$REPRO_STORE`` once."""
    global _ACTIVE
    if _ACTIVE is False:
        env = os.environ.get(STORE_ENV)
        if env:
            from .artifacts import ArtifactStore

            try:
                _ACTIVE = ArtifactStore(env)
            except StoreError:
                _ACTIVE = None
        else:
            _ACTIVE = None
    return _ACTIVE


@contextmanager
def using_store(store: Optional[ArtifactStore]) -> Iterator[
        Optional[ArtifactStore]]:
    """Scoped activation: restores the previous store on exit."""
    previous = set_active_store(store)
    try:
        yield store
    finally:
        set_active_store(previous)


__all__ = [
    "ArtifactStore", "BuildGraph", "BuildNode", "ModelRegistry",
    "BUILT", "REUSED", "ENVELOPE_VERSION", "MODEL_KIND", "STORE_ENV",
    "canonical_json", "default_store_root",
    "get_active_store", "set_active_store", "using_store",
]
