"""Thresholds have one source: every Tolerances field is read by the check it
names, through DEFAULT_TOLS, and no callable takes a threshold of its own."""
from __future__ import annotations

import dataclasses
import importlib
import inspect
from pathlib import Path

import qnet
from qnet import Tolerances

SRC = Path(qnet.__file__).resolve().parent
MODULES = sorted(f"qnet.{p.stem}" for p in SRC.glob("*.py") if p.stem != "__init__")
# per-call thresholds and a policy field that nothing read
REMOVED_KNOBS = {"tols", "tol", "degeneracy_tol", "threshold", "dangling_policy"}


def _callables():
    """(qualified name, function) of every function, class constructor and
    method defined in a qnet module, private ones included."""
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != name:
                continue
            if inspect.isfunction(obj):
                yield f"{name}.{attr}", obj
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn):
                        yield f"{name}.{attr}.{meth}", fn


def test_every_tolerance_field_is_read():
    code = "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "config.py")
    unread = [f.name for f in dataclasses.fields(Tolerances)
              if f"DEFAULT_TOLS.{f.name}" not in code]
    assert unread == []


def test_no_callable_takes_a_threshold():
    found = [f"{name}({param})" for name, fn in _callables()
             for param in inspect.signature(fn).parameters if param in REMOVED_KNOBS]
    assert found == []
