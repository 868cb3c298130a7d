"""Spans around the public functions of every msss module.

A Tracer replaces each public function of each msss module, and
``Board.validate``, with a wrapper that records one span per call:
``[name, parent index, start ns, end ns, note]``. Every module that binds
the same function object (``from .numtheory import is_probable_prime``)
gets the wrapper too, so calls are seen whichever name the caller uses.
Spans stay in memory until ``dump`` or ``take``; the clock is
``time.monotonic_ns``, which is shared by all processes on the machine, so
a parent can compare a child's span times with its own spawn time.

Notes carry the few facts the per-layer metrics need from arguments or
results: the value a primality proof was about, a contribution's verdict,
and the masks a dealer call computed.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

MODULES = (
    "accessstruct",
    "bulletin",
    "cli",
    "codec",
    "combiner",
    "dealer",
    "linepoly",
    "numtheory",
    "participant",
    "simulate",
)
METHODS = (("bulletin", "Board", "validate"),)


def _mask_note(packages, last_entry_only=False):
    """[masks computed, distinct (member, secret) pairs] for dealer results."""
    masks = pairs = 0
    for pkg in packages:
        entries = pkg.entries[-1:] if last_entry_only else pkg.entries
        masks += sum(len(e.members) for e in entries)
        pairs += len(frozenset().union(*(e.members for e in entries)))
    return [masks, pairs]


NOTES = {
    # hash() of an int is its value mod 2**61 - 1 and is not randomized.
    "numtheory.is_probable_prime": lambda args, result: [hash(args[0]), result],
    "combiner.verify_contribution": lambda args, result: [args[3].pid, result],
    "dealer.share_secret": lambda args, result: _mask_note([result]),
    "dealer.renew_secret": lambda args, result: _mask_note([result]),
    "dealer.add_qualified_set": lambda args, result: _mask_note([result], True),
    "dealer.remove_qualified_set": lambda args, result: [0, 0],
    "dealer.remove_participant": lambda args, result: _mask_note(result),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.monotonic_ns(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.monotonic_ns()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public msss function in every module that binds it."""
        modules = [importlib.import_module("msss")]
        modules += [importlib.import_module(f"msss.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for short, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"msss.{short}"), cls_name)
            self._patch(cls, attr, self._wrap(f"{short}.{cls_name}.{attr}", cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    def take(self) -> list[list]:
        """The spans recorded so far; the tracer starts a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
