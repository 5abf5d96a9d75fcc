"""In-memory span tracing of isinglab's layers, from outside the package.

The tracer replaces the public functions listed in ``LAYERS`` with wrappers
that record one span per call: (id, parent id, name, start, end, info).  Each
name is patched in every isinglab module that imported it by name, so for
example ``eta_plus`` is traced whether ``cli``, ``metastability`` or
``thresholds`` calls it.  Spans stay in memory and are written out once, when
the process ends.  No file under ``src/`` changes.

Run one traced CLI case, or the layer probes, in a fresh interpreter:

    PYTHONPATH=src python3 bench/tracer.py case SPANS.json -- simulate ...
    PYTHONPATH=src python3 bench/tracer.py probes SPANS.json PROBES.json
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

from layers import LAYERS


def _kernel_info(args, kwargs, tm):
    """Work counts of a built kernel: states, dense bytes, nonzeros."""
    import numpy as np

    return {"states": len(tm.states), "bytes": int(tm.P.nbytes),
            "nonzeros": int(np.count_nonzero(tm.P))}


def _enumeration_info(args, kwargs, table):
    g = args[0]
    pinning = args[2] if len(args) > 2 else kwargs.get("pinning")
    pinned = len(pinning.assignments) if pinning is not None else 0
    return {"states": 2 ** (g.n - pinned)}


# span info computed after the span closed, so it is not timed
INFO = {
    "dynamics.build_transition_matrix": _kernel_info,
    "measures.exact_partition_table": _enumeration_info,
}


class Tracer:
    """Collects spans from wrapped functions; threads nest under ``root``."""

    def __init__(self):
        self.spans = []
        self.root = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [next(self._ids), stack[-1] if stack else self.root, name,
                    0.0, 0.0, None]
            self.spans.append(span)
            stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return traced

    def rooted(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` in a span that also parents spans from other threads,
        such as the CLI's thread-pool workers."""
        outer = self.root

        def body(*a, **kw):
            self.root = self._stack()[-1]
            return fn(*a, **kw)

        try:
            return self.wrap(name, body)(*args, **kwargs)
        finally:
            self.root = outer

    def install(self) -> None:
        """Wrap every ``LAYERS`` function in each module that holds it."""
        modules = {m: importlib.import_module(f"isinglab.{m}") for m in LAYERS}
        for mod_name, names in LAYERS.items():
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(modules[mod_name], owner_name) if owner_name \
                    else modules[mod_name]
                original = getattr(owner, attr)
                traced = self.wrap(f"{mod_name}.{qual}", original)
                setattr(owner, attr, traced)
                if owner_name:
                    continue
                for name, module in list(sys.modules.items()):
                    if name.startswith("isinglab.") and module is not None:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def main(argv) -> int:
    mode, spans_path = argv[0], argv[1]
    tracer = Tracer()
    tracer.install()
    if mode == "case":
        from isinglab import cli

        cli_args = argv[argv.index("--") + 1:]
        try:
            code = tracer.rooted("cli.main", cli.main, cli_args)
        finally:
            tracer.dump(spans_path)
        return code
    if mode == "probes":
        from probes import run_probes

        try:
            results = run_probes(tracer, os.path.dirname(os.path.abspath(spans_path)))
        finally:
            tracer.dump(spans_path)
        with open(argv[2], "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
