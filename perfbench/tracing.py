"""Spans around the library's public functions, recorded from outside.

Tracer.install wraps each target at every place it is bound: the module
global in every loaded substoe module that holds the same object (so
perron_data is wrapped in perron, bratteli, construct, cli and the
package namespace alike), or the attribute on the class for methods.
Each call made while an operation is active becomes one span: name,
operation id, parent span, start, end and whether it raised.  Spans
stay in flat arrays in memory; write() saves them once at the end, and
layer_totals() derives calls and self time (span time minus the time
its child spans cover) from them.  uninstall() puts the originals back.
"""

import json
import sys
import time
from array import array

# (span name, defining module, function name or Class.method)
TARGETS = (
    ("subst.complexity_profile", "substoe.subst", "Substitution.complexity_profile"),
    ("subst.complexity", "substoe.subst", "Substitution.complexity"),
    ("subst.factor_language", "substoe.subst", "Substitution.factor_language"),
    ("words.clamp", "substoe.words", "RunWord.clamp"),
    ("words.repeat", "substoe.words", "RunWord.repeat"),
    ("words.letter_at", "substoe.words", "RunWord.letter_at"),
    ("bratteli.vershik_successor", "substoe.bratteli", "OrderedDiagram.vershik_successor"),
    ("matrix.charpoly", "substoe.matrix", "charpoly"),
    ("matrix.hnf_basis", "substoe.matrix", "hnf_basis"),
    ("matrix.mul", "substoe.matrix", "ExactMatrix.__mul__"),
    ("matrix.inverse", "substoe.matrix", "ExactMatrix.inverse"),
    ("matrix.solve", "substoe.matrix", "ExactMatrix.solve"),
    ("intpoly.squarefree_part", "substoe.intpoly", "squarefree_part"),
    ("intpoly.factor_monic_squarefree", "substoe.intpoly", "factor_monic_squarefree"),
    ("intpoly.isolate_largest_real_root", "substoe.intpoly", "isolate_largest_real_root"),
    ("intpoly.refine_root_interval", "substoe.intpoly", "refine_root_interval"),
    ("field.mul", "substoe.field", "FieldElement.__mul__"),
    ("field.mul", "substoe.field", "FieldElement.__rmul__"),
    ("field.inverse", "substoe.field", "FieldElement.inverse"),
    ("field.approx", "substoe.field", "FieldElement.approx"),
    ("field.certified_sign", "substoe.field", "certified_sign"),
    ("field.minimal_polynomial", "substoe.field", "minimal_polynomial"),
    ("perron.perron_data", "substoe.perron", "perron_data"),
    ("perron.field_kernel_basis", "substoe.perron", "field_kernel_basis"),
    ("perron.multiplication_matrices", "substoe.perron", "multiplication_matrices"),
    ("clopen.lattice_of", "substoe.clopen", "lattice_of"),
    ("clopen.groups_equal", "substoe.clopen", "groups_equal"),
    ("construct.enlarge_matrix", "substoe.construct", "enlarge_matrix"),
    ("construct.minimize_vertices", "substoe.construct", "minimize_vertices"),
    ("construct.build_soe_substitution", "substoe.construct", "build_soe_substitution"),
    ("construct.build_oe_alphabet_family", "substoe.construct", "build_oe_alphabet_family"),
    ("construct.enumerate_rational_y", "substoe.construct", "enumerate_rational_y"),
    ("cli.main", "substoe.cli", "main"),
)

# Spans whose first argument is recorded, to count distinct inputs.
KEYED = {"perron.perron_data"}

COLUMNS = (("name", "H"), ("op", "i"), ("parent", "i"),
           ("start", "d"), ("end", "d"), ("failed", "b"))


class Tracer:
    def __init__(self):
        self.names = sorted({name for name, _, _ in TARGETS})
        self.op = -1
        self.cols = {col: array(code) for col, code in COLUMNS}
        self.keys = {name: set() for name in KEYED}
        self._stack = []
        self._restore = []

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "substoe" or n.startswith("substoe."))]
        for name, module_name, path in TARGETS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(name, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def begin(self, op_id):
        """Record spans for operation op_id until end()."""
        self._stack.clear()
        self.op = op_id

    def end(self):
        self.op = -1

    def uninstall(self):
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def _patch(self, target, attr, original, wrapper):
        self._restore.append((target, attr, original))
        setattr(target, attr, wrapper)

    def _wrap(self, name, fn):
        name_id = self.names.index(name)
        keys = self.keys.get(name)
        c = self.cols
        names, ops, parents = c["name"], c["op"], c["parent"]
        starts, ends, failed = c["start"], c["end"], c["failed"]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name_id)
            ops.append(tracer.op)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            failed.append(0)
            if keys is not None:
                keys.add(args[0])
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_totals(self):
        """{span name: (calls, self seconds, failed calls)}."""
        c = self.cols
        starts, ends, parents = c["start"], c["end"], c["parent"]
        covered = [0.0] * len(starts)
        for i, p in enumerate(parents):
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        totals = {name: [0, 0.0, 0] for name in self.names}
        for i, name_id in enumerate(c["name"]):
            row = totals[self.names[name_id]]
            row[0] += 1
            row[1] += ends[i] - starts[i] - covered[i]
            row[2] += c["failed"][i]
        return {name: tuple(row) for name, row in totals.items()}

    def write(self, stem):
        """Save the spans as stem.json (names, layout) plus stem.bin."""
        count = len(self.cols["name"])
        header = {"names": self.names, "count": count,
                  "columns": [[col, code] for col, code in COLUMNS],
                  "time": "time.perf_counter seconds"}
        with open(stem + ".bin", "wb") as handle:
            for col, _ in COLUMNS:
                self.cols[col].tofile(handle)
        with open(stem + ".json", "w") as handle:
            json.dump(header, handle, indent=1)
