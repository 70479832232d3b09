"""Stationary ordered Bratteli diagrams and their adic structure.

A diagram is stored by one incidence matrix F (rows index the deeper
level), the multiplicities of the edges leaving the root, and one order
word per vertex listing the sources of its incoming edges in order.
Diagrams and substitutions translate into each other by reading order
words as rules, with F the transpose of the substitution incidence.
"""

from .errors import (CapabilityError, DomainError, PathError, _number_text,
                     _require_positive_int)
from .matrix import _int_apply
from .perron import perron_data
from .subst import Substitution
from .words import EXPAND_CAP, word_of

PATH_COUNT_BITS = 4096
# Edges export_dot draws at most.
DOT_EDGE_CAP = 500
# Edges the chain_paths table builds at most: rows times levels, summed
# over every level it builds.
TABLE_EDGE_CAP = 32768


class OrderedDiagram:
    def __init__(self, vertices, incidence, level0, orders):
        vertices = tuple(vertices)
        if not vertices:
            raise DomainError("diagram needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise DomainError("duplicate vertex labels")
        k = len(vertices)
        if not incidence.is_square or incidence.rows != k:
            raise DomainError("incidence shape does not match the vertices")
        if not incidence.is_nonnegative:
            raise DomainError("incidence entries must be nonnegative integers")
        level0 = tuple(level0)
        if any(type(m) is not int for m in level0):
            raise DomainError("root multiplicities must be integers")
        if len(level0) != k or any(m < 1 for m in level0):
            raise DomainError("every vertex needs at least one root edge")
        fixed = {}
        for i, v in enumerate(vertices):
            if v not in orders:
                raise DomainError("missing order word for vertex %r" % v)
            word = word_of(orders[v])
            counts = word.letter_counts()
            expected = {vertices[j]: x
                        for j, x in enumerate(incidence.row(i)) if x}
            if counts != expected:
                raise DomainError(
                    "order word of %r does not match its edge counts" % v)
            fixed[v] = word
        if set(orders) != set(vertices):
            raise DomainError("order words mention unknown vertices")
        for j, v in enumerate(vertices):
            if not any(incidence.column(j)):
                raise DomainError("vertex %r has no outgoing edges" % v)
        self.vertices = vertices
        self.incidence = incidence
        self.level0 = level0
        self.orders = fixed
        self._vindex = {v: i for i, v in enumerate(vertices)}
        self._measure = None

    @property
    def size(self):
        return len(self.vertices)

    def substitution_read(self):
        """The substitution whose rules are the order words."""
        return Substitution(dict(self.orders), alphabet=self.vertices)

    def telescope(self, n_steps):
        """Contract n_steps consecutive levels into one."""
        subst = self.substitution_read().power(n_steps)
        step = self.incidence ** (n_steps - 1)
        return OrderedDiagram(self.vertices, step * self.incidence,
                              step.apply(self.level0), dict(subst.rules))

    def path_counts(self, depth):
        """Numbers of root paths into each vertex, level by level.

        Refuses before any level past EXPAND_CAP entries (depth times
        vertices), and once a count needs more than PATH_COUNT_BITS
        bits, which keeps every count printable in decimal.
        """
        _require_positive_int(depth, "depth")
        entries = depth * self.size
        if entries > EXPAND_CAP:
            raise CapabilityError(
                "path counts to depth %d have %d entries, over the budget "
                "of %d entries" % (depth, entries, EXPAND_CAP))
        rows = self.incidence.int_rows()
        h = self.level0
        out = []
        for level in range(1, depth + 1):
            if level > 1:
                h = tuple(_int_apply(rows, h))
            bits = max(h).bit_length()
            if bits > PATH_COUNT_BITS:
                raise CapabilityError(
                    "path count at depth %d has %d bits, over the budget of "
                    "%d bits" % (level, bits, PATH_COUNT_BITS))
            out.append(h)
        return out

    def measure_eigenvector(self):
        """Exact vertex weights of the unique invariant measure.

        Returns (field, weights, lam) with the weights scaled so that the
        pairing with the root multiplicities is one; then a cylinder at
        depth n has measure weight / lam**(n-1) and the level sums match
        powers of lam exactly.
        """
        if self._measure is not None:
            return self._measure
        pd = perron_data(self.incidence.transpose())
        inv = sum((x * m for m, x in zip(self.level0, pd.eigvec)),
                  pd.field.zero()).inverse()
        self._measure = (pd.field, tuple(x * inv for x in pd.eigvec), pd.lam)
        return self._measure

    def cylinder_measure(self, path):
        if path.diagram is not self:
            raise DomainError("path belongs to a different diagram")
        _, weights, lam = self.measure_eigenvector()
        return weights[self._vindex[path.vertices[-1]]] * lam ** (1 - path.depth)

    def is_properly_ordered(self):
        """Whether far enough down all minimal edges share a source and all
        maximal edges share a source; the witness explains the collapse."""
        witness = self.substitution_read().properness_witness()
        return witness is not None, witness

    # -- paths -------------------------------------------------------------

    def minimal_path(self, depth, end_vertex=None):
        return self._extremal_path(depth, end_vertex, "min")

    def maximal_path(self, depth, end_vertex=None):
        return self._extremal_path(depth, end_vertex, "max")

    def _extremal_path(self, depth, end_vertex, side):
        _require_positive_int(depth, "depth")
        if end_vertex is None:
            # global chain endpoints: towers are visited in label order
            end_vertex = self.vertices[0 if side == "min" else -1]
        if end_vertex not in self._vindex:
            raise DomainError("unknown vertex %r" % end_vertex)
        vertices = [end_vertex]
        choices = []
        for _ in range(depth - 1):
            order = self.orders[vertices[0]]
            pos = 0 if side == "min" else order.length - 1
            choices.insert(0, pos)
            vertices.insert(0, order.first if side == "min" else order.last)
        if side == "min":
            root = 0
        else:
            root = self.level0[self._vindex[vertices[0]]] - 1
        return FinitePath._derived(self, vertices, root, choices)

    def vershik_successor(self, path):
        """Next path in the chain order, or None past the maximal path.

        The one-step Vershik map for an arbitrary path: scans outward
        from the root for the first edge with a later position in its
        order word, advances it, and resets everything closer to the root
        to the minimal path into the new source.  A path that is maximal
        into its terminal vertex continues at the minimal path into the
        next vertex in label order.  A step copies the path and reads
        letters by position; chain_paths walks the whole order faster.
        """
        if path.diagram is not self:
            raise DomainError("path belongs to a different diagram")
        root_cap = self.level0[self._vindex[path.vertices[0]]]
        if path.root_index + 1 < root_cap:
            return FinitePath._derived(self, path.vertices,
                                       path.root_index + 1, path.choices)
        vertices = list(path.vertices)
        choices = list(path.choices)
        for i, pos in enumerate(choices):
            order = self.orders[vertices[i + 1]]
            if pos + 1 < order.length:
                choices[i] = pos + 1
                vertices[i] = order.letter_at(pos + 1)
                for j in range(i - 1, -1, -1):
                    inner = self.orders[vertices[j + 1]]
                    choices[j] = 0
                    vertices[j] = inner.first
                return FinitePath._derived(self, vertices, 0, choices)
        t = self._vindex[vertices[-1]]
        if t + 1 < len(self.vertices):
            return self.minimal_path(path.depth, self.vertices[t + 1])
        return None

    def chain_paths(self, depth):
        """All depth-level paths: adic order inside each terminal vertex,
        terminal vertices visited in label order, as vershik_successor
        steps from minimal_path(depth).

        The lowest `low` levels come from a table (_low_table): for each
        vertex, every path of those levels that ends there, in adic
        order.  When low == depth the walk yields the rows.  Otherwise an
        odometer on mutable lists turns the levels above: level i >= low
        keeps a run index into the order word of vertices[i + 1] and the
        end of that run, level low - 1 turns in an inner loop over the
        runs of vertices[low], each of its positions yields one path per
        row of the table at its letter, and a carry resets the levels
        below it to first letters.  The upper tuples are built once per
        carry, so a path costs two tuple joins, and the carries stay
        O(1) amortized steps per path.

        The table builds at most TABLE_EDGE_CAP edges, which bounds its
        memory and the work before the first path.  A level that would
        pass the cap, as one over an order word of many or huge runs
        does, is left to the odometer, so the walk stays lazy.
        """
        _require_positive_int(depth, "depth")
        low, table = self._low_table(depth)
        new = FinitePath.__new__
        if low == depth:
            for end in self.vertices:
                for vs, cs, r in table[end]:
                    path = new(FinitePath)
                    path.diagram, path.vertices = self, vs
                    path.root_index, path.choices = r, cs
                    yield path
            return
        runs = {v: w.runs for v, w in self.orders.items()}
        lengths = {v: w.length for v, w in self.orders.items()}
        top = depth - 1
        for end in self.vertices:
            vertices = [end] * depth
            choices, run, ends = [0] * top, [0] * top, [0] * top
            i = top
            while True:
                for j in range(i - 1, low - 1, -1):
                    vertices[j], ends[j] = runs[vertices[j + 1]][0]
                    choices[j] = run[j] = 0
                up_vs = tuple(vertices[low:])
                up_cs = tuple(choices[low:])
                pos = 0
                for letter, count in runs[vertices[low]]:
                    rows = table[letter]
                    for p in range(pos, pos + count):
                        mid = (p,) + up_cs
                        for vs, cs, r in rows:
                            path = new(FinitePath)
                            path.diagram, path.vertices = self, vs + up_vs
                            path.root_index, path.choices = r, cs + mid
                            yield path
                    pos += count
                i = low
                while i < top:
                    above = vertices[i + 1]
                    pos = choices[i] + 1
                    if pos == lengths[above]:
                        i += 1
                        continue
                    choices[i] = pos
                    if pos == ends[i]:
                        run[i] += 1
                        vertices[i], count = runs[above][run[i]]
                        ends[i] += count
                    break
                else:
                    break

    def _low_table(self, depth):
        """(low, table): table[v] lists (vertices, choices, root index) of
        every path of the lowest `low` levels that ends at v, in adic
        order.

        Level 1 holds the root edges; each further level is read off the
        runs of the order words.  The table grows while low < depth and
        the edges of every level built so far (rows times levels, summed)
        stay within TABLE_EDGE_CAP.  Counting edges, not rows, keeps a
        diagram whose path counts grow slowly or not at all from building
        thousands of ever longer levels before its first path.  When the
        root edges alone pass the cap, level 1 is made on each pass
        (_RootEdges).
        """
        if sum(self.level0) > TABLE_EDGE_CAP:
            return 1, {v: _RootEdges(v, m)
                       for v, m in zip(self.vertices, self.level0)}
        table = {v: [((v,), (), r) for r in range(m)]
                 for v, m in zip(self.vertices, self.level0)}
        runs = [(v, w.runs) for v, w in self.orders.items()]
        low, spent = 1, sum(self.level0)
        while low < depth:
            room, rows = (TABLE_EDGE_CAP - spent) // (low + 1), 0
            for _, word in runs:
                for letter, count in word:
                    rows += count * len(table[letter])
                    if rows > room:
                        return low, table
            spent += rows * (low + 1)
            level = {}
            for v, word in runs:
                out, pos, tail = [], 0, (v,)
                for letter, count in word:
                    below = table[letter]
                    for p in range(pos, pos + count):
                        mid = (p,)
                        out.extend([(vs + tail, cs + mid, r)
                                    for vs, cs, r in below])
                    pos += count
                level[v] = out
            table = level
            low += 1
        return low, table

    def export_dot(self, depth):
        """Deterministic DOT drawing of the first levels, refused past
        DOT_EDGE_CAP edges."""
        _require_positive_int(depth, "depth")
        order_lengths = {v: self.orders[v].length for v in self.vertices}
        total = sum(self.level0)
        total += (depth - 1) * sum(order_lengths.values())
        if total > DOT_EDGE_CAP:
            raise CapabilityError("diagram slice has %d edges, over the edge "
                                  "budget of %d" % (total, DOT_EDGE_CAP))
        # vertex names may hold quotes and backslashes: escape them once
        esc = {v: v.replace("\\", "\\\\").replace('"', '\\"')
               for v in self.vertices}
        lines = ["digraph bratteli {", "  rankdir=TB;", '  root [shape=point];']
        for level in range(depth):
            for v in self.vertices:
                lines.append('  "L%d_%s" [label="%s"];' % (level, esc[v], esc[v]))
        for i, v in enumerate(self.vertices):
            for e in range(self.level0[i]):
                lines.append('  root -> "L0_%s" [label="%d"];' % (esc[v], e))
        for level in range(1, depth):
            for v in self.vertices:
                word = self.orders[v].expand()
                for pos, w in enumerate(word):
                    lines.append('  "L%d_%s" -> "L%d_%s" [label="%d"];'
                                 % (level - 1, esc[w], level, esc[v], pos))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "OrderedDiagram(vertices=%r)" % (self.vertices,)


class _RootEdges:
    """The level-1 rows into one vertex, one per root edge, made on each
    pass: a root multiplicity past the table cap costs nothing unwalked."""

    __slots__ = ("vertex", "count")

    def __init__(self, vertex, count):
        self.vertex, self.count = vertex, count

    def __iter__(self):
        vertices = (self.vertex,)
        for r in range(self.count):
            yield vertices, (), r


class FinitePath:
    """A root edge plus a chain of ordered edges through the levels."""

    __slots__ = ("diagram", "vertices", "root_index", "choices")

    def __init__(self, diagram, vertices, root_index, choices):
        vertices = tuple(vertices)
        choices = tuple(choices)
        if not vertices:
            raise PathError("path needs at least one vertex")
        if len(choices) != len(vertices) - 1:
            raise PathError("choice count does not match the vertex count")
        for v in vertices:
            if v not in diagram._vindex:
                raise PathError("unknown vertex %r" % v)
        cap = diagram.level0[diagram._vindex[vertices[0]]]
        if type(root_index) is not int or not 0 <= root_index < cap:
            raise PathError("root edge index out of range")
        for i, pos in enumerate(choices):
            order = diagram.orders[vertices[i + 1]]
            if type(pos) is not int or not 0 <= pos < order.length:
                raise PathError("edge position out of range at level %d" % (i + 1))
            if order.letter_at(pos) != vertices[i]:
                raise PathError("edge source mismatch at level %d" % (i + 1))
        self.diagram = diagram
        self.vertices = vertices
        self.root_index = root_index
        self.choices = choices

    @classmethod
    def _derived(cls, diagram, vertices, root_index, choices):
        """A path built by the diagram itself, stored without the checks.

        Extremal paths and Vershik successors are valid by construction:
        every choice is a position inside the order word of the next
        vertex, and every vertex is the letter read at that position.
        Lists are copied into fresh tuples.  chain_paths builds its paths
        the same way, inline, from tuples it has already joined.
        """
        path = cls.__new__(cls)
        path.diagram = diagram
        path.vertices = tuple(vertices)
        path.root_index = root_index
        path.choices = tuple(choices)
        return path

    @property
    def depth(self):
        return len(self.vertices)

    def is_maximal(self):
        cap = self.diagram.level0[self.diagram._vindex[self.vertices[0]]]
        if self.root_index != cap - 1:
            return False
        return all(pos == self.diagram.orders[self.vertices[i + 1]].length - 1
                   for i, pos in enumerate(self.choices))

    def is_minimal(self):
        return self.root_index == 0 and all(p == 0 for p in self.choices)

    def __eq__(self, other):
        if not isinstance(other, FinitePath):
            return NotImplemented
        return (self.diagram is other.diagram
                and self.vertices == other.vertices
                and self.root_index == other.root_index
                and self.choices == other.choices)

    def __hash__(self):
        return hash((id(self.diagram), self.vertices,
                     self.root_index, self.choices))

    def __repr__(self):
        return "FinitePath(%s, root=%s, positions=%r)" % (
            "->".join(self.vertices), _number_text(self.root_index),
            list(self.choices))


def diagram_from_substitution(subst, level0=None):
    """Stationary diagram whose order words are the substitution rules."""
    if level0 is None:
        level0 = (1,) * subst.size
    return OrderedDiagram(subst.alphabet,
                          subst.incidence_matrix().transpose(),
                          level0, dict(subst.rules))
