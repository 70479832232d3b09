"""Stationary ordered Bratteli diagrams and their adic structure.

A diagram is stored by one incidence matrix F (rows index the deeper
level), the multiplicities of the edges leaving the root, and one order
word per vertex listing the sources of its incoming edges in order.
Diagrams and substitutions translate into each other by reading order
words as rules, with F the transpose of the substitution incidence.
"""

from .errors import CapabilityError, DomainError, PathError
from .matrix import primitivity_exponent
from .perron import measure_weights, perron_data
from .subst import Substitution
from .words import word_of

PATH_COUNT_BITS = 4096


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
        if not incidence.is_integer or not incidence.is_nonnegative:
            raise DomainError("incidence entries must be nonnegative integers")
        level0 = tuple(int(x) for x in level0)
        if len(level0) != k or any(m < 1 for m in level0):
            raise DomainError("every vertex needs at least one root edge")
        fixed = {}
        for i, v in enumerate(vertices):
            if v not in orders:
                raise DomainError("missing order word for vertex %r" % v)
            word = word_of(orders[v])
            counts = word.letter_counts()
            expected = {vertices[j]: int(incidence.at(i, j))
                        for j in range(k) if int(incidence.at(i, j))}
            if counts != expected:
                raise DomainError(
                    "order word of %r does not match its edge counts" % v)
            fixed[v] = word
        if set(orders) != set(vertices):
            raise DomainError("order words mention unknown vertices")
        for j, v in enumerate(vertices):
            if all(int(incidence.at(i, j)) == 0 for i in range(k)):
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
        if n_steps < 1:
            raise DomainError("telescope needs at least one step")
        subst = self.substitution_read().power(n_steps)
        f = self.incidence ** n_steps
        m = (self.incidence ** (n_steps - 1)).apply(self.level0)
        return OrderedDiagram(self.vertices, f, [int(x) for x in m],
                              dict(subst.rules))

    def path_counts(self, depth):
        """Numbers of root paths into each vertex, level by level.

        Refuses once a count needs more than PATH_COUNT_BITS bits, which
        keeps every count printable in decimal.
        """
        if depth < 1:
            raise DomainError("depth must be positive")
        rows = self.incidence.int_rows()
        h = self.level0
        out = []
        for level in range(1, depth + 1):
            if level > 1:
                h = tuple(sum(a * x for a, x in zip(row, h)) for row in rows)
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
        a = self.incidence.transpose()
        if primitivity_exponent(a) is None:
            raise DomainError("measure needs a primitive incidence matrix")
        pd = perron_data(a)
        self._measure = (pd.field, measure_weights(pd, self.level0), pd.lam)
        return self._measure

    def cylinder_measure(self, path):
        if path.diagram is not self:
            raise DomainError("path belongs to a different diagram")
        field, weights, lam = self.measure_eigenvector()
        v = self._vindex[path.vertices[-1]]
        scale = lam.inverse() ** (path.depth - 1)
        return weights[v] * scale

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
        if depth < 1:
            raise DomainError("depth must be positive")
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

        Scans outward from the root for the first edge with a later
        position in its order word, advances it, and resets everything
        closer to the root to the minimal path into the new source.  A
        path that is maximal into its terminal vertex continues at the
        minimal path into the next vertex in label order, so one walk
        from minimal_path(depth) covers every depth-level path.
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
        terminal vertices visited in label order."""
        path = self.minimal_path(depth)
        while path is not None:
            yield path
            path = self.vershik_successor(path)

    def export_dot(self, depth, edge_cap=500):
        """Deterministic DOT drawing of the first levels."""
        if depth < 1:
            raise DomainError("depth must be positive")
        order_lengths = {v: self.orders[v].length for v in self.vertices}
        total = sum(self.level0)
        total += (depth - 1) * sum(order_lengths.values())
        if total > edge_cap:
            raise CapabilityError("diagram slice has %d edges, over the edge "
                                  "budget of %d" % (total, edge_cap))
        lines = ["digraph bratteli {", "  rankdir=TB;", '  root [shape=point];']
        for level in range(depth):
            for v in self.vertices:
                lines.append('  "L%d_%s" [label="%s"];' % (level, v, v))
        for i, v in enumerate(self.vertices):
            for e in range(self.level0[i]):
                lines.append('  root -> "L0_%s" [label="%d"];' % (v, e))
        for level in range(1, depth):
            for v in self.vertices:
                word = self.orders[v].expand()
                for pos, w in enumerate(word):
                    lines.append('  "L%d_%s" -> "L%d_%s" [label="%d"];'
                                 % (level - 1, w, level, v, pos))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "OrderedDiagram(vertices=%r)" % (self.vertices,)


class FinitePath:
    """A root edge plus a chain of ordered edges through the levels."""

    def __init__(self, diagram, vertices, root_index, choices):
        vertices = tuple(vertices)
        choices = tuple(int(c) for c in choices)
        if not vertices:
            raise PathError("path needs at least one vertex")
        if len(choices) != len(vertices) - 1:
            raise PathError("choice count does not match the vertex count")
        for v in vertices:
            if v not in diagram._vindex:
                raise PathError("unknown vertex %r" % v)
        cap = diagram.level0[diagram._vindex[vertices[0]]]
        root_index = int(root_index)
        if not 0 <= root_index < cap:
            raise PathError("root edge index out of range")
        for i, pos in enumerate(choices):
            order = diagram.orders[vertices[i + 1]]
            if not 0 <= pos < order.length:
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

    def to_json(self):
        return {"vertices": list(self.vertices),
                "root_index": self.root_index,
                "positions": list(self.choices)}

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
        return "FinitePath(%s, root=%d, positions=%r)" % (
            "->".join(self.vertices), self.root_index, list(self.choices))


def diagram_from_substitution(subst, level0=None):
    """Stationary diagram whose order words are the substitution rules."""
    if level0 is None:
        level0 = (1,) * subst.size
    return OrderedDiagram(subst.alphabet,
                          subst.incidence_matrix().transpose(),
                          level0, dict(subst.rules))
