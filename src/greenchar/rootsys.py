"""Root systems for the Weyl families A through G.

Roots are generated by closing the simple roots under simple reflections
in simple-root coordinates.  Classical families additionally carry the
standard coordinate realization (type A lives in the full n-dimensional
permutation space), so Weyl elements stay readable as signed
permutations.  Exceptional families live in the abstract simple-root
basis with the symmetrized Cartan form as inner product.

Coordinates are plain integers: every simple root, root vector and
Gram entry is an int, except F4's two half-norms 1/2, the only place a
denominator is real.  Reflection matrices divide by the root's norm
and so hold Fractions; an int and an equal Fraction compare and hash
alike, so root membership does not care.

Simple roots are labeled 1..rank.  For E6/E7/E8 the labels follow the
convention where the branch node alpha_3 hangs off alpha_4 of the chain
alpha_1 - alpha_2 - alpha_4 - alpha_5 - alpha_6 (- alpha_7 - alpha_8);
this is not the Bourbaki numbering.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

def _expected_root_count(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1)
    if family in ("B", "C"):
        return 2 * rank * rank
    if family == "D":
        return 2 * rank * (rank - 1)
    return {("E", 6): 72, ("E", 7): 126, ("E", 8): 240,
            ("F", 4): 48, ("G", 2): 12}[(family, rank)]


def _classical_simple_roots(family: str, rank: int):
    if family == "A":
        dim = rank + 1
        simples = [tuple(1 if k == i else -1 if k == i + 1 else 0
                         for k in range(dim)) for i in range(rank)]
        return dim, simples
    dim = rank
    simples = [tuple(1 if k == i else -1 if k == i + 1 else 0
                     for k in range(dim)) for i in range(rank - 1)]
    if family == "B":
        simples.append(tuple(1 if k == rank - 1 else 0 for k in range(dim)))
    elif family == "C":
        simples.append(tuple(2 if k == rank - 1 else 0 for k in range(dim)))
    elif family == "D":
        simples.append(tuple(1 if k in (rank - 2, rank - 1) else 0
                             for k in range(dim)))
    return dim, simples


def _e_series_edges(rank: int):
    edges = [(1, 2), (2, 4), (4, 5), (5, 6), (3, 4)]
    if rank >= 7:
        edges.append((6, 7))
    if rank == 8:
        edges.append((7, 8))
    return edges


def _exceptional_cartan(family: str, rank: int):
    """Cartan matrix and the half-norms d_i of the simple roots."""
    if family == "E":
        edges = {frozenset(e) for e in _e_series_edges(rank)}
        cartan = [[2 if i == j else -1 if frozenset((i + 1, j + 1)) in edges else 0
                   for j in range(rank)] for i in range(rank)]
        d = [1] * rank
    elif family == "F":
        cartan = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
        d = [1, 1, Fraction(1, 2), Fraction(1, 2)]
    else:  # G2, alpha_1 short
        cartan = [[2, -3], [-1, 2]]
        d = [1, 3]
    return [tuple(row) for row in cartan], d


def _close_under_reflections(cartan):
    """All roots in simple-root coordinates, from reflection closure."""
    rank = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen = set(simples)
    queue = list(simples)
    while queue:
        beta = queue.pop()
        for i in range(rank):
            pairing = sum(cartan[i][j] * beta[j] for j in range(rank) if beta[j])
            if pairing == 0:
                continue
            new = list(beta)
            new[i] = beta[i] - pairing
            new = tuple(new)
            if new not in seen:
                seen.add(new)
                queue.append(new)
    return tuple(sorted(seen))


def _ambient(simple_roots, coords):
    vec = [0] * len(simple_roots[0])
    for c, alpha in zip(coords, simple_roots):
        if c:
            for k, a in enumerate(alpha):
                vec[k] += c * a
    return tuple(vec)


class RootSystem:
    """simple_roots are ambient vectors, 0-indexed by label - 1; gram is
    the ambient symmetric form; root_coords are the roots' coefficient
    tuples over the simple roots, roots the same roots as ambient
    vectors and root_set those again, for membership tests."""

    def __init__(self, *, family, rank, dim, cartan, simple_roots, gram,
                 root_coords, roots, root_set):
        self.family, self.rank, self.dim = family, rank, dim
        self.cartan, self.simple_roots, self.gram = cartan, simple_roots, gram
        self.root_coords, self.roots, self.root_set = root_coords, roots, root_set

    def __repr__(self):
        return f"RootSystem({self.family}{self.rank}, {len(self.roots)} roots)"

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def inner(self, u, v):
        """Symmetric pairing of two ambient vectors; scalars may be Cyclotomic."""
        total = 0
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self.gram[i]
            for j, vj in enumerate(v):
                if vj and row[j]:
                    total = total + ui * row[j] * vj
        return total

    def coords(self, root):
        """Simple-root coordinates of an ambient root vector."""
        return self.root_coords[self.roots.index(root)]

    def ambient(self, coords):
        """Ambient vector of a root given in simple-root coordinates."""
        return _ambient(self.simple_roots, coords)

    def reflection_matrix(self, alpha):
        """Matrix (tuple of rows) of the reflection through alpha, on the ambient space."""
        norm = self.inner(alpha, alpha)
        cols = []
        for c in range(self.dim):
            basis = tuple(1 if k == c else 0 for k in range(self.dim))
            coef = Fraction(2 * self.inner(basis, alpha), 1) / norm
            cols.append(tuple(basis[r] - coef * alpha[r] for r in range(self.dim)))
        return tuple(tuple(cols[c][r] for c in range(self.dim)) for r in range(self.dim))

    def simple_reflection(self, label: int):
        return self.reflection_matrix(self.simple_roots[label - 1])


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    family = family.upper()
    valid = (family == "A" and rank >= 1) or \
            (family in ("B", "C") and rank >= 2) or \
            (family == "D" and rank >= 3) or \
            (family == "E" and rank in (6, 7, 8)) or \
            (family == "F" and rank == 4) or \
            (family == "G" and rank == 2)
    if not valid:
        raise ValueError(f"no root system of type {family}{rank}")

    if family in ("A", "B", "C", "D"):
        dim, simples = _classical_simple_roots(family, rank)
        gram = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))

        def dot(u, v):
            return sum(a * b for a, b in zip(u, v))

        cartan = []
        for i in range(rank):
            row = []
            for j in range(rank):
                num = 2 * dot(simples[i], simples[j])
                den = dot(simples[i], simples[i])
                assert num % den == 0
                row.append(num // den)
            cartan.append(tuple(row))
        cartan = tuple(cartan)
        simple_vecs = tuple(simples)
    else:
        cartan_rows, d = _exceptional_cartan(family, rank)
        cartan = tuple(cartan_rows)
        dim = rank
        gram = tuple(tuple(d[i] * cartan[i][j] for j in range(rank))
                     for i in range(rank))
        for i in range(rank):
            for j in range(rank):
                assert gram[i][j] == gram[j][i]
        simple_vecs = tuple(tuple(int(j == i) for j in range(rank))
                            for i in range(rank))

    coords = _close_under_reflections(cartan)
    assert len(coords) == _expected_root_count(family, rank), \
        f"{family}{rank}: got {len(coords)} roots"

    ambient_roots = tuple(_ambient(simple_vecs, c) for c in coords)
    return RootSystem(
        family=family, rank=rank, dim=dim, cartan=cartan,
        simple_roots=simple_vecs, gram=gram, root_coords=coords,
        roots=ambient_roots, root_set=frozenset(ambient_roots))


def _component_arms(nodes, adj, branch):
    arms = []
    for nxt in adj[branch]:
        length = 1
        prev, cur = branch, nxt
        while True:
            ahead = [k for k in adj[cur] if k != prev]
            if not ahead:
                break
            prev, cur = cur, ahead[0]
            length += 1
        arms.append(length)
    return sorted(arms)


def _classify_component(nodes, cartan, norms):
    """Dynkin type of one connected subdiagram, as (letter, rank, nodes)."""
    nodes = tuple(sorted(nodes))
    adj = {i: [j for j in nodes if j != i and cartan[i - 1][j - 1] != 0] for i in nodes}
    bonds = {}
    for i in nodes:
        for j in adj[i]:
            if i < j:
                bonds[(i, j)] = cartan[i - 1][j - 1] * cartan[j - 1][i - 1]
    if any(m == 3 for m in bonds.values()):
        return ("G", 2, nodes)
    doubles = [p for p, m in bonds.items() if m == 2]
    if doubles:
        assert len(doubles) == 1
        i, j = doubles[0]
        if len(nodes) == 2:
            return ("B", 2, nodes)
        if len(adj[i]) == 2 and len(adj[j]) == 2 and len(nodes) == 4:
            return ("F", 4, nodes)
        end = i if len(adj[i]) == 1 else j
        other = j if end == i else i
        letter = "B" if norms[end - 1] < norms[other - 1] else "C"
        return (letter, len(nodes), nodes)
    degs = {i: len(adj[i]) for i in nodes}
    if not nodes:
        raise ValueError("empty component")
    if max(degs.values(), default=0) <= 2:
        return ("A", len(nodes), nodes)
    branch = [i for i in nodes if degs[i] == 3]
    assert len(branch) == 1, "unrecognized diagram"
    arms = _component_arms(nodes, adj, branch[0])
    if arms[0] == 1 and arms[1] == 1:
        return ("D", len(nodes), nodes)
    assert arms[0] == 1 and arms[1] == 2 and arms[2] in (2, 3, 4)
    return ("E", len(nodes), nodes)


class LeviConfig:
    """A subset Pi_L of the simple roots together with the derived data:
    the sub-root-system Phi_L it spans, the simple roots orthogonal to
    all of Pi_L, the root system those span, and its Dynkin components.
    """

    def __init__(self, *, parent, pi_L, pi_prime, phi_L_coords,
                 phi_Lprime_coords, components):
        self.parent, self.pi_L, self.pi_prime = parent, pi_L, pi_prime
        self.phi_L_coords, self.phi_Lprime_coords = phi_L_coords, phi_Lprime_coords
        self.components = components

    def crossing_roots(self):
        """Roots of the parent outside Phi_L, as ambient vectors."""
        inside = frozenset(self.phi_L_coords)
        return tuple(v for c, v in zip(self.parent.root_coords, self.parent.roots)
                     if c not in inside)


def levi_config(rs: RootSystem, pi_L) -> LeviConfig:
    pi_L = tuple(sorted(set(pi_L)))
    for i in pi_L:
        if not 1 <= i <= rs.rank:
            raise ValueError(f"simple root label {i} out of range for {rs.name}")

    def support(coords):
        return {k + 1 for k, c in enumerate(coords) if c}

    phi_L = tuple(c for c in rs.root_coords if support(c) <= set(pi_L))
    pi_prime = tuple(
        i for i in range(1, rs.rank + 1)
        if all(rs.inner(rs.simple_roots[i - 1], rs.simple_roots[j - 1]) == 0
               for j in pi_L))
    phi_Lp = tuple(c for c in rs.root_coords if support(c) <= set(pi_prime))

    norms = [rs.inner(s, s) for s in rs.simple_roots]
    remaining = set(pi_prime)
    comps = []
    while remaining:
        start = min(remaining)
        comp = {start}
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in remaining - comp:
                if rs.cartan[i - 1][j - 1] != 0:
                    comp.add(j)
                    frontier.append(j)
        remaining -= comp
        comps.append(_classify_component(comp, rs.cartan, norms))
    comps.sort()

    return LeviConfig(parent=rs, pi_L=pi_L, pi_prime=pi_prime,
                      phi_L_coords=phi_L, phi_Lprime_coords=phi_Lp,
                      components=tuple(comps))
