"""Root systems for the Weyl families A through G.

Roots are generated by closing the simple roots under simple reflections
in simple-root coordinates.  Classical families additionally carry the
standard coordinate realization (type A lives in the full n-dimensional
permutation space), so Weyl elements stay readable as signed
permutations.  Exceptional families live in the abstract simple-root
basis with the symmetrized Cartan form as inner product.

Coordinates are plain integers: every simple root, root vector and
Gram entry is an int, except F4's two half-norms 1/2, the only place a
denominator is real.  Reflection matrices divide exactly by the root's
norm and so hold ints too.  A Dynkin component is named by its number
of roots at its rank, from the table that checks every root system
built here, the norms of its simple roots breaking the ties.

Simple roots are labeled 1..rank.  For E6/E7/E8 the labels follow the
convention where the branch node alpha_3 hangs off alpha_4 of the chain
alpha_1 - alpha_2 - alpha_4 - alpha_5 - alpha_6 (- alpha_7 - alpha_8);
this is not the Bourbaki numbering.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

def _expected_root_count(family: str, rank: int):
    """Number of roots of the type at that rank (Bourbaki, Lie Groups and
    Lie Algebras VI, Plates I-IX), None when the type has no such rank."""
    if family == "A" and rank >= 1:
        return rank * (rank + 1)
    if family in ("B", "C") and rank >= 2:
        return 2 * rank * rank
    if family == "D" and rank >= 3:
        return 2 * rank * (rank - 1)
    return {("E", 6): 72, ("E", 7): 126, ("E", 8): 240,
            ("F", 4): 48, ("G", 2): 12}.get((family, rank))


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


def _exact(num, den) -> int:
    """num / den, which must be an integer."""
    quotient, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"{num} is not a multiple of {den}")
    return quotient


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
        """Symmetric pairing of two ambient vectors."""
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
        """Matrix (tuple of rows) of the reflection through alpha, on the
        ambient space: column c is e_c - (2<e_c, alpha>/<alpha, alpha>) alpha,
        the quotient exact for a root; any other vector raises
        ArithmeticError."""
        norm = self.inner(alpha, alpha)
        coefs = [_exact(2 * sum(g * a for g, a in zip(col, alpha)), norm)
                 for col in self.gram]
        return tuple(tuple(int(r == c) - coefs[c] * a for c in range(self.dim))
                     for r, a in enumerate(alpha))

    def simple_reflection(self, label: int):
        return self.reflection_matrix(self.simple_roots[label - 1])


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    family = family.upper()
    if _expected_root_count(family, rank) is None:
        raise ValueError(f"no root system of type {family}{rank}")

    if family in ("A", "B", "C", "D"):
        dim, simples = _classical_simple_roots(family, rank)
        gram = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))

        def dot(u, v):
            return sum(a * b for a, b in zip(u, v))

        cartan = tuple(tuple(_exact(2 * dot(si, sj), dot(si, si))
                             for sj in simples) for si in simples)
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


def _classify_component(nodes, cartan, norms):
    """Dynkin type of one connected subdiagram, as (letter, rank, nodes).

    The type is the one with as many roots at this rank as the
    subdiagram's Cartan matrix closes to.  A simply-laced diagram is A,
    D or E (A3 = D3 is A).  B_r has one short simple root and C_r has
    r - 1, so B is the type with one, and B2 = C2 is B."""
    nodes = tuple(sorted(nodes))
    rank = len(nodes)
    count = len(_close_under_reflections(
        [[cartan[i - 1][j - 1] for j in nodes] for i in nodes]))
    lengths = [norms[i - 1] for i in nodes]
    short = sum(n < max(lengths) for n in lengths)
    letter = next(f for f in ("BCFG" if short else "ADE")
                  if _expected_root_count(f, rank) == count)
    if letter == "B" and short > 1:
        letter = "C"
    return (letter, rank, nodes)


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

    # a root's support is connected, and each component's highest root
    # has the whole component as support: the largest supports are the
    # components
    comps = []
    for sup in sorted({frozenset(support(c)) for c in phi_Lp}, key=len,
                      reverse=True):
        if not any(sup <= comp for comp in comps):
            comps.append(sup)
    norms = [rs.inner(s, s) for s in rs.simple_roots]
    return LeviConfig(parent=rs, pi_L=pi_L, pi_prime=pi_prime,
                      phi_L_coords=phi_L, phi_Lprime_coords=phi_Lp,
                      components=tuple(sorted(_classify_component(
                          comp, rs.cartan, norms) for comp in comps)))
