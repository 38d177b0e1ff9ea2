"""Expected answers, computed without the code under test.

Every input of the benchmark is a coordinate lattice: the full sub-sum
lattice of a direct sum of line bundles O(a) on P^d.  For those the
answers follow from the twists alone:

* a sum is Gieseker semistable iff all twists are equal, and the most
  destabilizing subobject is the sum of the summands of maximal twist;
* the HN members are the sub-sums of the summands with twist >= t, one
  per distinct twist t;
* the leading-term weights are proportional to (twist of the graded piece)
  minus (mean twist);
* chains of the lattice are the strictly decreasing chains of nonempty
  summand sets starting at the full set.

Polynomials here are plain {exponent: Fraction} dicts with zero terms
dropped; nothing from thetastab is imported.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm

Poly = dict[int, Fraction]


# -- polynomial arithmetic ----------------------------------------------------

def padd(p: Poly, q: Poly, scale: Fraction = Fraction(1)) -> Poly:
    """p + scale * q."""
    out = dict(p)
    for exp, c in q.items():
        out[exp] = out.get(exp, Fraction(0)) + scale * c
    return {e: c for e, c in out.items() if c}


def pscale(p: Poly, scale: Fraction) -> Poly:
    return {e: c * scale for e, c in p.items() if c * scale}


def psign(p: Poly) -> int:
    """Sign of p(n) for all large n."""
    if not p:
        return 0
    return 1 if p[max(p)] > 0 else -1


def pkey(p: Poly, top: int) -> tuple:
    """Sort key realizing the eventual-dominance order on polynomials with
    exponents in 0..top."""
    return tuple(p.get(e, Fraction(0)) for e in range(top, -1, -1))


def pjson(p: Poly) -> dict[str, str]:
    """The CLI's structured rendering of a polynomial."""
    return {str(e): str(c) for e, c in sorted(p.items())}


def line_bundle(d: int, a: int) -> Poly:
    """Hilbert polynomial of O(a) on P^d: prod_{j=1..d} (n + a + j) / d!."""
    coeffs = [Fraction(1)]  # index = exponent
    for j in range(1, d + 1):
        shifted = [Fraction(0)] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] += c * (a + j)
        coeffs = shifted
    return {e: c / factorial(d) for e, c in enumerate(coeffs) if c}


# -- coordinate lattices --------------------------------------------------------

class Coordinate:
    """The sub-sum lattice of line bundles with the given twists on P^d.

    Member ids follow the lattice-file convention: summand names joined by
    '+' in order of decreasing twist (then name), and 'F' for the whole sum.
    """

    def __init__(self, dim: int, twists: dict[str, int]):
        self.dim = dim
        self.twists = dict(twists)
        self.order = tuple(sorted(twists, key=lambda s: (-twists[s], s)))
        self.full = frozenset(self.order)
        self._polys = {s: line_bundle(dim, a) for s, a in twists.items()}
        self.proper = [
            frozenset(s for i, s in enumerate(self.order) if mask >> i & 1)
            for mask in range(1, (1 << len(self.order)) - 1)
        ]

    def member_id(self, subset) -> str:
        subset = frozenset(subset)
        if subset == self.full:
            return "F"
        return "+".join(s for s in self.order if s in subset)

    def subset(self, member_id: str) -> frozenset[str]:
        return self.full if member_id == "F" else frozenset(member_id.split("+"))

    def poly(self, subset) -> Poly:
        total: Poly = {}
        for s in subset:
            total = padd(total, self._polys[s])
        return total

    def reduced(self, subset) -> Poly:
        return pscale(self.poly(subset), Fraction(1, len(subset)))

    def a_coeff(self, subset, i: int) -> Fraction:
        """Factorial-normalized coefficient a_i = i! [n^i] P."""
        return self.poly(subset).get(i, Fraction(0)) * factorial(i)

    def mean_twist(self, subset) -> Fraction:
        return Fraction(sum(self.twists[s] for s in subset), len(subset))

    # -- Gieseker / HN / leading term ---------------------------------------

    def check(self) -> dict:
        top = max(self.twists.values())
        if all(a == top for a in self.twists.values()):
            return {"command": "check", "semistable": True, "witness": None}
        witness = self.member_id(s for s, a in self.twists.items() if a == top)
        return {"command": "check", "semistable": False, "witness": witness}

    def hn_chain(self) -> list[str]:
        levels = sorted(set(self.twists.values()))
        return [self.member_id(s for s, a in self.twists.items() if a >= t) for t in levels]

    def gradeds(self, chain: list[str]) -> list[frozenset[str]]:
        sets = [self.subset(m) for m in chain]
        return [s - (sets[i + 1] if i + 1 < len(sets) else frozenset()) for i, s in enumerate(sets)]

    def leading_weights(self) -> list[int]:
        mu = self.mean_twist(self.full)
        return primitive([Fraction(t) - mu for t in sorted(set(self.twists.values()))])

    def nu(self, chain: list[str], weights: list[int], delta: Poly | None = None) -> tuple[Poly, Fraction]:
        """(L, b) of the weighted chain, twisted by delta when given."""
        top = self.reduced(self.full)
        L: Poly = {}
        mass = Fraction(0)
        b = Fraction(0)
        for w, g in zip(weights, self.gradeds(chain)):
            r = len(g)
            L = padd(L, padd(self.reduced(g), top, Fraction(-1)), Fraction(w * r))
            mass += w * r
            b += r * w * w
        if delta:
            L = padd(L, delta, -mass / len(self.full))
        return L, b

    def polytope(self) -> dict:
        """Hull of the origin and (-a_i, rank) over the leading-term chain."""
        index = self.dim - 1
        chain = self.hn_chain()
        points = [(Fraction(0), Fraction(0))]
        points += [(-self.a_coeff(self.subset(m), index), Fraction(len(self.subset(m)))) for m in chain]
        vertices = [[str(x), str(y)] for x, y in hull(points)]
        return {"command": "polytope", "index": index, "chain": chain, "vertices": vertices}

    # -- pairs ------------------------------------------------------------------

    def pair_verdict(self, beta: frozenset[str], delta: Poly) -> tuple[bool, str | None]:
        """Pair semistability (regime split, then the Le Potier criterion)."""
        sign = psign(delta)
        if sign == 0:
            verdict = self.check()
            return verdict["semistable"], verdict["witness"]
        if sign < 0:
            return False, None
        if max(delta) >= self.dim:
            return (True, None) if beta == self.full else (False, self.member_id(beta))
        threshold = padd(self.reduced(self.full), delta, Fraction(1, len(self.full)))
        worst = None
        for s in self.proper:
            bound = self.reduced(s)
            if beta <= s:
                bound = padd(bound, delta, Fraction(1, len(s)))
            margin = padd(bound, threshold, Fraction(-1))
            if psign(margin) > 0:
                key = (pkey(margin, self.dim), len(s), self.member_id(s))
                worst = key if worst is None or key > worst else worst
        return worst is None, None if worst is None else worst[2]

    def top_unstable(self, beta: frozenset[str], delta: Poly) -> bool:
        """The criterion read on the n^(d-1) coefficient only; this is the
        case in which the closed-form maximizer finds a positive value."""
        e = self.dim - 1
        top = self.reduced(self.full).get(e, Fraction(0)) + delta.get(e, Fraction(0)) / len(self.full)
        for s in self.proper:
            bound = self.reduced(s).get(e, Fraction(0))
            if beta <= s:
                bound += delta.get(e, Fraction(0)) / len(s)
            if bound > top:
                return True
        return False

    # -- chains and the oracle's candidate count ----------------------------------

    def chain_shapes(self, beta: frozenset[str] | None) -> list[tuple[int, int | None]]:
        """(length, pivot index) of every chain; pivot None without a pair."""
        shapes = []

        def extend(sets: list[frozenset[str]]) -> None:
            pivot = None
            if beta is not None:
                pivot = max(j for j, s in enumerate(sets) if beta <= s)
            shapes.append((len(sets), pivot))
            last = sets[-1]
            for sub in self.proper:
                if sub < last:
                    extend(sets + [sub])

        extend([self.full])
        return shapes


def feasible(length: int, pivot: int | None, bound: int) -> int:
    """Strictly increasing weight vectors in [-W, W] of the given length with
    w[pivot] >= 0, less the all-zero vector of the trivial chain."""
    if pivot is None:
        count = comb(2 * bound + 1, length)
    else:
        # i entries below zero, and the pivot entry (index pivot) at or above it
        count = sum(comb(bound, i) * comb(bound + 1, length - i) for i in range(pivot + 1))
    return count - (1 if length == 1 else 0)


def fubini(k: int) -> int:
    """Ordered set partitions of k items: the chain count of a k-summand lattice."""
    table = [1]
    for n in range(1, k + 1):
        table.append(sum(comb(n, i) * table[n - i] for i in range(1, n + 1)))
    return table[k]


def primitive(values: list[Fraction]) -> list[int]:
    scale = lcm(*(Fraction(v).denominator for v in values))
    ints = [int(Fraction(v) * scale) for v in values]
    common = gcd(*ints)
    return [v // common for v in ints] if common > 1 else ints


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(points) -> list[tuple[Fraction, Fraction]]:
    """Convex hull, counter-clockwise from the lexicographic minimum, without
    collinear vertices (Andrew's monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list = []
    upper: list = []
    for seq, out in ((pts, lower), (pts[::-1], upper)):
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
    vertices = lower[:-1] + upper[:-1]
    return vertices if len(vertices) >= 2 else [pts[0], pts[-1]]
