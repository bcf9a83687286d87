"""Type-A extended affine Weyl group, alcoves, walls, and point classification.

Points live in the quotient of rational n-space by constant vectors and are
canonicalized to mean zero.  The base alcove is

    a_n + 1 >= a_1 >= a_2 >= ... >= a_n,

its walls in order are H^0_{1,2}, ..., H^0_{n-1,n}, H^{-1}_{n,1}.
Classification maps a regular point into the base alcove by a translation
and a sort; points on a wall return the list of walls through them.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor


class AlcoveError(ValueError):
    pass


def _fr(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class AffinePoint:
    """A rational point of the (mean-zero) Cartan quotient."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = [_fr(c) for c in coords]
        mean = sum(coords, Fraction(0)) / len(coords)
        self.coords = tuple(c - mean for c in coords)

    @property
    def n(self):
        return len(self.coords)

    def is_regular(self):
        n = self.n
        for i in range(n):
            for j in range(i + 1, n):
                if (self.coords[i] - self.coords[j]).denominator == 1:
                    return False
        return True

    def walls_through(self):
        n = self.n
        out = []
        for i in range(n):
            for j in range(i + 1, n):
                d = self.coords[i] - self.coords[j]
                if d.denominator == 1:
                    out.append(Wall(i + 1, j + 1, int(d)))
        return out

    def __eq__(self, other):
        return isinstance(other, AffinePoint) and self.coords == other.coords

    def __repr__(self):
        return f"AffinePoint({', '.join(str(c) for c in self.coords)})"


class Wall:
    """The hyperplane a_i - a_j = k, canonicalized with i < j."""

    __slots__ = ("i", "j", "k")

    def __init__(self, i, j, k):
        if i == j:
            raise AlcoveError("wall needs distinct indices")
        if i > j:
            i, j, k = j, i, -k
        self.i, self.j, self.k = i, j, int(k)

    def key(self):
        return (self.i, self.j, self.k)

    def __eq__(self, other):
        return isinstance(other, Wall) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"H^{self.k}_({self.i},{self.j})"


class ExtAffineWeylElt:
    """(sigma, m): permute after translating; acts as x -> sigma(x + m).

    sigma is a tuple with sigma[i] = image of i+1 (1-based values); the
    translation class m is stored with last coordinate zero.
    """

    __slots__ = ("sigma", "m")

    def __init__(self, sigma, m):
        self.sigma = tuple(sigma)
        shift = m[-1]
        self.m = tuple(int(x - shift) for x in m)

    @property
    def n(self):
        return len(self.sigma)

    def is_affine_weyl(self):
        """Whether the translation class lies in the image of the coroot lattice."""
        return sum(self.m) % self.n == 0

    def apply(self, x: AffinePoint) -> AffinePoint:
        n = self.n
        out = [Fraction(0)] * n
        for idx in range(n):
            out[self.sigma[idx] - 1] = x.coords[idx] + self.m[idx]
        return AffinePoint(out)

    def apply_wall(self, w: Wall) -> Wall:
        # x on w iff x_i - x_j = k; image point y = sigma(x+m):
        # y_{sigma(i)} - y_{sigma(j)} = k + m_i - m_j
        return Wall(
            self.sigma[w.i - 1],
            self.sigma[w.j - 1],
            w.k + self.m[w.i - 1] - self.m[w.j - 1],
        )

    def compose(self, other: "ExtAffineWeylElt") -> "ExtAffineWeylElt":
        """(s1,m1)*(s2,m2) = (s1 s2, s2^{-1}(m1) + m2); self acts after other."""
        n = self.n
        s1, m1 = self.sigma, self.m
        s2, m2 = other.sigma, other.m
        sigma = tuple(s1[s2[i] - 1] for i in range(n))
        m = tuple(m1[s2[i] - 1] + m2[i] for i in range(n))
        return ExtAffineWeylElt(sigma, m)

    def inverse(self) -> "ExtAffineWeylElt":
        n = self.n
        inv = [0] * n
        for i in range(n):
            inv[self.sigma[i] - 1] = i + 1
        m = tuple(-self.m[inv[i] - 1] for i in range(n))
        return ExtAffineWeylElt(tuple(inv), m)

    def key(self):
        return (self.sigma, self.m)

    def __eq__(self, other):
        return isinstance(other, ExtAffineWeylElt) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"w(sigma={self.sigma}, m={self.m})"


def in_alcove(w: ExtAffineWeylElt, x: AffinePoint):
    """Membership in the open alcove Q_w via its chain of strict inequalities."""
    q = w.inverse().apply(x)
    a = q.coords
    n = len(a)
    chain = [a[i] - a[i + 1] for i in range(n - 1)] + [a[n - 1] + 1 - a[0]]
    return all(c > 0 for c in chain)


def classify(x: AffinePoint):
    """The alcove of x, in closed form.

    Regular points return the unique affine Weyl element w with x in w(Q);
    wall points return the list of walls through x.  At a regular point the
    fractional parts r_i = x_i - floor(x_i) are distinct, and sorted
    decreasingly they satisfy r_(1) > ... > r_(n) > r_(1) - 1.  So the
    translation by -floor(x) followed by that sort maps x into Q, and its
    inverse w0 has x in w0(Q).  The rotation rho of Q generates the
    stabilizer of Q in the extended group and adds 1 mod n to the
    translation class, so one w0 rho^k with 0 <= k < n is affine Weyl.
    """
    if not x.is_regular():
        return x.walls_through()
    n = x.n
    floors = [floor(c) for c in x.coords]
    order = sorted(range(n), key=lambda i: x.coords[i] - floors[i], reverse=True)
    sigma = [0] * n
    for k, i in enumerate(order):
        sigma[i] = k + 1
    w = ExtAffineWeylElt(sigma, [-f for f in floors]).inverse()
    # rho: (a_1, ..., a_n) -> (a_n + 1, a_1, ..., a_{n-1})
    rho = ExtAffineWeylElt(tuple(range(2, n + 1)) + (1,), (0,) * (n - 1) + (1,))
    while not w.is_affine_weyl():
        w = w.compose(rho)
    if not in_alcove(w, x):
        raise AlcoveError("internal: the closed form produced a wrong alcove")
    return w


def walls_of(w: ExtAffineWeylElt):
    """The n bounding walls of Q_w in the standard order (n-th is affine)."""
    n = w.n
    base = [Wall(i, i + 1, 0) for i in range(1, n)] + [Wall(n, 1, -1)]
    return [w.apply_wall(h) for h in base]
